"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances and time budgets are pinned here.
"""

import json
import random
import time
from fractions import Fraction

from mpmath import mp

import bergshift as bs
from bergshift.cli import dispatch


class _Criterion:
    def __init__(self, number, name, budget_seconds, capsys=None):
        self.number = number
        self.name = name
        self.budget = budget_seconds
        self.capsys = capsys

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:>2} {status} [{elapsed:7.2f}s / "
              f"{self.budget:>4.0f}s] {self.name}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)")
        return False


def _cli_json(capsys, *argv):
    code = dispatch(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_c01_identity_law(capsys):
    with _Criterion(1, "identity operator has weight 1", 1.0):
        code, payload = _cli_json(capsys, "weight", "--p", "0", "--symbol", "1")
        assert code == 0
        assert payload["weight"] == "1"


def test_c02_monomial_weight_displays():
    with _Criterion(2, "monomial weights equal (z+2p)/(z+p+n) exactly", 1.0):
        for p in range(1, 6):
            for n in range(1, 9):
                got = bs.toeplitz_weight(p, bs.RadialSymbol.monomial(n))
                expected = bs.monomial_weight(p, n)
                assert got.as_rational() == expected, (p, n)


def test_c03_quadrature_cross_check():
    with _Criterion(3, "quadrature oracle within 1e-10 of exact weights", 30.0):
        for p in range(0, 5):
            for n in range(1, 9):
                phi = bs.RadialSymbol.monomial(n)
                weight = bs.toeplitz_weight(p, phi)
                for k in range(0, 31):
                    exact = weight.eval_exact(Fraction(2 * k + 2))
                    got = bs.bergman_quadrature_oracle(p, phi, k, digits=16)
                    diff = abs(got.value - mp.mpf(exact.numerator) / exact.denominator)
                    assert diff <= mp.mpf("1e-10"), (p, n, k)


def test_c04_root_telescoping():
    with _Criterion(4, "p-fold root composition reduces to the monomial weight", 10.0):
        for p in range(1, 5):
            for n in range(1, 9):
                power = bs.ShiftSum.identity()
                root = bs.root_operator(p, n)
                for _ in range(p):
                    power = bs.compose(root, power)
                expected = bs.toeplitz_weight(p, bs.RadialSymbol.monomial(n))
                assert power.weight_at(p) == expected, (p, n)


def test_c05_rationality_decision_equals_oracle():
    with _Criterion(5, "divisibility criterion == reduction oracle, exhaustive", 60.0):
        disagreements = 0
        for delta in (1, 2, 3):
            td = 2 * delta
            for a in range(13):
                for b in range(13):
                    for c in range(13):
                        for d in range(13):
                            expr = bs.GammaRatioExpr.of(td, [a, b], [c, d])
                            if (bs.is_rational_divisibility(a, b, c, d, delta)
                                    != bs.rationality_oracle(expr)):
                                disagreements += 1
        assert disagreements == 0


def _check_theorem(capsys, p, s, n, d):
    code, payload = _cli_json(
        capsys, "verify-theorem", "--p", str(p), "--s", str(s), "--n", str(n),
        "--d", str(d), "--bound", "8", "--K", "60")
    assert code == 0
    assert payload["pass"] is True
    assert payload["c"] == "1"
    assert payload["operator_dimension"] == 1
    cells = {(c["m"], c["l"]): c for c in payload["scan"]["cells"]}
    for (m, l), cell in cells.items():
        assert cell["dim"] == cell["floor"], (m, l)
        if (m, l) != (p, s):
            assert cell["dim"] == 0, (m, l)
    return payload


def _matching_dim(p, s, n, d, K):
    prob = bs.CommutantProblem(p=p, s=s, n=n, d=d, m=p, l=s, K=K)
    return bs.nullspace(prob).dimension


def test_c06_theorem_base_instance(capsys):
    with _Criterion(6, "commutant verification at (1,2,2,3), K=60", 120.0):
        payload = _check_theorem(capsys, 1, 2, 2, 3)
        assert payload["sequence_dimension"] == 1
        # dimensions stable across K = 40, 50, 60
        assert {_matching_dim(1, 2, 2, 3, K) for K in (40, 50, 60)} == {1}
        # excluded pair stays empty across the same range
        for K in (40, 60):
            prob = bs.CommutantProblem(p=1, s=2, n=2, d=3, m=2, l=3, K=K)
            assert bs.nullspace(prob).dimension == 0


def test_c07_theorem_double_degree_regime(capsys):
    with _Criterion(7, "commutant verification at (2,4,3,5), K=60", 120.0):
        payload = _check_theorem(capsys, 2, 4, 3, 5)
        # the sequence nullspace splits over gcd(2,4)=2 residue classes;
        # the operator-realizable subspace is the single reported line
        assert payload["residue_classes"] == 2
        assert payload["sequence_dimension"] == 2
        assert {_matching_dim(2, 4, 3, 5, K) for K in (40, 50, 60)} == {2}


def test_c08_theorem_odd_multiple_regime(capsys):
    with _Criterion(8, "commutant verification at (1,2,3,6), K=60", 120.0):
        payload = _check_theorem(capsys, 1, 2, 3, 6)
        assert payload["sequence_dimension"] == 1


def test_c09_functional_identity():
    with _Criterion(9, "functional identity: constant ratio vs refutation", 10.0):
        good = bs.verify_identity("functional", 1, 2, 2, 3, m=1, l=2,
                                  sample_zs=[Fraction(2 * k + 2) for k in range(50)],
                                  precision_bits=200)
        assert good.verdict == "proportional"
        assert good.both_sides_zero  # exact form of ratio constancy
        bad = bs.verify_identity("functional", 1, 2, 2, 3, m=2, l=3,
                                 sample_zs=[Fraction(2 * k + 2) for k in range(50)],
                                 precision_bits=200)
        assert bad.verdict == "not_proportional"
        assert bad.witnesses


def test_c10_algebra_property_suite():
    with _Criterion(10, "500 randomized exact algebra cases per law", 30.0):
        rng = random.Random(1234321)

        def random_op():
            return bs.quasihomogeneous_operator(
                rng.randint(0, 3), bs.RadialSymbol.monomial(rng.randint(1, 6)))

        for _ in range(500):
            a, b, c = random_op(), random_op(), random_op()
            assert bs.compose(bs.compose(a, b), c) == bs.compose(a, bs.compose(b, c))
        for _ in range(500):
            a, b, c = random_op(), random_op(), random_op()
            x, y = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            assert bs.commutator(a, b) == bs.linear_combine(
                [(-1, bs.commutator(b, a))])
            lhs = bs.commutator(bs.linear_combine([(x, a), (y, b)]), c)
            rhs = bs.linear_combine(
                [(x, bs.commutator(a, c)), (y, bs.commutator(b, c))])
            assert lhs == rhs
        for _ in range(500):
            a, b, c = random_op(), random_op(), random_op()
            jac = bs.linear_combine([
                (1, bs.commutator(a, bs.commutator(b, c))),
                (1, bs.commutator(b, bs.commutator(c, a))),
                (1, bs.commutator(c, bs.commutator(a, b))),
            ])
            assert jac.is_zero


def test_c11_degenerate_pair_detection(capsys):
    with _Criterion(11, "commuting pure-shift pair marked outside hypotheses", 5.0):
        assert bs.commuting_pair(1, 1, 2, 2)
        code, payload = _cli_json(
            capsys, "scan", "--p", "1", "--s", "2", "--n", "1", "--d", "2",
            "--bound", "8", "--K", "20")
        assert code == 2
        assert payload["outside_hypotheses"] is True
        assert payload["nondegenerate"] is False
