"""Truncated commutant systems: construction, nullspaces, scans, verdicts."""

from fractions import Fraction

import pytest

from bergshift.exact_algebra import rf_eval
from bergshift.mellin import RadialSymbol
from bergshift.shift_algebra import commutator, linear_combine, quasihomogeneous_operator
from bergshift.solver import (
    CommutantProblem,
    ExactLinearSystem,
    build_system,
    class_sample_vectors,
    commuting_pair,
    match_root_power,
    monomial_weight,
    nullspace,
    scan,
    vector_in_nullspace,
    verify_theorem,
)


def reference_vector(prob):
    """(Phi, Psi) samples: the solution the commutant theorem predicts."""
    phi = monomial_weight(prob.p, prob.n)
    psi = monomial_weight(prob.s, prob.d)
    f = [rf_eval(phi, Fraction(2 * k + 2)) for k in range(prob.K + 1)]
    g = [rf_eval(psi, Fraction(2 * k + 2)) for k in range(prob.K + 1)]
    return tuple(f + g)


class TestProblemValidation:
    def test_accepts_valid(self):
        CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=10)

    @pytest.mark.parametrize("kwargs", [
        dict(p=2, s=2, n=1, d=1, m=1, l=1, K=10),   # p = s
        dict(p=1, s=2, n=1, d=1, m=2, l=2, K=10),   # m = l
        dict(p=1, s=2, n=1, d=1, m=1, l=3, K=10),   # balance broken
        dict(p=1, s=2, n=1, d=1, m=1, l=2, K=1),    # K too small
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CommutantProblem(**kwargs)

    def test_nondegeneracy_computed(self):
        assert CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=10).nondegenerate()
        assert not CommutantProblem(p=1, s=2, n=1, d=2, m=1, l=2, K=10).nondegenerate()


class TestBuildSystem:
    def test_first_family_row_values(self):
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=5)
        sys_ = build_system(prob)
        row = sys_.rows[0]
        assert row.label == "first[k=0]"
        assert dict(row.coeffs) == {1: Fraction(4, 5), 0: Fraction(-6, 7)}

    def test_single_mixed_family_degree(self):
        # m + s = l + p keeps family three single-degree
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=8)
        assert prob.m + prob.s == prob.l + prob.p == 3

    def test_row_counts(self):
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=10)
        sys_ = build_system(prob)
        # K-p+1 first rows, K-s+1 second and mixed rows each
        assert len(sys_.rows) == (10 - 1 + 1) + 2 * (10 - 2 + 1)

    def test_reference_vector_satisfies_system(self):
        for p, s, n, d in ((1, 2, 2, 3), (1, 3, 4, 2), (2, 3, 1, 5), (2, 4, 3, 5)):
            prob = CommutantProblem(p=p, s=s, n=n, d=d, m=p, l=s, K=25)
            assert vector_in_nullspace(build_system(prob), reference_vector(prob))


class TestNullspace:
    def test_empty_system_is_full_space(self):
        rep = nullspace(ExactLinearSystem(rows=(), num_unknowns=5))
        assert rep.dimension == 5
        assert len(rep.basis) == 5

    def test_matching_pair_dimension_one(self):
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=30)
        rep = nullspace(build_system(prob))
        assert rep.dimension == 1
        assert rep.stable
        assert rep.proportionality == Fraction(1)
        # normalized basis is exactly the reference samples
        assert rep.basis[0] == reference_vector(prob)

    def test_excluded_pair_dimension_zero(self):
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=2, l=3, K=30)
        rep = nullspace(build_system(prob))
        assert rep.dimension == 0
        assert rep.stable

    def test_basis_vectors_verified_exactly(self):
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=20)
        sys_ = build_system(prob)
        for vec in nullspace(sys_).basis:
            assert vector_in_nullspace(sys_, vec)

    def test_dimension_monotone_in_truncation(self):
        dims = []
        for K in (20, 30, 40, 50):
            prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=K)
            dims.append(nullspace(build_system(prob), increment=0).dimension)
        assert dims == sorted(dims, reverse=True)

    def test_residue_class_split_dimension(self):
        # gcd(p, s) = 2: sequence nullspace carries one line per class
        prob = CommutantProblem(p=2, s=4, n=3, d=5, m=2, l=4, K=30)
        sys_ = build_system(prob)
        rep = nullspace(sys_)
        assert rep.dimension == 2
        for v in class_sample_vectors(prob):
            assert vector_in_nullspace(sys_, v)


class TestMatchRootPower:
    def test_exact_match(self):
        phi = monomial_weight(1, 2)
        v = [rf_eval(phi, Fraction(2 * k + 2)) for k in range(20)]
        assert match_root_power(v, 1, 1, 2) == Fraction(1)

    def test_scaling(self):
        phi = monomial_weight(1, 2)
        v = [3 * rf_eval(phi, Fraction(2 * k + 2)) for k in range(20)]
        assert match_root_power(v, 1, 1, 2) == Fraction(3)

    def test_perturbation_detected(self):
        phi = monomial_weight(1, 2)
        v = [rf_eval(phi, Fraction(2 * k + 2)) for k in range(20)]
        v[7] += Fraction(1, 1000)
        assert match_root_power(v, 1, 1, 2) is None

    def test_gamma_bearing_match_via_balls(self):
        # rational samples consistent with 5x a non-rational root power,
        # accurate far beyond the matcher's certification precision
        import mpmath
        from bergshift.gamma_ratio import eval_ball, power_weight
        pw = power_weight(1, 2, 3)
        approx = []
        for k in range(12):
            ball = eval_ball(pw, Fraction(2 * k + 2), 300)
            digits = mpmath.nstr(ball.mid, 60, strip_zeros=False)
            approx.append(Fraction(digits) * 5)
        got = match_root_power(approx, 1, 2, 3, precision_bits=80)
        assert got is not None
        # a visible perturbation at the certification scale is refuted
        approx[5] += Fraction(1, 10**6)
        assert match_root_power(approx, 1, 2, 3, precision_bits=80) is None


class TestConsistencyWithShiftAlgebra:
    def test_matched_solution_commutes_as_operator(self):
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=30)
        rep = nullspace(build_system(prob))
        assert rep.proportionality == Fraction(1)
        # the normalized basis is (Phi, Psi): assemble S = T1 + T2 and check
        t = linear_combine([
            (1, quasihomogeneous_operator(1, RadialSymbol.monomial(2))),
            (1, quasihomogeneous_operator(2, RadialSymbol.monomial(3))),
        ])
        assert commutator(t, t).is_zero


class TestScan:
    def test_unique_nontrivial_pair(self):
        rep = scan(1, 2, 2, 3, bound=5, K=30)
        nontrivial = [(c.m, c.l) for c in rep.cells if c.dimension > 0]
        assert nontrivial == [(1, 2)]
        assert rep.nondegenerate
        assert not rep.counterexamples

    def test_odd_multiple_regime(self):
        rep = scan(1, 2, 3, 6, bound=5, K=30)
        nontrivial = [(c.m, c.l) for c in rep.cells if c.dimension > 0]
        assert nontrivial == [(1, 2)]

    def test_degenerate_pair_marked(self):
        rep = scan(1, 2, 1, 2, bound=5, K=30)
        assert not rep.nondegenerate
        assert rep.outside_hypotheses

    def test_matching_cell_root_match_normalized(self):
        rep = scan(1, 2, 2, 3, bound=4, K=30)
        cell = next(c for c in rep.cells if (c.m, c.l) == (1, 2))
        assert cell.root_match == Fraction(1)
        assert cell.stable


class TestVerifyTheorem:
    def test_basic_instance_passes(self):
        rep = verify_theorem(1, 2, 2, 3, bound=5, K=30)
        assert rep.status == "pass"
        assert rep.passed is True
        assert rep.c == Fraction(1)
        assert rep.sequence_dimension == 1
        assert rep.operator_dimension == 1

    def test_double_degree_regime_surfaces_class_split(self):
        rep = verify_theorem(2, 4, 3, 5, bound=6, K=30)
        assert rep.status == "pass"
        assert rep.residue_classes == 2
        assert rep.sequence_dimension == 2
        assert rep.operator_dimension == 1
        assert any("residue classes" in msg for msg in rep.messages)

    def test_degenerate_pair_outside_hypotheses(self):
        rep = verify_theorem(1, 2, 1, 2, bound=5, K=30)
        assert rep.status == "outside_hypotheses"
        assert rep.passed is None

    def test_uncovered_matching_pair_fails(self):
        # bound below s means (p, s) is never scanned
        rep = verify_theorem(1, 4, 2, 3, bound=3, K=30)
        assert rep.status == "fail"


def test_commuting_pair_examples():
    assert commuting_pair(1, 1, 2, 2)     # two pure shifts
    assert not commuting_pair(1, 2, 2, 3)


def test_elimination_against_reference():
    """Random sparse systems: dimension must match a dense Fraction
    Gauss-Jordan rank, and every basis vector re-multiplies to zero."""
    import random
    from bergshift.solver import LinearEquation

    def reference_rank(rows, ncols):
        mat = [[Fraction(0)] * ncols for _ in rows]
        for i, r in enumerate(rows):
            for j, c in r.coeffs:
                mat[i][j] += c
        rank = 0
        for col in range(ncols):
            piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            pv = mat[rank][col]
            for i in range(len(mat)):
                if i != rank and mat[i][col] != 0:
                    f = mat[i][col] / pv
                    for j in range(ncols):
                        mat[i][j] -= f * mat[rank][j]
            rank += 1
        return rank

    rng = random.Random(42)
    for _ in range(150):
        ncols = rng.randint(1, 12)
        rows = []
        for i in range(rng.randint(0, 14)):
            support = rng.sample(range(ncols), rng.randint(1, min(4, ncols)))
            coeffs = tuple(
                (j, Fraction(rng.randint(-6, 6), rng.randint(1, 5))) for j in support)
            coeffs = tuple((j, c) for j, c in coeffs if c != 0)
            if coeffs:
                rows.append(LinearEquation(coeffs, f"r{i}"))
        sys_ = ExactLinearSystem(tuple(rows), ncols)
        rep = nullspace(sys_)
        assert rep.dimension == ncols - reference_rank(rows, ncols)
        for v in rep.basis:
            assert vector_in_nullspace(sys_, v)
