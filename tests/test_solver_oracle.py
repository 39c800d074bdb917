"""The recurrence-reduced nullspace against fraction-free Bareiss elimination.

`bareiss_basis` is the elimination the solver used before the recurrence
reduction: one-step Bareiss on the whole integer-scaled system with
F_k, G_k interleaved columns and first-nonzero pivoting.  It is kept here
only as an independent oracle, at truncations small enough for it.
"""

import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergshift import solver
from bergshift.solver import (
    CommutantProblem,
    ExactLinearSystem,
    LinearEquation,
    build_system,
    nullspace,
    vector_in_nullspace,
)


def _interleaved_columns(sys):
    if sys.problem is None:
        return list(range(sys.num_unknowns))
    K = sys.problem.K
    order = []
    for k in range(K + 1):
        order += [k, K + 1 + k]
    return order


def _integer_rows(sys):
    out = []
    for row in sys.rows:
        lcm = 1
        for _, c in row.coeffs:
            lcm = lcm * c.denominator // gcd(lcm, c.denominator)
        ints = {}
        for j, c in row.coeffs:
            ints[j] = ints.get(j, 0) + int(c * lcm)
        ints = {j: v for j, v in ints.items() if v}
        if not ints:
            continue
        g = 0
        for v in ints.values():
            g = gcd(g, abs(v))
        out.append({j: v // g for j, v in ints.items()})
    return out


def _ff_echelon(rows, col_order):
    remaining = [dict(r) for r in rows if r]
    pivot_rows, pivot_cols = [], []
    prev = 1
    for col in col_order:
        idx = next((i for i, r in enumerate(remaining) if r.get(col)), None)
        if idx is None:
            continue
        prow = remaining.pop(idx)
        piv = prow[col]
        updated = []
        for r in remaining:
            ric = r.get(col, 0)
            cols = set(r) | (set(prow) if ric else set())
            nr = {}
            for j in cols:
                if j == col:
                    continue
                val = piv * r.get(j, 0) - ric * prow.get(j, 0)
                if val:
                    q, rem = divmod(val, prev)
                    assert rem == 0, "fraction-free step lost integrality"
                    nr[j] = q
            if nr:
                updated.append(nr)
        remaining = updated
        pivot_rows.append(prow)
        pivot_cols.append(col)
        prev = piv
    return pivot_rows, pivot_cols


def bareiss_basis(sys):
    """Lead-normalized nullspace basis of `sys` by Bareiss elimination."""
    pivot_rows, pivot_cols = _ff_echelon(_integer_rows(sys), _interleaved_columns(sys))
    pivot_set = set(pivot_cols)
    basis = []
    for f in (c for c in range(sys.num_unknowns) if c not in pivot_set):
        x = {f: Fraction(1)}
        for prow, pcol in zip(reversed(pivot_rows), reversed(pivot_cols)):
            acc = sum((v * x[j] for j, v in prow.items() if j != pcol and j in x), Fraction(0))
            if acc:
                x[pcol] = -acc / prow[pcol]
        basis.append(lead_normalized([x.get(j, Fraction(0)) for j in range(sys.num_unknowns)]))
    return basis


def lead_normalized(vec):
    lead = next((v for v in vec if v != 0), Fraction(1))
    return tuple(v / lead for v in vec)


def oracle_dimension(prob):
    return len(bareiss_basis(build_system(prob)))


def grid():
    """Every (p, s) with s <= 6 and every admissible m <= 8, for a generic
    instance, both pure-shift variants (n = p or d = s) and the commuting
    pair (n = p, d = s); K cycles through small truncations up to 40."""
    rng = random.Random(5)
    cells = []
    for s in range(2, 7):
        for p in range(1, s):
            def other_than(x):
                return rng.choice([v for v in range(1, 7) if v != x])
            instances = [(other_than(p), other_than(s)), (p, other_than(s)),
                         (other_than(p), s), (p, s)]
            for i, (n, d) in enumerate(instances):
                for m in range(1, 9):
                    l = m + s - p
                    K = (max(s, l) + 2, max(s, l) + 7, 24, 40)[(i + m) % 4]
                    cells.append(CommutantProblem(p=p, s=s, n=n, d=d, m=m, l=l, K=K))
    return cells


GRID = grid()


def test_grid_covers_the_stated_instances():
    pairs = {(c.p, c.s) for c in GRID}
    assert pairs == {(p, s) for s in range(2, 7) for p in range(1, s)}
    assert any(c.n == c.p and c.d == c.s for c in GRID)
    assert any((c.n == c.p) != (c.d == c.s) for c in GRID)
    assert max(c.K for c in GRID) == 40
    assert {c.m for c in GRID} == set(range(1, 9))


@pytest.mark.parametrize("chunk", range(6))
def test_nullspace_matches_bareiss_on_grid(chunk):
    for prob in GRID[chunk::6]:
        rep = nullspace(build_system(prob))
        oracle = bareiss_basis(build_system(prob))
        assert rep.dimension == len(oracle), prob
        bigger = dataclasses.replace(prob, K=prob.K + solver.STABILIZATION_INCREMENT)
        assert rep.dimension_at_increment == oracle_dimension(bigger), prob
        if rep.dimension == 1:
            assert lead_normalized(rep.basis[0]) == oracle[0], prob


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dimension_does_not_increase_in_truncation(data):
    s = data.draw(st.integers(2, 6))
    p = data.draw(st.integers(1, s - 1))
    n = data.draw(st.integers(1, 6))
    d = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 8))
    l = m + s - p
    K1 = data.draw(st.integers(max(s, l), 60))
    K2 = data.draw(st.integers(K1, 80))
    dims = [nullspace(build_system(CommutantProblem(p, s, n, d, m, l, K))).dimension
            for K in (K1, K2)]
    assert dims[0] >= dims[1]


class TestAlteredSystems:
    """Systems that carry a problem but not exactly its rows.  The solver
    reads the recurrence rows (1) and (2) by position, so only rows
    appended after `build_system`'s layout are accepted."""

    PROBLEMS = (
        CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=14),
        CommutantProblem(p=2, s=4, n=3, d=5, m=2, l=4, K=14),
        CommutantProblem(p=2, s=3, n=2, d=3, m=3, l=4, K=14),
        CommutantProblem(p=1, s=3, n=1, d=3, m=2, l=4, K=14),
    )

    @staticmethod
    def eliminated(monkeypatch):
        """Spy on `_eliminate`: records (width, rows handed over) per call."""
        calls = []
        eliminate = solver._eliminate

        def spy(rows, ncols):
            rows = [list(row) for row in rows]
            calls.append((ncols, len(rows)))
            return eliminate(rows, ncols)

        monkeypatch.setattr(solver, "_eliminate", spy)
        return calls

    @staticmethod
    def check_against_oracle(sys):
        # The basis alone: these systems are not the rebuild of their
        # problem, which the stabilization re-count of `nullspace` assumes.
        basis = solver._nullspace_basis(sys)
        oracle = bareiss_basis(sys)
        assert len(basis) == len(oracle)
        for vec in basis:
            assert vector_in_nullspace(sys, vec)
        if len(basis) == 1:
            assert lead_normalized(basis[0]) == oracle[0]

    @pytest.mark.parametrize("prob", PROBLEMS)
    def test_built_system_eliminates_the_mixed_rows_in_p_plus_s_columns(self, prob, monkeypatch):
        calls = self.eliminated(monkeypatch)
        self.check_against_oracle(build_system(prob))
        assert calls == [(prob.p + prob.s, prob.K - prob.s + 1)]

    @pytest.mark.parametrize("prob", PROBLEMS)
    def test_system_without_problem_is_eliminated_whole(self, prob, monkeypatch):
        sys_ = dataclasses.replace(build_system(prob), problem=None)
        calls = self.eliminated(monkeypatch)
        self.check_against_oracle(sys_)
        assert calls == [(sys_.num_unknowns, len(sys_.rows))]

    @pytest.mark.parametrize("prob", PROBLEMS)
    def test_reordered_rows_raise(self, prob):
        sys_ = build_system(prob)
        rows = list(sys_.rows)
        random.Random(prob.K + prob.m).shuffle(rows)
        with pytest.raises(ValueError, match="build_system's layout"):
            nullspace(dataclasses.replace(sys_, rows=tuple(rows)))

    @pytest.mark.parametrize("prob", PROBLEMS)
    @pytest.mark.parametrize("label", ["first[k=3]", "second[k=0]", "second[k=10]"])
    def test_missing_recurrence_row_raises(self, prob, label):
        sys_ = build_system(prob)
        rows = tuple(r for r in sys_.rows if r.label != label)
        assert len(rows) == len(sys_.rows) - 1
        with pytest.raises(ValueError, match="build_system's layout"):
            nullspace(dataclasses.replace(sys_, rows=rows))

    @pytest.mark.parametrize("prob", PROBLEMS)
    def test_truncated_recurrence_rows_raise(self, prob):
        sys_ = build_system(prob)
        rows = sys_.rows[: 2 * prob.K - prob.p - prob.s + 1]
        with pytest.raises(ValueError, match="build_system's layout"):
            nullspace(dataclasses.replace(sys_, rows=rows))

    @staticmethod
    def extra_rows(prob):
        """Two-term rows that must stay constraints, not pins: a second,
        inconsistent pin of F[2 + p], and a row linking F and G whose index
        gap equals s."""
        K = prob.K
        return {
            "duplicate pin": LinearEquation(((2 + prob.p, Fraction(1)), (2, Fraction(1))), "x"),
            "cross block": LinearEquation(((K + 1, Fraction(1)), (K + 1 - prob.s, Fraction(2))), "x"),
        }

    @pytest.mark.parametrize("prob", PROBLEMS)
    @pytest.mark.parametrize("kind", ["duplicate pin", "cross block"])
    def test_extra_two_term_row_after_the_layout_is_a_constraint(self, prob, kind):
        sys_ = build_system(prob)
        rows = sys_.rows + (self.extra_rows(prob)[kind],)
        self.check_against_oracle(dataclasses.replace(sys_, rows=rows))

    @pytest.mark.parametrize("prob", PROBLEMS)
    @pytest.mark.parametrize("kind", ["duplicate pin", "cross block"])
    def test_extra_two_term_row_put_first_raises(self, prob, kind):
        sys_ = build_system(prob)
        rows = (self.extra_rows(prob)[kind],) + sys_.rows
        with pytest.raises(ValueError, match="build_system's layout"):
            nullspace(dataclasses.replace(sys_, rows=rows))

    def test_zero_leading_coefficient_raises(self):
        prob = self.PROBLEMS[0]
        sys_ = build_system(prob)
        rows = tuple(
            LinearEquation(((r.coeffs[0][0], Fraction(0)), r.coeffs[1]), r.label)
            if r.label == "second[k=4]" else r
            for r in sys_.rows)
        with pytest.raises(ArithmeticError, match="zero leading coefficient"):
            nullspace(dataclasses.replace(sys_, rows=rows))


def test_system_without_problem_matches_bareiss_basis():
    rng = random.Random(11)
    for _ in range(60):
        ncols = rng.randint(1, 10)
        rows = []
        for i in range(rng.randint(0, 12)):
            support = rng.sample(range(ncols), rng.randint(1, min(4, ncols)))
            coeffs = tuple((j, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for j in support)
            rows.append(LinearEquation(coeffs, f"r{i}"))
        sys_ = ExactLinearSystem(tuple(rows), ncols)
        assert list(nullspace(sys_).basis) == bareiss_basis(sys_)
