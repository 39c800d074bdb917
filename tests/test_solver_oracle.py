"""The recurrence-reduced nullspace against fraction-free Bareiss elimination.

`bareiss_basis` is the elimination the solver used before the recurrence
reduction: one-step Bareiss on the whole integer-scaled system with
F_k, G_k interleaved columns and first-nonzero pivoting.  It is kept here
only as an independent oracle, at truncations small enough for it.
`class_sample_vectors` is the floor the solver proves at (m, l) = (p, s),
built from the weight functions rather than from the recurrences.
The solver reports theta, the p + s parameters; `lift` extends it to the
2(K+1) unknowns of `build_system`, where it is re-multiplied.  The last
tests run the integer elimination kernel `solver._eliminate` on its own,
on rows cleared of their denominators here (`commutant_lift.cleared`):
its basis does not depend on row scaling or order, it agrees with Bareiss
on entries of 256 bits and more, and it reads no row past `stop_rank`.
A cell settled at its floor reports the floor's basis in closed form;
`test_floor_basis_is_the_reduced_echelon_basis` checks it against the
back-substituted basis of every row through K - s.
"""

import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergshift import solver
from bergshift.exact_algebra import rf_eval
from bergshift.solver import (
    CommutantProblem,
    ExactLinearSystem,
    LinearEquation,
    build_system,
    monomial_weight,
    nullspace,
)
from commutant_lift import cleared, eliminated, fraction_sum_in_nullspace, grid_cells, lift


def _interleaved_columns(K):
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


def bareiss_basis(sys, col_order=None):
    """Lead-normalized nullspace basis of `sys` by Bareiss elimination,
    pivoting in `col_order` (default: the natural order)."""
    if col_order is None:
        col_order = range(sys.num_unknowns)
    pivot_rows, pivot_cols = _ff_echelon(_integer_rows(sys), col_order)
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


def oracle_basis(prob):
    """The old solver: Bareiss on `build_system(prob)`, F_k, G_k interleaved."""
    return bareiss_basis(build_system(prob), _interleaved_columns(prob.K))


def class_sample_vectors(prob):
    """Per-residue-class reference solutions at (m, l) = (p, s).

    Class j of g = gcd(p, s) carries (Phi, Psi) samples on indices k = j
    mod g and zeros elsewhere; their sum is the full reference pair.
    """
    g = gcd(prob.p, prob.s)
    weights = (monomial_weight(prob.p, prob.n), monomial_weight(prob.s, prob.d))
    samples = [[rf_eval(w, Fraction(2 * k + 2)) for k in range(prob.K + 1)] for w in weights]
    return [tuple([v if k % g == j else Fraction(0) for part in samples for k, v in enumerate(part)])
            for j in range(g)]


def rank(vectors, ncols):
    return ncols - len(eliminated([list(enumerate(v)) for v in vectors], ncols))


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
        rep = nullspace(prob)
        oracle = oracle_basis(prob)
        assert rep.dimension == len(oracle), prob
        # The floor bounds the count from below at K and beyond, and a
        # count at the floor is settled: ten more rows leave it unchanged.
        bigger = len(oracle_basis(dataclasses.replace(prob, K=prob.K + 10)))
        assert rep.floor <= bigger <= rep.dimension, prob
        if rep.dimension == rep.floor:
            assert bigger == rep.dimension, prob
        sys_ = build_system(prob)
        lifted = [lift(prob, theta) for theta in rep.basis]
        assert all(fraction_sum_in_nullspace(sys_, vec) for vec in lifted), prob
        if rep.dimension == 1:
            assert lead_normalized(lifted[0]) == oracle[0], prob
        if (prob.m, prob.l) == (prob.p, prob.s):
            # The lemma under the floor at (p, s): the g class vectors solve
            # every row, and at the floor they span the whole nullspace.
            classes = class_sample_vectors(prob)
            assert all(fraction_sum_in_nullspace(sys_, vec) for vec in classes), prob
            assert rank(classes, sys_.num_unknowns) == gcd(prob.p, prob.s), prob
            if rep.dimension == rep.floor == len(classes):
                assert rank(classes + lifted, sys_.num_unknowns) == rep.dimension, prob


def test_floor_basis_is_the_reduced_echelon_basis(monkeypatch):
    """Every cell with l <= 8 of the 540 grid instances settles at its
    floor at K = 40, and reports the floor's basis in closed form.  With
    no floor proved, the solver reads every row through K - s, with no
    early stop, back-substitutes and matches a basis of dimension 1
    against the root powers; dimension, basis and proportionality are
    the same, for the commuting pairs and at g = 2 and 3 too."""
    cells = grid_cells(40)
    settled = [nullspace(prob) for prob in cells]
    monkeypatch.setattr(solver, "_proved_floor", lambda prob: 0)
    kinds = set()
    for prob, rep in zip(cells, settled):
        if rep.floor == 0:
            continue
        whole = nullspace(prob)
        assert (whole.dimension, whole.basis, whole.proportionality) == (
            rep.dimension, rep.basis, rep.proportionality), prob
        kinds.add((gcd(prob.p, prob.s), (prob.n, prob.d) == (prob.p, prob.s)))
    assert kinds == {(g, commuting) for g in (1, 2, 3) for commuting in (False, True)}


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
    dims = [nullspace(CommutantProblem(p, s, n, d, m, l, K)).dimension
            for K in (K1, K2)]
    assert dims[0] >= dims[1]


def eliminated_whole(sys):
    """Lead-normalized basis of the elimination kernel on every row of `sys`."""
    rows = [row.coeffs for row in sys.rows]
    n = sys.num_unknowns
    return [lead_normalized(vec) for vec in eliminated(rows, n)]


@pytest.mark.parametrize("prob", [
    CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=14),
    CommutantProblem(p=2, s=4, n=3, d=5, m=2, l=4, K=14),
    CommutantProblem(p=2, s=3, n=2, d=3, m=3, l=4, K=14),
    CommutantProblem(p=1, s=3, n=1, d=3, m=2, l=4, K=14),
])
def test_built_system_eliminated_whole_matches_bareiss(prob):
    sys_ = build_system(prob)
    basis = eliminated_whole(sys_)
    assert basis == bareiss_basis(sys_)
    assert all(fraction_sum_in_nullspace(sys_, vec) for vec in basis)
    assert len(basis) == nullspace(prob).dimension


def test_system_without_problem_matches_bareiss_basis():
    """Random sparse systems through the elimination kernel."""
    rng = random.Random(11)
    for _ in range(60):
        ncols = rng.randint(1, 10)
        rows = []
        for i in range(rng.randint(0, 12)):
            support = rng.sample(range(ncols), rng.randint(1, min(4, ncols)))
            coeffs = tuple((j, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for j in support)
            rows.append(LinearEquation(coeffs))
        sys_ = ExactLinearSystem(tuple(rows), ncols)
        assert eliminated_whole(sys_) == bareiss_basis(sys_)


def _random_rows(rng, ncols, nrows, entry):
    """`nrows` sparse rows over `ncols` columns from `entry(rng)`, then a
    few rational combinations of them, so some rows are dependent."""
    rows = []
    for _ in range(nrows):
        support = rng.sample(range(ncols), rng.randint(1, ncols))
        rows.append(tuple((j, entry(rng)) for j in support))
    for _ in range(rng.randint(0, 3)):
        if not rows:
            break
        mixed = {}
        for row in rng.sample(rows, rng.randint(1, len(rows))):
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            for j, v in row:
                mixed[j] = mixed.get(j, 0) + c * v
        rows.insert(rng.randint(0, len(rows)), tuple(mixed.items()))
    return rows


def _small(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def _huge(rng):
    """A rational whose numerator and denominator have 257 to 320 bits."""
    return Fraction(rng.choice((1, -1)) * (rng.getrandbits(320) | 1 << 256),
                    rng.getrandbits(320) | 1 << 256)


def _as_system(rows, ncols):
    return ExactLinearSystem(tuple(LinearEquation(row) for row in rows), ncols)


def test_row_scaling_and_order_leave_the_basis_unchanged():
    """The reduced echelon form is unique: scaling every row by a nonzero
    integer or rational, or shuffling the rows, gives the same basis,
    entry for entry, as the rows as given."""
    rng = random.Random(19)
    problems = [CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=6),
                CommutantProblem(p=2, s=4, n=3, d=5, m=2, l=4, K=8),
                CommutantProblem(p=2, s=3, n=2, d=3, m=3, l=4, K=7)]
    systems = [([row.coeffs for row in sys_.rows], sys_.num_unknowns)
               for sys_ in map(build_system, problems)]
    for _ in range(40):
        n = rng.randint(1, 9)
        systems.append((_random_rows(rng, n, rng.randint(0, n + 2), _small), n))
    nontrivial = 0
    for rows, n in systems:
        basis = eliminated(rows, n)
        nontrivial += 0 < len(basis) < n
        for scale in (lambda: rng.choice((1, -1)) * rng.randint(1, 10**6),
                      lambda: Fraction(rng.choice((1, -1)) * rng.randint(1, 10**6),
                                       rng.randint(1, 10**6))):
            factors = [scale() for _ in rows]
            scaled = [[(j, c * k) for j, c in row] for row, k in zip(rows, factors)]
            assert eliminated(scaled, n) == basis
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert eliminated(shuffled, n) == basis
    assert nontrivial > 20


def test_systems_with_huge_entries_match_bareiss_basis():
    """Random systems whose entries have numerators and denominators of
    256 bits or more, through the elimination kernel."""
    rng = random.Random(256)
    for _ in range(40):
        ncols = rng.randint(1, 8)
        sys_ = _as_system(_random_rows(rng, ncols, rng.randint(0, ncols + 1), _huge), ncols)
        assert eliminated_whole(sys_) == bareiss_basis(sys_)


def test_rows_after_the_stop_rank_are_not_read():
    """The kernel pulls rows from a generator and stops, returning None,
    at the first row that brings the rank to `stop_rank`.  A run that
    never reaches it reads every row and gives their basis."""
    rng = random.Random(7)
    stopped = 0
    for _ in range(60):
        ncols = rng.randint(1, 8)
        rows = _random_rows(rng, ncols, rng.randint(1, ncols + 3), _small)
        stop_rank = rng.randint(1, ncols)
        read = []

        def spy():
            for i, row in enumerate(rows):
                read.append(i)
                yield cleared(row, ncols)

        basis = solver._eliminate(spy(), ncols, stop_rank)
        ranks = [ncols - len(bareiss_basis(_as_system(rows[: i + 1], ncols)))
                 for i in range(len(rows))]
        expected = next((i + 1 for i, r in enumerate(ranks) if r == stop_rank), None)
        if expected is None:
            assert len(read) == len(rows)
            assert [lead_normalized(vec) for vec in basis] == bareiss_basis(_as_system(rows, ncols))
        else:
            stopped += expected < len(rows)
            assert len(read) == expected
            assert basis is None
    assert stopped > 10
