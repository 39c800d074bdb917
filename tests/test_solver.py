"""Truncated commutant systems: construction, nullspaces, scans, verdicts."""

import random
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest

from bergshift import solver
from bergshift.exact_algebra import rf_eval
from bergshift.gamma_ratio import power_weight
from bergshift.mellin import RadialSymbol
from bergshift.shift_algebra import commutator, linear_combine, quasihomogeneous_operator
from bergshift.solver import (
    CommutantProblem,
    ExactLinearSystem,
    LinearEquation,
    build_system,
    commuting_pair,
    match_root_power,
    monomial_weight,
    nullspace,
    scan,
    verify_theorem,
)
from commutant_lift import echelon_report, eliminated, fraction_sum_in_nullspace, grid_cells, lift


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
        assert not commuting_pair(p=1, n=2, s=2, d=3)
        assert commuting_pair(p=1, n=1, s=2, d=2)


class TestBuildSystem:
    def test_first_family_row_values(self):
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=5)
        sys_ = build_system(prob)
        row = sys_.rows[0]
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
            assert fraction_sum_in_nullspace(build_system(prob), reference_vector(prob))


class TestNullspace:
    def test_empty_system_is_full_space(self):
        basis = eliminated([], 5)
        assert basis == [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]

    def test_matching_pair_dimension_one(self):
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=30)
        rep = nullspace(prob)
        assert (rep.dimension, rep.floor) == (1, 1)
        assert rep.proportionality == Fraction(1)
        # the normalized theta is the reference samples at k < p and k < s,
        # and lifts to the whole reference pair
        ref = reference_vector(prob)
        assert rep.basis[0] == ref[:1] + ref[31:33]
        assert lift(prob, rep.basis[0]) == ref

    def test_excluded_pair_dimension_zero(self):
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=2, l=3, K=30)
        rep = nullspace(prob)
        assert (rep.dimension, rep.floor) == (0, 0)

    def test_basis_vectors_verified_exactly(self):
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=20)
        sys_ = build_system(prob)
        for theta in nullspace(prob).basis:
            assert fraction_sum_in_nullspace(sys_, lift(prob, theta))

    def test_dimension_monotone_in_truncation(self):
        dims = []
        for K in (20, 30, 40, 50):
            prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=K)
            dims.append(nullspace(prob).dimension)
        assert dims == sorted(dims, reverse=True)

    def test_residue_class_split_dimension(self):
        # gcd(p, s) = 2: sequence nullspace carries one line per class
        prob = CommutantProblem(p=2, s=4, n=3, d=5, m=2, l=4, K=30)
        rep = nullspace(prob)
        assert (rep.dimension, rep.floor) == (2, 2)
        assert fraction_sum_in_nullspace(build_system(prob), reference_vector(prob))


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

    def test_pinned_prefix_decides_the_whole_vector(self):
        """On every cell of dimension 1, including cells above their floor,
        matching the first p entries of F and s of G in the reduced echelon
        basis gives what matching all K + 1 of each in the lifted vector
        gives.  A settled cell reports that basis and that match from its
        proof; a cell above its floor reports neither.  Every m is read at
        the smallest truncations, m <= 8 at K = 30."""
        cells = above = 0
        for s in range(2, 5):
            for p in range(1, s):
                for n in range(1, 5):
                    for d in range(1, 5):
                        for K in (s, s + 1, s + 2, 30):
                            for m in range(1, min(K - s + p, 8) + 1):
                                l = m + s - p
                                prob = CommutantProblem(p=p, s=s, n=n, d=d, m=m, l=l, K=K)
                                rep = nullspace(prob)
                                if rep.dimension != 1:
                                    continue
                                cells += 1
                                basis, shared = echelon_report(prob)
                                theta = basis[0]
                                v = lift(prob, theta)
                                f = match_root_power(v[: K + 1], m, p, n)
                                g = match_root_power(v[K + 1 :], l, s, d)
                                assert match_root_power(theta[:p], m, p, n) == f
                                assert match_root_power(theta[p:], l, s, d) == g
                                matched = f is not None and f == g and f != 0
                                assert shared == (Fraction(1) if matched else None)
                                if matched:
                                    assert f == 1  # the basis is in the matched scale
                                if rep.floor == 1:
                                    assert (list(rep.basis), rep.proportionality) == (basis, shared)
                                else:
                                    above += 1
                                    assert (rep.basis, rep.proportionality) == ((), None)
        assert cells > 100 and above > 20

    def test_the_operator_weight_gives_the_power_weights_constant(self, monkeypatch):
        """At m = p the match reads monomial_weight(p, n), not
        power_weight(p, p, n); on a grid of (p, n) and of sample vectors,
        c times the weight, perturbed or not, both give the same constant
        as matching against the power weight itself."""
        calls = []
        power = solver.power_weight
        monkeypatch.setattr(solver, "power_weight", lambda *a: calls.append(a) or power(*a))
        for p in range(1, 6):
            for n in range(1, 8):
                w = power_weight(p, p, n).as_rational()
                assert w == monomial_weight(p, n)
                samples = [rf_eval(w, Fraction(2 * k + 2)) for k in range(p + 3)]
                for c in (Fraction(0), Fraction(1), Fraction(-7, 3)):
                    for bump in (None, 0, p + 2):
                        v = [c * x for x in samples]
                        if bump is not None:
                            v[bump] += Fraction(1, 1000)
                        got = match_root_power(v, p, p, n)
                        ratios = {x / y for x, y in zip(v, samples)}
                        assert got == (ratios.pop() if len(ratios) == 1 else None)
        assert calls == []

    @pytest.fixture
    def match_lengths(self, monkeypatch):
        """The length of every vector the solver matches against a root power."""
        lengths = []
        match = solver.match_root_power

        def spy(v, m, p, n):
            lengths.append(len(v))
            return match(v, m, p, n)

        monkeypatch.setattr(solver, "match_root_power", spy)
        return lengths

    def test_a_settled_floor_cell_matches_nothing(self, match_lengths):
        # its basis and its proportionality 1 come from the floor's proof
        rep = nullspace(CommutantProblem(p=2, s=3, n=5, d=1, m=2, l=3, K=40))
        assert (rep.dimension, rep.floor, rep.proportionality) == (1, 1, Fraction(1))
        assert match_lengths == []

    def test_a_cell_above_its_floor_matches_nothing(self, match_lengths):
        # (2,3,1,4) at the golden corpus's truncation K = s + 3: the cell
        # (1, 2) has dimension 1 above its floor 0, an upper bound with no
        # basis to match
        rep = nullspace(CommutantProblem(p=2, s=3, n=1, d=4, m=1, l=2, K=6))
        assert (rep.dimension, rep.floor) == (1, 0)
        assert (rep.basis, rep.proportionality) == ((), None)
        assert match_lengths == []


class TestConsistencyWithShiftAlgebra:
    def test_matched_solution_commutes_as_operator(self):
        prob = CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=30)
        rep = nullspace(prob)
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
        assert cell.dimension == cell.floor


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


def test_commuting_pair_equals_the_operator_commutator():
    """The closed form against the commutator built by the operator algebra."""
    for s in range(2, 7):
        for p in range(1, s):
            for n in range(1, 9):
                for d in range(1, 9):
                    a = quasihomogeneous_operator(p, RadialSymbol.monomial(n))
                    b = quasihomogeneous_operator(s, RadialSymbol.monomial(d))
                    assert commuting_pair(p, n, s, d) == commutator(a, b).is_zero, (p, n, s, d)


def test_elimination_against_reference():
    """Random sparse systems: the elimination kernel's dimension must match
    a dense Fraction Gauss-Jordan rank, and every basis vector re-multiplies
    to zero."""

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
                rows.append(LinearEquation(coeffs))
        sys_ = ExactLinearSystem(tuple(rows), ncols)
        basis = eliminated([r.coeffs for r in rows], ncols)
        assert len(basis) == ncols - reference_rank(rows, ncols)
        for v in basis:
            assert fraction_sum_in_nullspace(sys_, v)


class TestLift:
    PROBLEMS = (
        CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=40),
        CommutantProblem(p=2, s=4, n=3, d=5, m=2, l=4, K=40),
        CommutantProblem(p=2, s=3, n=5, d=1, m=2, l=3, K=40),
        CommutantProblem(p=1, s=2, n=1, d=2, m=3, l=4, K=40),  # commuting pair
    )

    @pytest.mark.parametrize("prob", PROBLEMS)
    def test_lifted_theta_solves_the_system_and_perturbations_do_not(self, prob):
        """Every theta has p + s entries and lifts to a vector of the
        nullspace; at (m, l) = (p, s) the reference samples' theta lifts to
        the reference pair.  Moving any single entry of a lifted vector
        leaves the nullspace, so the oracle is not vacuous."""
        rng = random.Random(prob.p * 100 + prob.n)
        sys_ = build_system(prob)
        thetas = list(nullspace(prob).basis)
        assert all(len(theta) == prob.p + prob.s for theta in thetas)
        vectors = [lift(prob, theta) for theta in thetas]
        if (prob.m, prob.l) == (prob.p, prob.s):
            ref = reference_vector(prob)
            theta = ref[: prob.p] + ref[prob.K + 1 : prob.K + 1 + prob.s]
            assert lift(prob, theta) == ref
            vectors.append(ref)
        assert vectors
        for vec in vectors:
            assert len(vec) == sys_.num_unknowns
            assert fraction_sum_in_nullspace(sys_, vec)
            for _ in range(20):
                bad = list(vec)
                bad[rng.randrange(len(bad))] += rng.choice((1, -1)) * Fraction(1, rng.randint(1, 10**6))
                assert not fraction_sum_in_nullspace(sys_, bad)


@pytest.fixture
def rows_read(monkeypatch):
    """Rows of (3) read from each row generator the solver starts."""
    reads = []
    mixed_rows = solver._mixed_rows

    def spy(prob):
        reads.append(0)
        i = len(reads) - 1
        for row in mixed_rows(prob):
            reads[i] += 1
            yield row

    monkeypatch.setattr(solver, "_mixed_rows", spy)
    return reads


@pytest.fixture
def built_truncations(monkeypatch):
    """The truncation K of every `build_system` call made through the solver."""
    built = []
    build = solver.build_system

    def spy(prob):
        built.append(prob.K)
        return build(prob)

    monkeypatch.setattr(solver, "build_system", spy)
    return built


class TestProvedFloor:
    def test_dimension_zero_cell_settles_on_a_prefix(self, rows_read, built_truncations):
        # at every cell of (1,2,2,3) but (1, 2), a few rows have full rank 3
        for m in range(2, 9):
            rows_read.clear()
            rep = nullspace(CommutantProblem(p=1, s=2, n=2, d=3, m=m, l=m + 1, K=1000))
            assert (rep.dimension, rep.floor) == (0, 0)
            assert rows_read == [1 + 2]
        assert built_truncations == []

    @pytest.mark.parametrize("p, s, n, d, m, floor", [
        (1, 2, 2, 3, 1, 1),  # (p, s): the gcd(p, s) class sample vectors
        (2, 4, 3, 5, 2, 2),
        (3, 5, 2, 1, 3, 1),
        (1, 2, 1, 2, 1, 2),  # pure shifts: 2 gcd(p, s) at every cell
        (1, 2, 1, 2, 3, 2),
        (2, 4, 2, 4, 1, 4),
    ])
    def test_cell_at_proved_floor_settles_on_a_prefix(self, rows_read, p, s, n, d, m, floor):
        # rank p + s - floor comes with as many rows, and no row after it is read
        rep = nullspace(CommutantProblem(p=p, s=s, n=n, d=d, m=m, l=m + s - p, K=200))
        assert (rep.dimension, rep.floor) == (floor, floor)
        assert rows_read == [p + s - floor]

    def test_every_row_read_raises_the_rank_on_the_grid(self, rows_read):
        """Every cell of the grid p < s <= 6, n, d in 1..6, l <= 8 at K = 40
        settles at its floor on exactly p + s - floor rows: no row read is
        dependent."""
        cells = grid_cells(40)
        assert len(cells) == 3060
        for prob in cells:
            rows_read.clear()
            rep = nullspace(prob)
            assert rep.dimension == rep.floor, prob
            assert rows_read == [prob.p + prob.s - rep.floor], prob

    def test_cell_above_proved_floor_reads_every_row_once(self, rows_read):
        # At the smallest truncation (1, 2) of (1,2,2,3) has dim 2 > gcd(1, 2):
        # rows 0..K-s give the count at K, an upper bound only, and no row
        # past K - s is read.
        K = 2
        rep = nullspace(CommutantProblem(p=1, s=2, n=2, d=3, m=1, l=2, K=K))
        assert (rep.dimension, rep.floor) == (2, 1)
        assert rows_read == [K - 2 + 1]

    @pytest.mark.parametrize("p, s, n, d, m, rows", [
        (1, 2, 3, 8, 2, 4),
        (1, 2, 3, 12, 1, 3),
        (2, 4, 5, 20, 2, 5),
        (2, 4, 6, 16, 4, 8),
        (2, 4, 6, 24, 2, 6),
        (3, 6, 3, 8, 14, 12),
        (3, 6, 3, 8, 21, 11),
        (3, 6, 9, 24, 6, 12),
    ])
    def test_cell_with_dependent_leading_rows_settles_on_more_rows(
            self, rows_read, p, s, n, d, m, rows):
        """The cells of p < s <= 6, n, d <= 24, m <= 24 whose first
        p + s - floor rows are dependent, so the elimination passes over a
        dependent row: each still settles at its floor, on the given rows,
        with the basis of every row through K - s."""
        prob = CommutantProblem(p=p, s=s, n=n, d=d, m=m, l=m + s - p, K=200)
        rep = nullspace(prob)
        assert rep.dimension == rep.floor == solver._proved_floor(prob)
        assert rows_read == [rows]
        stop_rank = p + s - rep.floor
        prefix = solver._echelon(islice(solver._mixed_rows(prob), stop_rank), stop_rank)
        assert prefix is not None and len(prefix) < stop_rank
        assert (list(rep.basis), rep.proportionality) == echelon_report(prob)

    @pytest.mark.parametrize("p, s, n, d", [(1, 2, 2, 3), (2, 4, 3, 5), (2, 3, 5, 1)])
    def test_a_floor_lowered_by_one_is_inconclusive_in_bounded_rows(
            self, monkeypatch, rows_read, p, s, n, d):
        """A positive floor lowered by one gives the (p, s) cell a stop rank
        its rows cannot reach: the cell reads every row through K - s and no
        more, reports its dimension above that floor with no basis, and the
        verdict is inconclusive, naming the cell."""
        proved = solver._proved_floor
        monkeypatch.setattr(solver, "_proved_floor",
                            lambda prob: proved(prob) - (proved(prob) > 0))
        K, g = 60, gcd(p, s)
        rep = verify_theorem(p, s, n, d, bound=8, K=K)
        assert rep.status == "inconclusive" and rep.passed is None
        assert rep.messages == (
            f"pair (m={p}, l={s}) has dimension {g} above its proved floor {g - 1} at K={K}",)
        cell = next(c for c in rep.scan_report.cells if (c.m, c.l) == (p, s))
        assert (cell.dimension, cell.floor, cell.root_match) == (g, g - 1, None)
        assert len(rows_read) == len(rep.scan_report.cells)
        assert max(rows_read) == K - s + 1

    @pytest.mark.parametrize("p, s, n, d", [(1, 2, 2, 3), (2, 4, 3, 5), (1, 2, 3, 6)])
    def test_verify_theorem_cost_does_not_depend_on_truncation(
            self, monkeypatch, built_truncations, p, s, n, d):
        # Every cell settles at its floor, so at every K each cell reads the
        # same rows of (3), extends its pins no further than they need, and
        # builds no explicit system.  The pins are the row generator's own
        # lists; after it yields row k, F is pinned through k + s and G
        # through k + p, the last indices row k reads, and the generator is
        # not resumed after the last row read.
        extents = []
        mixed_rows = solver._mixed_rows

        def spy(prob):
            rows = mixed_rows(prob)
            for k, row in enumerate(rows):
                pins = rows.gi_frame.f_locals
                extents.append((prob.m, k, len(pins["f_num"]), len(pins["g_num"])))
                assert len(pins["f_num"]) == len(pins["f_den"]) == k + prob.s + 1
                assert len(pins["g_num"]) == len(pins["g_den"]) == max(prob.s, k + prob.p + 1)
                yield row

        monkeypatch.setattr(solver, "_mixed_rows", spy)
        reads = []
        for K in (60, 240, 1000):
            extents.clear()
            assert verify_theorem(p, s, n, d, bound=8, K=K).status == "pass"
            reads.append(list(extents))
        assert reads[0] == reads[1] == reads[2]
        # p + s rows at each of the 8 - (s - p) cells, less the floor gcd(p, s) at (p, s)
        assert len(reads[0]) == (8 - s + p) * (p + s) - gcd(p, s)
        assert built_truncations == []


class TestInputBounds:
    def test_scan_without_admissible_pair_raises(self):
        with pytest.raises(ValueError, match=r"bound 8 .*s - p \+ 1 = 100"):
            scan(1, 100, 2, 3, bound=8, K=100)

    @pytest.mark.parametrize("check", [scan, verify_theorem])
    @pytest.mark.parametrize("n, d", [(solver.MAX_EXPONENT + 1, 3), (2, 10**9)])
    def test_exponent_above_limit_raises(self, check, n, d):
        with pytest.raises(ValueError, match=f"exceeds the limit {solver.MAX_EXPONENT}"):
            check(1, 2, n, d, bound=8, K=40)

    @pytest.mark.parametrize("check", [scan, verify_theorem])
    @pytest.mark.parametrize("bound, K", [(-3, -1), (0, 0)])
    def test_truncation_below_one_raises(self, check, bound, K):
        with pytest.raises(ValueError, match=f"truncation K = {K} is below the limit 1"):
            check(1, 2, 2, 3, bound=bound, K=K)

    @pytest.mark.parametrize("check", [scan, verify_theorem])
    @pytest.mark.parametrize("bound, K", [(3, 3), (1, 4)])
    def test_truncation_below_s_raises(self, check, bound, K):
        with pytest.raises(ValueError, match=f"truncation K = {K} is below s = 5"):
            check(3, 5, 1, 1, bound=bound, K=K)
