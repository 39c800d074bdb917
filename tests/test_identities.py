"""Pointwise proportionality checks of the closed-form weight identities."""

import functools
import random
from fractions import Fraction

import pytest

from bergshift.exact_algebra import Polynomial, rf_normalize
from bergshift.gamma_ratio import BallValue, GammaRatioExpr, canonicalize, dissimilar, separating_term
from bergshift.identities import (
    _exact_proportionality,
    build_sides,
    default_samples,
    verify_identity,
)
from iv_oracle import ball_ratio


def assert_structural_refutation(rep, precision_bits=200):
    """A refutation by a separating term: exact, with no sample evaluated."""
    assert rep.verdict == "not_proportional"
    assert rep.exact and not rep.both_sides_zero
    assert rep.constant is None
    assert rep.samples == rep.witnesses == rep.skipped_poles == ()
    assert rep.precision_bits == precision_bits
    assert "has no term on either side whose quotient with it is rational" in rep.note


def ball_check(scenario, p, s, n, d, m, l, zs=None, precision_bits=200):
    """The iv-object ball oracle on the same sides."""
    return ball_ratio(*build_sides(scenario, p, s, n, d, m, l),
                      zs if zs is not None else default_samples(), precision_bits)


class TestCommutatorScenario:
    def test_matching_orders_proportional_with_constant_one(self):
        rep = verify_identity("commutator", 1, 2, 2, 3, m=1, l=2)
        assert rep.verdict == "proportional"
        assert rep.exact
        assert rep.constant == Fraction(1)

    def test_matching_orders_other_parameters(self):
        rep = verify_identity("commutator", 2, 3, 5, 4, m=2, l=3)
        assert rep.verdict == "proportional"
        assert rep.constant == Fraction(1)

    def test_mismatched_orders_refuted_with_witnesses(self):
        rep = verify_identity("commutator", 1, 2, 2, 3, m=2, l=3)
        assert_structural_refutation(rep)
        check = ball_check("commutator", 1, 2, 2, 3, 2, 3)
        assert check.verdict == "not_proportional"
        assert check.witnesses

    def test_sides_are_single_degree_weights(self):
        left, right = build_sides("commutator", 1, 2, 2, 3, 1, 2)
        assert left.as_rational() is not None  # m = p reduces to rational
        assert left == right


class TestFactoredScenario:
    def test_matching_orders(self):
        rep = verify_identity("factored", 1, 2, 2, 3, m=1, l=2)
        assert rep.verdict == "proportional"
        assert rep.constant == Fraction(1)

    def test_matching_orders_wider(self):
        rep = verify_identity("factored", 2, 4, 3, 5, m=2, l=4)
        assert rep.verdict == "proportional"

    def test_mismatch_refuted(self):
        rep = verify_identity("factored", 1, 2, 2, 3, m=3, l=4)
        assert rep.verdict == "not_proportional"

    def test_odd_multiple_specialization_runs(self):
        # the doubled-degree regime with m an odd multiple of p exercises
        # the same machinery as the product-form specialization
        rep = verify_identity("factored", 1, 2, 3, 6, m=3, l=4)
        assert rep.verdict in ("proportional", "not_proportional")

    def test_regime_restriction(self):
        with pytest.raises(ValueError):
            verify_identity("factored", 1, 3, 4, 2, m=1, l=3)


class TestFunctionalScenario:
    def test_matching_orders_exact_zero(self):
        rep = verify_identity("functional", 1, 2, 2, 3, m=1, l=2)
        assert rep.verdict == "proportional"
        assert rep.exact
        assert rep.both_sides_zero
        assert rep.constant == Fraction(1)

    def test_excluded_orders_not_proportional(self):
        rep = verify_identity("functional", 1, 2, 2, 3, m=2, l=3)
        assert_structural_refutation(rep)
        check = ball_check("functional", 1, 2, 2, 3, 2, 3)
        assert check.verdict == "not_proportional"
        assert check.witnesses
        # witnesses are sample points from the default list
        zs = set(default_samples())
        for z1, z2 in check.witnesses:
            assert z1 in zs and z2 in zs

    def test_unseparated_sides_are_matched_part_by_part(self):
        # with d = s = 2p both sides carry the Gamma parts 1 and
        # Gamma((z+2)/4) Gamma((z+3)/4) / (Gamma(z/4) Gamma((z+1)/4)): no term
        # separates, and the coefficients of the part 1 decide
        left, right = build_sides("functional", 2, 4, 1, 4, 1, 3)
        assert separating_term(left, right) is None
        rep = verify_identity("functional", 2, 4, 1, 4, m=1, l=3, precision_bits=53)
        assert rep.verdict == "not_proportional"
        assert rep.exact and rep.constant is None and not rep.both_sides_zero
        assert rep.samples == rep.witnesses == rep.skipped_poles == ()
        assert rep.precision_bits == 53
        assert rep.note == (
            "the Gamma parts of both sides are pairwise dissimilar, and the left coefficient "
            "of Gamma part 1 is not a constant times the right one, so no constant c gives "
            "left = c * right")
        check = ball_check("functional", 2, 4, 1, 4, 1, 3)
        assert check.verdict == "not_proportional" and check.witnesses

    def test_requires_degree_balance(self):
        with pytest.raises(ValueError):
            verify_identity("functional", 1, 2, 2, 3, m=1, l=3)

    def test_ratio_constant_is_ball_certified_for_gamma_sides(self):
        assert_structural_refutation(verify_identity("functional", 1, 2, 2, 3, m=2, l=3))
        check = ball_check("functional", 1, 2, 2, 3, 2, 3)
        rows_with_ratio = [row for row in check.rows if row.ratio is not None]
        assert rows_with_ratio
        assert isinstance(rows_with_ratio[0].ratio, BallValue)


def test_precision_doubling_recovers_from_low_start():
    # At 1 or 2 bits right-hand enclosures contain zero; such samples must
    # force doubling rather than count as consistent.
    for start in (1, 2, 8):
        rep = verify_identity("functional", 1, 2, 2, 3, m=2, l=3,
                              sample_zs=default_samples(12), precision_bits=start)
        assert_structural_refutation(rep, precision_bits=start)
        check = ball_check("functional", 1, 2, 2, 3, 2, 3, default_samples(12), start)
        assert check.verdict == "not_proportional", start
        assert check.precision_bits >= start


@pytest.mark.parametrize("zs", [[], [Fraction(2)]])
def test_fewer_than_two_samples_rejected(zs):
    with pytest.raises(ValueError, match="proportionality cannot be refuted at one point"):
        verify_identity("commutator", 1, 2, 2, 3, m=2, l=3, sample_zs=zs)


def test_exact_sample_rows_mark_poles():
    # left (z+2)/(z+3) vs right 1/(z+4) at a pole of each side and off them
    report = _exact_proportionality(
        rf_normalize(Polynomial.z_plus(2), (3,)),
        rf_normalize(Polynomial.one(), (4,)),
        [Fraction(-3), Fraction(-4), Fraction(1, 2)])
    rows = report[3]
    assert [(r.left, r.right, r.ratio) for r in rows] == [
        (None, Fraction(1), None),
        (Fraction(2), None, None),
        (Fraction(5, 7), Fraction(2, 9), Fraction(45, 14)),
    ]


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        verify_identity("mystery", 1, 2, 2, 3, m=1, l=2)


def _grid():
    """All three scenarios, p < s <= 6, n <= 4, d <= 3, m <= 5."""
    return [(scenario, p, s, n, d, m, m + s - p)
            for scenario in ("commutator", "factored", "functional")
            for s in range(2, 7) for p in range(1, s)
            if scenario != "factored" or s == 2 * p
            for n in range(1, 5) for d in range(1, 4) for m in range(1, 6)]


def test_structural_refutations_agree_with_the_ball_check():
    # a seeded sample of the grid's instances whose sides keep Gamma content:
    # each is refuted structurally, and the certified ball check agrees
    grid = _grid()
    random.Random(16001).shuffle(grid)
    checked = 0
    for inst in grid:
        if checked == 80:
            break
        left, right = build_sides(*inst)
        if left.as_rational() is not None and right.as_rational() is not None:
            continue
        checked += 1
        assert_structural_refutation(verify_identity(*inst, sample_zs=default_samples(20)))
        check = ball_ratio(left, right, default_samples(20), 200)
        assert check.verdict == "not_proportional", inst
        assert check.witnesses, inst
    assert checked == 80


# ---------------------------------------------------------------------------
# completeness of the part matching on build_sides sides


def _part_grid():
    """All three scenarios, p < s <= 6, n, d <= 4, m <= 4, and the d = s
    functional instances with (p, s) in {(2, 4), (2, 6), (3, 6)}, n <= 7,
    m <= 8: these hold all 76 instances of the grid p < s <= 10,
    n, d <= 7, m <= 8 that no term separates."""
    grid = [(scenario, p, s, n, d, m, m + s - p)
            for scenario in ("commutator", "factored", "functional")
            for s in range(2, 7) for p in range(1, s)
            if scenario != "factored" or s == 2 * p
            for n in range(1, 5) for d in range(1, 5) for m in range(1, 5)]
    grid += [("functional", p, s, n, s, m, m + s - p)
             for p, s in ((2, 4), (2, 6), (3, 6)) for n in range(1, 8) for m in range(1, 9)]
    return list(dict.fromkeys(grid))


PART_GRID = _part_grid()


@functools.lru_cache(maxsize=None)
def _sides(inst):
    return build_sides(*inst)


def test_build_sides_parts_are_single_scale_with_0_or_4_atoms():
    for inst in PART_GRID:
        p, s = inst[1:3]
        for side in _sides(inst):
            for _, g in side.terms:
                atoms = g.num + g.den
                assert len(atoms) in (0, 4), (inst, str(g))
                assert len({td for td, _ in atoms}) <= 1, (inst, str(g))
                assert {td for td, _ in atoms} <= {2 * p, 2 * s}, (inst, str(g))


def test_distinct_parts_of_both_sides_are_pairwise_dissimilar():
    matched = 0
    for inst in PART_GRID:
        left, right = _sides(inst)
        parts = list(dict.fromkeys([g for _, g in left.terms + right.terms]))
        assert all(dissimilar(g, h) for i, g in enumerate(parts) for h in parts[i + 1:]), inst
        rep = verify_identity(*inst, sample_zs=default_samples(4))
        assert rep.exact and rep.verdict != "inconclusive", inst
        matched += rep.note.startswith("the Gamma parts of both sides")
    assert matched == 76


def test_reduced_four_atom_parts_at_two_scales_are_never_similar():
    # the pole-mass count: read mod L = lcm(2p, 2s), a reduced k-atom part at
    # scale delta has net counts of total mass k L / delta, and 4L/2p != 4L/2s
    rng = random.Random(18)
    for _ in range(400):
        p = rng.randint(1, 12)
        s = rng.choice([x for x in range(1, 25) if x != p])
        parts = []
        for td in (2 * p, 2 * s):
            while True:
                a, b, c, d = (rng.randrange(td) for _ in range(4))
                _, g = canonicalize(GammaRatioExpr.of(td, [a, b], [c, d]))
                if len(g.num + g.den) == 4:
                    parts.append(g)
                    break
        assert dissimilar(*parts), (p, s, str(parts[0]), str(parts[1]))
        assert dissimilar(parts[0], GammaRatioExpr.one())


@pytest.mark.parametrize("bits", (1, 8, 53, 200, 1000))
def test_matched_verdicts_agree_with_the_ball_oracle(bits):
    # the oracle refutes each matched instance by witnesses at 200 bits and up;
    # at lower starting precisions it may give up, and it never disagrees
    decided = 0
    for inst in PART_GRID:
        if inst[0] != "functional" or inst[4] != inst[2]:
            continue
        left, right = _sides(inst)
        if separating_term(left, right) is not None or (left.is_rational and right.is_rational):
            continue
        check = ball_ratio(left, right, default_samples(8), bits)
        if check.verdict != "inconclusive":
            decided += 1
            assert check.verdict == verify_identity(*inst).verdict, inst
    assert decided == 76 or bits < 200
