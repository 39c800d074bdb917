"""Pointwise proportionality checks of the closed-form weight identities."""

import random
from fractions import Fraction

import pytest

from bergshift.exact_algebra import Polynomial, rf_normalize
from bergshift.gamma_ratio import BallValue, ball_ratio, separating_term
from bergshift.identities import (
    _exact_proportionality,
    build_sides,
    default_samples,
    verify_identity,
)


def assert_structural_refutation(rep, precision_bits=200):
    """A refutation by a separating term: exact, with no sample evaluated."""
    assert rep.verdict == "not_proportional"
    assert rep.exact and not rep.both_sides_zero
    assert rep.constant is None
    assert rep.samples == rep.witnesses == rep.skipped_poles == ()
    assert rep.precision_bits == precision_bits
    assert "has no term on either side whose quotient with it is rational" in rep.note


def ball_check(scenario, p, s, n, d, m, l, zs=None, precision_bits=200):
    """The certified ball check on the same sides, which the structural
    refutation skips."""
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

    def test_similar_terms_go_to_the_ball_check(self):
        # with d = s = 2p both sides carry the Gamma parts 1 and
        # Gamma((z+2)/4) Gamma((z+3)/4) / (Gamma(z/4) Gamma((z+1)/4)): no term separates
        left, right = build_sides("functional", 2, 4, 1, 4, 1, 3)
        assert separating_term(left, right) is None
        rep = verify_identity("functional", 2, 4, 1, 4, m=1, l=3)
        assert rep.verdict == "not_proportional"
        assert not rep.exact
        assert rep.witnesses and len(rep.samples) == 50

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
        rf_normalize(Polynomial.z_plus(2), Polynomial.z_plus(3)),
        rf_normalize(Polynomial.one(), Polynomial.z_plus(4)),
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
