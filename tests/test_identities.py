"""Pointwise proportionality checks of the closed-form weight identities."""

from fractions import Fraction

import pytest

from bergshift.exact_algebra import Polynomial, rf_normalize
from bergshift.gamma_ratio import BallValue
from bergshift.identities import (
    _exact_proportionality,
    build_sides,
    default_samples,
    verify_identity,
)


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
        assert rep.verdict == "not_proportional"
        assert rep.witnesses

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
        assert rep.verdict == "not_proportional"
        assert rep.witnesses
        # witnesses are sample points from the default list
        zs = set(default_samples())
        for z1, z2 in rep.witnesses:
            assert z1 in zs and z2 in zs

    def test_requires_degree_balance(self):
        with pytest.raises(ValueError):
            verify_identity("functional", 1, 2, 2, 3, m=1, l=3)

    def test_ratio_constant_is_ball_certified_for_gamma_sides(self):
        rep = verify_identity("functional", 1, 2, 2, 3, m=2, l=3)
        assert not rep.exact
        rows_with_ratio = [row for row in rep.samples if row.ratio is not None]
        assert rows_with_ratio
        assert isinstance(rows_with_ratio[0].ratio, BallValue)


def test_precision_doubling_recovers_from_low_start():
    # At 1 or 2 bits right-hand enclosures contain zero; such samples must
    # force doubling rather than count as consistent.
    for start in (1, 2, 8):
        rep = verify_identity("functional", 1, 2, 2, 3, m=2, l=3,
                              sample_zs=default_samples(12), precision_bits=start)
        assert rep.verdict == "not_proportional", start
        assert rep.precision_bits >= start


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
