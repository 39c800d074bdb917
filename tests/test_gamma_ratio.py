"""Gamma-quotient canonicalization, rationality decisions, power weights."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import iv, mp

from bergshift.exact_algebra import (
    PoleError,
    Polynomial,
    RationalFunction,
    rf_normalize,
)
from bergshift.gamma_ratio import (
    GammaRatioExpr,
    WeightExpr,
    ball_ratio,
    canonicalize,
    eval_ball,
    is_rational_divisibility,
    power_weight,
    rationality_oracle,
)
from bergshift.identities import build_sides


def rf(num, den=(1,)):
    return rf_normalize(Polynomial.from_coeffs(num), Polynomial.from_coeffs(den))


def poles_at(w, z0):
    """Oracle: True when some term of the normalized form of w is singular
    at z0.  Numerator Gamma atoms at nonpositive integer arguments are
    poles; denominator atoms there only make the term vanish."""
    for c, g in w.terms:
        if c.den.eval(z0) == 0:
            return True
        for td, off in g.num:
            arg = (z0 + off) / td
            if arg <= 0 and arg.denominator == 1:
                return True
    return False


class TestCanonicalize:
    def test_functional_equation_extraction(self):
        # one step: offset two_delta above the base class
        for p in (1, 2, 3):
            g = GammaRatioExpr.of(2 * p, [2 * p], [0])
            cofactor, reduced = canonicalize(g)
            assert reduced.is_one
            assert cofactor == rf((0, Fraction(1, 2 * p)))

    def test_distinct_residues_irreducible(self):
        g = GammaRatioExpr.of(4, [2], [3])
        cofactor, reduced = canonicalize(g)
        assert cofactor == RationalFunction.one()
        assert reduced == g

    @pytest.mark.parametrize("atom, message", [
        ((2, -1), "offsets must be nonnegative"),
        ((0, 1), "two_delta must be a positive integer"),
        ((-2, 1), "two_delta must be a positive integer"),
        ((Fraction(2), 1), "two_delta must be a positive integer"),
        ((2, Fraction(1)), "offsets must be integers"),
    ])
    def test_constructor_checks_every_atom(self, atom, message):
        for num, den in (((atom,), ()), (((2, 0),), (atom,))):
            with pytest.raises(ValueError, match=message):
                GammaRatioExpr(num, den)

    def test_of_rejects_negative_offsets(self):
        with pytest.raises(ValueError, match="offsets must be nonnegative"):
            GammaRatioExpr.of(2, [1], [-1])
        with pytest.raises(ValueError, match="two_delta must be a positive integer"):
            GammaRatioExpr.of(0, [1], [])

    def test_identical_atoms_cancel(self):
        g = GammaRatioExpr.of(6, [5], [5])
        assert g.is_one

    def test_idempotent(self):
        g = GammaRatioExpr.of(4, [9, 6], [1, 2])
        _, reduced = canonicalize(g)
        cofactor2, reduced2 = canonicalize(reduced)
        assert cofactor2 == RationalFunction.one()
        assert reduced2 == reduced

    def test_value_preserving_randomized(self):
        """cofactor * reduced == original, numerically, random expressions."""
        rng = random.Random(2718)
        old = mp.prec
        mp.prec = 250
        try:
            for _ in range(60):
                two_delta = 2 * rng.randint(1, 4)
                num = [rng.randint(0, 20) for _ in range(rng.randint(0, 3))]
                den = [rng.randint(0, 20) for _ in range(rng.randint(0, 3))]
                g = GammaRatioExpr.of(two_delta, num, den)
                w = WeightExpr.build([(RationalFunction.one(), g)])
                for _ in range(5):
                    z = Fraction(rng.randint(1, 40))
                    raw = mp.mpf(1)
                    for td, off in g.num:
                        raw *= mp.gamma(mp.mpf(int(z) + off) / td)
                    for td, off in g.den:
                        raw /= mp.gamma(mp.mpf(int(z) + off) / td)
                    ball = eval_ball(w, z, 250)
                    assert abs(ball.mid - raw) <= ball.rad + mp.mpf(2) ** -180
        finally:
            mp.prec = old


class TestRationalityDecision:
    def test_known_rational_instance(self):
        # offsets from m=1, p=1, n=3: full cancellation
        assert is_rational_divisibility(2, 4, 0, 6, 1) is True
        assert rationality_oracle(GammaRatioExpr.of(2, [2, 4], [0, 6])) is True

    def test_known_irrational_instance(self):
        assert is_rational_divisibility(2, 3, 0, 5, 2) is False
        assert rationality_oracle(GammaRatioExpr.of(4, [2, 3], [0, 5])) is False

    def test_trivial_equality(self):
        for delta in (1, 2, 3):
            assert is_rational_divisibility(7, 9, 7, 9, delta) is True

    def test_empty_expression_is_rational(self):
        assert rationality_oracle(GammaRatioExpr.one()) is True

    def test_exhaustive_agreement_small_range(self):
        # full exhaustive range runs in the acceptance suite
        for delta in (1, 2):
            td = 2 * delta
            for a in range(7):
                for b in range(7):
                    for c in range(7):
                        for d in range(7):
                            expr = GammaRatioExpr.of(td, [a, b], [c, d])
                            assert (is_rational_divisibility(a, b, c, d, delta)
                                    == rationality_oracle(expr)), (a, b, c, d, delta)


class TestPowerWeight:
    def test_zeroth_power_is_one(self):
        assert power_weight(0, 3, 5) == WeightExpr.one()

    def test_pth_power_matches_monomial_weight(self):
        for p in range(1, 5):
            for n in range(1, 9):
                assert power_weight(p, p, n).as_rational() == rf((2 * p, 1), (p + n, 1))

    def test_unit_root(self):
        assert power_weight(1, 1, 1) == WeightExpr.one()

    def test_double_shift_root_is_pure(self):
        assert power_weight(1, 2, 2) == WeightExpr.one()

    def test_genuine_gamma_content(self):
        pw = power_weight(1, 2, 3)
        assert not pw.is_rational

    def test_multiplicativity(self):
        for p, n in ((1, 2), (2, 3), (3, 4)):
            for m1 in range(0, 4):
                for m2 in range(0, 7 - m1):
                    lhs = power_weight(m1 + m2, p, n)
                    rhs = power_weight(m1, p, n).shift(2 * m2) * power_weight(m2, p, n)
                    assert lhs == rhs, (p, n, m1, m2)


class TestEvalBall:
    def test_identically_one_expression(self):
        ball = eval_ball(power_weight(1, 1, 1), Fraction(6), 200)
        assert ball.lower <= 1 <= ball.upper
        assert ball.rad < mp.mpf(10) ** -30

    def test_exact_rational_value(self):
        w = WeightExpr.from_rational(rf((2, 1), (3, 1)))
        ball = eval_ball(w, Fraction(2), 200)
        assert ball.lower <= mp.mpf(4) / 5 <= ball.upper
        assert ball.rad < mp.mpf(10) ** -50

    def test_root_square_relation(self):
        # weight of the half shift at z and z+2 must multiply to the full weight
        w = power_weight(1, 2, 3)
        b1 = eval_ball(w, Fraction(2), 200)
        b2 = eval_ball(w, Fraction(4), 200)
        full = power_weight(2, 2, 3).as_rational()
        target = Fraction(full.num.eval(Fraction(2))) / full.den.eval(Fraction(2))
        target_mp = mp.mpf(target.numerator) / target.denominator
        prod_lo = b1.lower * b2.lower
        prod_hi = b1.upper * b2.upper
        assert prod_lo <= target_mp <= prod_hi

    def test_monotone_refinement(self):
        w = power_weight(1, 2, 3)
        r_low = eval_ball(w, Fraction(2), 80).rad
        r_high = eval_ball(w, Fraction(2), 320).rad
        assert r_high < r_low

    def test_pole_detection(self):
        w = WeightExpr.from_rational(rf((1,), (0, 1)))
        with pytest.raises(PoleError):
            eval_ball(w, Fraction(0), 100)
        gamma_pole = WeightExpr.build(
            [(RationalFunction.one(), GammaRatioExpr.of(2, [0], []))])
        assert poles_at(gamma_pole, Fraction(-2))
        with pytest.raises(PoleError):
            eval_ball(gamma_pole, Fraction(-2), 100)


class TestBallRatio:
    ZS = [Fraction(2 * k + 2) for k in range(8)]

    def test_scaled_gamma_weight_is_proportional(self):
        w = power_weight(1, 2, 3)
        check = ball_ratio(w.scale(3), w, self.ZS)
        assert check.verdict == "proportional"
        assert check.constant.lower <= 3 <= check.constant.upper
        assert check.precision_bits == 200
        assert not check.witnesses and not check.skipped_poles

    def test_both_sides_exactly_zero(self):
        check = ball_ratio(WeightExpr.zero(), WeightExpr.zero(), self.ZS)
        assert check.verdict == "proportional"
        assert check.constant is None
        assert all(row.ratio is None for row in check.rows)

    def test_zero_right_side_is_never_consistent(self):
        # the right enclosure is exactly zero but the left is not: doubling
        # cannot help, and the check gives up after four doublings
        check = ball_ratio(power_weight(1, 2, 3), WeightExpr.zero(), self.ZS, 20)
        assert check.verdict == "inconclusive"
        assert check.precision_bits == 20 * 2**4

    def test_poles_are_skipped(self):
        w = WeightExpr.from_rational(rf((1,), (-4, 1))) * power_weight(1, 2, 3)
        check = ball_ratio(w.scale(2), w, self.ZS)
        assert check.skipped_poles == (Fraction(4),)
        assert check.verdict == "proportional"


class TestIntervalMemo:
    """``ball_ratio`` shares one interval memo per precision pass between its
    two sides and folds the pole test into evaluation; ``eval_ball``, with
    a fresh memo per call, is the oracle."""

    ZS = [Fraction(2 * k + 2) for k in range(8)]
    # (scenario, p, s, n, d, m, l, bits, passes): each keeps Gamma content
    # on at least one side; the low starting precisions force doublings.
    INSTANCES = [
        ("commutator", 1, 2, 2, 3, 2, 3, 200, 1),
        ("commutator", 2, 3, 1, 1, 1, 2, 4, 4),
        ("functional", 1, 2, 2, 3, 2, 3, 200, 1),
        ("functional", 1, 2, 2, 3, 2, 3, 8, 2),
        ("factored", 2, 4, 1, 3, 1, 3, 200, 1),
        ("factored", 2, 4, 1, 3, 1, 3, 4, 3),
    ]

    @staticmethod
    def pass_count(check, bits):
        return check.precision_bits.bit_length() - bits.bit_length() + 1

    @pytest.mark.parametrize("instance", INSTANCES)
    def test_rows_equal_eval_ball_bit_for_bit(self, instance):
        *args, bits, passes = instance
        left, right = build_sides(*args)
        assert not (left.is_rational and right.is_rational)
        check = ball_ratio(left, right, self.ZS, bits)
        assert self.pass_count(check, bits) == passes
        assert len(check.rows) == len(self.ZS)
        for row in check.rows:
            for side, ball in ((left, row.left), (right, row.right)):
                oracle = eval_ball(side, row.z, check.precision_bits)
                assert (ball.mid._mpf_, ball.rad._mpf_) == (oracle.mid._mpf_, oracle.rad._mpf_)

    @pytest.mark.parametrize("instance", INSTANCES)
    def test_one_gamma_call_per_distinct_argument_per_pass(self, instance, monkeypatch):
        *args, bits, passes = instance
        left, right = build_sides(*args)
        calls = Counter()
        gamma = iv.gamma

        def spy(x):
            calls[iv.prec, x.a, x.b] += 1
            return gamma(x)

        monkeypatch.setattr(iv, "gamma", spy)
        check = ball_ratio(left, right, self.ZS, bits)
        assert self.pass_count(check, bits) == passes
        assert set(calls.values()) == {1}

        def at_pole(arg):
            return arg <= 0 and arg.denominator == 1

        # Every pass evaluates each argument of each Gamma atom once, except
        # in terms that vanish because a denominator atom sits at a pole.
        arguments = {(z + off) / td
                     for z in self.ZS
                     for side in (left, right)
                     for _, g in side.terms
                     if not any(at_pole((z + off) / td) for td, off in g.den)
                     for td, off in g.num + g.den}
        per_pass = Counter(prec for prec, _, _ in calls)
        assert sorted(per_pass) == [bits << k for k in range(passes)]
        assert set(per_pass.values()) == {len(arguments)}

    def test_skipped_poles_match_poles_at(self):
        zs = [Fraction(z) for z in (0, -2, -4, -1, -3, -6)] + [
            Fraction(-1, 2), Fraction(1, 3), Fraction(2), Fraction(4), Fraction(6), Fraction(10)]
        pole_at_4 = WeightExpr.from_rational(rf((1,), (-4, 1)))
        cases = [build_sides("commutator", 1, 2, 2, 3, 2, 3),
                 build_sides("functional", 1, 2, 2, 3, 2, 3),
                 build_sides("factored", 2, 4, 1, 3, 1, 3)]
        cases += [(pole_at_4 * a, b) for a, b in cases] + [(a, pole_at_4 * b) for a, b in cases]
        for left, right in cases:
            expected = tuple([z for z in zs if poles_at(right, z) or poles_at(left, z)])
            assert expected  # the samples hit poles of this pair
            check = ball_ratio(left, right, zs)
            assert check.skipped_poles == expected
            assert [row.z for row in check.rows] == [z for z in zs if z not in expected]
            for side in (left, right):
                for z in zs:
                    if poles_at(side, z):
                        with pytest.raises(PoleError):
                            eval_ball(side, z)
                    else:
                        eval_ball(side, z)


def test_mixed_scale_products_stay_closed():
    # atoms from different root scales coexist and cancel per scale
    a = GammaRatioExpr.of(2, [1], [0])
    b = GammaRatioExpr.of(4, [3], [2])
    prod = a * b
    assert set(prod.num) == {(2, 1), (4, 3)}
    assert (a * a.inverse()).is_one
