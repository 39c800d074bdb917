"""Gamma-quotient canonicalization, rationality decisions, power weights."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from mpmath import iv, mp

from bergshift.exact_algebra import PoleError, RationalFunction
from bergshift.gamma_ratio import (
    GammaRatioExpr,
    WeightExpr,
    canonicalize,
    dissimilar,
    eval_ball,
    is_rational_divisibility,
    match_parts,
    power_weight,
    rationality_oracle,
    separating_term,
)
from bergshift.identities import build_sides
from iv_oracle import ball_ratio
from rf_text import rational_function
from two_stage import weight_mul, weight_scale, weight_shift


def rf(num, den=(1,)):
    return rational_function(num, den)


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
                    rhs = weight_mul(weight_shift(power_weight(m1, p, n), 2 * m2), power_weight(m2, p, n))
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
    """The iv-object ratio check of ``tests/iv_oracle.py``, the oracle of the
    exact identity verdicts."""

    ZS = [Fraction(2 * k + 2) for k in range(8)]

    def test_scaled_gamma_weight_is_proportional(self):
        w = power_weight(1, 2, 3)
        check = ball_ratio(weight_scale(w, 3), w, self.ZS)
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
        w = weight_mul(WeightExpr.from_rational(rf((1,), (-4, 1))), power_weight(1, 2, 3))
        check = ball_ratio(weight_scale(w, 2), w, self.ZS)
        assert check.skipped_poles == (Fraction(4),)
        assert check.verdict == "proportional"


class TestGammaMemo:
    """``eval_ball`` evaluates ``iv.gamma`` once per distinct argument; the
    oracle's rows, one memo per precision pass shared by both sides, equal
    it bit for bit."""

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
    def test_one_gamma_call_per_distinct_argument(self, instance, monkeypatch):
        *args, bits, _ = instance
        calls = Counter()
        gamma = iv.gamma

        def spy(x):
            calls[iv.prec, x.a, x.b] += 1
            return gamma(x)

        def at_pole(arg):
            return arg <= 0 and arg.denominator == 1

        monkeypatch.setattr(iv, "gamma", spy)
        for side in build_sides(*args):
            for z in self.ZS:
                calls.clear()
                eval_ball(side, z, bits)
                assert set(calls.values()) <= {1}
                assert {prec for prec, _, _ in calls} <= {bits}
                # each argument of each Gamma atom, except in terms that
                # vanish because a denominator atom sits at a pole
                arguments = {(z + off) / td
                             for _, g in side.terms
                             if not any(at_pole((z + off) / td) for td, off in g.den)
                             for td, off in g.num + g.den}
                assert len(calls) == len(arguments)

    def test_skipped_poles_match_poles_at(self):
        zs = [Fraction(z) for z in (0, -2, -4, -1, -3, -6)] + [
            Fraction(-1, 2), Fraction(1, 3), Fraction(2), Fraction(4), Fraction(6), Fraction(10)]
        pole_at_4 = WeightExpr.from_rational(rf((1,), (-4, 1)))
        cases = [build_sides("commutator", 1, 2, 2, 3, 2, 3),
                 build_sides("functional", 1, 2, 2, 3, 2, 3),
                 build_sides("factored", 2, 4, 1, 3, 1, 3)]
        cases += ([(weight_mul(pole_at_4, a), b) for a, b in cases]
                  + [(a, weight_mul(pole_at_4, b)) for a, b in cases])
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


class TestMatchParts:
    G = power_weight(1, 2, 3).terms[0][1]   # scale 4
    H = power_weight(2, 3, 1).terms[0][1]   # scale 6

    @staticmethod
    def weight(*terms):
        return WeightExpr.build([(rf(num, den), g) for num, den, g in terms])

    def test_proportional_part_by_part(self):
        left = self.weight(((3, 6), (1, 1), self.G), ((3,), (2,), self.H), ((6,), (1,), GammaRatioExpr.one()))
        right = self.weight(((1, 2), (1, 1), self.G), ((1,), (2,), self.H), ((2,), (1,), GammaRatioExpr.one()))
        match = match_parts(left, right)
        assert (match.verdict, match.constant, match.parts) == ("proportional", 3, ())

    def test_a_coefficient_quotient_that_is_not_constant(self):
        left = self.weight(((1,), (1,), self.G), ((0, 1), (1,), self.H))
        right = self.weight(((1,), (1,), self.G), ((1,), (1,), self.H))
        match = match_parts(left, right)
        assert (match.verdict, match.constant, match.parts) == ("not_proportional", None, (self.H,))

    def test_two_parts_that_need_different_constants(self):
        left = self.weight(((2,), (1,), self.G), ((3,), (1,), self.H))
        right = self.weight(((1,), (1,), self.G), ((1,), (1,), self.H))
        match = match_parts(left, right)
        assert (match.verdict, match.constant, match.parts) == (
            "not_proportional", None, (self.G, self.H))

    def test_a_part_missing_on_one_side(self):
        both = self.weight(((1,), (1,), self.G), ((1,), (1,), self.H))
        only_g = self.weight(((1,), (1,), self.G))
        assert match_parts(both, only_g).parts == (self.H,)
        assert match_parts(only_g, both).verdict == "not_proportional"

    def test_a_zero_side(self):
        w = self.weight(((1,), (1,), self.G))
        assert (match_parts(WeightExpr.zero(), w).verdict, match_parts(WeightExpr.zero(), w).constant) == (
            "proportional", 0)
        assert match_parts(w, WeightExpr.zero()).verdict == "not_proportional"
        assert match_parts(WeightExpr.zero(), WeightExpr.zero()).constant == 0

    def test_parts_not_shown_dissimilar_are_inconclusive(self):
        # sqrt(2) * 1 against 1: similar parts, so no coefficient decides
        left = WeightExpr.build([(RationalFunction.one(), SQRT2)])
        match = match_parts(left, WeightExpr.one())
        assert (match.verdict, match.constant) == ("inconclusive", None)
        assert set(match.parts) == {SQRT2, GammaRatioExpr.one()}
        assert match_parts(left, left).verdict == "proportional"


def test_mixed_scale_products_stay_closed():
    # atoms from different root scales coexist and cancel per scale
    a = GammaRatioExpr.of(2, [1], [0])
    b = GammaRatioExpr.of(4, [3], [2])
    prod = a * b
    assert set(prod.num) == {(2, 1), (4, 3)}
    assert (a * a.inverse()).is_one


# ---------------------------------------------------------------------------
# structural separation


def gq(num, den=()):
    return GammaRatioExpr(tuple(sorted(num)), tuple(sorted(den)))


def gw(*terms):
    """Weight expression from (coefficient, Gamma part) pairs."""
    return WeightExpr.build([(RationalFunction.one().scale(c), g) for c, g in terms])


# Gamma(z/4) Gamma((z+2)/4) Gamma((z+1)/2) / (Gamma(z/2) Gamma((z+1)/4) Gamma((z+3)/4)),
# which is sqrt(2) for every z by Legendre duplication.
SQRT2 = gq([(4, 0), (4, 2), (2, 1)], [(2, 0), (4, 1), (4, 3)])
# G = Gamma(z/4) Gamma((z+2)/4) / Gamma(z/2) and H = Gamma((z+1)/4) Gamma((z+3)/4)
# / Gamma((z+1)/2): G = 2^(1-z/2) sqrt(pi) and H = 2^(1/2-z/2) sqrt(pi), so
# G^2 - 2 H^2 vanishes identically.
G = gq([(4, 0), (4, 2)], [(2, 0)])
H = gq([(4, 1), (4, 3)], [(2, 1)])


def _prime_exponents(v):
    out, q = Counter(), 2
    while v > 1:
        while v % q == 0:
            out[q] += 1
            v //= q
        q += 1
    return out


def rational_quotient_oracle(g, h):
    """Whether g/h is a rational function, from the dense key: the net
    pole count at every residue mod the lcm of the scales, and the prime
    part sum of +-v_q(delta)/delta for each prime q, by trial division."""
    atoms = [(1, a) for a in g.num + h.den] + [(-1, a) for a in g.den + h.num]
    M = 1
    for _, (td, _) in atoms:
        M = M * td // gcd(M, td)
    counts = [0] * M
    prime_part = Counter()
    for sign, (td, off) in atoms:
        for t in range(M):
            if (t - off) % td == 0:
                counts[t] += sign
        for q, e in _prime_exponents(td).items():
            prime_part[q] += Fraction(sign * e, td)
    return not any(counts) and not any(prime_part.values())


def random_pair(rng, scales):
    """Two Gamma quotients over the given scales whose quotient is often
    rational or a constant times b^z: the second is the first with offsets
    raised by multiples of their scale, and Gauss multiplication blocks
    Gamma((z+a)/delta) against prod_k Gamma((z+a+k delta)/(e delta)) go on
    either side, with one atom sometimes added to one of them."""
    def atoms():
        return [(td, rng.randrange(2 * td)) for td in rng.choices(scales, k=rng.randint(0, 3))]

    g_num, g_den = atoms(), atoms()
    h_num = [(td, off + td * rng.randint(0, 2)) for td, off in g_num]
    h_den = [(td, off + td * rng.randint(0, 2)) for td, off in g_den]
    blocks = [(td, big // td) for td in scales for big in scales if big > td and big % td == 0]
    for _ in range(rng.randint(0, 3) if blocks else 0):
        td, e = rng.choice(blocks)
        a = rng.randrange(td * e)
        g_side, h_side = rng.choice([(g_num, h_num), (g_den, h_den)])
        g_side.append((td, a))
        h_side.extend((td * e, a + k * td) for k in range(e))
    if rng.random() < 0.3:
        rng.choice([g_num, g_den, h_num, h_den]).extend(atoms()[:1])
    return gq(g_num, g_den), gq(h_num, h_den)


class TestDissimilar:
    def test_duplication_differs_only_in_the_prime_part(self):
        # Gamma(z/2) Gamma((z+1)/2) = 2^(1-z) sqrt(pi) Gamma(z): the counts agree
        assert dissimilar(gq([(2, 0), (2, 1)]), gq([(1, 0)]))
        assert dissimilar(gq([(1, 0)]), gq([(2, 0), (2, 1)]))

    def test_counts_alone_separate(self):
        # no prime part: one scale, and two scales with equal net atoms per prime
        assert dissimilar(gq([(2, 0)], [(2, 1)]), GammaRatioExpr.one())
        assert dissimilar(gq([(4, 0), (4, 1)], [(2, 0), (2, 1)]), GammaRatioExpr.one())
        assert dissimilar(gq([(6, 1)], [(4, 3)]), gq([(6, 5)], [(4, 1)]))

    def test_constant_quotients_are_not_separated(self):
        assert not dissimilar(SQRT2, GammaRatioExpr.one())
        assert not dissimilar(G * G, H * H)
        assert not dissimilar(G, G)
        # equal up to the functional equation: Gamma((z+7)/3) = rational * Gamma((z+1)/3)
        assert not dissimilar(gq([(3, 7)], [(5, 2)]), gq([(3, 1)], [(5, 12)]))

    def test_huge_scales_are_read_sparsely(self):
        p, s = 999983, 1000003
        assert dissimilar(gq([(2 * p, 4)], [(2 * s, 1)]), GammaRatioExpr.one())
        assert not dissimilar(gq([(2 * p, 4), (2 * s, 1)]), gq([(2 * p, 2 * p + 4), (2 * s, 1)]))

    @pytest.mark.parametrize("scales", [(1,), (4,), (2, 4), (1, 3), (2, 6), (4, 6), (3, 5),
                                        (2, 3, 6), (2, 4, 8)])
    def test_against_the_dense_key(self, scales):
        rng = random.Random(sum(scales))
        for _ in range(150):
            g, h = random_pair(rng, scales)
            rational = rational_quotient_oracle(g, h)
            if len(scales) <= 2:
                assert dissimilar(g, h) is not rational, (g, h)
            elif dissimilar(g, h):  # more scales: sound, but may not show it
                assert not rational, (g, h)


class TestSeparatingTerm:
    def test_single_dissimilar_terms_refute_from_the_left(self):
        assert separating_term(gw((1, G)), WeightExpr.one()) == ("left", G)
        assert separating_term(gw((1, G)), gw((1, H))) is None  # G / H = sqrt(2)

    def test_sqrt2_is_not_separated_from_one(self):
        assert separating_term(gw((1, SQRT2)), WeightExpr.one()) is None
        assert separating_term(WeightExpr.one(), gw((1, SQRT2))) is None

    def test_a_right_term_refutes_only_a_nonzero_left(self):
        a, b = gq([(2, 0)], [(2, 1)]), gq([(3, 0)], [(3, 1)])
        assert separating_term(gw((1, a)), gw((1, a), (1, b))) == ("right", b)
        assert separating_term(WeightExpr.zero(), gw((1, b))) is None
        # G^2 - 2 H^2 is zero with no term of its own alone: c = 0 fits
        vanishing = gw((1, G * G), (-2, H * H))
        assert separating_term(vanishing, WeightExpr.one()) is None
        assert separating_term(WeightExpr.one(), vanishing) == ("left", GammaRatioExpr.one())
