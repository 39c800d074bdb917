"""Operator algebra: composition, commutators, basis action, zero tests."""

import enum
import random
from fractions import Fraction

import pytest

from bergshift.exact_algebra import PoleError
from bergshift import shift_algebra
from bergshift.gamma_ratio import BallValue, GammaRatioExpr, WeightExpr, power_weight, separating_term
from bergshift.mellin import RadialSymbol, toeplitz_weight
from bergshift.shift_algebra import (
    ShiftSum,
    ZeroVerdict,
    apply_to_basis,
    commutator,
    compose,
    is_zero,
    linear_combine,
    quasihomogeneous_operator,
    root_operator,
)
from rf_text import rational_function
from two_stage import weight_add, weight_mul, weight_scale, weight_sub


class EqualityVerdict(enum.Enum):
    EQUAL = "equal"
    NOT_EQUAL = "not_equal"
    UNKNOWN = "unknown"


def op_equal(a: ShiftSum, b: ShiftSum, precision_bits: int = 200) -> EqualityVerdict:
    """Degree-wise zero test of a - b, conjoined: the tests' operator
    equality, on the package's tri-state ``is_zero``."""
    degrees = sorted(set(a.degrees) | set(b.degrees))
    saw_unknown = False
    for d in degrees:
        verdict = is_zero(weight_sub(a.weight_at(d), b.weight_at(d)), precision_bits)
        if verdict is ZeroVerdict.NONZERO:
            return EqualityVerdict.NOT_EQUAL
        if verdict is ZeroVerdict.UNKNOWN:
            saw_unknown = True
    return EqualityVerdict.UNKNOWN if saw_unknown else EqualityVerdict.EQUAL


def rf(num, den=(1,)):
    return rational_function(num, den)


def T(p, n):
    return quasihomogeneous_operator(p, RadialSymbol.monomial(n))


class TestLinearCombine:
    def test_cancellation(self):
        a = T(1, 2)
        assert linear_combine([(1, a), (-1, a)]).is_zero

    def test_disjoint_degrees(self):
        s = linear_combine([(1, T(1, 2)), (1, T(2, 3))])
        assert s.degrees == (1, 2)

    def test_scaled_identity(self):
        s = linear_combine([(2, ShiftSum.identity())])
        assert s.weight_at(0).as_rational() == rf((2,))


class TestCompose:
    def test_weight_product_with_shift(self):
        got = compose(T(1, 2), T(2, 3))
        assert got.degrees == (3,)
        expected = rf((6, 1), (7, 1)) * rf((4, 1), (5, 1))
        assert got.weight_at(3).as_rational() == expected

    def test_identity_neutral(self):
        a = T(1, 2)
        assert compose(a, ShiftSum.identity()) == a
        assert compose(ShiftSum.identity(), a) == a

    def test_pure_shifts_compose(self):
        got = compose(T(1, 1), T(2, 2))
        assert got.degrees == (3,)
        assert got.weight_at(3) == WeightExpr.one()


class TestCommutator:
    def test_self_commutator_vanishes(self):
        assert commutator(T(1, 2), T(1, 2)).is_zero

    def test_nondegenerate_bracket(self):
        got = commutator(T(1, 2), T(2, 3))
        assert got.degrees == (3,)
        # 2(z+6)/((z+3)(z+5)(z+7))
        assert got.weight_at(3).as_rational() == rf((12, 2), (105, 71, 15, 1))

    def test_pure_shifts_commute(self):
        assert commutator(T(1, 1), T(2, 2)).is_zero


class TestApply:
    def test_single_operator(self):
        [bv] = apply_to_basis(T(1, 2), 0)
        assert (bv.index, bv.coefficient) == (1, Fraction(4, 5))

    def test_identity(self):
        for k in (0, 5, 12):
            [bv] = apply_to_basis(ShiftSum.identity(), k)
            assert (bv.index, bv.coefficient) == (k, 1)

    def test_sum_of_operators(self):
        got = apply_to_basis(linear_combine([(1, T(1, 2)), (1, T(2, 3))]), 0)
        assert [(bv.index, bv.coefficient) for bv in got] == [
            (1, Fraction(4, 5)),
            (2, Fraction(6, 7)),
        ]

    def test_gamma_weight_gives_ball(self):
        [bv] = apply_to_basis(root_operator(2, 3), 0)
        assert bv.index == 1
        assert isinstance(bv.coefficient, BallValue)

    def test_compose_consistency(self):
        # applying A then B equals applying compose(B, A), exactly
        rng = random.Random(31337)
        for _ in range(40):
            a = T(rng.randint(0, 3), rng.randint(1, 6))
            b = T(rng.randint(0, 3), rng.randint(1, 6))
            ba = compose(b, a)
            for k in range(0, 21, 5):
                [mid] = apply_to_basis(a, k)
                [end] = apply_to_basis(b, mid.index)
                [direct] = apply_to_basis(ba, k)
                assert direct.index == end.index
                assert direct.coefficient == mid.coefficient * end.coefficient


class TestIsZero:
    def test_zero_with_proof(self):
        w = commutator(T(1, 2), T(1, 2)).weight_at(2)
        assert is_zero(w) is ZeroVerdict.ZERO

    def test_nonzero_bracket(self):
        w = commutator(T(1, 2), T(2, 3)).weight_at(3)
        assert is_zero(w) is ZeroVerdict.NONZERO

    def test_gamma_difference_reduces_to_zero(self):
        # cancels only after functional-equation reduction
        for p, n in ((1, 2), (2, 3), (3, 4)):
            w = weight_sub(power_weight(p, p, n), toeplitz_weight(p, RadialSymbol.monomial(n)))
            assert is_zero(w) is ZeroVerdict.ZERO

    def test_gamma_bearing_nonzero(self):
        assert is_zero(power_weight(1, 2, 3)) is ZeroVerdict.NONZERO

    def test_soundness_randomized(self):
        rng = random.Random(321)
        for _ in range(100):
            w = toeplitz_weight(rng.randint(0, 3), RadialSymbol.monomial(rng.randint(1, 8)))
            scaled = weight_scale(w, Fraction(rng.randint(-3, 3)))
            verdict = is_zero(scaled)
            if scaled.is_zero:
                assert verdict is ZeroVerdict.ZERO
            else:
                assert verdict is ZeroVerdict.NONZERO


class TestOpEqual:
    def test_reflexive(self):
        a = T(1, 2)
        assert op_equal(a, a) is EqualityVerdict.EQUAL

    def test_distinct_degrees(self):
        assert op_equal(T(1, 1), T(2, 2)) is EqualityVerdict.NOT_EQUAL

    def test_first_root_is_operator_itself(self):
        assert op_equal(root_operator(1, 2), T(1, 2)) is EqualityVerdict.EQUAL


class TestRootTelescoping:
    def test_all_small_parameters(self):
        for p in range(1, 5):
            for n in range(1, 9):
                power = ShiftSum.identity()
                root = root_operator(p, n)
                for _ in range(p):
                    power = compose(root, power)
                assert power.degrees == (p,)
                assert power.weight_at(p) == toeplitz_weight(p, RadialSymbol.monomial(n))


def _random_monomial_ops(rng, count):
    return [T(rng.randint(0, 3), rng.randint(1, 6)) for _ in range(count)]


def test_associativity_randomized():
    rng = random.Random(12345)
    for _ in range(500):
        a, b, c = _random_monomial_ops(rng, 3)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_commutator_bilinear_antisymmetric():
    rng = random.Random(54321)
    for _ in range(500):
        a, b, c = _random_monomial_ops(rng, 3)
        x = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        assert commutator(a, b) == linear_combine([(-1, commutator(b, a))])
        lhs = commutator(linear_combine([(x[0], a), (x[1], b)]), c)
        rhs = linear_combine([(x[0], commutator(a, c)), (x[1], commutator(b, c))])
        assert lhs == rhs


def test_jacobi_identity():
    rng = random.Random(777)
    for _ in range(500):
        a, b, c = _random_monomial_ops(rng, 3)
        total = linear_combine([
            (1, commutator(a, commutator(b, c))),
            (1, commutator(b, commutator(c, a))),
            (1, commutator(c, commutator(a, b))),
        ])
        assert total.is_zero


def test_degree_additivity():
    rng = random.Random(999)
    for _ in range(100):
        a = linear_combine([(1, t) for t in _random_monomial_ops(rng, 2)])
        b = linear_combine([(1, t) for t in _random_monomial_ops(rng, 2)])
        sums = {i + j for i in a.degrees for j in b.degrees}
        assert set(compose(a, b).degrees) <= sums


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        ShiftSum.build([(-1, WeightExpr.one())])


def test_apply_pole_raises():
    bad = ShiftSum.single(1, WeightExpr.from_rational(rf((1,), (-4, 1))))
    with pytest.raises(PoleError):
        apply_to_basis(bad, 1)  # z = 4 is a pole of 1/(z-4)


def test_apply_gamma_bearing_pole_raises_at_the_point():
    bad = ShiftSum.single(1, weight_mul(WeightExpr.from_rational(rf((1,), (-4, 1))), power_weight(1, 2, 3)))
    assert not bad.weight_at(1).is_rational
    with pytest.raises(PoleError) as exc:
        apply_to_basis(bad, 1)
    assert exc.value.point == 4


# Gamma(z/4) Gamma((z+2)/4) Gamma((z+1)/2) / (Gamma(z/2) Gamma((z+1)/4) Gamma((z+3)/4)),
# which is sqrt(2) for every z by Legendre duplication: it and 1 are similar terms.
SQRT2 = WeightExpr.build([(rf((1,)), GammaRatioExpr(((2, 1), (4, 0), (4, 2)),
                                                    ((2, 0), (4, 1), (4, 3))))])


def test_is_zero_skips_pole_samples():
    # z = 2, the first sample, is a pole; the next sample certifies NONZERO.
    # The terms sqrt(2)/(z-2) and 1 are similar, so only sampling decides.
    w = weight_add(weight_mul(WeightExpr.from_rational(rf((1,), (-2, 1))), SQRT2), WeightExpr.one())
    assert separating_term(w, WeightExpr.zero()) is None
    assert is_zero(w) is ZeroVerdict.NONZERO


def test_is_zero_nonzero_from_a_lone_term_evaluates_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated a weight with a lone term")
    monkeypatch.setattr(shift_algebra, "eval_ball", refuse)
    assert is_zero(power_weight(1, 2, 3)) is ZeroVerdict.NONZERO
    # Gamma(z/2) Gamma((z+1)/2) / Gamma(z) = 2^(1-z) sqrt(pi) is no constant
    duplication = WeightExpr.build([(rf((1,)), GammaRatioExpr(((2, 0), (2, 1)), ((1, 0),)))])
    assert is_zero(weight_sub(duplication, WeightExpr.one())) is ZeroVerdict.NONZERO
    assert is_zero(commutator(T(1, 2), T(2, 3)).weight_at(3)) is ZeroVerdict.NONZERO


def test_is_zero_leaves_similar_terms_to_sampling():
    # sqrt(2) - 1 is certified by a ball; sqrt(2)^2 - 2 vanishes, which
    # neither the normal form nor a ball can show
    assert is_zero(weight_sub(SQRT2, WeightExpr.one())) is ZeroVerdict.NONZERO
    assert is_zero(weight_sub(weight_mul(SQRT2, SQRT2), weight_scale(WeightExpr.one(), 2))) is ZeroVerdict.UNKNOWN
