"""Exact polynomial and rational-function arithmetic.

Denominators are given as the roots c of their factors z + c; the
round-trip and parse-error tests read the text form back with the
test-side parser in ``rf_text``."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergshift.exact_algebra import (
    MAX_NESTING_DEPTH,
    ExprSyntaxError,
    PoleError,
    Polynomial,
    RationalFunction,
    format_rational_function,
    poly_gcd,
    rf_arith,
    rf_eval,
    rf_normalize,
    rf_shift,
)
from rf_text import MAX_POWER, parse_rational, parse_rational_function, root_pairs, root_values


def poly(*coeffs):
    """Polynomial from low-to-high coefficients."""
    return Polynomial.from_coeffs(coeffs)


def rf(num, roots=()):
    """num (low-to-high coefficients) over prod (z + c), c in roots."""
    return rf_normalize(poly(*num), roots)


class TestNormalize:
    def test_common_root_cancels(self):
        # (z^2+3z+2)/((z+1)(z+3)) -> (z+2)/(z+3)
        assert rf((2, 3, 1), (1, 3)) == rf((2, 1), (3,))

    def test_polynomial_division(self):
        # (z^2-1)/(z-1) -> z+1
        a = rf((-1, 0, 1), (-1,))
        assert a == rf((1, 1))
        assert a.den == Polynomial.one()
        assert a.roots == ()

    def test_zero_numerator(self):
        assert rf((0,), (3,)).is_zero

    @pytest.mark.parametrize("den", [Polynomial.zero(), poly(3, 1)])
    def test_expanded_denominator_rejected(self, den):
        with pytest.raises(ValueError, match="roots"):
            rf_normalize(poly(1), den)

    def test_idempotent(self):
        a = rf((4, 1), (5,))
        assert rf_normalize(a.num, root_values(a.roots)) == a

    def test_repeated_root_cancels_with_its_multiplicity(self):
        # (z+1/2)^2 (z-2) / ((z+1/2)^3 (z-2)) -> 1/(z+1/2)
        half = Fraction(1, 2)
        a = rf_normalize(Polynomial.linear_product([half, half, -2]), [half, -2, half, half])
        assert a == rf((1,), (half,))
        assert a.den.leading == 1

    def test_roots_are_stored_as_sorted_int_pairs(self):
        a = rf((1,), (Fraction(6, 3), Fraction(-1, 2), -3))
        assert a.roots == ((-3, 1), (-1, 2), (2, 1))


class TestArith:
    def test_difference_of_neighbours(self):
        # (z+4)/(z+5) - (z+2)/(z+3) = 2/((z+3)(z+5))
        a, b = rf((4, 1), (5,)), rf((2, 1), (3,))
        assert rf_arith(a, b, "sub") == rf((2,), (3, 5))

    def test_self_difference(self):
        a = rf((4, 1), (5,))
        assert rf_arith(a, a, "sub").is_zero

    def test_mul_identity(self):
        a = rf((7, 2), (Fraction(1, 3), -2))
        assert rf_arith(a, RationalFunction.one(), "mul") == a

    def test_division_is_not_an_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            rf_arith(rf((1,)), rf((1,), (2,)), "div")


class TestEvalShift:
    def test_eval(self):
        assert rf_eval(rf((2, 1), (3,)), 2) == Fraction(4, 5)

    def test_eval_at_pole(self):
        with pytest.raises(PoleError) as exc:
            rf_eval(rf((1,), (0,)), 0)
        assert exc.value.point == 0

    def test_weight_formula_instance(self):
        # (z+2p)/(z+p+n) at z=2 with p=1, n=2
        p, n = 1, 2
        w = rf((2 * p, 1), (p + n,))
        assert rf_eval(w, 2) == Fraction(4, 5)

    def test_shift(self):
        assert rf_shift(rf((2, 1), (3,)), 2) == rf((4, 1), (5,))

    def test_shift_zero_is_identity(self):
        a = rf((2, 1), (3,))
        assert rf_shift(a, 0) == a

    def test_shift_monomial_pole(self):
        m = 3
        assert rf_shift(rf((1,), (0,)), 2 * m) == rf((1,), (2 * m,))

    def test_shift_composes(self):
        a = rf((1, 2, 1), (3,))
        assert rf_shift(rf_shift(a, Fraction(1, 2)), 2) == rf_shift(a, Fraction(5, 2))


def _random_poly(rng, max_degree=6):
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
    return Polynomial.from_coeffs(coeffs)


def _random_roots(rng, max_count=4):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(rng.randint(0, max_count))]


def _random_rf(rng):
    return rf_normalize(_random_poly(rng), _random_roots(rng))


def test_field_axioms_randomized():
    """Associativity, commutativity, distributivity, inverses: 1000 cases."""
    rng = random.Random(20240601)
    one = RationalFunction.one()
    for _ in range(1000):
        a, b, c = _random_rf(rng), _random_rf(rng), _random_rf(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero
        assert a * one == a


def test_canonical_equality_is_congruence():
    rng = random.Random(7)
    for _ in range(200):
        a = _random_rf(rng)
        extra = _random_roots(rng, 3)
        # same function, different presentation
        b = rf_normalize(a.num * Polynomial.linear_product(extra), root_values(a.roots) + extra)
        assert b == a
        c = _random_rf(rng)
        for op in ("add", "sub", "mul"):
            assert rf_arith(a, c, op) == rf_arith(b, c, op)


def test_eval_commutes_with_arith():
    rng = random.Random(99)
    for _ in range(300):
        a, b = _random_rf(rng), _random_rf(rng)
        z = Fraction(rng.randint(1, 40))
        try:
            va, vb = rf_eval(a, z), rf_eval(b, z)
        except PoleError:
            continue
        for op, expect in (("add", va + vb), ("sub", va - vb), ("mul", va * vb)):
            assert rf_eval(rf_arith(a, b, op), z) == expect


def test_gcd_agrees_with_product_structure():
    rng = random.Random(5)
    for _ in range(100):
        g = _random_roots(rng, 3)
        a = _random_poly(rng, 3)
        if a.is_zero:
            continue
        roots = root_pairs(g + _random_roots(rng, 3))
        common, quotient, left = poly_gcd(a * Polynomial.linear_product(g), roots)
        # the gcd holds every root of g, with its multiplicity
        common = root_values(common)
        for c in set(g):
            assert common.count(c) >= g.count(c)
        assert root_pairs(common + root_values(left)) == roots
        assert quotient * Polynomial.linear_product(common) == a * Polynomial.linear_product(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(1, 50))
def test_scalar_round_trip(num, den):
    q = Fraction(num, den)
    assert parse_rational(str(q) if q.denominator > 1 else str(q.numerator)) == q


def test_format_parse_round_trip_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a = _random_rf(rng)
        assert parse_rational_function(format_rational_function(a)) == a


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_rational_function("(z+2)/(z+!)")
    assert exc.value.position == 9


@pytest.mark.parametrize("text, position, message", [
    ("(z+2", 0, "unbalanced parenthesis"),
    ("z+", 2, "expected a term"),
    ("z^z", 2, "exponent must be an integer"),
    ("z^", 2, "exponent must be an integer"),
    ("z)", 1, "trailing input"),
    ("", 0, "empty expression"),
])
def test_parse_error_messages_and_positions(text, position, message):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_rational_function(text)
    assert exc.value.position == position
    assert str(exc.value) == f"{message} at position {position}: {text!r}"


def horner_reference(coeffs, point):
    """Plain Fraction Horner: the evaluation the integer kernel replaces."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * point + c
    return acc


RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=30)
COEFF_LISTS = st.lists(st.one_of(st.just(Fraction(0)), RATIONALS), max_size=6)


@settings(max_examples=300, deadline=None)
@given(COEFF_LISTS, RATIONALS)
def test_eval_matches_fraction_horner(coeffs, point):
    p = Polynomial.from_coeffs(coeffs)  # empty or all-zero lists give the zero polynomial
    got = p.eval(point)
    assert type(got) is Fraction
    assert got == horner_reference(p.coeffs, point)


@settings(max_examples=300, deadline=None)
@given(COEFF_LISTS, st.lists(RATIONALS, max_size=5), RATIONALS, st.booleans())
def test_rf_eval_matches_fraction_horner(num, roots, point, pole):
    if pole:
        roots = roots + [-point]
    a = rf_normalize(Polynomial.from_coeffs(num), roots)
    d = horner_reference(a.den.coeffs, point)
    if d == 0:
        with pytest.raises(PoleError) as exc:
            rf_eval(a, point)
        assert type(exc.value.point) is Fraction
        assert exc.value.point == point
    else:
        got = rf_eval(a, point)
        assert type(got) is Fraction
        assert got == horner_reference(a.num.coeffs, point) / d


def test_rf_eval_pole_at_negative_non_integer_point():
    point = Fraction(-7, 3)
    with pytest.raises(PoleError) as exc:
        rf_eval(rf((1,), (Fraction(7, 3),)), point)
    assert exc.value.point == point


class TestParserBounds:
    def test_nesting_up_to_the_limit_parses(self):
        depth = MAX_NESTING_DEPTH
        assert parse_rational_function("(" * depth + "z+1" + ")" * depth) == rf((1, 1))
        assert parse_rational_function("-" * depth + "z") == rf((0, 1))

    @pytest.mark.parametrize("opener", ["(", "-", "+", "(-"])
    def test_nesting_past_the_limit_names_it(self, opener):
        for depth in (MAX_NESTING_DEPTH + 1, 3000):
            text = opener * depth + "z" + ")" * (opener.count("(") * depth)
            with pytest.raises(ExprSyntaxError) as exc:
                parse_rational_function(text)
            assert exc.value.position == MAX_NESTING_DEPTH
            assert str(exc.value).startswith(
                f"nesting deeper than MAX_NESTING_DEPTH = {MAX_NESTING_DEPTH} at position")

    def test_nesting_counts_open_levels_only(self):
        # siblings do not add up: many closed groups in a row are depth 1
        text = "+".join(["(z)"] * (3 * MAX_NESTING_DEPTH))
        assert parse_rational_function(text) == rf((0, 3 * MAX_NESTING_DEPTH))

    def test_power_up_to_the_limit_parses(self):
        top = Polynomial.from_coeffs([0] * MAX_POWER + [1])
        assert parse_rational_function(f"z^{MAX_POWER}") == rf_normalize(top, ())
        assert parse_rational_function(f"(z^2)^{MAX_POWER // 2}") == rf_normalize(top, ())

    @pytest.mark.parametrize("text, position", [
        (f"z^{MAX_POWER + 1}", 2),
        ("z^3000", 2),
        (f"(z+1)^{10 ** 30}", 6),
        (f"(z^2)^{MAX_POWER // 2 + 1}", 6),  # nested exponents multiply
        ("((2^10)^10)^11", 12),
    ])
    def test_power_past_the_limit_names_it(self, text, position):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_rational_function(text)
        assert exc.value.position == position
        assert str(exc.value) == f"exponent above MAX_POWER = {MAX_POWER} at position {position}: {text!r}"

    def test_power_by_squaring_equals_repeated_product(self):
        rng = random.Random(23)
        for _ in range(20):
            base = _random_rf(rng)
            expected = RationalFunction.one()
            for e in range(14):
                text = f"({format_rational_function(base)})^{e}"
                assert parse_rational_function(text) == expected, (base, e)
                expected = expected * base

    def test_formatted_degree_at_the_limit_round_trips(self):
        rng = random.Random(5)
        coeffs = [Fraction(0)] * MAX_POWER + [Fraction(1)]
        for i in rng.sample(range(MAX_POWER), 12):
            coeffs[i] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        a = rf_normalize(Polynomial.from_coeffs(coeffs), (3,))
        assert parse_rational_function(format_rational_function(a)) == a
