"""Symbol parsing, Mellin transforms, shift weights, quadrature oracle."""

import gc
import random
from fractions import Fraction

import pytest
from mpmath import mp

from bergshift.exact_algebra import MAX_NESTING_DEPTH, ExprSyntaxError
from bergshift.gamma_ratio import WeightExpr
from bergshift import mellin, quadrature
from bergshift.mellin import (
    MAX_DIGITS,
    MAX_POWER,
    MAX_SYMBOL_TERMS,
    RadialSymbol,
    bergman_quadrature_oracle,
    format_symbol,
    mellin_transform,
    parse_symbol,
    toeplitz_weight,
)
from bergshift.quadrature import QuadratureError, integrate_adaptive
from rf_text import parse_rational_function, rational_function


def rf(num, den=(1,)):
    return rational_function(num, den)


class TestParse:
    def test_plain_monomial(self):
        assert parse_symbol("r^3").terms == ((Fraction(1), Fraction(3)),)

    def test_two_terms(self):
        assert parse_symbol("2*r + 3*r^4").terms == (
            (Fraction(2), Fraction(1)),
            (Fraction(3), Fraction(4)),
        )

    def test_negative_exponent_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_symbol("r^-1")

    def test_bare_constant(self):
        assert parse_symbol("1").terms == ((Fraction(1), Fraction(0)),)
        assert parse_symbol("3/4").terms == ((Fraction(3, 4), Fraction(0)),)

    def test_rational_exponent_and_coeff(self):
        sym = parse_symbol("1/2*r^3/2")
        assert sym.terms == ((Fraction(1, 2), Fraction(3, 2)),)

    def test_cancelling_terms(self):
        assert parse_symbol("r - r").is_zero

    def test_leading_minus(self):
        assert parse_symbol("-2*r^2").terms == ((Fraction(-2), Fraction(2)),)

    def test_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_symbol("r^2 + q")
        assert exc.value.position == 6

    @pytest.mark.parametrize("text, position, message", [
        ("(1/2*r", 0, "unbalanced parenthesis"),
        ("((1/0)*r", 4, "zero denominator"),
        ("2*", 2, "expected r after *"),
        ("r^(-1)", 1, "negative exponent rejected"),
        ("r^", 2, "expected a rational exponent"),
        ("3/", 2, "expected denominator of a rational coefficient"),
        ("r r", 2, "expected + or - between terms"),
        ("", 0, "empty symbol"),
    ])
    def test_error_messages_and_positions(self, text, position, message):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_symbol(text)
        assert exc.value.position == position
        assert str(exc.value) == f"{message} at position {position}: {text!r}"

    def test_nesting_up_to_the_limit_parses(self):
        depth = MAX_NESTING_DEPTH
        sym = parse_symbol("(" * depth + "-1/2" + ")" * depth + "*r^" + "(" * depth + "3" + ")" * depth)
        assert sym.terms == ((Fraction(-1, 2), Fraction(3)),)

    @pytest.mark.parametrize("depth", [MAX_NESTING_DEPTH + 1, 3000])
    def test_nesting_past_the_limit_names_it(self, depth):
        # the opener of level MAX_NESTING_DEPTH + 1 is the offending position
        for text, position in (("(" * depth + "1" + ")" * depth, MAX_NESTING_DEPTH),
                               ("r^" + "(-" * depth + "1" + ")" * depth,
                                2 + 2 * MAX_NESTING_DEPTH)):
            with pytest.raises(ExprSyntaxError) as exc:
                parse_symbol(text)
            assert exc.value.position == position
            assert str(exc.value).startswith(
                f"nesting deeper than MAX_NESTING_DEPTH = {MAX_NESTING_DEPTH} at position")

    def test_terms_up_to_the_bound_parse(self):
        text = "-" + "+".join(f"{i}*r^{i}" for i in range(1, MAX_SYMBOL_TERMS + 1))
        sym = parse_symbol(text)
        assert len(sym.terms) == MAX_SYMBOL_TERMS
        assert sym.terms[0] == (Fraction(-1), Fraction(1))

    @pytest.mark.parametrize("extra", [1, 2, 1000])
    def test_terms_past_the_bound_name_it(self, extra):
        # the sign that starts term MAX_SYMBOL_TERMS + 1 is the offending position,
        # whether or not the terms would merge
        for term in ("r", "r^{i}/3"):
            terms = [term.format(i=i) for i in range(MAX_SYMBOL_TERMS + extra)]
            text = "-".join(terms)
            with pytest.raises(ExprSyntaxError) as exc:
                parse_symbol(text)
            assert exc.value.position == len("-".join(terms[:MAX_SYMBOL_TERMS]))
            assert str(exc.value).startswith(
                f"more than MAX_SYMBOL_TERMS = {MAX_SYMBOL_TERMS} terms at position")

    def test_format_round_trip(self):
        for text in ("r^3", "2*r+3*r^4", "1", "-1/2*r+r^7/2", "5/3"):
            sym = parse_symbol(text)
            assert parse_symbol(format_symbol(sym)) == sym


class TestTransform:
    def test_constant(self):
        assert mellin_transform(parse_symbol("1")).value == rf((1,), (0, 1))

    def test_monomial(self):
        for n in range(1, 9):
            assert mellin_transform(RadialSymbol.monomial(n)).value == rf((1,), (n, 1))

    def test_combination(self):
        got = mellin_transform(parse_symbol("2*r + 3*r^4")).value
        assert got == rf((2,), (1, 1)) + rf((3,), (4, 1))

    def test_linearity_randomized(self):
        rng = random.Random(404)
        for _ in range(100):
            t1 = [(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(0, 9))) for _ in range(3)]
            t2 = [(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(0, 9))) for _ in range(3)]
            a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
            phi, psi = RadialSymbol.build(t1), RadialSymbol.build(t2)
            combo = RadialSymbol.build(
                [(a * c, e) for c, e in phi.terms] + [(b * c, e) for c, e in psi.terms])
            lhs = mellin_transform(combo).value
            rhs = (mellin_transform(phi).value.scale(a)
                   + mellin_transform(psi).value.scale(b))
            assert lhs == rhs


class TestWeight:
    def test_identity_operator(self):
        assert toeplitz_weight(0, parse_symbol("1")) == WeightExpr.one()

    def test_monomial_weight_display(self):
        for p in range(1, 6):
            for n in range(1, 9):
                got = toeplitz_weight(p, RadialSymbol.monomial(n))
                assert got.as_rational() == rf((2 * p, 1), (p + n, 1))

    def test_unit_shift(self):
        assert toeplitz_weight(1, parse_symbol("r")) == WeightExpr.one()

    def test_rational_exponent(self):
        got = toeplitz_weight(2, parse_symbol("r^1/2"))
        assert got.as_rational() == rf((4, 1), (Fraction(5, 2), 1))


class TestOracle:
    def test_first_shift_on_ground_state(self):
        res = bergman_quadrature_oracle(1, parse_symbol("r^2"), 0)
        assert abs(res.value - mp.mpf(4) / 5) < 1e-12

    def test_identity_every_k(self):
        one = parse_symbol("1")
        for k in (0, 3, 17):
            res = bergman_quadrature_oracle(0, one, k)
            assert abs(res.value - 1) < 1e-12

    def test_double_shift(self):
        res = bergman_quadrature_oracle(2, parse_symbol("r^3"), 1)
        assert abs(res.value - mp.mpf(8) / 9) < 1e-12

    def test_agreement_with_exact_weight(self):
        rng = random.Random(3)
        for _ in range(25):
            p, n, k = rng.randint(0, 4), rng.randint(1, 8), rng.randint(0, 30)
            phi = RadialSymbol.monomial(n)
            exact = toeplitz_weight(p, phi).eval_exact(Fraction(2 * k + 2))
            res = bergman_quadrature_oracle(p, phi, k)
            assert abs(res.value - mp.mpf(exact.numerator) / exact.denominator) <= 1e-10

    def test_rational_exponent_agreement(self):
        phi = parse_symbol("r^1/2 + 2*r^3")
        exact = toeplitz_weight(1, phi).eval_exact(Fraction(6))
        res = bergman_quadrature_oracle(1, phi, 2)
        assert abs(res.value - mp.mpf(exact.numerator) / exact.denominator) <= 1e-10

    @pytest.mark.parametrize("p, text", [(0, "r^1/2"), (1, "r^1/2"), (0, "r^3/2"), (2, "r^7/3"),
                                         (0, "2*r^1/2+r^5/3"), (3, "r^1/2-1/3*r^5")])
    def test_fractional_exponents_at_the_ground_state(self, p, text):
        # r = t^Q with Q the lcm of the exponent denominators leaves integer powers of t
        phi = parse_symbol(text)
        exact = toeplitz_weight(p, phi).eval_exact(Fraction(2))
        res = bergman_quadrature_oracle(p, phi, 0)
        with mp.workdps(40):
            error = abs(res.value - mp.mpf(exact.numerator) / exact.denominator)
            assert error <= 1e-20
            assert error <= res.error_estimate + mp.mpf(10) ** -25

    def test_reported_error_bound_is_honest(self):
        res = bergman_quadrature_oracle(3, parse_symbol("r^7"), 20)
        exact = toeplitz_weight(3, RadialSymbol.monomial(7)).eval_exact(Fraction(42))
        with mp.workdps(50):
            true_err = abs(res.value - mp.mpf(exact.numerator) / exact.denominator)
            assert true_err <= res.error_estimate + mp.mpf(10) ** -20


class TestQuadratureLimits:
    def test_digits_are_bounded(self):
        for digits in (0, MAX_DIGITS + 1):
            with pytest.raises(ValueError):
                bergman_quadrature_oracle(1, parse_symbol("r^2"), 0, digits)

    def test_the_largest_power_is_bounded(self, monkeypatch):
        # r^(1/2) r^(2k + 2) with 2k + 5/2 = 2^40 + 1/2
        monkeypatch.setattr(mellin, "integrate_adaptive", None)
        with pytest.raises(ValueError, match="2\\^40"):
            bergman_quadrature_oracle(1, parse_symbol("r^(1/2)"), MAX_POWER // 2 - 1, 25)

    def test_the_bound_reads_the_power_of_t(self, monkeypatch):
        # r^(1/2) r^(2k + 2) with Q = 2: the largest power of t is 2(2k + 7/2) - 1 = 4k + 6
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(mellin, "integrate_adaptive", reached)
        with pytest.raises(Reached):  # 2^40 - 2
            bergman_quadrature_oracle(1, parse_symbol("r^(1/2)"), MAX_POWER // 4 - 2, 25)
        with pytest.raises(ValueError, match="2\\^40"):  # 2^40 + 2
            bergman_quadrature_oracle(1, parse_symbol("r^(1/2)"), MAX_POWER // 4 - 1, 25)

    def test_a_piece_left_without_panels_has_an_infinite_estimate(self, monkeypatch):
        # the first piece spends the whole budget of 3 panels and converges
        monkeypatch.setattr(quadrature, "MAX_WORK", 3)
        with mp.workdps(30):
            with pytest.raises(QuadratureError) as exc:
                integrate_adaptive([(1, 1)], [0, 0.5, 1], mp.mpf(10) ** -20)
        assert exc.value.achieved == mp.inf

    def test_the_budget_is_for_the_whole_call_and_counts_the_terms(self, monkeypatch):
        # t^30 takes 63 panels on each of [1/2, 3/4] and [3/4, 1] at 60
        # digits: one piece fits a budget of 100, two pieces do not, and
        # neither does one piece of t^30 + t^31, a panel of which costs 2
        panels = []
        panel = quadrature._panel
        monkeypatch.setattr(quadrature, "_panel", lambda *a: panels.append(1) or panel(*a))
        monkeypatch.setattr(quadrature, "MAX_WORK", 100)
        with mp.workdps(60):
            tol = mp.mpf(10) ** -50
            integrate_adaptive([(1, 30)], [0.5, 0.75], tol / 2)
            for terms, points, piece_tol in (([(1, 30)], [0.5, 0.75, 1], tol),
                                             ([(1, 30), (1, 31)], [0.5, 0.75], tol / 2)):
                panels.clear()
                with pytest.raises(QuadratureError) as exc:
                    integrate_adaptive(terms, points, piece_tol)
                assert mp.inf > exc.value.achieved > exc.value.requested
                assert len(panels) * len(terms) <= 100

    def test_a_piece_without_room_for_three_panels_is_not_started(self, monkeypatch):
        panels = []
        monkeypatch.setattr(quadrature, "_panel", lambda *a: panels.append(1))
        monkeypatch.setattr(quadrature, "MAX_WORK", 5)
        with pytest.raises(QuadratureError) as exc:
            integrate_adaptive([(1, 1), (1, 2)], [0, 1], 1)
        assert exc.value.achieved == mp.inf
        assert panels == []

    @pytest.mark.parametrize("text, cost", [("r^2", 1), ("r^2 + 3*r^(1/2) - 1", 3), ("0", 1)])
    def test_the_oracle_cost_is_the_number_of_terms(self, monkeypatch, text, cost):
        # three panels of the first piece cost 3 * cost: one unit less and
        # none is run, exactly that and all three are
        panels = []
        panel = quadrature._panel
        monkeypatch.setattr(quadrature, "_panel", lambda *a: panels.append(1) or panel(*a))
        for budget, runs in ((3 * cost - 1, 0), (3 * cost, 3)):
            panels.clear()
            monkeypatch.setattr(quadrature, "MAX_WORK", budget)
            with pytest.raises(QuadratureError) as exc:
                bergman_quadrature_oracle(1, parse_symbol(text), 2, 20)
            assert exc.value.achieved == mp.inf
            assert len(panels) == runs

    def test_a_huge_tolerance_decides_as_any_large_one(self):
        # no estimate reaches (2 S + 2) 2^P, S = 4 here, so the kernel reads a
        # larger tolerance as that instead of building its integer
        with mp.workdps(30):
            huge = integrate_adaptive([(3, 2), (-1, 5)], [0, 0.5, 1], mp.mpf("1e999999999"))
            assert huge == integrate_adaptive([(3, 2), (-1, 5)], [0, 0.5, 1], 10)

    @pytest.mark.parametrize("terms, points", [([(1, -1)], [0, 1]), ([(1, 2)], [-1, 1]),
                                               ([(1, 2)], [0, 2]), ([(1, 2.5)], [0, 1])])
    def test_the_kernel_takes_integer_powers_on_the_unit_interval(self, terms, points):
        with pytest.raises((ValueError, TypeError)):
            integrate_adaptive(terms, points, 1)


@pytest.mark.parametrize("parse, texts", [
    (parse_symbol, ["2*r^3/2 + (1/3)*r - 4", "-(2/5)*r^(7/2)", "r + q"]),
    (parse_rational_function, ["(z^2+3*z-1)/(2*z+4)", "-z^4+(z+1)/(z-1)", "(z+2)/(z+!)"]),
])
def test_parsers_leave_no_cyclic_garbage(parse, texts):
    parse(texts[0])  # first-call caches are not garbage
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(100):
            for text in texts:
                try:
                    parse(text)
                except ExprSyntaxError:
                    pass
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == 0
