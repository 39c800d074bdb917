"""Test-side parsers for the package's text forms: the round-trip and
parse-error helpers.

The package only writes rational functions (``format_rational_function``,
``cli.ser_weight``); nothing in it reads them back.  These helpers read
them back, so the tests can check that every serialized weight and scalar
parses to an equal value:

* :func:`parse_rational_function` reads general +,-,*,/,^ expressions in
  z with integer literals, by recursive descent on the package's
  :class:`~bergshift.exact_algebra.TokenCursor`.  A power is taken by
  repeated squaring and its exponent is bounded by :data:`MAX_POWER`.  A
  quotient needs the divisor's numerator to split over Q, since a
  :class:`~bergshift.exact_algebra.RationalFunction` keeps its denominator
  as roots: :func:`split_roots` finds them by the rational root theorem.
* :func:`parse_rational` reads "num/den" or a bare integer.
* :func:`rational_function` builds num/den from coefficient lists, the
  tests' shorthand, by the same :func:`split_roots`.
* :func:`root_values` and :func:`root_pairs` convert between root values
  and the stored pairs of ``RationalFunction.roots``.
* :func:`weight_from_jsonable` inverts ``cli.ser_weight``.
"""

from fractions import Fraction
from math import gcd, isqrt
from typing import Any, Sequence

from bergshift.exact_algebra import (
    ExprSyntaxError,
    Polynomial,
    RationalFunction,
    RationalLike,
    TokenCursor,
    rf_normalize,
)
from bergshift.gamma_ratio import GammaRatioExpr, WeightExpr

#: Largest exponent ``parse_rational_function`` accepts; the exponents of
#: nested powers multiply, so ``(z^2)^600`` counts as 1200.
MAX_POWER = 1000


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def split_roots(p: Polynomial) -> list[Fraction]:
    """The roots c of the monic factors z + c of p, with multiplicity.

    Raises ValueError when p does not split into linear factors over Q.
    A root c = a/b in lowest terms of the integer polynomial has a
    dividing the lowest nonzero int and b dividing the leading one; each
    root found is divided out by synthetic division on Fractions."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no factorization")
    coeffs = list(p.coeffs)
    roots: list[Fraction] = []
    while len(coeffs) > 1:
        if coeffs[0] == 0:
            root = Fraction(0)
        else:
            q = Polynomial.from_coeffs(coeffs)
            root = next((Fraction(sign * a, b)
                         for b in _divisors(q.ints[-1]) for a in _divisors(q.ints[0]) for sign in (1, -1)
                         if gcd(a, b) == 1 and q.eval(Fraction(-sign * a, b)) == 0),
                        None)
            if root is None:
                raise ValueError(f"{p.coeffs} does not split over Q")
        quotient, acc = [], Fraction(0)
        for c in reversed(coeffs[1:]):  # coeffs / (z + root), from the top
            acc = c - root * acc if quotient else c
            quotient.append(acc)
        coeffs = quotient[::-1]
        roots.append(root)
    return roots


def root_values(roots) -> list[Fraction]:
    """The stored root pairs (a, b) as the values a/b."""
    return [Fraction(a, b) for a, b in roots]


def root_pairs(values) -> tuple[tuple[int, int], ...]:
    """Root values as the sorted pairs that ``RationalFunction.roots`` stores."""
    return tuple(sorted([(Fraction(c).numerator, Fraction(c).denominator) for c in values]))


def divide(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    """a / b, for b whose numerator splits over Q."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero rational function")
    return a * rf_normalize(b.den.scale(1 / b.num.leading), split_roots(b.num))


def rational_function(num: Sequence[RationalLike], den: Sequence[RationalLike] = (1,)) -> RationalFunction:
    """num / den from low-to-high coefficient lists; den must split over Q."""
    return divide(rf_normalize(Polynomial.from_coeffs(num), ()),
                  rf_normalize(Polynomial.from_coeffs(den), ()))


def _power(base: RationalFunction, exponent: int) -> RationalFunction:
    """base ** exponent by repeated squaring."""
    out = RationalFunction.one()
    while exponent:
        if exponent & 1:
            out = out * base
        exponent >>= 1
        if exponent:
            base = base * base
    return out


class _ExprParser(TokenCursor):
    """Recursive-descent parser for rational functions in z."""

    def __init__(self, text: str, variable: str):
        super().__init__(text, variable)
        # product of the exponents of the powers inside the atom being read
        self.power_scale = 1

    def parse_sum(self) -> RationalFunction:
        left = self.parse_product()
        while self.peek() in ("+", "-"):
            op, _, _ = self.take()
            right = self.parse_product()
            left = left + right if op == "+" else left - right
        return left

    def parse_product(self) -> RationalFunction:
        left = self.parse_power()
        while self.peek() in ("*", "/"):
            op, _, _ = self.take()
            right = self.parse_power()
            left = left * right if op == "*" else divide(left, right)
        return left

    def parse_power(self) -> RationalFunction:
        outer = self.power_scale
        self.power_scale = 1
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            kind, val, at = self.take_or_eof()
            if kind != "int":
                raise ExprSyntaxError(self.text, at, "exponent must be an integer")
            self.power_scale *= int(val)
            if self.power_scale > MAX_POWER:
                raise ExprSyntaxError(self.text, at, f"exponent above MAX_POWER = {MAX_POWER}")
            base = _power(base, int(val))
        self.power_scale = max(outer, self.power_scale)
        return base

    def parse_atom(self) -> RationalFunction:
        kind, val, at = self.take_or_eof()
        if kind == "int":
            return RationalFunction.constant(int(val))
        if kind == "z":
            return RationalFunction.z_plus(0)
        if kind not in ("(", "-", "+"):
            raise ExprSyntaxError(self.text, at, "expected a term")
        self.enter(at)
        if kind == "(":
            inner = self.parse_sum()
            if self.peek() != ")":
                raise ExprSyntaxError(self.text, at, "unbalanced parenthesis")
            self.take()
        else:
            inner = self.parse_power()  # binds below ^: -z^4 is -(z^4)
            if kind == "-":
                inner = -inner
        self.leave()
        return inner


def parse_rational_function(text: str) -> RationalFunction:
    """Parse the textual form emitted by ``format_rational_function``.

    Accepts general +,-,*,/,^ expressions in z with integer literals, so
    any serialized weight or scalar parses back to an equal value.
    """
    parser = _ExprParser(text, "z")
    if not parser.tokens:
        raise ExprSyntaxError(text, 0, "empty expression")
    out = parser.parse_sum()
    if parser.pos != len(parser.tokens):
        raise ExprSyntaxError(text, parser.tokens[parser.pos][2], "trailing input")
    return out


def parse_rational(text: str) -> Fraction:
    """Parse "num/den" or a bare integer back to an exact scalar."""
    value = parse_rational_function(text)
    if not value.is_constant:
        raise ValueError(f"not a scalar: {text!r}")
    return value.constant_value()


def weight_from_jsonable(data: Any) -> WeightExpr:
    """Inverse of ``cli.ser_weight``."""
    if isinstance(data, str):
        return WeightExpr.from_rational(parse_rational_function(data))
    terms = []
    for t in data["terms"]:
        gamma = GammaRatioExpr(
            tuple([(a["two_delta"], a["offset"]) for a in t["gamma"]["num"]]),
            tuple([(a["two_delta"], a["offset"]) for a in t["gamma"]["den"]]),
        )
        terms.append((parse_rational_function(t["coeff"]), gamma))
    return WeightExpr.build(terms)
