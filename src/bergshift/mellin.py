"""Radial symbols, their Mellin transforms, and quasihomogeneous shift weights.

A radial symbol here is a finite combination sum c_a * r^a with exact
rational coefficients and nonnegative rational exponents.  Its Mellin
transform (convention: integral over [0,1] of phi(r) r^(z-1) dr) is the
rational function sum c_a / (z + a), and the degree-p quasihomogeneous
Toeplitz operator with radial part phi acts on the monomial basis as a
shift by p whose weight, in the global variable z = 2k + 2, is
(z + 2p) * phi_hat(z + p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import mpmath
from mpmath import mp

from .exact_algebra import (
    ExprSyntaxError,
    Polynomial,
    RationalFunction,
    RationalLike,
    TokenCursor,
    as_rational,
    format_rational,
    rf_normalize,
)
from .gamma_ratio import WeightExpr
from .quadrature import integrate_adaptive


@dataclass(frozen=True)
class RadialSymbol:
    """Finite monomial combination sum c_a * r^a, exponents distinct and ascending."""

    terms: tuple[tuple[Fraction, Fraction], ...]  # (coefficient, exponent)

    @staticmethod
    def build(terms: Iterable[tuple[RationalLike, RationalLike]]) -> "RadialSymbol":
        by_exp: dict[Fraction, Fraction] = {}
        for coeff, exp in terms:
            coeff, exp = as_rational(coeff), as_rational(exp)
            if exp < 0:
                raise ValueError("negative exponents are not in the symbol class")
            by_exp[exp] = by_exp.get(exp, Fraction(0)) + coeff
        cleaned = [(c, e) for e, c in sorted(by_exp.items()) if c != 0]
        return RadialSymbol(tuple(cleaned))

    @staticmethod
    def monomial(exponent: RationalLike, coeff: RationalLike = 1) -> "RadialSymbol":
        return RadialSymbol.build([(coeff, exponent)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return format_symbol(self)


@dataclass(frozen=True)
class MellinImage:
    """Mellin transform of a radial symbol: sum c_a / (z + a)."""

    value: RationalFunction


def format_symbol(phi: RadialSymbol) -> str:
    if phi.is_zero:
        return "0"
    parts: list[str] = []
    for coeff, exp in phi.terms:
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        if exp == 0:
            body = format_rational(mag)
        else:
            rpow = "r" if exp == 1 else f"r^{format_rational(exp)}"
            body = rpow if mag == 1 else f"{format_rational(mag)}*{rpow}"
        parts.append(sign + body)
    return "".join(parts)


class _SymbolParser(TokenCursor):
    """Recursive-descent parser for radial symbols in r."""

    def parse_ratio(self, what: str, allow_sign: bool = False) -> Fraction:
        sign = 1
        if allow_sign and self.peek() in ("+", "-"):
            op, _, _ = self.take()
            sign = -1 if op == "-" else 1
        kind, val, at = self.take_or_eof()
        if kind == "(":
            self.enter(at)
            inner = self.parse_ratio(what, allow_sign=True)
            if self.peek() != ")":
                raise ExprSyntaxError(self.text, at, "unbalanced parenthesis")
            self.take()
            self.leave()
            return sign * inner
        if kind != "int":
            raise ExprSyntaxError(self.text, at, f"expected {what}")
        value = Fraction(int(val))
        if self.peek() == "/":
            self.take()
            kind2, val2, at2 = self.take_or_eof()
            if kind2 != "int":
                raise ExprSyntaxError(self.text, at2, f"expected denominator of {what}")
            if val2 == 0:
                raise ExprSyntaxError(self.text, at2, "zero denominator")
            value /= int(val2)
        return sign * value

    def parse_term(self, sign: int) -> tuple[Fraction, Fraction]:
        if self.peek() == "r":
            self.take()
        else:
            coeff = self.parse_ratio("a rational coefficient")
            if self.peek() == "*":
                self.take()
                kind, _, at = self.take_or_eof()
                if kind != "r":
                    raise ExprSyntaxError(self.text, at, "expected r after *")
            else:
                return sign * coeff, Fraction(0)  # bare constant
            return sign * coeff, self.parse_exponent()
        return sign * Fraction(1), self.parse_exponent()

    def parse_exponent(self) -> Fraction:
        if self.peek() != "^":
            return Fraction(1)
        _, _, at = self.take()
        exp = self.parse_ratio("a rational exponent", allow_sign=True)
        if exp < 0:
            raise ExprSyntaxError(self.text, at, "negative exponent rejected")
        return exp


#: Most terms :func:`parse_symbol` reads.  The work of an operator built
#: from a symbol grows with its length and with the heights of its
#: exponents, so the length is bounded.
MAX_SYMBOL_TERMS = 32


def parse_symbol(text: str) -> RadialSymbol:
    """Parse the symbol grammar: term (("+"|"-") term)*, where a term is
    `[coeff "*"] "r" ["^" exponent]` or a bare rational constant, with
    rational coeff/exponent written as `int` or `int/int`.  A symbol of
    more than :data:`MAX_SYMBOL_TERMS` terms is a syntax error at the sign
    that starts the first term past the bound.
    """
    parser = _SymbolParser(text, "r")
    if not parser.tokens:
        raise ExprSyntaxError(text, 0, "empty symbol")
    terms: list[tuple[Fraction, Fraction]] = []
    sign = 1
    if parser.peek() in ("+", "-"):
        op, _, _ = parser.take()
        sign = -1 if op == "-" else 1
    terms.append(parser.parse_term(sign))
    while parser.pos < len(parser.tokens):
        kind, _, at = parser.take()
        if kind not in ("+", "-"):
            raise ExprSyntaxError(text, at, "expected + or - between terms")
        if len(terms) == MAX_SYMBOL_TERMS:
            raise ExprSyntaxError(text, at, f"more than MAX_SYMBOL_TERMS = {MAX_SYMBOL_TERMS} terms")
        terms.append(parser.parse_term(-1 if kind == "-" else 1))
    return RadialSymbol.build(terms)


def _over_roots(terms: Sequence[tuple[Fraction, Fraction]], factors: tuple[int, ...] = ()) -> RationalFunction:
    """prod (z + x), x in ``factors``, times sum c / (z + r) over the (c, r)
    terms: one numerator over the product of the roots, normalized once."""
    num, den = Polynomial.zero(), Polynomial.linear_product(factors)
    for c, r in terms:
        num, den = num.times_roots([r]) + den.scale(c), den.times_roots([r])
    return rf_normalize(num, [r for _, r in terms])


def mellin_transform(phi: RadialSymbol) -> MellinImage:
    """Exact Mellin image: r^a contributes 1/(z + a), the root a; linear in
    phi.  The terms share one numerator over the roots, normalized once."""
    return MellinImage(_over_roots(phi.terms))


def toeplitz_weight(p: int, phi: RadialSymbol) -> WeightExpr:
    """Shift weight of the degree-p quasihomogeneous operator with radial
    part phi: (z + 2p) * phi_hat(z + p), purely rational.

    With p = 0 and phi = 1 this is identically 1 (the identity operator),
    which pins the Mellin convention used by the whole package.  Each
    term hands its denominator over as the root p + a; an exponent a = p
    cancels the factor z + 2p in the one normalization.
    """
    if p < 0:
        raise ValueError("quasihomogeneous degree must be nonnegative")
    return WeightExpr.from_rational(_over_roots([(c, p + e) for c, e in phi.terms], (2 * p,)))


#: Most decimal digits :func:`bergman_quadrature_oracle` is asked for.
MAX_DIGITS = 300


def check_digits(digits: int) -> None:
    """Raise ValueError unless 1 <= digits <= MAX_DIGITS."""
    if digits <= 0:
        raise ValueError("digits must be positive")
    if digits > MAX_DIGITS:
        raise ValueError(f"digits must be at most {MAX_DIGITS}, got {digits}")


#: Largest power N' of t = r^(1/Q) in the integrand of
#: :func:`bergman_quadrature_oracle`.  Its cuts 1 - 2^-j,
#: j <= log2(N' + 1), stay apart at the lowest working precision, 16 digits
#: (53 bits), and t^N' costs little more than t^2.
MAX_POWER = 2**40


@dataclass(frozen=True)
class QuadratureResult:
    value: mpmath.mpf
    error_estimate: mpmath.mpf


def bergman_quadrature_oracle(
    p: int, phi: RadialSymbol, k: int, digits: int = 25
) -> QuadratureResult:
    """Numerical shift weight straight from the inner-product definition:

        weight(k) = 2 (k + p + 1) * integral_0^1 phi(r) r^(2k + p + 1) dr,

    computed by adaptive quadrature, independent of the Mellin route.  The
    result carries the quadrature error estimate scaled by the same factor.

    The substitution r = t^Q, with Q the lcm of the denominators of phi's
    exponents, turns the integrand into Q * sum c t^(Q E + Q - 1), E the
    exponents 2k + p + 1 + e, whose powers are integers: no fractional
    power is evaluated, and no power has a branch point at 0 for the
    panels to chase.  With Q = 1 it is the integrand in r itself.

    With N' = Q (N + 1) - 1 the largest power of t, t^N' has its mass
    within about 1/N' of t = 1, where the nodes of [0, 1] and its halves
    would miss it and agree on about 0.  So [0, 1] is cut at 1 - 2^-j for
    j = 1..J, with J = ceil(log2(N' + 1)), and each of the J + 1 panels is
    integrated to 1/(J + 1) of the tolerance.  The polynomial goes to
    :func:`quadrature.integrate_adaptive` as it is, in fixed point on
    [0, 1]; one integrand evaluation costs one power per term, so the
    quadrature's work budget counts the terms.
    """
    if p < 0 or k < 0:
        raise ValueError("p and k must be nonnegative")
    check_digits(digits)
    Q = lcm(*[e.denominator for _, e in phi.terms])
    N = int(Q * (2 * k + p + 2 + max((e for _, e in phi.terms), default=0))) - 1
    if N > MAX_POWER:
        raise ValueError("the largest power of t = r^(1/Q) in the integrand, Q(2k + p + 2 + exponent) - 1 "
                         "with Q the lcm of the exponent denominators, must be at most 2^40")
    with mp.workdps(digits + 15):
        terms = [(Q * c, int(Q * (2 * k + p + 2 + e)) - 1) for c, e in phi.terms]
        J = N.bit_length()  # 2^J >= N + 1
        cuts = [1 - mp.mpf(2) ** -j for j in range(J + 1)] + [mp.mpf(1)]
        value, err = integrate_adaptive(terms, cuts, mp.mpf(10) ** (-digits))
        factor = 2 * (k + p + 1)
        return QuadratureResult(factor * value, factor * err)
