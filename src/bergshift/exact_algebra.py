"""Exact scalar, polynomial and rational-function arithmetic.

Everything in this module is computed over arbitrary-precision rationals;
no floating point enters anywhere.  A polynomial has one stored form, a
tuple of Python ints over one positive int denominator, with no trailing
zero and no common factor of the denominator and the content of the ints
(the content and primitive part of Knuth, TAOCP Vol. 2, 4.6.1).  That form
is unique, so equal fields are equal polynomials.  Every operation, from
products, sums, shifts and division to the gcd and point values, works on
the ints and reduces its result to that form; ``Polynomial.coeffs`` is
only a read-only ``Fraction`` view.

Rational functions are kept in a canonical form (gcd-reduced, monic
denominator), so equality of canonical forms is equality as functions.
That syntactic equality is what the rest of the package relies on for
exact zero and identity testing of shift weights.  Since the operands of
`rf_arith` are already canonical, it takes no redundant gcd (Henrici's
algorithms, Knuth, TAOCP Vol. 2, 4.5.1): a sum takes gcd(den, den) and,
only when that is not 1, a second gcd with the numerator; a product
cancels gcd(num_a, den_b) and gcd(num_b, den_a) crosswise and needs no
final gcd; no polynomial gcd is taken when a factor is constant, nor by
`scale` or `rf_shift`, which keep coprimality and a monic denominator.
A gcd with a linear operand, the common case for the cofactors of the
Gamma functional equation, is one root test: the other operand is
evaluated at the root by one Horner pass on its ints.  Only operands of
degree 2 and more run the primitive pseudo-remainder sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from typing import Iterable, Sequence, Union

#: Scalar type used everywhere: reduced fraction, positive denominator,
#: sign carried by the numerator.  `fractions.Fraction` guarantees both.
Rational = Fraction

RationalLike = Union[int, Fraction]


class ZeroDenominatorError(ValueError):
    """A rational function was built with (or divided by) a zero denominator."""


class PoleError(ValueError):
    """Evaluation was attempted at a pole.  Carries the offending point."""

    def __init__(self, point: Fraction, message: str | None = None):
        self.point = point
        super().__init__(message or f"evaluation at pole z = {point}")


def as_rational(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# polynomials


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial sum(ints[i] z^i) / den in its canonical form:
    no trailing zero in ``ints``, den > 0 and gcd(den, content) = 1, so
    equal fields are equal polynomials.  Only this module calls the raw
    constructor; results are reduced to the form by :func:`_reduced`."""

    ints: tuple[int, ...]
    den: int

    @staticmethod
    def from_coeffs(cs: Iterable[RationalLike]) -> "Polynomial":
        qs = [as_rational(c) for c in cs]
        den = _int_lcm(*[q.denominator for q in qs])
        return _reduced([q.numerator * (den // q.denominator) for q in qs], den)

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial((), 1)

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,), 1)

    @staticmethod
    def constant(c: RationalLike) -> "Polynomial":
        return Polynomial.from_coeffs([c])

    @staticmethod
    def z_plus(c: RationalLike = 0) -> "Polynomial":
        """The monic linear polynomial z + c."""
        return Polynomial.linear_product([c])

    @staticmethod
    def linear_product(cs: Iterable[RationalLike]) -> "Polynomial":
        """The product of the monic linear factors (z + c), c in ``cs``:
        with c = a/b each factor is (b z + a) / b."""
        out, den = [1], 1
        for c in cs:
            a, b = c.numerator, c.denominator
            out.append(0)
            for i in range(len(out) - 1, 0, -1):
                out[i] = b * out[i - 1] + a * out[i]
            out[0] *= a
            den *= b
        return _reduced(out, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as fractions, lowest degree first: a read-only view."""
        return tuple([Fraction(c, self.den) for c in self.ints])

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.ints) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        den = _int_lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.ints]
        b = [c * (den // other.den) for c in other.ints]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return _reduced(a, den)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple([-c for c in self.ints]), self.den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        a, b = self.ints, other.ints
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _reduced(out, self.den * other.den)

    def scale(self, c: RationalLike) -> "Polynomial":
        c = as_rational(c)
        if c == 0:
            return Polynomial.zero()
        if c == 1:
            return self
        return _reduced([x * c.numerator for x in self.ints], self.den * c.denominator)

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Exact field division with remainder; ``other`` must be nonzero.
        Pseudo-division on ints: a step scales remainder and quotient by
        lc / gcd(lc, top) for the divisor's leading int lc, so its quotient
        int is exact; the product s of those factors joins the denominators."""
        if other.is_zero:
            raise ZeroDenominatorError("polynomial division by zero")
        b, d = other.ints, other.degree
        lc = b[-1]
        r = list(self.ints)
        q = [0] * max(0, len(r) - d)
        s = 1
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i]
            if c == 0:
                continue
            g = _int_gcd(c, lc)
            m, f = lc // g, c // g
            if m != 1:
                r = [x * m for x in r]
                q = [x * m for x in q]
                s *= m
            q[i - d] = f
            for j, y in enumerate(b):
                r[i - d + j] -= f * y
        den = s * self.den
        return _reduced([x * other.den for x in q], den), _reduced(r, den)

    def eval(self, point: RationalLike) -> Fraction:
        point = as_rational(point)
        return Fraction(*self.eval_pair(point.numerator, point.denominator))

    def eval_pair(self, u: int, v: int) -> tuple[int, int]:
        """The value at u/v as an integer pair (num, den), den > 0 when
        v > 0, not reduced: with deg the degree it is
        sum(ints[i] u^i v^(deg-i)) / (den v^deg), one Horner pass on ints."""
        if not self.ints:
            return 0, 1
        acc, vpow = 0, 1
        for c in reversed(self.ints):
            acc = acc * u + c * vpow
            vpow *= v
        return acc, self.den * (vpow // v)

    def shift(self, h: RationalLike) -> "Polynomial":
        """Return p(z + h).  With h = a/b, the Taylor shift by the integer a
        (repeated synthetic division) of b^deg p(w/b), whose ints are
        ints[i] b^(deg-i), is b^deg p((w+a)/b); w = bz then scales int i by b^i."""
        h = as_rational(h)
        if h == 0 or self.is_zero:
            return self
        a, b = h.numerator, h.denominator
        deg = self.degree
        t = [c * b ** (deg - i) for i, c in enumerate(self.ints)]
        for i in range(deg):
            for j in range(deg - 1, i - 1, -1):
                t[j] += a * t[j + 1]
        return _reduced([c * b ** i for i, c in enumerate(t)], self.den * b ** deg)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return _reduced(list(self.ints), self.ints[-1])


def _reduced(ints: list[int], den: int) -> Polynomial:
    """The canonical form of sum(ints[i] z^i) / den, den nonzero: trailing
    zeros stripped, the sign moved to the ints, gcd(den, content) divided out."""
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return Polynomial.zero()
    if den < 0:
        ints, den = [-c for c in ints], -den
    g = _int_gcd(den, *ints)
    if g != 1:
        ints, den = [c // g for c in ints], den // g
    return Polynomial(tuple(ints), den)


def primitive_part(ints: Sequence[int]) -> list[int]:
    """Integers, not all zero, divided by their content."""
    g = _int_gcd(*ints)
    return [c // g for c in ints]


def _int_prem(u: list[int], v: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomials (lists low-to-high degree)."""
    r = list(u)
    dv, lv = len(v) - 1, v[-1]
    while len(r) - 1 >= dv and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dv:
            break
        lr, dr = r[-1], len(r) - 1
        r = [c * lv for c in r]
        for j in range(len(v)):
            r[dr - dv + j] -= lr * v[j]
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd.

    When an operand is linear, b1 z + b0, the gcd is that operand made
    monic if the other vanishes at -b0/b1 and 1 otherwise: one Horner pass
    on the ints decides it.  Otherwise the primitive (fraction-free)
    Euclidean algorithm runs on the integer primitive parts, which keeps
    intermediate coefficients from blowing up, with no floating error
    anywhere.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if b.degree == 1:
        a, b = b, a
    if a.degree == 1:
        b0, b1 = a.ints
        return a.monic() if b.eval_pair(-b0, b1)[0] == 0 else Polynomial.one()
    u, v = primitive_part(a.ints), primitive_part(b.ints)
    if len(u) < len(v):
        u, v = v, u
    while v:
        r = _int_prem(u, v)
        if r:
            r = primitive_part(r)
        u, v = v, r
    return _reduced(u, u[-1])  # monic


# ---------------------------------------------------------------------------
# rational functions


@dataclass(frozen=True)
class RationalFunction:
    """Canonical quotient of polynomials: gcd(num, den) = 1, den monic.

    Construct through :func:`rf_normalize`; the raw constructor trusts its
    inputs to already be canonical.
    """

    num: Polynomial
    den: Polynomial

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(Polynomial.zero(), Polynomial.one())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(Polynomial.one(), Polynomial.one())

    @staticmethod
    def constant(c: RationalLike) -> "RationalFunction":
        return rf_normalize(Polynomial.constant(c), Polynomial.one())

    @staticmethod
    def z_plus(c: RationalLike = 0) -> "RationalFunction":
        return RationalFunction(Polynomial.z_plus(c), Polynomial.one())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        if self.is_zero:
            return Fraction(0)
        return self.num.leading / self.den.leading

    # operator sugar mirrors rf_arith
    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return rf_arith(self, other, "add")

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return rf_arith(self, other, "sub")

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return rf_arith(self, other, "mul")

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return rf_arith(self, other, "div")

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def scale(self, c: RationalLike) -> "RationalFunction":
        # a nonzero scalar keeps num and den coprime and den monic
        return _canonical(self.num.scale(c), self.den)

    def __str__(self) -> str:
        return format_rational_function(self)


def rf_normalize(num: Polynomial, den: Polynomial) -> "RationalFunction":
    """Reduce num/den to the canonical form.  Idempotent."""
    if den.is_zero:
        raise ZeroDenominatorError("zero denominator")
    if num.is_zero:
        return RationalFunction.zero()
    num, den = _cancel(num, den)
    lc = den.leading
    if lc != 1:
        num = num.scale(1 / lc)
        den = den.scale(1 / lc)
    return RationalFunction(num, den)


def _cancel(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(a/g, b/g) with g = gcd(a, b); no gcd is taken when either is constant."""
    if a.degree <= 0 or b.degree <= 0:
        return a, b
    g = poly_gcd(a, b)
    if g.degree == 0:
        return a, b
    return a.divmod(g)[0], b.divmod(g)[0]


def _canonical(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Wrap a coprime pair with monic den, mapping a zero num to the zero."""
    return RationalFunction.zero() if num.is_zero else RationalFunction(num, den)


def _add(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    """Henrici's sum of canonical operands."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    (n1, d1), (n2, d2) = (a.num, a.den), (b.num, b.den)
    if d1.degree == 0:  # monic and constant: d1 = 1
        return _canonical(n1 * d2 + n2, d2)
    if d2.degree == 0:
        return _canonical(n1 + n2 * d1, d1)
    if d1 == d2:
        return _canonical(*_cancel(n1 + n2, d1))
    g = poly_gcd(d1, d2)
    if g.degree == 0:
        return _canonical(n1 * d2 + n2 * d1, d1 * d2)
    d1g, d2g = d1.divmod(g)[0], d2.divmod(g)[0]
    # with t the sum's numerator over d1g * d2, gcd(t, d1g * d2) = gcd(t, g)
    t, g_left = _cancel(n1 * d2g + n2 * d1g, g)
    return _canonical(t, d1g * d2g * g_left)


def _mul(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    """Product of canonical operands by cross-cancellation."""
    if a.is_zero or b.is_zero:
        return RationalFunction.zero()
    n1, d2 = _cancel(a.num, b.den)
    n2, d1 = _cancel(b.num, a.den)
    return RationalFunction(n1 * n2, d1 * d2)


def rf_arith(a: RationalFunction, b: RationalFunction, op: str) -> RationalFunction:
    """Exact field arithmetic on canonical rational functions."""
    if op == "add":
        return _add(a, b)
    if op == "sub":
        return _add(a, -b)
    if op == "mul":
        return _mul(a, b)
    if op == "div":
        if b.is_zero:
            raise ZeroDenominatorError("division by the zero rational function")
        lc = 1 / b.num.leading
        return _mul(a, RationalFunction(b.den.scale(lc), b.num.scale(lc)))
    raise ValueError(f"unknown op {op!r}")


def rf_eval(a: RationalFunction, point: RationalLike) -> Fraction:
    """Exact value a(point); raises :class:`PoleError` at a pole."""
    point = as_rational(point)
    u, v = point.numerator, point.denominator
    d_num, d_den = a.den.eval_pair(u, v)
    if d_num == 0:
        raise PoleError(point)
    n_num, n_den = a.num.eval_pair(u, v)
    return Fraction(n_num * d_den, n_den * d_num)


def rf_shift(a: RationalFunction, h: RationalLike) -> RationalFunction:
    """Return a(z + h) in canonical form."""
    h = as_rational(h)
    if h == 0:
        return a
    # a shift keeps num and den coprime and den monic
    return RationalFunction(a.num.shift(h), a.den.shift(h))


# ---------------------------------------------------------------------------
# text form: formatting and parsing (round-trip safe)


def format_rational(c: Fraction) -> str:
    """Serialize an exact scalar as "num/den" (bare integer when den = 1)."""
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    coeffs = p.coeffs
    for i in range(p.degree, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if i == 0:
            body = format_rational(mag)
        else:
            zpow = "z" if i == 1 else f"z^{i}"
            body = zpow if mag == 1 else f"{format_rational(mag)}*{zpow}"
        parts.append(sign + body)
    return "".join(parts)


def format_rational_function(a: RationalFunction) -> str:
    num = format_polynomial(a.num)
    if a.den.degree == 0:
        return num
    return f"({num})/({format_polynomial(a.den)})"


class ExprSyntaxError(ValueError):
    """Syntax error in a serialized expression; carries the position."""

    def __init__(self, text: str, pos: int, message: str):
        self.position = pos
        super().__init__(f"{message} at position {pos}: {text!r}")


def _tokenize(text: str, variable: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch == variable:
            tokens.append((ch, ch, i))
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ExprSyntaxError(text, i, f"unexpected character {ch!r}")
    return tokens


#: Deepest nesting of parentheses and unary signs either parser accepts;
#: every level is a few stack frames of recursive descent.
MAX_NESTING_DEPTH = 100

#: Largest exponent ``parse_rational_function`` accepts; the exponents of
#: nested powers multiply, so ``(z^2)^600`` counts as 1200.
MAX_POWER = 1000


class TokenCursor:
    """The tokens of ``text`` (integers, the one ``variable`` letter and
    +-*/^()) with a read position: the base of the package's
    recursive-descent parsers.  Methods, unlike nested closures, build no
    reference cycle per parse.  Each nesting level is opened with
    :meth:`enter` and closed with :meth:`leave`, so input nested deeper
    than :data:`MAX_NESTING_DEPTH` is a syntax error, not a stack
    overflow."""

    def __init__(self, text: str, variable: str):
        self.text = text
        self.tokens = _tokenize(text, variable)
        self.pos = 0
        self.depth = 0

    def enter(self, at: int) -> None:
        """Open one nesting level at text position ``at``."""
        if self.depth == MAX_NESTING_DEPTH:
            raise ExprSyntaxError(self.text, at,
                                  f"nesting deeper than MAX_NESTING_DEPTH = {MAX_NESTING_DEPTH}")
        self.depth += 1

    def leave(self) -> None:
        self.depth -= 1

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take_or_eof(self) -> tuple[str, object, int]:
        """The next token, or ("eof", None, len(text)) past the last one."""
        return self.take() if self.pos < len(self.tokens) else ("eof", None, len(self.text))


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
            left = left * right if op == "*" else left / right
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
    """Parse the textual form emitted by :func:`format_rational_function`.

    Accepts general +,-,*,/,^ expressions in z with integer literals, so any
    serialized weight or scalar parses back to an equal value.
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
