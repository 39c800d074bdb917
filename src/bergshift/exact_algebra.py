"""Exact scalar, polynomial and rational-function arithmetic.

Everything in this module is computed over arbitrary-precision rationals;
no floating point enters anywhere.  A polynomial has one stored form, a
tuple of Python ints over one positive int denominator, with no trailing
zero and no common factor of the denominator and the content of the ints
(the content and primitive part of Knuth, TAOCP Vol. 2, 4.6.1).  That form
is unique, so equal fields are equal polynomials.  Products, sums, shifts
and point values work on the ints and reduce their result to that form;
``Polynomial.coeffs`` is only a read-only ``Fraction`` view.

Every denominator the package builds splits over the rationals: the
Mellin images sum c/(z + a), the symbol weights (z + 2p)/(z + p + n) and
the factors z + c of the Gamma functional equation are products of
linear factors, and sums, products and shifts keep them so.  A rational
function therefore keeps its denominator as the sorted multiset of the
roots c of its monic factors z + c (``RationalFunction.roots``), each
root as its pair of ints, over a numerator coprime to it.  That form is
canonical, so equality of forms is equality as functions, which the rest
of the package relies on for exact zero and identity testing of shift
weights.

On that form every gcd is a root test.  :func:`poly_gcd` of a numerator
and a split denominator tests each distinct root c by one Horner pass on
the numerator's ints at -c, and divides out each root it finds by
synthetic division on the ints, once per multiplicity.  The gcd of two
denominators is the multiset minimum of their roots, their lcm the
maximum and their product the sum; a shift moves the roots.  `rf_arith`
keeps Henrici's gcd-aware formulas for canonical operands (Knuth, TAOCP
Vol. 2, 4.5.1): a sum cancels its numerator only against the roots the
two denominators share, and a product cancels each numerator against the
other operand's roots; constant operands, `scale` and `rf_shift` take no
gcd.  No pseudo-remainder sequence and no division by a general
polynomial is left: `rf_normalize` takes the denominator as its roots,
and rational functions are not divided, only compared by
:func:`constant_ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from typing import Iterable, Optional, Sequence, Union

#: Scalar type used everywhere: reduced fraction, positive denominator,
#: sign carried by the numerator.  `fractions.Fraction` guarantees both.
Rational = Fraction

RationalLike = Union[int, Fraction]

#: A denominator in split form: the roots c of its monic factors z + c,
#: with multiplicity, each as the int pair (a, b) of c = a/b in lowest
#: terms with b > 0, the pairs sorted.  The order is that of the pairs, not
#: of the values: it only has to be canonical, and comparing ints is cheap.
Roots = tuple[tuple[int, int], ...]


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


def _pair(c: RationalLike) -> tuple[int, int]:
    """The root c as its stored pair (a, b): c = a/b in lowest terms, b > 0."""
    if type(c) is int:
        return c, 1
    c = as_rational(c)
    return c.numerator, c.denominator


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
        """The product of the monic linear factors (z + c), c in ``cs``."""
        return Polynomial.one().times_roots(cs)

    def times_roots(self, cs: Iterable[RationalLike]) -> "Polynomial":
        """This polynomial times the monic linear factors (z + c), c in ``cs``."""
        return _times_roots(self, [_pair(c) for c in cs])

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

    def eval(self, point: RationalLike) -> Fraction:
        point = as_rational(point)
        return Fraction(*self.eval_pair(point.numerator, point.denominator))

    def eval_pair(self, u: int, v: int) -> tuple[int, int]:
        """The value at u/v as an integer pair (num, den), den > 0 when
        v > 0, not reduced: with deg the degree it is
        sum(ints[i] u^i v^(deg-i)) / (den v^deg), one Horner pass on ints."""
        if not self.ints:
            return 0, 1
        return _horner(self.ints, u, v), self.den * v ** self.degree

    def shift(self, h: RationalLike) -> "Polynomial":
        """Return p(z + h).  With h = a/b, the Taylor shift by the integer a
        (repeated synthetic division) of b^deg p(w/b), whose ints are
        ints[i] b^(deg-i), is b^deg p((w+a)/b); w = bz then scales int i by b^i."""
        if h == 0 or self.is_zero:
            return self
        a, b = _pair(h)
        deg = self.degree
        t = [c * b ** (deg - i) for i, c in enumerate(self.ints)]
        for i in range(deg):
            for j in range(deg - 1, i - 1, -1):
                t[j] += a * t[j + 1]
        return _reduced([c * b ** i for i, c in enumerate(t)], self.den * b ** deg)


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


def _times_roots(p: Polynomial, roots: Iterable[tuple[int, int]]) -> Polynomial:
    """p * prod (z + a/b), (a, b) in ``roots``: each factor is
    (b z + a) / b.  A factor z + a with integer a is primitive, so by
    Gauss's lemma it keeps the content of the ints and the den; only a
    fractional root calls for a reduction."""
    if p.is_zero:
        return p
    out, den = list(p.ints), p.den
    for a, b in roots:
        out.append(0)
        if b == 1:
            for i in range(len(out) - 1, 0, -1):
                out[i] = out[i - 1] + a * out[i]
        else:
            for i in range(len(out) - 1, 0, -1):
                out[i] = b * out[i - 1] + a * out[i]
            den *= b
        out[0] *= a
    return Polynomial(tuple(out), den) if den == p.den else _reduced(out, den)


def _horner(ints: Sequence[int], u: int, v: int) -> int:
    """sum(ints[i] u^i v^(deg-i)), v^deg times the value of
    sum(ints[i] z^i) at z = u/v: one Horner pass on the ints."""
    acc = 0
    if v == 1:
        for c in reversed(ints):
            acc = acc * u + c
    else:
        vpow = 1
        for c in reversed(ints):
            acc = acc * u + c * vpow
            vpow *= v
    return acc


def _divide_linear(ints: Sequence[int], a: int, b: int) -> tuple[int, ...]:
    """The ints Q with ints = (b z + a) Q, by synthetic division from the
    top.  The division must be exact; then, with gcd(a, b) = 1, b z + a is
    primitive and Q is integral (Gauss's lemma), so every step divides
    exactly."""
    n = len(ints) - 1
    q = [0] * n
    r = ints[n]
    for i in range(n - 1, -1, -1):
        if b != 1:
            r //= b
        q[i] = r
        r = ints[i] - a * r
    return tuple(q)


def poly_gcd(p: Polynomial, roots: Roots) -> tuple[Roots, Polynomial, Roots]:
    """The gcd g of p and the split polynomial d = prod (z + a/b), (a, b)
    in ``roots`` (sorted, as stored), with both cofactors: (roots of g,
    p / g, roots of d / g), the root multisets sorted.

    Each distinct root c = a/b is tested by one Horner pass on p's ints at
    -a/b.  A root found is divided out by synthetic division by b z + a on
    the ints, exact by Gauss's lemma, and tested again, up to its
    multiplicity in d; a root that fails is not tested again.  Since b z + a
    is primitive, the quotient ints keep the content of p's ints, so the
    quotient needs a reduction only when some b is not 1.  p = 0 gives
    g = d.
    """
    if p.is_zero:
        return roots, p, ()
    ints, scale = p.ints, 1
    common: list[tuple[int, int]] = []
    left: list[tuple[int, int]] = []
    miss = None
    for i, c in enumerate(roots):
        if len(ints) == 1:  # a nonzero constant has no root
            left.extend(roots[i:])
            break
        if c == miss:
            left.append(c)
            continue
        a, b = c
        if _horner(ints, -a, b) == 0:
            ints = _divide_linear(ints, a, b)
            scale *= b
            common.append(c)
        else:
            miss = c
            left.append(c)
    if not common:
        return (), p, roots
    if scale == 1:
        quotient = Polynomial(ints, p.den)
    else:
        quotient = _reduced([scale * x for x in ints], p.den)
    return tuple(common), quotient, tuple(left)


def _meet(r1: Roots, r2: Roots) -> tuple[list, list, list]:
    """(r1 min r2, r1 - r2, r2 - r1) for sorted root multisets: the gcd of
    the two denominators and both cofactors, by one merge pass."""
    common: list[tuple[int, int]] = []
    only1: list[tuple[int, int]] = []
    only2: list[tuple[int, int]] = []
    i = j = 0
    n1, n2 = len(r1), len(r2)
    while i < n1 and j < n2:
        x, y = r1[i], r2[j]
        if x == y:
            common.append(x)
            i += 1
            j += 1
        elif x < y:
            only1.append(x)
            i += 1
        else:
            only2.append(y)
            j += 1
    only1.extend(r1[i:])
    only2.extend(r2[j:])
    return common, only1, only2


def _merged(*multisets: Iterable[tuple[int, int]]) -> Roots:
    """The sum of root multisets, sorted: the product of their denominators."""
    out: list[tuple[int, int]] = []
    for m in multisets:
        out.extend(m)
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# rational functions


@dataclass(frozen=True)
class RationalFunction:
    """Canonical num / prod (z + a/b), (a, b) in ``roots``: the root pairs
    in lowest terms and sorted (:data:`Roots`), and num(-a/b) != 0 for
    every root, so num and the monic denominator are coprime.

    Construct through :func:`rf_normalize`; the raw constructor trusts its
    inputs to already be canonical.
    """

    num: Polynomial
    roots: Roots

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(Polynomial.zero(), ())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(Polynomial.one(), ())

    @staticmethod
    def constant(c: RationalLike) -> "RationalFunction":
        return _canonical(Polynomial.constant(c), ())

    @staticmethod
    def z_plus(c: RationalLike = 0) -> "RationalFunction":
        return RationalFunction(Polynomial.z_plus(c), ())

    @property
    def den(self) -> Polynomial:
        """The denominator multiplied out: a read-only view."""
        return _times_roots(Polynomial.one(), self.roots)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and not self.roots

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        if self.is_zero:
            return Fraction(0)
        return self.num.leading

    # operator sugar mirrors rf_arith
    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return rf_arith(self, other, "add")

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return rf_arith(self, other, "sub")

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return rf_arith(self, other, "mul")

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.roots)

    def scale(self, c: RationalLike) -> "RationalFunction":
        # a nonzero scalar keeps num coprime to the denominator
        return _canonical(self.num.scale(c), self.roots)

    def __str__(self) -> str:
        return format_rational_function(self)


def rf_normalize(num: Polynomial, roots: Iterable[RationalLike]) -> RationalFunction:
    """num / prod (z + c), c in ``roots`` (ints or Fractions), in the
    canonical form.

    The denominator is given split, as the roots of its monic factors; a
    ``Polynomial`` raises ValueError, since its factors are not known.
    """
    if isinstance(roots, Polynomial):
        raise ValueError("rf_normalize takes the denominator as the roots c of its "
                         "factors z + c, not as a polynomial")
    roots = tuple(sorted([_pair(c) for c in roots]))
    if num.is_zero:
        return RationalFunction.zero()
    return RationalFunction(*_cancel(num, roots))


def _cancel(num: Polynomial, roots: Roots) -> tuple[Polynomial, Roots]:
    """num and roots with their gcd divided out; no gcd is taken when num
    is constant or there is no root."""
    if num.degree <= 0 or not roots:
        return num, roots
    _, num, roots = poly_gcd(num, roots)
    return num, roots


def _canonical(num: Polynomial, roots: Roots) -> RationalFunction:
    """Wrap a coprime pair, mapping a zero num to the zero."""
    return RationalFunction.zero() if num.is_zero else RationalFunction(num, roots)


def _add(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    """Henrici's sum of canonical operands.  With g the roots the two
    denominators share and d1', d2' the rest, the sum is
    (n1 d2' + n2 d1') / (g d1' d2'); d1' and d2' are coprime to the
    numerator t, so only g is tested against t."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    (n1, r1), (n2, r2) = (a.num, a.roots), (b.num, b.roots)
    if not r1:
        return _canonical(_times_roots(n1, r2) + n2, r2)
    if not r2:
        return _canonical(n1 + _times_roots(n2, r1), r1)
    if r1 == r2:
        return _canonical(*_cancel(n1 + n2, r1))
    common, only1, only2 = _meet(r1, r2)
    t = _times_roots(n1, only2) + _times_roots(n2, only1)
    if not common:
        return _canonical(t, _merged(r1, r2))
    t, common_left = _cancel(t, tuple(common))
    return _canonical(t, _merged(only1, only2, common_left))


def _mul(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    """Product of canonical operands by cross-cancellation."""
    if a.is_zero or b.is_zero:
        return RationalFunction.zero()
    n1, r2 = _cancel(a.num, b.roots)
    n2, r1 = _cancel(b.num, a.roots)
    return RationalFunction(n1 * n2, _merged(r1, r2) if r1 and r2 else r1 or r2)


def rf_arith(a: RationalFunction, b: RationalFunction, op: str) -> RationalFunction:
    """Exact ring arithmetic ("add", "sub", "mul") on canonical rational
    functions."""
    if op == "add":
        return _add(a, b)
    if op == "sub":
        return _add(a, -b)
    if op == "mul":
        return _mul(a, b)
    raise ValueError(f"unknown op {op!r}")


def constant_ratio(a: RationalFunction, b: RationalFunction) -> Optional[Fraction]:
    """The constant c with a = c * b, or None when a / b is not constant;
    b must not be zero.  Both forms are canonical, so a = c * b exactly
    when their roots are equal and a.num = c * b.num, c the ratio of the
    leading coefficients: no polynomial is divided."""
    if a.is_zero:
        return Fraction(0)
    if a.roots != b.roots or a.num.degree != b.num.degree:
        return None
    c = a.num.leading / b.num.leading
    return c if b.num.scale(c) == a.num else None


def rf_eval(a: RationalFunction, point: RationalLike) -> Fraction:
    """Exact value a(point); raises :class:`PoleError` at a pole.  At
    point = u/v each root c = r/b contributes the factor (u b + r v) / (v b)."""
    point = as_rational(point)
    u, v = point.numerator, point.denominator
    d_num = d_den = 1
    for r, b in a.roots:
        x = u * b + r * v
        if x == 0:
            raise PoleError(point)
        d_num *= x
        d_den *= v * b
    n_num, n_den = a.num.eval_pair(u, v)
    return Fraction(n_num * d_den, n_den * d_num)


def rf_shift(a: RationalFunction, h: RationalLike) -> RationalFunction:
    """Return a(z + h) in canonical form: the numerator shifted and every
    root moved to c + h, which keeps the two coprime.  An integer h moves
    the pair (r, b) to (r + h b, b), still in lowest terms; pairs with
    different b move by different amounts, so they are sorted again."""
    if h == 0:
        return a
    if type(h) is int:
        roots = [(r + h * b, b) for r, b in a.roots]
    else:
        h = as_rational(h)
        roots = [_pair(Fraction(r, b) + h) for r, b in a.roots]
    roots.sort()
    return RationalFunction(a.num.shift(h), tuple(roots))


# ---------------------------------------------------------------------------
# text form


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
    """"num" or "(num)/(den)", the denominator multiplied out."""
    num = format_polynomial(a.num)
    if not a.roots:
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


#: Deepest nesting of parentheses and unary signs a parser accepts;
#: every level is a few stack frames of recursive descent.
MAX_NESTING_DEPTH = 100


class TokenCursor:
    """The tokens of ``text`` (integers, the one ``variable`` letter and
    +-*/^()) with a read position: the base of the recursive-descent
    symbol parser in :mod:`bergshift.mellin`.  Methods, unlike nested
    closures, build no reference cycle per parse.  Each nesting level is
    opened with :meth:`enter` and closed with :meth:`leave`, so input
    nested deeper than :data:`MAX_NESTING_DEPTH` is a syntax error, not a
    stack overflow."""

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


