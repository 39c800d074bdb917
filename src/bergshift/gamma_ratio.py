"""Symbolic Gamma quotients with affine arguments, and weight expressions.

A Gamma-ratio expression is a quotient of products of atoms
Gamma((z + offset)/two_delta) with positive integer two_delta and
nonnegative integer offsets, checked at construction.  The
functional equation Gamma(x + 1) = x * Gamma(x) lets any offset be lowered
by two_delta at the cost of a linear factor (z + offset - two_delta) /
two_delta; applying it until every offset sits in [0, two_delta) and then
cancelling identical atoms yields a confluent canonical form.  An
expression whose atoms share one two_delta is a rational function exactly
when nothing survives that reduction, which turns rationality into a
decidable syntactic check and powers the exact zero-testing of shift
weights.  Across scales Gauss's multiplication theorem relates atoms that
the reduction keeps apart: Gamma(z/2) Gamma((z+1)/2) / Gamma(z) is
2^(1-z) sqrt(pi), and a quotient of such products can be a constant.

The rational cofactor of the reduction is kept as two multisets of
cofactor roots: the constants c of its linear factors (z + c), one
multiset from the numerator atoms and one from the denominator atoms.
Cancelling the multisets against each other is the whole gcd, since
distinct factors z + c are coprime.  The surviving denominator roots are
the cofactor's denominator as it is stored, and only the surviving
numerator roots are multiplied out; :func:`power_weight` costs O(m/p)
factors whatever n is.
:func:`rationality_oracle` needs no cofactor at all and only compares the
reduced atoms.

A weight expression is a finite sum of (rational function) x (Gamma ratio)
terms in the global variable z = 2k + 2.  Two Gamma ratios are similar
when their quotient is a rational function; :func:`dissimilar` shows the
opposite exactly, from the net pole count of the quotient at each residue
and the prime part of its exponential factor, read sparsely so that
neither costs the lcm of the scales.  Dissimilar terms are linearly
independent over C(z), so :func:`separating_term` refutes
left = c * right for every constant c from the terms alone, and
:func:`bergshift.shift_algebra.is_zero` certifies a nonzero weight the
same way.  When the distinct Gamma parts of both sides are pairwise
dissimilar, left - c * right = sum_G (L_G - c R_G) G vanishes exactly when
every coefficient does, so :func:`match_parts` decides left = c * right
from the coefficients L_G and R_G.  No sample is evaluated for any of
them.

All certified numerics of the package live here and return balls
(midpoint, radius) backed by mpmath interval arithmetic:
:func:`working_precision` is the one precision scope, and :func:`eval_ball`
encloses one value, for :func:`bergshift.shift_algebra.apply_to_basis` and
:func:`bergshift.shift_algebra.is_zero`.  It walks the normalized terms on
mpmath's ``iv`` objects: each coefficient's numerator and denominator
values, exact fractions, are enclosed as quotients of integer intervals,
and each Gamma argument (z0 + offset)/two_delta is enclosed the same way
and passed to ``iv.gamma``, once per distinct argument.  Gamma values
never come from the recurrence Gamma(x + 1) = x Gamma(x), which would
change the radii.  The pole test reads the exact arguments: a zero
coefficient denominator or a numerator atom at a nonpositive integer is a
pole, and a denominator atom there makes its term vanish.  The commutant
solver and the identity checks use none of this: they are exact
throughout.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Iterator, Optional

import mpmath
from mpmath import iv, mp

from .exact_algebra import (
    Polynomial,
    PoleError,
    RationalFunction,
    RationalLike,
    as_rational,
    constant_ratio,
    format_rational_function,
    rf_eval,
    rf_normalize,
)

# An atom Gamma((z + offset)/two_delta), stored as (two_delta, offset).
# Keeping the denominator per atom closes products over operators built at
# different root scales; an expression whose atoms share one two_delta is
# exactly the single-denominator quotient shape.
GammaAtom = tuple[int, int]


def _sorted_atoms(atoms: Iterable[GammaAtom]) -> tuple[GammaAtom, ...]:
    return tuple(sorted(atoms))


def _cancel_common(num: list[GammaAtom], den: list[GammaAtom]) -> tuple[tuple[GammaAtom, ...], tuple[GammaAtom, ...]]:
    den_left = list(den)
    num_left: list[GammaAtom] = []
    for a in num:
        if a in den_left:
            den_left.remove(a)
        else:
            num_left.append(a)
    return _sorted_atoms(num_left), _sorted_atoms(den_left)


@dataclass(frozen=True)
class GammaRatioExpr:
    """Product of Gamma atoms over a product of Gamma atoms."""

    num: tuple[GammaAtom, ...]
    den: tuple[GammaAtom, ...]

    def __post_init__(self):
        # canonicalize only lowers offsets: a negative one would be raised
        # to its residue without the functional-equation factors.
        for td, off in self.num + self.den:
            if type(td) is not int or td < 1:
                raise ValueError("two_delta must be a positive integer")
            if type(off) is not int:
                raise ValueError("offsets must be integers")
            if off < 0:
                raise ValueError("offsets must be nonnegative")

    @staticmethod
    def of(two_delta: int, num_offsets: Iterable[int], den_offsets: Iterable[int]) -> "GammaRatioExpr":
        """The single-denominator shape: all atoms share ``two_delta``."""
        num = [(two_delta, int(a)) for a in num_offsets]
        den = [(two_delta, int(c)) for c in den_offsets]
        n, d = _cancel_common(num, den)
        return GammaRatioExpr(n, d)

    @staticmethod
    def one() -> "GammaRatioExpr":
        return GammaRatioExpr((), ())

    @property
    def is_one(self) -> bool:
        return not self.num and not self.den

    def __mul__(self, other: "GammaRatioExpr") -> "GammaRatioExpr":
        if self.is_one or other.is_one:
            return other if self.is_one else self
        n, d = _cancel_common(list(self.num) + list(other.num), list(self.den) + list(other.den))
        return GammaRatioExpr(n, d)

    def inverse(self) -> "GammaRatioExpr":
        return GammaRatioExpr(self.den, self.num)

    def shift(self, h: int) -> "GammaRatioExpr":
        """Substitute z -> z + h; h must be a nonnegative integer."""
        if h < 0:
            raise ValueError("gamma atoms only shift by nonnegative integers")
        if h == 0 or self.is_one:
            return self
        return GammaRatioExpr(
            _sorted_atoms((td, off + h) for td, off in self.num),
            _sorted_atoms((td, off + h) for td, off in self.den),
        )

    def __str__(self) -> str:
        def fmt(atoms: tuple[GammaAtom, ...]) -> str:
            return "*".join(f"gamma((z+{off})/{td})" for td, off in atoms) or "1"

        if self.is_one:
            return "1"
        if not self.den:
            return fmt(self.num)
        return f"{fmt(self.num)}/({fmt(self.den)})"


def _reduce_atoms(atoms: Iterable[GammaAtom]) -> tuple[list[GammaAtom], Counter, int]:
    """Lower every offset into [0, two_delta); return (atoms, roots, scale).

    Each single application of the functional equation on an atom with
    offset a >= two_delta contributes the linear factor (z + c), with root
    c = a - two_delta counted in ``roots``, and the scalar 1/two_delta,
    multiplied into ``scale``: the atoms equal prod (z + c) / scale times
    the reduced atoms.
    """
    reduced: list[GammaAtom] = []
    roots: Counter = Counter()
    scale = 1
    for td, off in atoms:
        q, r = divmod(off, td)
        if q > 0:
            roots.update(range(r, off, td))
            scale *= td ** q
        reduced.append((td, r))
    return reduced, roots, scale


def _is_reduced(g: GammaRatioExpr) -> bool:
    """Whether g is its own reduced part: every offset in [0, two_delta),
    num and den sorted, and no atom in both."""
    num, den = g.num, g.den
    for atoms in (num, den):
        prev = (0, 0)  # below every atom
        for atom in atoms:
            if atom[1] >= atom[0] or atom < prev:
                return False
            prev = atom
    return not num or not den or set(num).isdisjoint(den)


_ONE = RationalFunction.one()
_UNIT = GammaRatioExpr.one()


def canonicalize(g: GammaRatioExpr) -> tuple[RationalFunction, GammaRatioExpr]:
    """Split g into (rational cofactor, fully reduced Gamma part).

    Value preserving: cofactor * reduced equals g as a function.  In the
    reduced part every offset lies in [0, two_delta), num and den are
    sorted and no atom appears in both numerator and denominator, so no
    further functional-equation or cancellation step applies.  A part
    already in that form, as every Gamma part of a built
    :class:`WeightExpr` is, is returned as it is with the cofactor 1.
    Otherwise the cofactor is canonical as built: the root multisets are
    cancelled first, the surviving denominator roots are its denominator
    as stored, and no surviving numerator root is among them.
    """
    if _is_reduced(g):
        return _ONE, g
    num, num_roots, num_scale = _reduce_atoms(g.num)
    den, den_roots, den_scale = _reduce_atoms(g.den)
    top = Polynomial.linear_product((num_roots - den_roots).elements())
    bottom = tuple(sorted([(c, 1) for c in (den_roots - num_roots).elements()]))
    cofactor = RationalFunction(top.scale(Fraction(den_scale, num_scale)), bottom)
    n, d = _cancel_common(num, den)
    return cofactor, GammaRatioExpr(n, d)


def rationality_oracle(g: GammaRatioExpr) -> bool:
    """Brute-force rationality check: lower every offset mod two_delta and
    ask whether the reduced atoms cancel; no cofactor is built."""
    return sorted([(td, off % td) for td, off in g.num]) == sorted(
        [(td, off % td) for td, off in g.den])


def is_rational_divisibility(a: int, b: int, c: int, d: int, delta: int) -> bool:
    """Divisibility criterion for the 2-over-2 quotient
    Gamma((z+a)/2delta) Gamma((z+b)/2delta) / (Gamma((z+c)/2delta) Gamma((z+d)/2delta)):
    rational iff 2*delta divides a+b-c-d and one of a-c, a-d.
    """
    if min(a, b, c, d) < 0 or delta <= 0:
        raise ValueError("offsets must be nonnegative and delta positive")
    two_delta = 2 * delta
    lam = a + b - c - d
    return lam % two_delta == 0 and (
        (a - c) % two_delta == 0 or (a - d) % two_delta == 0
    )


# ---------------------------------------------------------------------------
# weight expressions


@dataclass(frozen=True)
class WeightExpr:
    """Finite sum of (rational function) x (canonical Gamma ratio) terms.

    Terms are normalized at construction: every Gamma part is reduced with
    its cofactor folded into the coefficient, equal Gamma parts are merged,
    zero coefficients dropped, and the result deterministically ordered.
    Two expressions whose Gamma content cancels entirely therefore compare
    equal exactly when they are equal as functions of z.
    """

    terms: tuple[tuple[RationalFunction, GammaRatioExpr], ...]

    @staticmethod
    def build(terms: Iterable[tuple[RationalFunction, GammaRatioExpr]]) -> "WeightExpr":
        """The normalized sum of (canonical coefficient, Gamma part) terms.

        Each Gamma part goes through :func:`canonicalize`, and its
        coefficient is multiplied by the cofactor only when that is not 1.
        A part that is already reduced, such as a part of another built
        expression, has the cofactor 1, so summing the terms of built
        expressions reduces nothing and multiplies nothing."""
        merged: dict[GammaRatioExpr, RationalFunction] = {}
        for coeff, gamma in terms:
            cofactor, reduced = canonicalize(gamma)
            if cofactor != _ONE:
                coeff = coeff * cofactor
            if coeff.is_zero:
                continue
            prev = merged.get(reduced)
            merged[reduced] = coeff if prev is None else prev + coeff
        cleaned = [(c, g) for g, c in merged.items() if not c.is_zero]
        cleaned.sort(key=lambda t: (len(t[1].num) + len(t[1].den), t[1].num, t[1].den))
        return WeightExpr(tuple(cleaned))

    @staticmethod
    def from_rational(rf: RationalFunction) -> "WeightExpr":
        """The weight rf, wrapped as it is: a unit Gamma part needs no
        normalization."""
        return WeightExpr.zero() if rf.is_zero else WeightExpr(((rf, _UNIT),))

    @staticmethod
    def zero() -> "WeightExpr":
        return WeightExpr(())

    @staticmethod
    def one() -> "WeightExpr":
        return WeightExpr.from_rational(RationalFunction.one())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_rational(self) -> bool:
        """True when no Gamma atom survives normalization."""
        return all(g.is_one for _, g in self.terms)

    def as_rational(self) -> Optional[RationalFunction]:
        if self.is_zero:
            return RationalFunction.zero()
        if len(self.terms) == 1 and self.terms[0][1].is_one:
            return self.terms[0][0]
        return None

    def eval_exact(self, z0: RationalLike) -> Fraction:
        """Exact value at z0; only defined for purely rational weights."""
        if not self.is_rational:
            raise ValueError("weight has Gamma content; use eval_ball")
        z0 = as_rational(z0)
        total = Fraction(0)
        for c, _ in self.terms:
            total += rf_eval(c, z0)
        return total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for c, g in self.terms:
            cs = format_rational_function(c)
            parts.append(cs if g.is_one else f"({cs})*{g}")
        return " + ".join(parts)


def power_weight(m: int, p: int, n: int) -> WeightExpr:
    """Weight of the m-th power of the canonical degree-1 root whose p-th
    power is the quasihomogeneous operator of degree p with radial part r^n.

    Closed form before reduction:
        (z+2m)/z * G((z+2m)/2p) G((z+p+n)/2p) / (G(z/2p) G((z+2m+p+n)/2p)).
    Reduction makes power_weight(0,...) = 1 and power_weight(p,p,n) the
    plain rational weight (z+2p)/(z+p+n).
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    if p <= 0 or n <= 0:
        raise ValueError("p and n must be positive")
    if m == 0:
        return WeightExpr.one()
    coeff = rf_normalize(Polynomial.z_plus(2 * m), (0,))
    gamma = GammaRatioExpr.of(2 * p, [2 * m, p + n], [0, 2 * m + p + n])
    return WeightExpr.build([(coeff, gamma)])


# ---------------------------------------------------------------------------
# structural separation


def _coprime_base(values: Iterable[int]) -> set[int]:
    """Pairwise coprime integers > 1 of which every value is a product of
    powers: split two members by their gcd until no two share a factor."""
    base = {v for v in values if v > 1}
    while True:
        pair = next(((a, b) for a in base for b in base if a < b and gcd(a, b) > 1), None)
        if pair is None:
            return base
        a, b = pair
        g = gcd(a, b)
        base -= {a, b}
        base |= {x for x in (g, a // g, b // g) if x > 1}


def _valuation(b: int, v: int) -> int:
    e = 0
    while v % b == 0:
        v //= b
        e += 1
    return e


def _exponential_base_is_one(net: dict[int, int]) -> bool:
    """Whether the prime part sum of +-v_q(delta)/delta over the atoms
    vanishes for every prime q, with ``net`` the numerator-minus-denominator
    atom count per scale delta.  It is tested on a coprime base of the
    scales: for a prime q dividing the base member b, v_q(delta) =
    v_b(delta) v_q(b), so the sums for q and for b vanish together."""
    return all(sum(Fraction(k * _valuation(b, td), td) for td, k in net.items()) == 0
               for b in _coprime_base(net))


def _count_escapes(f: dict[int, int], other: dict[int, int], classes: int, g: int) -> bool:
    """Whether some residue x in the support of f, with every y = x mod g
    of the other scale, has a nonzero net count f(x) + other(y).  There
    are ``classes`` such y; when fewer of them carry a count, one has
    other(y) = 0."""
    for x, k in f.items():
        partners = [y for y in other if (y - x) % g == 0]
        if len(partners) < classes or any(k + other[y] for y in partners):
            return True
    return False


def dissimilar(g: GammaRatioExpr, h: GammaRatioExpr) -> bool:
    """True only when g/h is not a rational function of z; False means
    "not shown".

    Let q = g/h have atoms Gamma((z + a)/delta).  For large integers t,
    q's pole order at z = -t is the net count, numerator minus denominator,
    of the atoms with t = a mod delta, a periodic function of t.  By Gauss's
    multiplication theorem, once every count is zero q is a constant times
    a rational function times b^z, where log b = -sum +-log(delta)/delta;
    b = 1 exactly when the prime part sum +-v_q(delta)/delta is zero for
    every prime q.  So q is rational iff every count is zero and b = 1.

    The counts are read sparsely: with f_delta the counts of one scale,
    the count at t is f_1(t mod delta_1) + f_2(t mod delta_2), and by the
    Chinese remainder theorem every pair of residues x = y mod
    gcd(delta_1, delta_2) occurs.  That settles one or two scales in time
    quadratic in the atoms, whatever lcm(delta_1, delta_2) is.  With three
    or more scales carrying counts only the prime part is tested.
    """
    counts: dict[int, Counter] = {}
    for sign, atoms in ((1, g.num + h.den), (-1, g.den + h.num)):
        for td, off in atoms:
            counts.setdefault(td, Counter())[off % td] += sign
    support = {td: f for td, c in counts.items() if (f := {x: k for x, k in c.items() if k})}
    if len(support) == 1:
        return True
    if len(support) == 2:
        (d1, f1), (d2, f2) = support.items()
        common = gcd(d1, d2)
        if _count_escapes(f1, f2, d2 // common, common) or _count_escapes(f2, f1, d1 // common, common):
            return True
    return not _exponential_base_is_one({td: sum(c.values()) for td, c in counts.items()})


def separating_term(left: WeightExpr, right: WeightExpr) -> Optional[tuple[str, GammaRatioExpr]]:
    """A term that refutes left = c * right for every constant c, as
    (side, Gamma part), or None when none is shown.

    The Gamma parts are hypergeometric terms for the shift z -> z + M, M
    the lcm of their two_deltas, and pairwise dissimilar ones (quotient not
    rational) are linearly independent over C(z) (Petkovsek, Wilf and
    Zeilberger, A = B, 1996).  So a left term dissimilar to every other
    term of both sides survives in left - c * right for every c.  A right
    term alone in the same way refutes every c except 0, so it refutes only
    when the left side is certainly not zero: when some left term is
    dissimilar to all other left terms.  Both tests use :func:`dissimilar`,
    so a term it cannot separate is never named.
    """
    gammas = [g for _, g in left.terms] + [g for _, g in right.terms]
    split = len(left.terms)

    def alone(i: int, stop: int) -> bool:
        return all(dissimilar(gammas[i], gammas[j]) for j in range(stop) if j != i)

    for i in range(split):
        if alone(i, len(gammas)):
            return "left", gammas[i]
    if not any(alone(i, split) for i in range(split)):
        return None
    for i in range(split, len(gammas)):
        if alone(i, len(gammas)):
            return "right", gammas[i]
    return None


@dataclass(frozen=True)
class PartMatch:
    """Outcome of :func:`match_parts`.  ``parts`` names the Gamma parts
    behind the verdict: the part whose coefficients admit no constant, or
    the two parts whose coefficients need different constants, for
    ``not_proportional``; the pair not shown dissimilar for
    ``inconclusive``; none for ``proportional``."""

    verdict: str  # proportional | not_proportional | inconclusive
    constant: Optional[Fraction]
    parts: tuple[GammaRatioExpr, ...]


def match_parts(left: WeightExpr, right: WeightExpr) -> PartMatch:
    """Decide left = c * right, for one constant c, part by part.

    With L_G and R_G the coefficients of the Gamma part G on each side (0
    when G is missing), left - c * right = sum_G (L_G - c R_G) G.  When the
    distinct parts of both sides are pairwise :func:`dissimilar`, they are
    linearly independent over C(z), as in :func:`separating_term`, so the
    sum vanishes iff L_G = c R_G for every G: the verdict is exact.  A pair
    of distinct parts that :func:`dissimilar` does not show apart leaves
    the question open, and the verdict is ``inconclusive``.  Both sides
    zero give the constant 0.  Each L_G = c R_G is decided by
    :func:`constant_ratio`, which divides nothing.
    """
    parts = list(dict.fromkeys([g for _, g in left.terms + right.terms]))
    for i, g in enumerate(parts):
        for h in parts[i + 1:]:
            if not dissimilar(g, h):
                return PartMatch("inconclusive", None, (g, h))
    left_coeff = {g: c for c, g in left.terms}
    right_coeff = {g: c for c, g in right.terms}
    constant, first = None, None
    for g in parts:
        r = right_coeff.get(g)
        q = None if r is None else constant_ratio(left_coeff.get(g, RationalFunction.zero()), r)
        if q is None:
            return PartMatch("not_proportional", None, (g,))
        if constant is None:
            constant, first = q, g
        elif q != constant:
            return PartMatch("not_proportional", None, (first, g))
    return PartMatch("proportional", Fraction(0) if constant is None else constant, ())


# ---------------------------------------------------------------------------
# certified evaluation


@contextmanager
def working_precision(bits: int) -> Iterator[None]:
    """Set the mpmath real and interval precisions (the one piece of
    shared state in the package) to ``bits`` for the block, restoring both
    on every exit path; mpmath's ``workprec`` covers only the real one."""
    if bits <= 0:
        raise ValueError("precision_bits must be positive")
    saved = mp.prec, iv.prec
    try:
        mp.prec = iv.prec = bits
        yield
    finally:
        mp.prec, iv.prec = saved


@dataclass(frozen=True)
class BallValue:
    """Certified real enclosure [mid - rad, mid + rad]."""

    mid: mpmath.mpf
    rad: mpmath.mpf

    @property
    def lower(self) -> mpmath.mpf:
        return mp.fsub(self.mid, self.rad, rounding="d")

    @property
    def upper(self) -> mpmath.mpf:
        return mp.fadd(self.mid, self.rad, rounding="u")

    def contains_zero(self) -> bool:
        return self.lower <= 0 <= self.upper

    def excludes_zero(self) -> bool:
        return not self.contains_zero()

    def __str__(self) -> str:
        return f"[{mpmath.nstr(self.mid, 20)} +/- {mpmath.nstr(self.rad, 5)}]"


def _ball(x) -> BallValue:
    """The ball of the interval x, at the working precision."""
    a = mp.convert(x.a)
    b = mp.convert(x.b)
    mid = (a + b) / 2
    rad = max(mp.fsub(b, mid, rounding="u"), mp.fsub(mid, a, rounding="u"))
    return BallValue(mid, max(rad, mp.mpf(0)))


def _is_gamma_pole(arg: Fraction) -> bool:
    return arg <= 0 and arg.denominator == 1


def _enclose(q: Fraction):
    """The interval of q as the quotient of its integer enclosures."""
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


class _GammaMemo:
    """``iv.gamma`` per argument, each computed once.  Valid only at the
    precision it was filled at, so a memo lives inside one
    :func:`working_precision` block."""

    def __init__(self):
        self._values: dict[Fraction, object] = {}

    def gamma(self, arg: Fraction):
        x = self._values.get(arg)
        if x is None:
            x = self._values[arg] = iv.gamma(_enclose(arg))
        return x


def eval_ball(w: WeightExpr, z0: RationalLike, precision_bits: int = 200) -> BallValue:
    """Certified enclosure of w(z0) at the requested working precision.

    Radius shrinks as precision grows; raises :class:`PoleError` when z0
    hits a pole of any normalized term: a zero coefficient denominator, or
    a numerator Gamma atom at a nonpositive integer.  Denominator atoms
    there only make the term vanish.
    """
    z0 = as_rational(z0)
    with working_precision(precision_bits):
        memo = _GammaMemo()
        total = iv.mpf(0)
        for c, g in w.terms:
            den = prod([z0 + Fraction(r, b) for r, b in c.roots], start=Fraction(1))
            if den == 0:
                raise PoleError(z0)
            num_args = [(z0 + off) / td for td, off in g.num]
            if any(_is_gamma_pole(a) for a in num_args):
                raise PoleError(z0)
            den_args = [(z0 + off) / td for td, off in g.den]
            if any(_is_gamma_pole(a) for a in den_args):
                continue  # reciprocal Gamma vanishes: the term contributes 0
            term = _enclose(c.num.eval(z0)) / _enclose(den)
            for a in num_args:
                term *= memo.gamma(a)
            for a in den_args:
                term /= memo.gamma(a)
            total += term
        return _ball(total)
