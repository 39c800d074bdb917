"""The operator algebra: quasihomogeneous Toeplitz operators as weighted shifts.

An operator is a finite sum of shift components: degree d carries a weight
expression w_d(z), and the action on the monomial basis is

    A(z^k) = sum_d w_d(2k + 2) z^(k + d).

Composition is weight multiplication with an argument shift: the degree
a + b part of A compose B picks up w_A(z + 2b) * w_B(z).  Products,
brackets and linear combinations gather their raw terms by output degree
and normalize each degree by one :meth:`WeightExpr.build`.  Everything
stays exact; zero-testing of weights is a sound tri-state (a weight that
is zero on the sample sequence z = 2k + 2 is zero identically, but
certified sampling can only refute, so Unknown is an honest third answer).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .exact_algebra import PoleError, RationalFunction, RationalLike, as_rational, rf_shift
from .gamma_ratio import BallValue, GammaRatioExpr, WeightExpr, eval_ball, power_weight, separating_term
from .mellin import RadialSymbol, toeplitz_weight

#: One (coefficient, Gamma part) term of a weight, not yet normalized.
Term = tuple[RationalFunction, GammaRatioExpr]


class ZeroVerdict(enum.Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class BasisVector:
    """Coefficient attached to the basis monomial z^index."""

    index: int
    coefficient: Union[Fraction, BallValue]


@dataclass(frozen=True)
class ShiftSum:
    """Finite map from shift degree to weight; no degree maps to zero."""

    parts: tuple[tuple[int, WeightExpr], ...]

    @staticmethod
    def build(parts: Iterable[tuple[int, WeightExpr]]) -> "ShiftSum":
        """The sum of (degree, built weight) parts; when no degree repeats,
        each weight is kept as it is."""
        parts = list(parts)
        if any(d < 0 for d, _ in parts):
            raise ValueError("shift degrees must be nonnegative")
        if len({d for d, _ in parts}) == len(parts):
            return ShiftSum(tuple(sorted([(d, w) for d, w in parts if not w.is_zero])))
        return _sum_by_degree([(d, t) for d, w in parts for t in w.terms])

    @staticmethod
    def zero() -> "ShiftSum":
        return ShiftSum(())

    @staticmethod
    def identity() -> "ShiftSum":
        return ShiftSum.build([(0, WeightExpr.one())])

    @staticmethod
    def single(degree: int, weight: WeightExpr) -> "ShiftSum":
        return ShiftSum.build([(degree, weight)])

    @property
    def is_zero(self) -> bool:
        return not self.parts

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple([d for d, _ in self.parts])

    def weight_at(self, degree: int) -> WeightExpr:
        for d, w in self.parts:
            if d == degree:
                return w
        return WeightExpr.zero()


def _sum_by_degree(terms: Iterable[tuple[int, Term]]) -> ShiftSum:
    """The shift sum of raw (degree, term) pairs: one
    :meth:`WeightExpr.build` per degree, zero weights dropped."""
    groups: dict[int, list[Term]] = {}
    for degree, term in terms:
        groups.setdefault(degree, []).append(term)
    weights = [(d, WeightExpr.build(groups[d])) for d in sorted(groups)]
    return ShiftSum(tuple([(d, w) for d, w in weights if not w.is_zero]))


def quasihomogeneous_operator(p: int, phi: RadialSymbol) -> ShiftSum:
    """The Toeplitz operator with symbol e^(ip theta) * phi(r), as a shift."""
    return ShiftSum.single(p, toeplitz_weight(p, phi))


def root_operator(p: int, n: int) -> ShiftSum:
    """Canonical degree-1 root of the degree-p operator with radial part r^n.

    Composing it with itself p times reduces exactly to that operator.
    """
    return ShiftSum.single(1, power_weight(1, p, n))


def linear_combine(ops: Iterable[tuple[RationalLike, ShiftSum]]) -> ShiftSum:
    """sum c * op over (c, op), each output degree normalized once."""
    terms: list[tuple[int, Term]] = []
    for scalar, op in ops:
        scalar = as_rational(scalar)
        if scalar != 0:
            terms.extend([(d, (c.scale(scalar), g)) for d, w in op.parts for c, g in w.terms])
    return _sum_by_degree(terms)


def _products(a: ShiftSum, b: ShiftSum, negate: bool = False) -> list[tuple[int, Term]]:
    """The raw terms of a compose b, or of its negative: degree i + j gets
    w_a(z + 2j) * w_b(z) term by term, each term of w_a shifted once per j."""
    out: list[tuple[int, Term]] = []
    for j, wb in b.parts:
        for i, wa in a.parts:
            for c1, g1 in wa.terms:
                c1, g1 = rf_shift(-c1 if negate else c1, 2 * j), g1.shift(2 * j)
                out.extend([(i + j, (c1 * c2, g1 * g2)) for c2, g2 in wb.terms])
    return out


def compose(a: ShiftSum, b: ShiftSum) -> ShiftSum:
    """Operator composition (apply b first): degree i + j picks up
    w_a(z + 2j) * w_b(z), each output degree normalized once."""
    return _sum_by_degree(_products(a, b))


def commutator(a: ShiftSum, b: ShiftSum) -> ShiftSum:
    """a b - b a, each output degree normalized once."""
    return _sum_by_degree(_products(a, b) + _products(b, a, negate=True))


def apply_to_basis(a: ShiftSum, k: int, precision_bits: int = 200) -> list[BasisVector]:
    """Expand A(z^k) in the monomial basis.

    Rational weights evaluate exactly; Gamma-bearing weights come back as
    certified balls at the requested precision.  Raises :class:`PoleError`
    when z = 2k + 2 is a pole of some weight.
    """
    if k < 0:
        raise ValueError("basis index must be nonnegative")
    z = Fraction(2 * k + 2)
    out: list[BasisVector] = []
    for d, w in a.parts:
        if w.is_rational:
            out.append(BasisVector(k + d, w.eval_exact(z)))
        else:
            out.append(BasisVector(k + d, eval_ball(w, z, precision_bits)))
    return out


#: Sample budget for NonZero certification: z = 2k + 2, k in {0..63}.
_NONZERO_SAMPLES = 64


def is_zero(w: WeightExpr, precision_bits: int = 200) -> ZeroVerdict:
    """Tri-state zero test for a weight expression.

    Zero is returned only with proof: the normalized form is empty after
    full Gamma cancellation (and a weight vanishing on the whole sample
    sequence vanishes identically, so the converse direction is complete
    for weights whose Gamma content cancels).  NonZero is exact when a term
    has no other term of w whose quotient with it is rational
    (:func:`gamma_ratio.separating_term` against zero), which covers every
    nonzero rational weight; otherwise it needs a certified evaluation
    bounded away from zero.  Anything else is Unknown.
    """
    if w.is_zero:
        return ZeroVerdict.ZERO
    if separating_term(w, WeightExpr.zero()) is not None:
        return ZeroVerdict.NONZERO
    for k in range(_NONZERO_SAMPLES):
        try:
            if eval_ball(w, Fraction(2 * k + 2), precision_bits).excludes_zero():
                return ZeroVerdict.NONZERO
        except PoleError:
            continue
    return ZeroVerdict.UNKNOWN
