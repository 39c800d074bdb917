"""The operator algebra: quasihomogeneous Toeplitz operators as weighted shifts.

An operator is a finite sum of shift components: degree d carries a weight
expression w_d(z), and the action on the monomial basis is

    A(z^k) = sum_d w_d(2k + 2) z^(k + d).

Composition is weight multiplication with an argument shift: the degree
a + b part of A compose B picks up w_A(z + 2b) * w_B(z).  Everything stays
exact; zero-testing of weights is a sound tri-state (a weight that is zero
on the sample sequence z = 2k + 2 is zero identically, but certified
sampling can only refute, so Unknown is an honest third answer).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .exact_algebra import PoleError, RationalLike, as_rational, rf_shift
from .gamma_ratio import BallValue, WeightExpr, eval_ball, power_weight, separating_term
from .mellin import RadialSymbol, toeplitz_weight


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
        merged: dict[int, WeightExpr] = {}
        for degree, weight in parts:
            if degree < 0:
                raise ValueError("shift degrees must be nonnegative")
            prev = merged.get(degree)
            merged[degree] = weight if prev is None else prev + weight
        cleaned = [(d, w) for d, w in sorted(merged.items()) if not w.is_zero]
        return ShiftSum(tuple(cleaned))

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

    def scale(self, c: RationalLike) -> "ShiftSum":
        c = as_rational(c)
        if c == 0:
            return ShiftSum.zero()
        return ShiftSum(tuple([(d, w.scale(c)) for d, w in self.parts]))


def quasihomogeneous_operator(p: int, phi: RadialSymbol) -> ShiftSum:
    """The Toeplitz operator with symbol e^(ip theta) * phi(r), as a shift."""
    return ShiftSum.single(p, toeplitz_weight(p, phi))


def root_operator(p: int, n: int) -> ShiftSum:
    """Canonical degree-1 root of the degree-p operator with radial part r^n.

    Composing it with itself p times reduces exactly to that operator.
    """
    return ShiftSum.single(1, power_weight(1, p, n))


def linear_combine(ops: Iterable[tuple[RationalLike, ShiftSum]]) -> ShiftSum:
    parts: list[tuple[int, WeightExpr]] = []
    for scalar, op in ops:
        scalar = as_rational(scalar)
        if scalar == 0:
            continue
        parts.extend((d, w.scale(scalar)) for d, w in op.parts)
    return ShiftSum.build(parts)


def compose(a: ShiftSum, b: ShiftSum) -> ShiftSum:
    """Operator composition (apply b first): degree i + j picks up
    w_a(z + 2j) * w_b(z), built as one weight from the shifted products of
    the terms, so each product part is reduced once."""
    parts = []
    for i, wa in a.parts:
        for j, wb in b.parts:
            parts.append((i + j, WeightExpr.build(
                [(rf_shift(c1, 2 * j) * c2, g1.shift(2 * j) * g2)
                 for c1, g1 in wa.terms for c2, g2 in wb.terms])))
    return ShiftSum.build(parts)


def commutator(a: ShiftSum, b: ShiftSum) -> ShiftSum:
    return linear_combine([(1, compose(a, b)), (-1, compose(b, a))])


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
