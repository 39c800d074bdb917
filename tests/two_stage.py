"""The staged operator algebra, kept as the oracle of the one-build path.

``shift_algebra`` gathers the raw terms of a composition, a commutator or
a linear combination by output degree and normalizes each degree by one
``WeightExpr.build``.  The routines here build the same operators in
stages, each of which normalizes:

* ``compose`` builds one weight per (i, j) part pair, and
  ``shift_sum_build`` merges a repeated degree by adding built weights;
* ``linear_combine`` scales every weight and merges again, and
  ``commutator`` is the linear combination of the two compositions;
* ``toeplitz_weight`` and ``mellin_transform`` add their terms one
  rational function at a time, each sum with its own gcd.

Every stage gives a canonical form, so the one-build path must equal these
results exactly.  ``weight_add``, ``weight_scale``, ``weight_sub``,
``weight_mul`` and ``weight_shift`` are also the tests' arithmetic on
weights.
"""

from bergshift.exact_algebra import (
    Polynomial,
    RationalFunction,
    as_rational,
    rf_normalize,
    rf_shift,
)
from bergshift.gamma_ratio import GammaRatioExpr, WeightExpr
from bergshift.mellin import MellinImage
from bergshift.shift_algebra import ShiftSum


def weight_add(a: WeightExpr, b: WeightExpr) -> WeightExpr:
    return WeightExpr.build(list(a.terms) + list(b.terms))


def weight_scale(w: WeightExpr, c) -> WeightExpr:
    c = as_rational(c)
    if c == 0:
        return WeightExpr.zero()
    return WeightExpr(tuple([(rf.scale(c), g) for rf, g in w.terms]))


def weight_sub(a: WeightExpr, b: WeightExpr) -> WeightExpr:
    return weight_add(a, weight_scale(b, -1))


def weight_mul(a: WeightExpr, b: WeightExpr) -> WeightExpr:
    return WeightExpr.build([(c1 * c2, g1 * g2) for c1, g1 in a.terms for c2, g2 in b.terms])


def weight_shift(w: WeightExpr, h: int) -> WeightExpr:
    """w(z + h), h a nonnegative integer."""
    return WeightExpr.build([(rf_shift(c, h), g.shift(h)) for c, g in w.terms])


def shift_sum_build(parts) -> ShiftSum:
    merged = {}
    for degree, weight in parts:
        if degree < 0:
            raise ValueError("shift degrees must be nonnegative")
        prev = merged.get(degree)
        merged[degree] = weight if prev is None else weight_add(prev, weight)
    return ShiftSum(tuple([(d, w) for d, w in sorted(merged.items()) if not w.is_zero]))


def compose(a: ShiftSum, b: ShiftSum) -> ShiftSum:
    parts = []
    for i, wa in a.parts:
        for j, wb in b.parts:
            parts.append((i + j, WeightExpr.build(
                [(rf_shift(c1, 2 * j) * c2, g1.shift(2 * j) * g2)
                 for c1, g1 in wa.terms for c2, g2 in wb.terms])))
    return shift_sum_build(parts)


def linear_combine(ops) -> ShiftSum:
    parts = []
    for scalar, op in ops:
        if as_rational(scalar) != 0:
            parts.extend([(d, weight_scale(w, scalar)) for d, w in op.parts])
    return shift_sum_build(parts)


def commutator(a: ShiftSum, b: ShiftSum) -> ShiftSum:
    return linear_combine([(1, compose(a, b)), (-1, compose(b, a))])


def mellin_transform(phi) -> MellinImage:
    total = RationalFunction.zero()
    for coeff, exp in phi.terms:
        total = total + rf_normalize(Polynomial.constant(coeff), (exp,))
    return MellinImage(total)


def toeplitz_weight(p: int, phi) -> WeightExpr:
    total = RationalFunction.zero()
    zp = Polynomial.z_plus(2 * p)
    for coeff, exp in phi.terms:
        total = total + rf_normalize(zp.scale(coeff), (p + exp,))
    return WeightExpr.build([(total, GammaRatioExpr.one())])
