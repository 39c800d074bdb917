"""Pointwise verification of the closed-form weight identities.

Three scenarios, each producing a left and a right weight expression whose
proportionality (equality up to one constant across all sample points) is
then decided:

* ``commutator`` - the bracket of the m-th root power against the second
  operator versus the bracket of the first operator against the l-th root
  power; proportional exactly in the matching-order regime, with the
  constant equal to the ratio of the two normalizing constants.
* ``factored`` - the same relation rearranged as rational cofactors times
  irreducible Gamma quotients (one quotient on the left, a difference of
  two on the right).
* ``functional`` - the single-function form H(z) F(z + 2 alpha) = F(z)
  with alpha = s - p, valid under the degree balance l + p = m + s.

Every verdict is exact, and no sample is evaluated for a Gamma-bearing
side.  Sides that both reduce to rational functions are compared as
rational functions.  Otherwise a term that
:func:`gamma_ratio.separating_term` names, one whose quotient with every
other term is not rational, refutes the identity for every z and every
constant.  What is left is decided by :func:`gamma_ratio.match_parts`:
the distinct Gamma parts of both sides are pairwise dissimilar, hence
linearly independent over C(z), and left = c * right holds iff the
coefficients of each part agree up to the one constant c.

That the parts are always pairwise dissimilar on :func:`build_sides`
sides is a pole-mass count.  Every Gamma part of a side is at one scale,
two_delta = 2p or 2s, and after reduction it has 0 or 4 atoms: the part
[a, b]/[c, d] of a root power reduces to nothing as soon as one
numerator atom cancels a denominator atom.  At one scale two
reduced parts are similar only when they are equal.  At scales 2p and 2s,
p != s, let L = lcm(2p, 2s): read at residues mod L, a reduced part with k
atoms at scale delta has net pole counts whose absolute values sum to
k * L / delta, and 4L/2p != 4L/2s, so the quotient of the two parts has
poles that do not cancel.  :func:`gamma_ratio.dissimilar` reads the
counts completely for one or two scales, so it shows every such pair,
and the ``inconclusive`` verdict, which names a pair it does not show, is
not reached.

Proportionality cannot be refuted at a single point, so a check needs at
least two samples; the sample count is bounded above by
:data:`MAX_SAMPLES` and the working precision lies in 1 ..
:data:`MAX_PRECISION_BITS`, and both are checked before anything is
built.  Only the rational comparison evaluates the samples, exactly; the
precision is echoed in the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact_algebra import (
    PoleError,
    Polynomial,
    RationalFunction,
    as_rational,
    constant_ratio,
    rf_eval,
    rf_normalize,
    rf_shift,
)
from .gamma_ratio import (
    GammaRatioExpr,
    PartMatch,
    WeightExpr,
    match_parts,
    power_weight,
    separating_term,
)
from .mellin import RadialSymbol
from .shift_algebra import ShiftSum, commutator, quasihomogeneous_operator
from .solver import check_exponents, check_root_degrees

SCENARIOS = ("commutator", "factored", "functional")

#: Most sample points one check evaluates.
MAX_SAMPLES = 1000

#: Highest working precision, in bits, a check accepts; it is echoed in
#: the report.
MAX_PRECISION_BITS = 4096


@dataclass(frozen=True)
class SampleRow:
    """Exact values of both sides and their ratio at z; None at a pole, and
    no ratio where the right side is 0."""

    z: Fraction
    left: Optional[Fraction]
    right: Optional[Fraction]
    ratio: Optional[Fraction]


@dataclass(frozen=True)
class IdentityReport:
    scenario: str
    params: dict
    verdict: str  # proportional | not_proportional | inconclusive
    constant: Optional[Fraction]
    exact: bool
    both_sides_zero: bool
    samples: tuple[SampleRow, ...]
    witnesses: tuple[tuple[Fraction, Fraction], ...]
    skipped_poles: tuple[Fraction, ...]
    precision_bits: int
    note: str = ""


def _ratio(num_roots: tuple[int, ...], den_roots: tuple[int, ...]) -> RationalFunction:
    """prod (z + a) / prod (z + c), a in num_roots, c in den_roots: the
    denominator is handed over as its roots."""
    return rf_normalize(Polynomial.linear_product(num_roots), den_roots)


def build_sides(scenario: str, p: int, s: int, n: int, d: int, m: int, l: int) -> tuple[WeightExpr, WeightExpr]:
    """Left and right weight expressions for one scenario instance."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")
    if min(p, s, n, d, m, l) <= 0:
        raise ValueError("all parameters must be positive")

    if scenario == "commutator":
        t_first = quasihomogeneous_operator(p, RadialSymbol.monomial(n))
        t_second = quasihomogeneous_operator(s, RadialSymbol.monomial(d))
        root_m = ShiftSum.single(m, power_weight(m, p, n))
        root_l = ShiftSum.single(l, power_weight(l, s, d))
        left = commutator(root_m, t_second).weight_at(m + s)
        right = commutator(t_first, root_l).weight_at(l + p)
        return left, right

    if scenario == "factored":
        # The rational cofactors below come from reducing the bracket form
        # by two functional-equation steps of size 2p, which is the s = 2p
        # regime; outside it the factored presentation does not apply.
        if s != 2 * p:
            raise ValueError("factored form is derived for s = 2p only")
        r1 = _ratio((2 * m + 2 * p, p + n, 3 * p + n),
                    (s + d, 2 * p, 2 * m + p + n, 2 * m + 3 * p + n)) - _ratio((), (2 * m + s + d,))
        gq_left = GammaRatioExpr.of(2 * p, [2 * m, p + n], [0, 2 * m + p + n])
        r2 = _ratio((2 * l,), (2 * m, 2 * l + p + n))
        gq_r1 = GammaRatioExpr.of(2 * s, [2 * l, s + d], [0, 2 * l + s + d])
        r3 = _ratio((0,), (p + n, 2 * m + s + d))
        gq_r2 = GammaRatioExpr.of(2 * s, [2 * m, 2 * p + s + d], [2 * p, 2 * m + s + d])
        left = WeightExpr.build([(r1, gq_left)])
        right = WeightExpr.build([(r2, gq_r1), (r3.scale(-1), gq_r2)])
        return left, right

    # functional form: requires the degree balance and alpha = s - p
    if l + p != m + s:
        raise ValueError("functional form needs l + p = m + s")
    alpha = s - p
    if alpha <= 0:
        raise ValueError("functional form needs p < s")
    f_expr = WeightExpr.build([
        (_ratio((2 * m,), (0,)),
         GammaRatioExpr.of(2 * p, [2 * m, p + n], [0, 2 * m + p + n])),
        (_ratio((2 * m,), (p + n,)).scale(-1),
         GammaRatioExpr.of(2 * s, [2 * m, 2 * p + s + d], [2 * p, 2 * m + s + d])),
    ])
    h = _ratio((2 * alpha + p + n, 2 * m + s + d), (2 * l + p + n, s + d))
    left = WeightExpr.build([(h * rf_shift(c, 2 * alpha), g.shift(2 * alpha)) for c, g in f_expr.terms])
    right = f_expr
    return left, right


def _check_sample_count(count: int) -> None:
    if not 2 <= count <= MAX_SAMPLES:
        raise ValueError(f"need between 2 and MAX_SAMPLES = {MAX_SAMPLES} sample points, "
                         f"got {count}; proportionality cannot be refuted at one point")


def default_samples(count: int = 50) -> list[Fraction]:
    """The sample points z = 2k + 2, k < count; ``count`` is checked first."""
    _check_sample_count(count)
    return [Fraction(2 * k + 2) for k in range(count)]


def _value(rf: RationalFunction, z: Fraction) -> Optional[Fraction]:
    """rf(z), or None at a pole."""
    try:
        return rf_eval(rf, z)
    except PoleError:
        return None


def _exact_proportionality(
    left_rf: RationalFunction,
    right_rf: RationalFunction,
    sample_zs: Sequence[Fraction],
) -> tuple[str, Optional[Fraction], bool, list[SampleRow], list[tuple[Fraction, Fraction]], str]:
    rows: list[SampleRow] = []

    if left_rf.is_zero and right_rf.is_zero:
        for z in sample_zs:
            rows.append(SampleRow(z, Fraction(0), Fraction(0), None))
        return ("proportional", Fraction(1), True, rows, [],
                "both sides reduce to the zero function exactly")
    if right_rf.is_zero or left_rf.is_zero:
        # One side vanishes identically, the other does not.
        verdict = "proportional" if left_rf.is_zero else "not_proportional"
        const = Fraction(0) if left_rf.is_zero else None
        note = ("left side vanishes identically" if left_rf.is_zero
                else "right side vanishes identically while the left does not")
        for z in sample_zs:
            lv, rv = _value(left_rf, z), _value(right_rf, z)
            rows.append(SampleRow(z, lv, rv, None))
        return verdict, const, False, rows, [], note

    constant = constant_ratio(left_rf, right_rf)
    witnesses: list[tuple[Fraction, Fraction]] = []
    ratios: list[tuple[Fraction, Fraction]] = []
    for z in sample_zs:
        lv, rv = _value(left_rf, z), _value(right_rf, z)
        ratio = None if lv is None or rv is None or rv == 0 else lv / rv if constant is None else constant
        rows.append(SampleRow(z, lv, rv, ratio))
        if ratio is not None:
            ratios.append((z, ratio))
    if constant is not None:
        return "proportional", constant, False, rows, [], ""
    for (z1, r1), (z2, r2) in zip(ratios, ratios[1:]):
        if r1 != r2:
            witnesses.append((z1, z2))
            if len(witnesses) >= 3:
                break
    return ("not_proportional", None, False, rows, witnesses,
            "exact quotient of the two sides is not constant")


def _separation_note(side: str, gamma: GammaRatioExpr) -> str:
    note = (f"the {side} term with Gamma part {gamma} has no term on either side "
            "whose quotient with it is rational")
    if side == "right":
        note += ", and the left side is not zero"
    return note + ", so no constant c gives left = c * right"


def _match_note(match: PartMatch) -> str:
    if match.verdict == "inconclusive":
        g, h = match.parts
        return (f"the Gamma parts {g} and {h} are not shown dissimilar, "
                "so their coefficients do not decide the identity")
    if match.verdict == "proportional":
        return ("the Gamma parts of both sides are pairwise dissimilar, and the left "
                "coefficient of each is the constant times the right one")
    if len(match.parts) == 1:
        why = f"the left coefficient of Gamma part {match.parts[0]} is not a constant times the right one"
    else:
        why = (f"the coefficients of Gamma parts {match.parts[0]} and {match.parts[1]} "
               "need different constants")
    return ("the Gamma parts of both sides are pairwise dissimilar, and " + why
            + ", so no constant c gives left = c * right")


def verify_identity(
    scenario: str,
    p: int,
    s: int,
    n: int,
    d: int,
    m: int,
    l: int,
    sample_zs: Optional[Sequence[Fraction]] = None,
    precision_bits: int = 200,
) -> IdentityReport:
    """Decide left = constant * right for one scenario instance.

    Rational sides are decided exactly.  Otherwise a term that
    :func:`gamma_ratio.separating_term` names refutes the identity for
    every z and every constant, and when no term separates,
    :func:`gamma_ratio.match_parts` decides it from the coefficients of
    each Gamma part.  No sample is evaluated for either.

    Raises ValueError, before any evaluation, for fewer than 2 or more than
    :data:`MAX_SAMPLES` samples, for ``precision_bits`` below 1 or above
    :data:`MAX_PRECISION_BITS`, for n or d above
    :data:`bergshift.solver.MAX_EXPONENT` and for m or l above
    :data:`bergshift.solver.MAX_ROOT_DEGREE`.
    """
    samples = [as_rational(z) for z in (sample_zs if sample_zs is not None else default_samples())]
    _check_sample_count(len(samples))
    if precision_bits < 1:
        raise ValueError("precision_bits must be positive")
    if precision_bits > MAX_PRECISION_BITS:
        raise ValueError(f"precision_bits {precision_bits} exceeds "
                         f"MAX_PRECISION_BITS = {MAX_PRECISION_BITS}")
    check_exponents(n=n, d=d)
    check_root_degrees(m=m, l=l)
    left, right = build_sides(scenario, p, s, n, d, m, l)
    params = {"p": p, "s": s, "n": n, "d": d, "m": m, "l": l}

    left_rf, right_rf = left.as_rational(), right.as_rational()
    if left_rf is not None and right_rf is not None:
        verdict, const, both_zero, rows, witnesses, note = _exact_proportionality(
            left_rf, right_rf, samples)
        return IdentityReport(
            scenario=scenario, params=params, verdict=verdict, constant=const,
            exact=True, both_sides_zero=both_zero, samples=tuple(rows),
            witnesses=tuple(witnesses), skipped_poles=(),
            precision_bits=precision_bits, note=note)

    separated = separating_term(left, right)
    if separated is not None:
        side, gamma = separated
        return IdentityReport(
            scenario=scenario, params=params, verdict="not_proportional", constant=None,
            exact=True, both_sides_zero=False, samples=(), witnesses=(), skipped_poles=(),
            precision_bits=precision_bits, note=_separation_note(side, gamma))

    match = match_parts(left, right)
    return IdentityReport(
        scenario=scenario, params=params, verdict=match.verdict, constant=match.constant,
        exact=True, both_sides_zero=False, samples=(), witnesses=(), skipped_poles=(),
        precision_bits=precision_bits, note=_match_note(match))
