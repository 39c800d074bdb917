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

Verdicts are exact whenever both sides reduce to rational functions;
otherwise the certified ratio check :func:`gamma_ratio.ball_ratio` decides,
with the working precision doubled up to four times before giving up as
inconclusive.  A ball-path ``not_proportional`` is certified by its
witnesses; a ball-path ``proportional`` means the sides agree up to one
constant at the listed samples, which is not a proof of the identity.
Proportionality cannot be refuted at a single point, so a check needs at
least two samples; the sample count and the working precision are bounded
above by :data:`MAX_SAMPLES` and :data:`MAX_PRECISION_BITS`, and both are
checked before anything is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exact_algebra import (
    PoleError,
    Polynomial,
    RationalFunction,
    as_rational,
    rf_eval,
    rf_normalize,
)
from .gamma_ratio import (
    BallValue,
    GammaRatioExpr,
    SampleRow,
    WeightExpr,
    ball_ratio,
    power_weight,
)
from .mellin import RadialSymbol
from .shift_algebra import ShiftSum, commutator, quasihomogeneous_operator
from .solver import check_exponents, check_root_degrees

SCENARIOS = ("commutator", "factored", "functional")

#: Most sample points one check evaluates.
MAX_SAMPLES = 1000

#: Highest requested working precision, in bits, of the certified ratio
#: check; the check may double it up to four times.
MAX_PRECISION_BITS = 4096


@dataclass(frozen=True)
class IdentityReport:
    scenario: str
    params: dict
    verdict: str  # proportional | not_proportional | inconclusive
    constant: Union[Fraction, BallValue, None]
    exact: bool
    both_sides_zero: bool
    samples: tuple[SampleRow, ...]
    witnesses: tuple[tuple[Fraction, Fraction], ...]
    skipped_poles: tuple[Fraction, ...]
    precision_bits: int
    note: str = ""


def _lin(*roots: int) -> Polynomial:
    """Product of the monic linear factors (z + r)."""
    return Polynomial.linear_product(roots)


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
        r1 = rf_normalize(_lin(2 * m + 2 * p, p + n, 3 * p + n),
                          _lin(s + d, 2 * p, 2 * m + p + n, 2 * m + 3 * p + n)) - rf_normalize(
            Polynomial.one(), _lin(2 * m + s + d))
        gq_left = GammaRatioExpr.of(2 * p, [2 * m, p + n], [0, 2 * m + p + n])
        r2 = rf_normalize(_lin(2 * l), _lin(2 * m, 2 * l + p + n))
        gq_r1 = GammaRatioExpr.of(2 * s, [2 * l, s + d], [0, 2 * l + s + d])
        r3 = rf_normalize(_lin(0), _lin(p + n, 2 * m + s + d))
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
        (rf_normalize(_lin(2 * m), _lin(0)),
         GammaRatioExpr.of(2 * p, [2 * m, p + n], [0, 2 * m + p + n])),
        (rf_normalize(_lin(2 * m), _lin(p + n)).scale(-1),
         GammaRatioExpr.of(2 * s, [2 * m, 2 * p + s + d], [2 * p, 2 * m + s + d])),
    ])
    h_expr = WeightExpr.from_rational(
        rf_normalize(_lin(2 * alpha + p + n, 2 * m + s + d), _lin(2 * l + p + n, s + d)))
    left = h_expr * f_expr.shift(2 * alpha)
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

    quotient = left_rf / right_rf
    witnesses: list[tuple[Fraction, Fraction]] = []
    ratios: list[tuple[Fraction, Fraction]] = []
    for z in sample_zs:
        lv, rv = _value(left_rf, z), _value(right_rf, z)
        ratio = None if (lv is None or rv is None or rv == 0) else lv / rv
        rows.append(SampleRow(z, lv, rv, ratio))
        if ratio is not None:
            ratios.append((z, ratio))
    if quotient.is_constant:
        return "proportional", quotient.constant_value(), False, rows, [], ""
    for (z1, r1), (z2, r2) in zip(ratios, ratios[1:]):
        if r1 != r2:
            witnesses.append((z1, z2))
            if len(witnesses) >= 3:
                break
    return ("not_proportional", None, False, rows, witnesses,
            "exact quotient of the two sides is not constant")


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
    """Check left = constant * right pointwise for one scenario instance.

    Raises ValueError, before any evaluation, for fewer than 2 or more than
    :data:`MAX_SAMPLES` samples, for ``precision_bits`` above
    :data:`MAX_PRECISION_BITS`, for n or d above
    :data:`bergshift.solver.MAX_EXPONENT` and for m or l above
    :data:`bergshift.solver.MAX_ROOT_DEGREE`.
    """
    samples = [as_rational(z) for z in (sample_zs if sample_zs is not None else default_samples())]
    _check_sample_count(len(samples))
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

    check = ball_ratio(left, right, samples, precision_bits)
    note = ""
    if check.verdict == "proportional" and check.constant is None:
        note = "both sides indistinguishable from zero at every sample"
    elif check.verdict == "inconclusive":
        note = "ball radii too large after four precision doublings"
    return IdentityReport(
        scenario=scenario, params=params, verdict=check.verdict,
        constant=check.constant, exact=False, both_sides_zero=False,
        samples=check.rows, witnesses=check.witnesses,
        skipped_poles=check.skipped_poles, precision_bits=check.precision_bits,
        note=note)
