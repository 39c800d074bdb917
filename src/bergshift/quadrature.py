"""Adaptive high-precision quadrature of a polynomial on [0, 1], in fixed point.

The integrand is a polynomial sum c t^n with rational coefficients and
integer powers n >= 0 on [0, 1].  Every node, every power and every cut
lies in [0, 1], so each is held as a Python integer X standing for
X * 2^-P, and each product of two of them is truncated once, by ``>> P``.
t^n is a square-and-multiply ladder of such products, a few big-int
operations per step even at n near 2^40.  The coefficients are integers
over their common denominator D; the value and the error estimate are
converted to mpf, and divided by D, once, at the end.

Panels are estimated with a fixed-order Gauss-Legendre rule and accepted
when the whole-panel estimate agrees with the sum of its two halves;
otherwise the panel is split and both halves are integrated to half the
tolerance, so the error estimate is a genuine interval-halving
convergence check rather than a fixed-grid guess.

**Guard bits and the arithmetic error.**  P is the caller's working
precision in bits, plus N.bit_length() for N the largest power, plus
:data:`GUARD_BITS`: a truncated node raised to the power N moves N times
as far, and the bit length of N pays for that.  A node is within 3 units
of 2^-P of the exact node of its panel (the rule's truncation and one
product), so its n-th power moves by at most 3n units, and the ladder's
products lose at most n - 1 more: a power is within 4n units.  Each of
the 12 weights is within 2 units.  Hence each panel on [a, b] is within
((b - a)(4N + 24) S + 1) 2^-P of the exact 12-point Gauss-Legendre panel,
S the sum of the absolute values of the coefficients, and a value summed
from L panels over pieces of total width at most 1 is within

    B = ((4N + 24) S + L) 2^-P

of the exact panels' sum, before its one rounding to the working
precision.  As 2^N.bit_length() exceeds N, the first part is at most
24 S 2^-(prec + GUARD_BITS), below S 2^-(prec + 11).  An error estimate,
a difference of panels, is within 3B of its exact value, so the kernel
takes the decisions exact arithmetic would, unless an estimate lies
within 3B of its tolerance.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import Sequence

import mpmath
from mpmath import mp


class QuadratureError(ArithmeticError):
    """Adaptive refinement hit the depth or panel limit; carries the
    achieved error."""

    def __init__(self, achieved: mpmath.mpf, requested: mpmath.mpf):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"quadrature did not converge: achieved error estimate {achieved} "
            f"exceeds requested {requested}"
        )


#: Points of the Gauss-Legendre rule on each panel.
ORDER = 12

#: Halvings before :func:`integrate_adaptive` gives up.
MAX_DEPTH = 48

#: Work the panels of one :func:`integrate_adaptive` call may cost over
#: all its pieces.  A panel costs the number of terms of the integrand,
#: one power each, so an integrand of c terms gets at most MAX_WORK / c
#: panels.
MAX_WORK = 3000

#: Bits past the working precision and the largest power's bit length at
#: which the fixed-point kernel runs.
GUARD_BITS = 16

_RULE_CACHE: dict[tuple[int, int], tuple[list, list]] = {}
_FIXED_RULE_CACHE: dict[int, tuple[list[int], list[int]]] = {}


def gauss_legendre_rule(order: int, prec: int) -> tuple[list, list]:
    """Nodes and weights of the `order`-point rule on [-1, 1] at `prec` bits."""
    key = (order, prec)
    if key in _RULE_CACHE:
        return _RULE_CACHE[key]
    with mp.workprec(prec + 32):
        nodes, weights = [], []
        for i in range(1, order + 1):
            # Chebyshev initializer, then Newton on the Legendre recurrence.
            x = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (order + mp.mpf(1) / 2))
            for _ in range(60):
                p0, p1 = mp.mpf(1), x
                for j in range(2, order + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = order * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mp.mpf(2) ** (-prec - 16):
                    break
            p0, p1 = mp.mpf(1), x
            for j in range(2, order + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = order * (x * p1 - p0) / (x * x - 1)
            nodes.append(+x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    _RULE_CACHE[key] = (nodes, weights)
    return _RULE_CACHE[key]


def _to_fixed(x: mpmath.mpf, bits: int, scale: int = 1) -> int:
    """floor(scale * x * 2^bits), exactly, for a finite mpf x."""
    man, exp = x.man_exp  # man is unsigned
    if x < 0:
        man = -man
    shift = exp + bits
    return scale * man << shift if shift >= 0 else scale * man >> -shift


def _fixed_rule(bits: int) -> tuple[list[int], list[int]]:
    """The :data:`ORDER`-point rule moved to [0, 1] in fixed point: the
    nodes (1 + x)/2 and weights w/2 times 2^bits, each truncated."""
    if bits not in _FIXED_RULE_CACHE:
        nodes, weights = gauss_legendre_rule(ORDER, bits)
        _FIXED_RULE_CACHE[bits] = ([(1 << bits - 1) + _to_fixed(x, bits - 1) for x in nodes],
                                   [_to_fixed(w, bits - 1) for w in weights])
    return _FIXED_RULE_CACHE[bits]


def _fixed_power(t: int, n: int, bits: int) -> int:
    """t^n for t in [0, 1] scaled by 2^bits, by square-and-multiply with
    each product truncated: at most n - 1 units below the exact power."""
    result = 1 << bits
    while n:
        if n & 1:
            result = result * t >> bits
        n >>= 1
        if n:
            t = t * t >> bits
    return result


def _panel(terms: list[tuple[int, int]], a: int, b: int, rule: tuple[list[int], list[int]], bits: int) -> int:
    """The rule's estimate of the integral of sum c t^n, integer c, over
    [a, b], scaled by 2^bits like a and b and truncated."""
    width = b - a
    total = 0
    for u, w in zip(*rule):
        t = a + (width * u >> bits)
        f = 0
        for c, n in terms:
            f += c * _fixed_power(t, n, bits)
        total += w * f
    return width * total >> 2 * bits


def integrate_adaptive(terms: Sequence[tuple], points: Sequence, tol) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Integrate sum c t^n over [points[0], points[-1]], a subinterval of
    [0, 1]; returns (value, error_estimate) at the working precision.

    `terms` are (c, n) pairs, c an int or Fraction and n a nonnegative
    int; the points are ascending numbers in [0, 1] that mpmath reads,
    taken to 2^-P (exactly when they are dyadic, as the oracle's cuts are).
    Each of the pieces between consecutive points is integrated to tol/n,
    for n pieces, and the values and estimates are summed.  A panel costs
    the number of terms, at least 1.  Halving stops at MAX_DEPTH levels,
    and wherever the next two panels would take the call's work past
    MAX_WORK, so the run time is bounded whatever the polynomial: a right
    half left unsplit then takes its parent's estimate.  A piece whose
    estimate exceeds its tolerance raises :class:`QuadratureError` with
    that estimate attached, and a piece with no room for its first three
    panels raises it with an infinite estimate.  The arithmetic error is
    bounded in the module docstring.
    """
    coeffs = [Fraction(c) for c, _ in terms]
    denom = lcm(*[c.denominator for c in coeffs])
    ints = [(int(c * denom), operator.index(n)) for c, (_, n) in zip(coeffs, terms)]
    if any(n < 0 for _, n in ints):
        raise ValueError("the powers of t must be nonnegative integers")
    cuts = [mp.mpf(x) for x in points]
    if not all(0 <= x <= 1 for x in cuts):
        raise ValueError("the points must lie in [0, 1]")
    bits = mp.prec + max([n for _, n in ints], default=0).bit_length() + GUARD_BITS
    rule = _fixed_rule(bits)
    cost = max(1, len(ints))
    tol = mp.mpf(tol) / (len(cuts) - 1)
    # No estimate, at any level, reaches (2 S + 2) 2^bits for S the sum of
    # the |c| over D, so a larger tolerance is read as that: same decisions.
    cap = 2 * sum([abs(c) for c, _ in ints]) + 2
    tol_fixed = _to_fixed(tol, bits, denom) if tol * denom < cap else cap << bits
    work = 0

    def panel(a, b):
        nonlocal work
        work += cost
        return _panel(ints, a, b, rule, bits)

    def recurse(a, b, tol, whole, depth):
        mid = (a + b) >> 1
        left = panel(a, mid)
        right = panel(mid, b)
        err = abs(whole - (left + right))
        if err <= tol or depth >= MAX_DEPTH or work + 2 * cost > MAX_WORK:
            return left + right, err
        lv, le = recurse(a, mid, tol >> 1, left, depth + 1)
        if work + 2 * cost > MAX_WORK:
            return lv + right, le + err
        rv, re = recurse(mid, b, tol >> 1, right, depth + 1)
        return lv + rv, le + re

    fixed = [_to_fixed(x, bits) for x in cuts]
    scale = denom << bits
    value = err = 0
    for a, b in zip(fixed, fixed[1:]):
        if work + 3 * cost > MAX_WORK:
            raise QuadratureError(mp.inf, tol)  # no room for this piece
        v, e = recurse(a, b, tol_fixed, panel(a, b), 0)
        if e > tol_fixed:
            raise QuadratureError(mp.fdiv(e, scale), tol)
        value += v
        err += e
    return mp.fdiv(value, scale), mp.fdiv(err, scale)
