"""Adaptive high-precision quadrature on a real interval.

Panels are estimated with a fixed-order Gauss-Legendre rule and accepted
when the whole-panel estimate agrees with the sum of its two halves;
otherwise the panel is split and both halves are integrated to half the
tolerance.  All arithmetic runs in the mpmath real context at the caller's
working precision, so the error estimate is a genuine interval-halving
convergence check rather than a fixed-grid guess.
"""

from __future__ import annotations

from typing import Callable, Sequence

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
#: all its pieces.  A panel costs the ``cost`` of its integrand, so an
#: integrand of cost c gets at most MAX_WORK / c panels.
MAX_WORK = 3000

_RULE_CACHE: dict[tuple[int, int], tuple[list, list]] = {}


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


def _panel(f: Callable, a, b, nodes, weights):
    half = (b - a) / 2
    mid = (a + b) / 2
    total = mp.mpf(0)
    for x, w in zip(nodes, weights):
        total += w * f(mid + half * x)
    return half * total


def integrate_adaptive(f: Callable, points: Sequence, tol, cost: int = 1) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Integrate f over [points[0], points[-1]]; returns (value, error_estimate).

    Each of the n pieces between consecutive points is integrated to tol/n,
    and the values and estimates are summed.  `cost` is the work of one
    evaluation of f, for a sum the number of its terms.  Halving stops at
    MAX_DEPTH levels, and wherever the next two panels would take the
    call's work past MAX_WORK, so the run time is bounded whatever f: a
    right half left unsplit then takes its parent's estimate.  A piece
    whose estimate exceeds its tolerance raises :class:`QuadratureError`
    with that estimate attached, and a piece with no room for its first
    three panels raises it with an infinite estimate.
    """
    nodes, weights = gauss_legendre_rule(ORDER, mp.prec)
    cuts = [mp.mpf(x) for x in points]
    tol = mp.mpf(tol) / (len(cuts) - 1)
    work = 0

    def panel(a, b):
        nonlocal work
        work += cost
        return _panel(f, a, b, nodes, weights)

    def recurse(a, b, tol, whole, depth):
        mid = (a + b) / 2
        left = panel(a, mid)
        right = panel(mid, b)
        err = abs(whole - (left + right))
        if err <= tol or depth >= MAX_DEPTH or work + 2 * cost > MAX_WORK:
            return left + right, err
        lv, le = recurse(a, mid, tol / 2, left, depth + 1)
        if work + 2 * cost > MAX_WORK:
            return lv + right, le + err
        rv, re = recurse(mid, b, tol / 2, right, depth + 1)
        return lv + rv, le + re

    value = err = mp.mpf(0)
    for a, b in zip(cuts, cuts[1:]):
        if work + 3 * cost > MAX_WORK:
            raise QuadratureError(mp.inf, tol)  # no room for this piece
        v, e = recurse(a, b, tol, panel(a, b), 0)
        if e > tol:
            raise QuadratureError(e, tol)
        value += v
        err += e
    return value, err
