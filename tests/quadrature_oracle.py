"""The mpf adaptive integrator: the reference for the fixed-point kernel.

This is the package's integrator before its arithmetic moved to integers:
the same 12-point rule, the same tolerance split over the pieces, the
same whole-panel against two-halves test with the tolerance halved at
each level, the same ``MAX_DEPTH`` and ``MAX_WORK`` (read from
``bergshift.quadrature`` at call time, so a test that lowers them lowers
both), but on mpmath objects at the caller's precision, for any callable
integrand on any interval.

A :class:`Trace` passed in records what the agreement test compares: the
number of panels, and how close the closest comparison of an estimate
with its tolerance came to a tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import mpmath
from mpmath import mp

from bergshift import quadrature
from bergshift.quadrature import QuadratureError, gauss_legendre_rule


@dataclass
class Trace:
    panels: int = 0
    closest: mpmath.mpf = mpmath.inf  # min |estimate - tolerance| over every comparison

    def compare(self, err, tol) -> None:
        self.closest = min(self.closest, abs(err - tol))


def polynomial(terms: Sequence[tuple]) -> Callable:
    """t -> sum c t^n at the working precision, for (c, n) pairs with c an
    int or Fraction."""
    def f(t):
        total = mp.mpf(0)
        for c, n in terms:
            total += mp.mpf(c.numerator) / c.denominator * t**n
        return total
    return f


def _panel(f: Callable, a, b, nodes, weights):
    half = (b - a) / 2
    mid = (a + b) / 2
    total = mp.mpf(0)
    for x, w in zip(nodes, weights):
        total += w * f(mid + half * x)
    return half * total


def integrate_adaptive(f: Callable, points: Sequence, tol, cost: int = 1,
                       trace: Optional[Trace] = None) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Integrate f over [points[0], points[-1]]; returns (value, error_estimate).

    Each of the n pieces between consecutive points is integrated to tol/n,
    and the values and estimates are summed.  `cost` is the work of one
    evaluation of f, for a sum the number of its terms.  Halving stops at
    MAX_DEPTH levels, and wherever the next two panels would take the
    call's work past MAX_WORK: a right half left unsplit then takes its
    parent's estimate.  A piece whose estimate exceeds its tolerance raises
    :class:`QuadratureError` with that estimate attached, and a piece with
    no room for its first three panels raises it with an infinite estimate.
    """
    trace = Trace() if trace is None else trace
    nodes, weights = gauss_legendre_rule(quadrature.ORDER, mp.prec)
    cuts = [mp.mpf(x) for x in points]
    tol = mp.mpf(tol) / (len(cuts) - 1)
    work = 0

    def panel(a, b):
        nonlocal work
        work += cost
        trace.panels += 1
        return _panel(f, a, b, nodes, weights)

    def recurse(a, b, tol, whole, depth):
        mid = (a + b) / 2
        left = panel(a, mid)
        right = panel(mid, b)
        err = abs(whole - (left + right))
        trace.compare(err, tol)
        if err <= tol or depth >= quadrature.MAX_DEPTH or work + 2 * cost > quadrature.MAX_WORK:
            return left + right, err
        lv, le = recurse(a, mid, tol / 2, left, depth + 1)
        if work + 2 * cost > quadrature.MAX_WORK:
            return lv + right, le + err
        rv, re = recurse(mid, b, tol / 2, right, depth + 1)
        return lv + rv, le + re

    value = err = mp.mpf(0)
    for a, b in zip(cuts, cuts[1:]):
        if work + 3 * cost > quadrature.MAX_WORK:
            raise QuadratureError(mp.inf, tol)  # no room for this piece
        v, e = recurse(a, b, tol, panel(a, b), 0)
        trace.compare(e, tol)
        if e > tol:
            raise QuadratureError(e, tol)
        value += v
        err += e
    return value, err
