"""Reference answers computed without the package.

Everything here is exact ``Fraction`` arithmetic or mpmath evaluated at a
precision higher than the package uses, so a verdict the package returns
can be checked against an answer it had no part in.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import mpmath

#: Sample points for exact rational-function identities.  The commutation
#: defect of two monomial weights has a numerator of degree at most 4, so
#: vanishing at more than 4 points means it vanishes identically.
_IDENTITY_POINTS = [Fraction(2 * k + 2) for k in range(8)]


def monomial_weight(p: int, n: int, z: Fraction) -> Fraction:
    """Shift weight (z + 2p)/(z + p + n) of e^(ip theta) r^n at z."""
    return (z + 2 * p) / (z + p + n)


def commutes(p: int, n: int, s: int, d: int) -> bool:
    """Whether w1(z + 2s) w2(z) - w2(z + 2p) w1(z) vanishes identically."""
    return all(
        monomial_weight(p, n, z + 2 * s) * monomial_weight(s, d, z)
        == monomial_weight(s, d, z + 2 * p) * monomial_weight(p, n, z)
        for z in _IDENTITY_POINTS)


def theorem_errors(p: int, s: int, n: int, d: int, code: int, payload: dict) -> list[str]:
    """Differences between a ``verify-theorem`` report and the expected one."""
    if commutes(p, n, s, d):
        expected = {"exit": 2, "status": "outside_hypotheses"}
        got = {"exit": code, "status": payload.get("status")}
    else:
        expected = {"exit": 0, "status": "pass", "c": "1",
                    "operator_dimension": 1, "sequence_dimension": gcd(p, s)}
        got = {"exit": code, **{k: payload.get(k) for k in expected if k != "exit"}}
    return [f"{k}: expected {v!r}, got {got[k]!r}" for k, v in expected.items() if got[k] != v]


def identity_verdict(p: int, s: int, n: int, d: int, m: int) -> str:
    """Expected ``identity-check`` verdict for every scenario."""
    return "proportional" if m == p or commutes(p, n, s, d) else "not_proportional"


def rational_criterion(a: int, b: int, c: int, d: int, delta: int) -> bool:
    """Gamma((z+a)/2delta) Gamma((z+b)/2delta) / (Gamma((z+c)/2delta)
    Gamma((z+d)/2delta)) is rational exactly when 2 delta divides a+b-c-d
    and also divides a-c or a-d."""
    td = 2 * delta
    return (a + b - c - d) % td == 0 and ((a - c) % td == 0 or (a - d) % td == 0)


def root_powers_rational(p: int, s: int, n: int, d: int, m: int) -> bool:
    """Whether the m-th and l-th root powers of an identity instance, l = m+s-p,
    are rational functions, i.e. both of their Gamma quotients cancel."""
    l = m + s - p
    return (rational_criterion(2 * m, p + n, 0, 2 * m + p + n, p)
            and rational_criterion(2 * l, s + d, 0, 2 * l + s + d, s))


def symbol_weight(p: int, terms: list[tuple[Fraction, Fraction]], k: int) -> Fraction:
    """Exact weight (z + 2p) sum c / (z + p + e) of the symbol sum c r^e, z = 2k+2."""
    z = Fraction(2 * k + 2)
    return sum((c * (z + 2 * p) / (z + p + e) for c, e in terms), Fraction(0))


def _horner(coeffs, z: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def equals_monomial_weight(num_coeffs, den_coeffs, p: int, n: int) -> bool:
    """Whether num/den (coefficients, lowest degree first) is (z+2p)/(z+p+n).

    num * (z+p+n) - den * (z+2p) has degree at most max(deg num, deg den) + 1,
    so vanishing at that many points plus one proves the identity.
    """
    points = max(len(num_coeffs), len(den_coeffs)) + 1
    for k in range(points):
        z = Fraction(2 * k + 2)
        if _horner(num_coeffs, z) * (z + p + n) != _horner(den_coeffs, z) * (z + 2 * p):
            return False
    return True


def power_weight_value(m: int, p: int, n: int, k: int, bits: int) -> mpmath.mpf:
    """(z+2m)/z * G((z+2m)/2p) G((z+p+n)/2p) / (G(z/2p) G((z+2m+p+n)/2p)) at
    z = 2k+2, evaluated with mpmath at ``bits`` of working precision."""
    z = 2 * k + 2
    with mpmath.mp.workprec(bits):
        def g(offset: int):
            return mpmath.gamma(mpmath.mpf(z + offset) / (2 * p))

        return (mpmath.mpf(z + 2 * m) / z * g(2 * m) * g(p + n)
                / (g(0) * g(2 * m + p + n)))


def ball_contains(mid, rad, value, bits: int) -> bool:
    """Whether [mid - rad, mid + rad] contains ``value``, allowing for the
    reference value's own rounding error of a few units in 2**-bits."""
    with mpmath.mp.workprec(bits):
        slack = abs(value) * mpmath.mpf(2) ** (8 - bits)
        return abs(mpmath.mpf(value) - mid) <= rad + slack
