"""The general polynomial gcd, kept in the tests as the oracle of the
package's root-test gcds.

The package keeps every denominator split, as the roots c of its factors
z + c, so each of its gcds is a root test.  These are the routines it
used before, on expanded polynomials of any degree:

* :func:`int_prem` is the pseudo-remainder of integer polynomials;
* :func:`prs_gcd` is the primitive pseudo-remainder sequence on every
  operand (Knuth, TAOCP Vol. 2, 4.6.1), the monic gcd;
* :func:`poly_divmod` is field division with remainder, by
  pseudo-division on the ints;
* :func:`expand_then_gcd` reduces an expanded num/den pair to the
  canonical pair (coprime, den monic) by one :func:`prs_gcd`.
"""

from fractions import Fraction
from math import gcd

from bergshift.exact_algebra import Polynomial


def _primitive(cs):
    g = gcd(*cs)
    return [c // g for c in cs]


def _monic(p):
    return Polynomial.from_coeffs([c / p.leading for c in p.coeffs]) if not p.is_zero else p


def int_prem(u: list[int], v: list[int]) -> list[int]:
    """Pseudo-remainder of integer polynomials (lists low-to-high degree)."""
    r = list(u)
    dv, lv = len(v) - 1, v[-1]
    while len(r) - 1 >= dv and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dv:
            break
        lr, dr = r[-1], len(r) - 1
        r = [c * lv for c in r]
        for j in range(len(v)):
            r[dr - dv + j] -= lr * v[j]
        while r and r[-1] == 0:
            r.pop()
    return r


def prs_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by the primitive pseudo-remainder sequence on the ints."""
    if a.is_zero:
        return _monic(b)
    if b.is_zero:
        return _monic(a)
    u, v = _primitive(a.ints), _primitive(b.ints)
    if len(u) < len(v):
        u, v = v, u
    while v:
        r = int_prem(u, v)
        u, v = v, _primitive(r) if r else r
    return Polynomial.from_coeffs([Fraction(c, u[-1]) for c in u])


def poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Exact field division with remainder; b must be nonzero.
    Pseudo-division on ints: a step scales remainder and quotient by
    lc / gcd(lc, top) for the divisor's leading int lc, so its quotient
    int is exact; the product s of those factors joins the denominators."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    bi, d = b.ints, b.degree
    lc = bi[-1]
    r = list(a.ints)
    q = [0] * max(0, len(r) - d)
    s = 1
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c == 0:
            continue
        g = gcd(c, lc)
        m, f = lc // g, c // g
        if m != 1:
            r = [x * m for x in r]
            q = [x * m for x in q]
            s *= m
        q[i - d] = f
        for j, y in enumerate(bi):
            r[i - d + j] -= f * y
    den = s * a.den
    return (Polynomial.from_coeffs([Fraction(x * b.den, den) for x in q]),
            Polynomial.from_coeffs([Fraction(x, den) for x in r]))


def expand_then_gcd(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """The canonical pair of num/den: both divided by their gcd, den monic,
    and (0, 1) for a zero num."""
    if num.is_zero:
        return num, Polynomial.one()
    g = prs_gcd(num, den)
    num, num_rem = poly_divmod(num, g)
    den, den_rem = poly_divmod(den, g)
    assert num_rem.is_zero and den_rem.is_zero
    lead = den.leading
    return num.scale(1 / lead), den.scale(1 / lead)
