"""The fixed-point quadrature kernel against the mpf reference integrator of
``tests/quadrature_oracle.py``.

Each drawn case is an oracle call: 1 to 3 terms with signed rational
coefficients and exponents of denominator up to 3 (so Q > 1 is drawn),
p, k, and ``--digits`` in {1, 15, 25, 60}.  The polynomial, cuts and
tolerance the oracle hands to ``quadrature.integrate_adaptive`` are
captured and given to both integrators: the kernel at the working
precision, the reference at 64 more bits than the kernel's, where its own
rounding is far below the kernel's bound.  The documented bound is
B = ((4N + 24) S + L) 2^-P, N the largest power, S the sum of the
absolute values of the coefficients, L the kernel's panel count and P its
fixed-point bits; an error estimate is within 3B.

* The panel counts are equal, and the outcome (value or
  ``QuadratureError``) is the same, unless some comparison of the
  reference's estimate with its tolerance was within 3B of a tie.
* The values agree within B plus the one rounding to the working
  precision, and the estimates within 3B plus that rounding.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from bergshift import mellin, quadrature
from bergshift.mellin import RadialSymbol, bergman_quadrature_oracle
from bergshift.quadrature import GUARD_BITS, QuadratureError
import quadrature_oracle

TERM = st.tuples(st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool),
                 st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 3])))


def _run(integrate, *args):
    """(value, estimate) or (None, achieved) when the call raises."""
    try:
        return integrate(*args)
    except QuadratureError as exc:
        return None, exc.achieved


def _kernel_inputs(p, phi, k, digits):
    """The (terms, points, tol) the oracle passes to the kernel."""
    seen = []

    def spy(*args):
        seen.append(args)
        raise QuadratureError(mp.inf, mp.inf)

    with mock.patch.object(mellin, "integrate_adaptive", spy):
        try:
            bergman_quadrature_oracle(p, phi, k, digits)
        except QuadratureError:
            pass
    [args] = seen
    return args


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(TERM, min_size=1, max_size=3, unique_by=lambda t: t[1]),
       p=st.integers(0, 3), k=st.integers(0, 12), digits=st.sampled_from([1, 15, 25, 60]))
@example(terms=[(Fraction(-1, 3), Fraction(5)), (Fraction(1), Fraction(1, 2))], p=3, k=0, digits=60)
@example(terms=[(Fraction(7, 3), Fraction(1, 2))], p=0, k=6, digits=1)
@example(terms=[(Fraction(2), Fraction(7, 3)), (Fraction(-4), Fraction(5))], p=1, k=12, digits=25)
def test_kernel_agrees_with_the_reference(terms, p, k, digits):
    phi = RadialSymbol.build(terms)
    terms, points, tol = _kernel_inputs(p, phi, k, digits)
    N = max(n for _, n in terms)
    S = sum(abs(c) for c, _ in terms)
    with mp.workdps(digits + 15):
        prec = mp.prec
        bits = prec + N.bit_length() + GUARD_BITS
        panels = []
        panel = quadrature._panel
        with mock.patch.object(quadrature, "_panel", lambda *a: panels.append(1) or panel(*a)):
            value, err = _run(quadrature.integrate_adaptive, terms, points, tol)
    trace = quadrature_oracle.Trace()
    with mp.workprec(bits + 64):
        ref_value, ref_err = _run(quadrature_oracle.integrate_adaptive,
                                  quadrature_oracle.polynomial(terms), points, tol,
                                  max(1, len(terms)), trace)
        S = mp.mpf(S.numerator) / S.denominator
        bound = mp.ldexp((4 * N + 24) * S + len(panels), -bits)
        rounding = mp.mpf(2) ** (1 - prec)
        if trace.closest <= 3 * bound:
            return  # a near tie: the two may split differently
        assert len(panels) == trace.panels
        assert (value is None) == (ref_value is None)
        if value is not None:
            assert abs(value - ref_value) <= bound + rounding * abs(ref_value)
        if err != mp.inf:
            assert abs(err - ref_err) <= 3 * bound + rounding * abs(ref_err)
        else:
            assert ref_err == mp.inf
