"""``eval_ball`` against the ``iv``-object evaluation of ``tests/iv_oracle.py``,
its bits pinned, and its balls against mpmath values at twice the
precision; the exact part matching against the oracle's ratio check.

``tests/eval_ball_bits.json`` holds the (mid, rad) mpf tuples that
``eval_ball`` gave for the weights of :data:`WEIGHTS` at z = 4 and 7/3 at
each precision of :data:`PRECISIONS`, recorded when it evaluated on raw
``mpmath.libmp`` tuples.  The ``iv`` evaluation must give the same bits:
a change of operation order, of the enclosure of a rational or of the ball
rounding shows here.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from bergshift.exact_algebra import PoleError, Polynomial, rf_normalize
from bergshift.gamma_ratio import WeightExpr, eval_ball, match_parts, power_weight
from bergshift.identities import build_sides
from iv_oracle import ball_ratio, oracle_eval
from two_stage import weight_add, weight_mul, weight_scale

PRECISIONS = (1, 8, 53, 200, 1000)
# Poles of the Gamma atoms at 0 and -2, odd and even integers, and two rationals
# that the library accepts and the CLI never sends.
SAMPLES = [Fraction(z) for z in (0, -2, 3, 4)] + [Fraction(5, 2), Fraction(7, 3)]

WEIGHTS = {
    "power_weight(3, 2, 5)": lambda: power_weight(3, 2, 5),
    "power_weight(1, 2, 3)": lambda: power_weight(1, 2, 3),
    "functional(2, 4, 1, 4, 1, 3).left": lambda: build_sides("functional", 2, 4, 1, 4, 1, 3)[0],
    "functional(2, 4, 1, 4, 1, 3).right": lambda: build_sides("functional", 2, 4, 1, 4, 1, 3)[1],
    "factored(2, 4, 1, 3, 1, 3).left": lambda: build_sides("factored", 2, 4, 1, 3, 1, 3)[0],
    "commutator(1, 2, 2, 3, 2, 3).right": lambda: build_sides("commutator", 1, 2, 2, 3, 2, 3)[1],
}
PINNED = json.loads((Path(__file__).parent / "eval_ball_bits.json").read_text())


def _raw_ball(b):
    return None if b is None else (b.mid._mpf_, b.rad._mpf_)


@pytest.mark.parametrize("bits", PRECISIONS)
def test_eval_ball_matches_the_oracle(bits):
    weights = [power_weight(3, 2, 5), *build_sides("functional", 1, 3, 1, 2, 1, 3),
               *build_sides("factored", 2, 4, 1, 3, 1, 3)]
    for w in weights:
        for z in SAMPLES + [Fraction(-1, 2), Fraction(1)]:
            expected = _raw_ball(oracle_eval(w, z, bits))
            if expected is None:
                with pytest.raises(PoleError):
                    eval_ball(w, z, bits)
            else:
                assert _raw_ball(eval_ball(w, z, bits)) == expected


def test_eval_ball_sees_rational_coefficients():
    # a coefficient with a non-integer value at an integer sample
    c = rf_normalize(Polynomial.from_coeffs([Fraction(1, 3), Fraction(2, 5)]), (Fraction(7, 2),))
    w = WeightExpr.build([(c, power_weight(3, 2, 5).terms[0][1])])
    for bits in PRECISIONS:
        for z in SAMPLES + [Fraction(-7, 2)]:
            expected = _raw_ball(oracle_eval(w, z, bits))
            if expected is None:
                with pytest.raises(PoleError):
                    eval_ball(w, z, bits)
            else:
                assert _raw_ball(eval_ball(w, z, bits)) == expected


def _mpf_tuple(t):
    sign, man, exp, bc = t
    return sign, int(man), exp, bc


@pytest.mark.parametrize("bits", PRECISIONS)
def test_eval_ball_bits_are_pinned(bits):
    entries = [e for e in PINNED if e["bits"] == bits]
    assert len(entries) == 2 * len(WEIGHTS)
    for e in entries:
        ball = eval_ball(WEIGHTS[e["weight"]](), Fraction(e["z"]), bits)
        got = (_mpf_tuple(ball.mid._mpf_), _mpf_tuple(ball.rad._mpf_))
        assert got == (tuple(e["mid"]), tuple(e["rad"])), (e["weight"], e["z"])
    # z = 0 is a pole of the coefficient (z + 6)/z
    with pytest.raises(PoleError):
        eval_ball(power_weight(3, 2, 5), Fraction(0), bits)


def _reference_value(w: WeightExpr, z: Fraction, bits: int):
    """w(z) from mpmath's real Gamma at ``bits``; every argument is positive."""
    with mp.workprec(bits):
        total = mp.mpf(0)
        for c, g in w.terms:
            num, den = c.num.eval(z), c.den.eval(z)
            term = mp.mpf(num.numerator * den.denominator) / (num.denominator * den.numerator)
            for td, off in g.num:
                term *= mp.gamma(mp.mpf((z + off).numerator) / ((z + off).denominator * td))
            for td, off in g.den:
                term /= mp.gamma(mp.mpf((z + off).numerator) / ((z + off).denominator * td))
            total += term
        return total


@pytest.mark.parametrize("bits", PRECISIONS)
def test_eval_ball_encloses_the_value_at_twice_the_precision(bits):
    # the containment test of the benchmark's reference: the slack allows for
    # the reference value's own rounding, a few units in 2^-(2 bits)
    ref_bits = 2 * bits
    for name, make in WEIGHTS.items():
        w = make()
        for z in (Fraction(4), Fraction(7, 3)):
            ball = eval_ball(w, z, bits)
            value = _reference_value(w, z, ref_bits)
            with mp.workprec(ref_bits):
                slack = abs(value) * mp.mpf(2) ** (8 - ref_bits)
                assert abs(value - ball.mid) <= ball.rad + slack, (name, z)


def _exact(x) -> Fraction:
    """The value of a finite mpf, exactly."""
    man, exp = x.man_exp
    return (-1 if x < 0 else 1) * int(man) * Fraction(2) ** int(exp)


def _zero_at_4(w: WeightExpr) -> WeightExpr:
    return weight_mul(w, WeightExpr.from_rational(rf_normalize(Polynomial.z_plus(-4), ())))


def test_part_matching_agrees_with_the_oracle():
    w, v = power_weight(3, 2, 5), power_weight(2, 3, 1)
    pairs = [
        (w, weight_scale(w, Fraction(3, 7))),           # proportional
        (_zero_at_4(w), weight_scale(_zero_at_4(w), -2)),  # both sides exactly 0 at z = 4
        (_zero_at_4(w), _zero_at_4(v)),                # only the right side 0 at z = 4
        (weight_add(w, v), weight_add(weight_scale(v, 5), weight_scale(w, 5))),  # two terms each side
        (WeightExpr.zero(), w),
    ]
    verdicts = set()
    for left, right in pairs:
        match = match_parts(left, right)
        verdicts.add(match.verdict)
        for bits in (53, 200, 1000):
            check = ball_ratio(left, right, SAMPLES, bits)
            assert check.verdict == match.verdict
            if match.verdict == "proportional":
                assert _exact(check.constant.lower) <= match.constant <= _exact(check.constant.upper)
    assert verdicts == {"proportional", "not_proportional"}
