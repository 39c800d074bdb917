"""The operator algebra against its staged oracle, and its build count.

``shift_algebra`` gathers the raw terms of a composition, a commutator or
a linear combination by output degree and normalizes each degree by one
``WeightExpr.build``; the symbol weights and Mellin images build one
numerator over their roots and normalize it once.  ``tests/two_stage.py``
keeps the staged routines they replaced, which normalize after every
product, scaling and sum.  Every form is canonical, so the results must be
equal exactly, on operators that mix symbol and root parts, repeat a
degree, and meet zero and negative scalars and brackets that vanish.

The spy test pins the count, so a later change that normalizes a degree
twice fails it, and a rule keeps the staged weight arithmetic out of the
package.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import two_stage
from bergshift.gamma_ratio import WeightExpr, power_weight
from bergshift.mellin import RadialSymbol, mellin_transform, parse_symbol, toeplitz_weight
from bergshift.shift_algebra import (
    ShiftSum,
    commutator,
    compose,
    linear_combine,
    quasihomogeneous_operator,
    root_operator,
)

_RATIOS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 2, 3]))
_EXPONENTS = st.builds(Fraction, st.integers(0, 8), st.sampled_from([1, 2, 3]))
_SCALARS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(-2),
                            Fraction(3, 2), Fraction(-1, 3)])


@st.composite
def symbols(draw, forced_exponent=None):
    terms = draw(st.lists(st.tuples(_RATIOS, _EXPONENTS), max_size=4))
    if forced_exponent is not None:
        terms.append((draw(_RATIOS), Fraction(forced_exponent)))
    return RadialSymbol.build(terms)


@st.composite
def weighted_parts(draw):
    """(degree, built weight) parts: symbol weights at degrees 0..3 and
    root powers at degrees 1..3, a degree possibly repeated."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            p = draw(st.integers(0, 3))
            parts.append((p, toeplitz_weight(p, draw(symbols()))))
        else:
            m = draw(st.integers(1, 3))
            parts.append((m, power_weight(m, draw(st.integers(1, 3)), draw(st.integers(1, 4)))))
    return parts


@st.composite
def operators(draw):
    parts = draw(weighted_parts())
    op = ShiftSum.build(parts)
    assert op == two_stage.shift_sum_build(parts)
    return op


@settings(max_examples=60, deadline=None)
@given(operators(), operators(), operators(), _SCALARS, _SCALARS)
@example(quasihomogeneous_operator(1, parse_symbol("r^2")),
         ShiftSum.build([(1, power_weight(1, 2, 3)), (1, toeplitz_weight(1, parse_symbol("-r")))]),
         root_operator(2, 3), Fraction(-1), Fraction(0))
def test_brackets_equal_the_staged_oracle(a, b, c, x, y):
    assert compose(a, b) == two_stage.compose(a, b)
    assert commutator(a, b) == two_stage.commutator(a, b)
    assert commutator(a, commutator(b, c)) == two_stage.commutator(a, two_stage.commutator(b, c))
    ops = [(x, a), (y, b), (0, c), (-x, a), (1, c)]
    assert linear_combine(ops) == two_stage.linear_combine(ops)
    # brackets that vanish
    assert commutator(a, a).is_zero and two_stage.commutator(a, a).is_zero
    assert commutator(linear_combine([(x, a)]), a).is_zero
    assert linear_combine([(y, b), (-y, b)]).is_zero


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda p: st.tuples(st.just(p), st.one_of(
    symbols(), symbols(forced_exponent=p)))))
@example((2, parse_symbol("r^2 + 3*r^1/2")))
@example((1, parse_symbol("r")))
@example((0, parse_symbol("1")))
@example((3, RadialSymbol.build([])))
def test_symbol_weights_equal_the_termwise_oracle(case):
    """One numerator over the roots equals the term-by-term sums, also
    when an exponent e = p cancels the factor z + 2p."""
    p, phi = case
    assert toeplitz_weight(p, phi) == two_stage.toeplitz_weight(p, phi)
    assert mellin_transform(phi) == two_stage.mellin_transform(phi)


def _build_counter(monkeypatch) -> list:
    calls = []
    build = WeightExpr.__dict__["build"].__func__

    def counted(terms):
        calls.append(1)
        return build(terms)

    monkeypatch.setattr(WeightExpr, "build", staticmethod(counted))
    return calls


def test_each_output_degree_is_normalized_once(monkeypatch):
    a = quasihomogeneous_operator(1, parse_symbol("r^2 + 2*r^3/2"))
    b = root_operator(2, 3)
    two_part = ShiftSum.build([(1, a.weight_at(1)), (2, power_weight(2, 2, 3))])
    built = power_weight(3, 2, 5)
    calls = _build_counter(monkeypatch)

    # two single-part operators: a b and b a meet at the one degree 2
    assert commutator(a, b).degrees == (2,) and len(calls) == 1

    # degrees 1, 2 and 3 in, degree 1 cancels: three builds, two degrees out
    del calls[:]
    combined = linear_combine([(1, two_part), (-1, a), (Fraction(1, 2), ShiftSum.single(3, built))])
    assert combined.degrees == (2, 3) and len(calls) == 3

    del calls[:]
    assert ShiftSum.single(3, built).weight_at(3) is built and calls == []


def test_the_staged_arithmetic_lives_only_in_the_tests():
    """Weights are summed, scaled, shifted and multiplied only inside the
    one-build routines; the staged operations are ``tests/two_stage.py``."""
    assert not {"__add__", "__sub__", "__neg__", "__mul__", "scale", "shift"} & set(vars(WeightExpr))
    assert "scale" not in vars(ShiftSum)
