"""The integer polynomial form, the split-denominator arithmetic and the
root-multiset cofactors against the routines they replaced, kept here as
oracles.

* The ``fraction_*`` routines are the ``Polynomial`` operations on
  ``Fraction`` coefficient lists: sum, product, Taylor shift, division
  with remainder and Horner evaluation.  Every result must also be in the
  canonical integer form.
* ``prs_oracle.expand_then_gcd`` multiplies every denominator out and
  reduces num/den by the primitive pseudo-remainder sequence
  (``prs_oracle.prs_gcd``): the oracle of ``rf_normalize``, ``rf_arith``,
  ``rf_shift``, ``constant_ratio`` and ``poly_gcd``, the gcd of a
  numerator with split roots.
* ``expand_then_gcd_canonicalize`` multiplies out every functional-equation
  factor of numerator and denominator and cancels them by one gcd.

The denominators are drawn as root multisets: repeated roots, fractional
roots, and roots shared between the operands and with their numerators.
The canonical form is unique, so each fast route must give the oracle's
result exactly, not just an equal function.  The spy tests pin the work
that the canonical inputs and the split denominators let the library
skip.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergshift import exact_algebra, gamma_ratio
from bergshift.exact_algebra import (
    PoleError,
    Polynomial,
    RationalFunction,
    constant_ratio,
    poly_gcd,
    rf_arith,
    rf_eval,
    rf_normalize,
    rf_shift,
)
from bergshift.gamma_ratio import (
    GammaRatioExpr,
    WeightExpr,
    canonicalize,
    power_weight,
    rationality_oracle,
)
from bergshift.mellin import parse_symbol
from bergshift.shift_algebra import (
    commutator,
    linear_combine,
    quasihomogeneous_operator,
    root_operator,
)
from prs_oracle import expand_then_gcd, poly_divmod, prs_gcd
from rf_text import root_pairs, root_values

OPS = ("add", "sub", "mul")


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def fraction_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for cs in (a, b):
        for i, c in enumerate(cs):
            out[i] += c
    return _strip(out)


def fraction_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def fraction_shift(a, h):
    out, n = list(a), len(a)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += h * out[j + 1]
    return _strip(out)


def fraction_divmod(a, b):
    rem = list(a)
    q = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    d, lc = len(b) - 1, b[-1]
    for i in range(len(rem) - 1, d - 1, -1):
        if rem[i] == 0:
            continue
        f = rem[i] / lc
        q[i - d] = f
        for j, c in enumerate(b):
            rem[i - d + j] -= f * c
    return _strip(q), _strip(rem)


def fraction_horner(a, z):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * z + c
    return acc


def assert_canonical(p):
    assert p.den > 0
    assert gcd(p.den, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0


def expand_then_gcd_canonicalize(g):
    def reduce(atoms):
        reduced, factor, scalar = [], Polynomial.one(), Fraction(1)
        for td, off in atoms:
            q, r = divmod(off, td)
            for t in range(q):
                factor = factor * Polynomial.z_plus(r + td * t)
                scalar /= td
            reduced.append((td, r))
        return reduced, factor, scalar

    num, nf, ns = reduce(g.num)
    den, df, ds = reduce(g.den)
    cofactor = expand_then_gcd(nf.scale(ns), df.scale(ds))
    den_left, num_left = list(den), []
    for atom in num:
        if atom in den_left:
            den_left.remove(atom)
        else:
            num_left.append(atom)
    return cofactor, GammaRatioExpr(tuple(sorted(num_left)), tuple(sorted(den_left)))


# ---------------------------------------------------------------------------
# polynomials

COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
NONZERO = COEFFS.filter(lambda c: c != 0)
#: Roots c of monic factors z + c: small integers, so operands share them
#: often, and fractions with denominators up to 5.
ROOTS = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=5))


def roots_from(pool):
    """A root, often one of ``pool``."""
    return st.one_of(ROOTS, st.sampled_from(pool)) if pool else ROOTS


@st.composite
def polys(draw, nonzero=False, pool=()):
    """lead * prod (z + c) * extra, the roots often from ``pool`` and the
    extra factor mostly absent."""
    lead = draw(NONZERO)
    p = Polynomial.linear_product(draw(st.lists(roots_from(pool), max_size=3))).scale(lead)
    extra = Polynomial.from_coeffs(draw(st.lists(COEFFS, max_size=3)))
    if not extra.is_zero and draw(st.booleans()):
        p = p * extra
    if not nonzero and draw(st.integers(0, 9)) == 0:
        return Polynomial.zero()
    return p


#: Shifts and points with denominators up to 5; integers among them.
SHIFTS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
PLAIN = st.lists(COEFFS, max_size=5).map(Polynomial.from_coeffs)
ZERO = Polynomial.zero()
LINEAR = Polynomial.from_coeffs([Fraction(1, 3), Fraction(-2, 5)])


@settings(max_examples=200, deadline=None)
@given(st.one_of(PLAIN, polys()), st.one_of(PLAIN, polys()), SHIFTS, SHIFTS,
       st.lists(ROOTS, max_size=4))
@example(ZERO, ZERO, Fraction(1, 2), Fraction(0), [])
@example(ZERO, LINEAR, Fraction(-3, 4), Fraction(2, 3), [Fraction(1, 2), -1])
@example(LINEAR, ZERO, Fraction(2), Fraction(-1, 5), [0, 0])
def test_polynomial_ops_equal_the_fraction_routines(a, b, h, z, roots):
    ca, cb = a.coeffs, b.coeffs
    product = (Fraction(1),)
    for c in roots:
        product = fraction_mul(product, (c, Fraction(1)))
    results = {
        "from_coeffs": (a, _strip(ca)),
        "add": (a + b, fraction_add(ca, cb)),
        "sub": (a - b, fraction_add(ca, [-c for c in cb])),
        "mul": (a * b, fraction_mul(ca, cb)),
        "shift": (a.shift(h), fraction_shift(ca, h)),
        "integer shift": (a.shift(int(h)), fraction_shift(ca, int(h))),
        "scale": (a.scale(h), tuple([c * h for c in ca]) if h else ()),
        "linear product": (Polynomial.linear_product(roots), product),
    }
    if not b.is_zero:
        # the oracle's division, which the other oracles divide by
        q, r = poly_divmod(a, b)
        fq, fr = fraction_divmod(ca, cb)
        results["quotient"], results["remainder"] = (q, fq), (r, fr)
        q, r = poly_divmod(a * b, b)
        results["exact quotient"], results["exact remainder"] = (q, ca), (r, ())
    for name, (got, expected) in results.items():
        assert got.coeffs == expected, name
        assert_canonical(got)
    assert a.eval(z) == fraction_horner(ca, z)


# ---------------------------------------------------------------------------
# rational functions


@st.composite
def root_multisets(draw, pool=()):
    """Denominator roots, each drawn root repeated up to three times."""
    out = []
    for c in draw(st.lists(roots_from(pool), max_size=3)):
        out += [c] * draw(st.integers(1, 3))
    return out


@st.composite
def rfs(draw, pool=()):
    """A canonical operand whose numerator, before normalizing, often
    vanishes at its own roots."""
    roots = draw(root_multisets(pool))
    return rf_normalize(draw(polys(pool=tuple(roots) + tuple(pool))), roots)


def assert_canonical_rf(a):
    """Root pairs in lowest terms and sorted, num coprime to the
    denominator, and the zero with no root."""
    assert list(a.roots) == sorted(a.roots)
    for r, b in a.roots:
        assert type(r) is int and type(b) is int and b > 0 and gcd(r, b) == 1
        assert a.num.eval(Fraction(-r, b)) != 0
    assert_canonical(a.num)
    if a.is_zero:
        assert a.roots == ()


def pair(a):
    return a.num, a.den


@st.composite
def pairs(draw):
    """Operand pairs covering the routes of the split arithmetic: roots
    shared, equal, disjoint, a constant operand, the same operand."""
    a = draw(rfs())
    kind = draw(st.sampled_from(("general", "shared", "equal", "disjoint", "constant", "same")))
    if kind == "same":
        return a, a
    if kind == "equal":
        roots = root_values(a.roots)
        return a, rf_normalize(draw(polys(pool=tuple(roots))), roots)
    if kind == "constant":
        b = RationalFunction.constant(draw(COEFFS))
        return (a, b) if draw(st.booleans()) else (b, a)
    if kind == "disjoint":  # roots of b outside the range of ROOTS
        b = rf_normalize(draw(polys()), draw(st.lists(st.integers(4, 6), min_size=1, max_size=3)))
    else:
        b = draw(rfs(pool=tuple(root_values(a.roots)) if kind == "shared" else ()))
    return (a, b) if draw(st.booleans()) else (b, a)


def naive(a, b, op):
    """The expanded num/den of a op b, with no gcd taken."""
    if op == "mul":
        return a.num * b.num, a.den * b.den
    right = b.num * a.den
    return a.num * b.den + (right if op == "add" else -right), a.den * b.den


@settings(max_examples=300, deadline=None)
@given(polys(), root_multisets())
@example(Polynomial.linear_product([1, 1, Fraction(1, 2)]), [1, 1, 1, Fraction(1, 2), 2])
@example(Polynomial.linear_product([0, 0]).scale(Fraction(-3, 2)), [0, 0, 0])
@example(ZERO, [Fraction(-2, 3), 5])
def test_rf_normalize_equals_expand_then_gcd(num, roots):
    got = rf_normalize(num, roots)
    assert_canonical_rf(got)
    assert pair(got) == expand_then_gcd(num, Polynomial.linear_product(roots))
    assert rf_normalize(got.num, root_values(got.roots)) == got


@pytest.mark.parametrize("den", [Polynomial.zero(), Polynomial.one(), Polynomial.z_plus(2),
                                 Polynomial.linear_product([1, 2])])
def test_rf_normalize_rejects_an_expanded_denominator(den):
    with pytest.raises(ValueError, match="roots"):
        rf_normalize(Polynomial.one(), den)


@settings(max_examples=300, deadline=None)
@given(pairs(), st.sampled_from(OPS))
def test_rf_arith_equals_expand_then_gcd(operands, op):
    a, b = operands
    got = rf_arith(a, b, op)
    assert_canonical_rf(got)
    assert pair(got) == expand_then_gcd(*naive(a, b, op))


@settings(max_examples=100, deadline=None)
@given(rfs(), rfs(), root_multisets(), st.booleans())
def test_sums_that_cancel_against_the_denominators(a, c, extra, nested):
    """a + (c - a) = c, whose den is smaller: the sum's numerator must be
    tested against the shared roots.  With ``nested`` the roots of a
    include those of c, otherwise they share only what they drew.  c - a
    is formed by ``rf_normalize`` of the expanded difference."""
    a = rf_normalize(a.num, root_values(a.roots) + extra + (root_values(c.roots) if nested else []))
    diff, _ = naive(c, a, "sub")
    b = rf_normalize(diff, root_values(c.roots) + root_values(a.roots))
    assert rf_arith(a, b, "add") == c
    assert rf_arith(b, a, "add") == c
    assert rf_arith(c, b, "sub") == a


@settings(max_examples=100, deadline=None)
@given(rfs())
def test_difference_with_itself_is_the_canonical_zero(a):
    assert a - a == RationalFunction.zero()


@settings(max_examples=200, deadline=None)
@given(rfs(), COEFFS, st.integers(-6, 6), SHIFTS)
def test_scale_and_shift_take_no_gcd_and_agree(a, c, h, q):
    assert a.scale(c) == rf_normalize(a.num.scale(c), root_values(a.roots))
    for shift in (h, q):
        got = rf_shift(a, shift)
        assert_canonical_rf(got)
        assert pair(got) == expand_then_gcd(a.num.shift(shift), a.den.shift(shift))


@settings(max_examples=300, deadline=None)
@given(rfs(), SHIFTS, st.booleans())
def test_rf_eval_equals_fraction_horner(a, point, at_root):
    """With ``at_root`` the point is a pole, -c for a root c, if there is one."""
    if at_root and a.roots:
        point = -Fraction(*a.roots[len(a.roots) // 2])
    den = fraction_horner(a.den.coeffs, point)
    if den == 0:
        with pytest.raises(PoleError):
            rf_eval(a, point)
    else:
        assert rf_eval(a, point) == fraction_horner(a.num.coeffs, point) / den


@settings(max_examples=200, deadline=None)
@given(pairs(), NONZERO, st.booleans())
def test_constant_ratio_equals_the_oracle(operands, c, proportional):
    """With ``proportional`` the left operand is c times the right one."""
    a, b = operands
    if b.is_zero:
        return
    if proportional:
        a = b.scale(c)
    num, den = expand_then_gcd(a.num * b.den, a.den * b.num)
    expected = num.eval(0) / den.eval(0) if num.degree <= 0 and den.degree == 0 else None
    assert constant_ratio(a, b) == expected


@settings(max_examples=300, deadline=None)
@given(st.one_of(PLAIN, polys()), root_multisets(), st.lists(ROOTS, max_size=3))
@example(Polynomial.linear_product([1, 1, 2]), [1, 1, 1, 2, 2], [])
@example(Polynomial.linear_product([Fraction(2, 3)] * 3).scale(Fraction(5, 7)),
         [Fraction(2, 3)] * 2, [])
@example(Polynomial.constant(Fraction(-2, 7)), [1, 1], [])
@example(ZERO, [0, Fraction(1, 2)], [])
@example(LINEAR, [Fraction(-5, 6)], [])
def test_poly_gcd_equals_the_prs(p, roots, shared):
    """gcd(p, prod (z + c)) and both cofactors.  The ``shared`` roots are
    multiplied into p and added to the multiset, so p vanishes at them
    with at least their multiplicity there."""
    p = p * Polynomial.linear_product(shared)
    roots = root_pairs(roots + shared)
    den = Polynomial.linear_product(root_values(roots))
    common, quotient, left = poly_gcd(p, roots)
    g = Polynomial.linear_product(root_values(common))
    assert g == prs_gcd(p, den)
    assert tuple(sorted(common + left)) == roots
    assert list(common) == sorted(common) and list(left) == sorted(left)
    if not p.is_zero:
        assert quotient == poly_divmod(p, g)[0]
    assert Polynomial.linear_product(root_values(left)) == poly_divmod(den, g)[0]


# ---------------------------------------------------------------------------
# Gamma cofactors

ATOMS = st.lists(st.tuples(st.integers(1, 4).map(lambda d: 2 * d), st.integers(0, 24)),
                 max_size=4)


@st.composite
def gamma_exprs(draw):
    """Products of single-scale quotients, so two_delta is often mixed."""
    g = GammaRatioExpr.one()
    for _ in range(draw(st.integers(1, 2))):
        atoms = draw(ATOMS)
        for td in sorted({td for td, _ in atoms}):
            num = [off for t, off in atoms if t == td]
            den = draw(st.lists(st.integers(0, 24), max_size=3))
            g = g * GammaRatioExpr.of(td, num, den)
    return g


@settings(max_examples=300, deadline=None)
@given(gamma_exprs())
# raw-constructed parts that only look reduced: unsorted atoms, an atom in
# both num and den, an offset equal to two_delta
@example(GammaRatioExpr(((4, 3), (4, 1)), ((4, 0),)))
@example(GammaRatioExpr(((2, 1),), ((6, 5), (6, 2))))
@example(GammaRatioExpr(((4, 1), (6, 5)), ((4, 1),)))
@example(GammaRatioExpr(((2, 0),), ((2, 0), (4, 3))))
@example(GammaRatioExpr(((4, 4),), ((6, 1),)))
@example(GammaRatioExpr(((4, 1),), ((6, 0), (6, 6))))
def test_canonicalize_equals_expand_then_gcd(g):
    cofactor, part = canonicalize(g)
    assert_canonical_rf(cofactor)
    assert ((cofactor.num, cofactor.den), part) == expand_then_gcd_canonicalize(g)


@settings(max_examples=300, deadline=None)
@given(gamma_exprs())
def test_rationality_oracle_equals_canonical_reduction(g):
    assert rationality_oracle(g) == canonicalize(g)[1].is_one


def test_large_exponent_power_weight_is_exact():
    expected = rf_normalize(Polynomial.z_plus(2), (3001,))
    assert power_weight(1, 1, 3000) == WeightExpr.from_rational(expected)


# ---------------------------------------------------------------------------
# work the canonical inputs skip


def _random_operator(rng):
    if rng.random() < 0.25:
        return root_operator(rng.randint(1, 3), rng.randint(1, 6))
    symbol = "+".join(f"{rng.randint(1, 5)}*r^{rng.randint(1, 9)}/{rng.choice((1, 2, 3))}"
                      for _ in range(rng.randint(1, 3)))
    return quasihomogeneous_operator(rng.randint(0, 3), parse_symbol(symbol))


def test_sums_of_canonical_weights_reduce_nothing(monkeypatch):
    """On fixed-seed Jacobi and bilinearity cases, ``linear_combine`` of
    built operators reduces no Gamma atom and multiplies no rational
    functions, and every gcd is root tests: a ``poly_gcd`` call runs one
    Horner pass per distinct root plus one per root it divides out, and
    one synthetic division per root it divides out."""
    counts = {"combines": 0, "reduce": 0, "mul": 0, "gcds": 0, "cancelled": 0}
    inside_combine = []
    per_call = {"tests": 0, "divisions": 0}

    def spy(name, fn, inside):
        def wrapped(*args):
            if inside:
                counts[name] += 1
            return fn(*args)
        return wrapped

    def tally(name, fn):
        def wrapped(*args):
            per_call[name] += 1
            return fn(*args)
        return wrapped

    def combine(ops):
        counts["combines"] += 1
        inside_combine.append(True)
        try:
            return linear_combine(ops)
        finally:
            inside_combine.pop()

    real_gcd = exact_algebra.poly_gcd

    def gcd_spy(p, roots):
        per_call.update(tests=0, divisions=0)
        common, quotient, left = real_gcd(p, roots)
        counts["gcds"] += 1
        counts["cancelled"] += len(common)
        assert per_call["divisions"] == len(common)
        assert per_call["tests"] <= len(set(roots)) + len(common)
        return common, quotient, left

    monkeypatch.setattr(gamma_ratio, "_reduce_atoms",
                        spy("reduce", gamma_ratio._reduce_atoms, inside_combine))
    monkeypatch.setattr(exact_algebra, "_mul", spy("mul", exact_algebra._mul, inside_combine))
    monkeypatch.setattr(exact_algebra, "poly_gcd", gcd_spy)
    monkeypatch.setattr(exact_algebra, "_horner", tally("tests", exact_algebra._horner))
    monkeypatch.setattr(exact_algebra, "_divide_linear",
                        tally("divisions", exact_algebra._divide_linear))
    rng = random.Random(20)
    for _ in range(6):
        a, b, c = (_random_operator(rng) for _ in range(3))
        x, y = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)), Fraction(rng.randint(1, 3))
        jacobi = combine([(1, commutator(a, commutator(b, c))),
                          (1, commutator(b, commutator(c, a))),
                          (1, commutator(c, commutator(a, b)))])
        bilinearity = combine([(1, commutator(combine([(x, a), (y, b)]), c)),
                               (-x, commutator(a, c)), (-y, commutator(b, c))])
        assert jacobi.is_zero and bilinearity.is_zero
    assert counts["combines"] == 18 and counts["gcds"] > 100 and counts["cancelled"] > 40
    assert counts["reduce"] == counts["mul"] == 0
