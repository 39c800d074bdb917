"""The integer polynomial form, the gcd-aware arithmetic and the
root-multiset cofactors against the routines they replaced, kept here as
oracles.

* The ``fraction_*`` routines are the ``Polynomial`` operations on
  ``Fraction`` coefficient lists: sum, product, Taylor shift, division
  with remainder and Horner evaluation.  Every result must also be in the
  canonical integer form.
* ``normalize_everything_arith`` forms the plain num/den of a sum, product
  or quotient and hands it to ``rf_normalize``, which takes the full gcd.
* ``expand_then_gcd_canonicalize`` multiplies out every functional-equation
  factor of numerator and denominator and cancels them by one gcd.
* ``prs_gcd`` is the primitive pseudo-remainder sequence on every operand,
  the linear ones included, where ``poly_gcd`` takes one root test.

The canonical form is unique, so each fast route must give the oracle's
result exactly, not just an equal function.  The spy tests pin the work
that the canonical inputs let the library skip.
"""

import random
from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergshift import exact_algebra, gamma_ratio
from bergshift.exact_algebra import (
    Polynomial,
    RationalFunction,
    poly_gcd,
    rf_arith,
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

OPS = ("add", "sub", "mul", "div")


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


def normalize_everything_arith(a, b, op):
    if op == "add":
        return rf_normalize(a.num * b.den + b.num * a.den, a.den * b.den)
    if op == "sub":
        return rf_normalize(a.num * b.den - b.num * a.den, a.den * b.den)
    if op == "mul":
        return rf_normalize(a.num * b.num, a.den * b.den)
    return rf_normalize(a.num * b.den, a.den * b.num)


def prs_gcd(a, b):
    """Monic gcd by the primitive pseudo-remainder sequence on the ints."""
    def primitive(cs):
        g = gcd(*cs)
        return [c // g for c in cs]

    def prem(u, v):
        r = list(u)
        while len(r) >= len(v):
            lead, shift = r[-1], len(r) - len(v)
            r = [c * v[-1] for c in r]
            for j, c in enumerate(v):
                r[shift + j] -= lead * c
            while r and r[-1] == 0:
                r.pop()
        return r

    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    u, v = primitive(a.ints), primitive(b.ints)
    if len(u) < len(v):
        u, v = v, u
    while v:
        r = prem(u, v)
        u, v = v, primitive(r) if r else r
    return Polynomial.from_coeffs([Fraction(c, u[-1]) for c in u])


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
    cofactor = rf_normalize(nf.scale(ns), df.scale(ds))
    den_left, num_left = list(den), []
    for atom in num:
        if atom in den_left:
            den_left.remove(atom)
        else:
            num_left.append(atom)
    return cofactor, GammaRatioExpr(tuple(sorted(num_left)), tuple(sorted(den_left)))


# ---------------------------------------------------------------------------
# rational functions

COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
#: Small integer roots make shared linear factors between operands common.
ROOTS = st.lists(st.integers(-3, 3), max_size=3)


@st.composite
def polys(draw, nonzero=False):
    """(lead) * prod (z + c) * extra, the extra factor mostly absent."""
    lead = draw(COEFFS.filter(lambda c: c != 0))
    p = Polynomial.linear_product(draw(ROOTS)).scale(lead)
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
@given(st.one_of(PLAIN, polys()), st.one_of(PLAIN, polys()), SHIFTS, SHIFTS)
@example(ZERO, ZERO, Fraction(1, 2), Fraction(0))
@example(ZERO, LINEAR, Fraction(-3, 4), Fraction(2, 3))
@example(LINEAR, ZERO, Fraction(2), Fraction(-1, 5))
def test_polynomial_ops_equal_the_fraction_routines(a, b, h, z):
    ca, cb = a.coeffs, b.coeffs
    results = {
        "from_coeffs": (a, _strip(ca)),
        "add": (a + b, fraction_add(ca, cb)),
        "sub": (a - b, fraction_add(ca, [-c for c in cb])),
        "mul": (a * b, fraction_mul(ca, cb)),
        "shift": (a.shift(h), fraction_shift(ca, h)),
        "integer shift": (a.shift(int(h)), fraction_shift(ca, int(h))),
        "scale": (a.scale(h), tuple([c * h for c in ca]) if h else ()),
        "monic": (a.monic(), tuple([c / ca[-1] for c in ca]) if ca else ()),
    }
    if not b.is_zero:
        q, r = a.divmod(b)
        fq, fr = fraction_divmod(ca, cb)
        results["quotient"], results["remainder"] = (q, fq), (r, fr)
        # an exact division: (a * b) / b = a with remainder 0
        q, r = (a * b).divmod(b)
        results["exact quotient"], results["exact remainder"] = (q, ca), (r, ())
    for name, (got, expected) in results.items():
        assert got.coeffs == expected, name
        assert_canonical(got)
    assert a.eval(z) == fraction_horner(ca, z)


@st.composite
def rfs(draw):
    return rf_normalize(draw(polys()), draw(polys(nonzero=True)))


@st.composite
def pairs(draw):
    """Operand pairs covering the special routes of the gcd-aware arithmetic."""
    a = draw(rfs())
    kind = draw(st.sampled_from(("general", "coprime", "shared", "equal", "constant", "same")))
    if kind == "same":
        return a, a
    if kind == "equal":
        return a, rf_normalize(draw(polys()), a.den)
    if kind == "constant":
        b = RationalFunction.constant(draw(COEFFS))
        return (a, b) if draw(st.booleans()) else (b, a)
    b = draw(rfs())
    if kind == "coprime":  # roots of b's den lie outside the range of ROOTS
        den = Polynomial.linear_product(draw(st.lists(st.integers(4, 6), min_size=1, max_size=2)))
        b = rf_normalize(b.num, den)
    if kind == "shared":
        common = draw(polys(nonzero=True))
        a = rf_normalize(a.num, a.den * common)
        b = rf_normalize(b.num, b.den * common)
    return a, b


@settings(max_examples=200, deadline=None)
@given(pairs(), st.sampled_from(OPS))
def test_rf_arith_equals_normalize_everything(operands, op):
    a, b = operands
    if op == "div" and b.is_zero:
        return
    got = rf_arith(a, b, op)
    assert got == normalize_everything_arith(a, b, op)
    assert got.den.leading == 1


@settings(max_examples=100, deadline=None)
@given(rfs(), rfs(), polys(nonzero=True), st.booleans())
def test_sums_that_cancel_against_the_denominators(a, c, extra, nested):
    """a + (c - a) = c, whose den is smaller: the second gcd of a sum is
    needed.  With ``nested`` the two dens are equal, otherwise they share
    the factor a.den."""
    a = rf_normalize(a.num, a.den * extra * (c.den if nested else Polynomial.one()))
    b = normalize_everything_arith(c, a, "sub")
    assert rf_arith(a, b, "add") == c
    assert rf_arith(b, a, "add") == c
    assert rf_arith(c, b, "sub") == a


@settings(max_examples=100, deadline=None)
@given(rfs())
def test_difference_with_itself_is_the_canonical_zero(a):
    assert a - a == RationalFunction.zero()
    if not a.is_zero:
        assert a / a == RationalFunction.one()


@settings(max_examples=100, deadline=None)
@given(rfs(), COEFFS, st.integers(-6, 6))
def test_scale_and_shift_take_no_gcd_and_agree(a, c, h):
    assert a.scale(c) == rf_normalize(a.num.scale(c), a.den)
    assert rf_shift(a, h) == rf_normalize(a.num.shift(h), a.den.shift(h))
    assert rf_shift(a, Fraction(h, 3)) == rf_normalize(a.num.shift(Fraction(h, 3)),
                                                       a.den.shift(Fraction(h, 3)))


#: Rational roots of the linear operands; integers among them, so they
#: meet the roots of ``polys`` often.
LINEAR_ROOTS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
NONZERO = COEFFS.filter(lambda c: c != 0)


def linear(root, lead):
    """lead * (z - root): ints that are mostly not monic, over a den that
    is mostly not 1."""
    return Polynomial.z_plus(-root).scale(lead)


def gcd_both_ways(a, b):
    for x, y in ((a, b), (b, a)):
        assert poly_gcd(x, y) == prs_gcd(x, y)


@settings(max_examples=300, deadline=None)
@given(LINEAR_ROOTS, NONZERO, st.one_of(PLAIN, polys()), st.booleans())
@example(Fraction(2, 3), Fraction(-5, 2), Polynomial.linear_product([1, 2]), True)
@example(Fraction(-3, 4), Fraction(7, 3), Polynomial.linear_product([Fraction(3, 4)]), False)
@example(Fraction(1, 5), Fraction(6), LINEAR, False)
def test_gcd_with_a_linear_operand_equals_the_prs(root, lead, other, share):
    """With ``share`` the other operand vanishes at the root."""
    lin = linear(root, lead)
    gcd_both_ways(lin, other * lin if share else other)


@settings(max_examples=200, deadline=None)
@given(LINEAR_ROOTS, LINEAR_ROOTS, NONZERO, NONZERO, st.booleans())
@example(Fraction(2, 3), Fraction(0), Fraction(3, 4), Fraction(-6), True)
@example(Fraction(2, 3), Fraction(-2, 3), Fraction(3, 4), Fraction(-6), False)
def test_gcd_of_two_linear_operands_equals_the_prs(r1, r2, lead1, lead2, same_root):
    gcd_both_ways(linear(r1, lead1), linear(r1 if same_root else r2, lead2))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(ZERO), NONZERO.map(Polynomial.constant)),
       st.one_of(st.just(ZERO), NONZERO.map(Polynomial.constant),
                 st.builds(linear, LINEAR_ROOTS, NONZERO), PLAIN, polys()))
@example(ZERO, LINEAR)
@example(Polynomial.constant(Fraction(-2, 7)), LINEAR)
@example(ZERO, ZERO)
def test_gcd_with_a_constant_or_zero_operand_equals_the_prs(const, other):
    gcd_both_ways(const, other)


@settings(max_examples=200, deadline=None)
@given(st.one_of(PLAIN, polys()), st.one_of(PLAIN, polys()), polys(nonzero=True))
def test_gcd_of_higher_degrees_equals_the_prs(a, b, common):
    gcd_both_ways(a * common, b * common)


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
    assert canonicalize(g) == expand_then_gcd_canonicalize(g)


@settings(max_examples=300, deadline=None)
@given(gamma_exprs())
def test_rationality_oracle_equals_canonical_reduction(g):
    assert rationality_oracle(g) == canonicalize(g)[1].is_one


def test_large_exponent_power_weight_is_exact():
    expected = rf_normalize(Polynomial.z_plus(2), Polynomial.z_plus(3001))
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
    """On fixed-seed Jacobi and bilinearity cases, ``WeightExpr.__add__``
    of two built expressions reduces no Gamma atom and multiplies no
    rational functions, and no gcd with a linear operand runs a
    pseudo-remainder."""
    counts = {"adds": 0, "reduce": 0, "mul": 0, "linear gcds": 0, "prem": 0}
    inside_add, inside_linear_gcd = [], []

    def spy(name, fn, inside):
        def wrapped(*args):
            if inside:
                counts[name] += 1
            return fn(*args)
        return wrapped

    real_add, real_gcd = WeightExpr.__add__, exact_algebra.poly_gcd

    def add(self, other):
        counts["adds"] += 1
        inside_add.append(True)
        try:
            return real_add(self, other)
        finally:
            inside_add.pop()

    def gcd_spy(a, b):
        if 1 not in (a.degree, b.degree):
            return real_gcd(a, b)
        counts["linear gcds"] += 1
        inside_linear_gcd.append(True)
        try:
            return real_gcd(a, b)
        finally:
            inside_linear_gcd.pop()

    monkeypatch.setattr(WeightExpr, "__add__", add)
    monkeypatch.setattr(gamma_ratio, "_reduce_atoms",
                        spy("reduce", gamma_ratio._reduce_atoms, inside_add))
    monkeypatch.setattr(exact_algebra, "_mul", spy("mul", exact_algebra._mul, inside_add))
    monkeypatch.setattr(exact_algebra, "poly_gcd", gcd_spy)
    monkeypatch.setattr(exact_algebra, "_int_prem",
                        spy("prem", exact_algebra._int_prem, inside_linear_gcd))
    rng = random.Random(20)
    for _ in range(6):
        a, b, c = (_random_operator(rng) for _ in range(3))
        x, y = Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)), Fraction(rng.randint(1, 3))
        jacobi = linear_combine([(1, commutator(a, commutator(b, c))),
                                 (1, commutator(b, commutator(c, a))),
                                 (1, commutator(c, commutator(a, b)))])
        bilinearity = linear_combine([(1, commutator(linear_combine([(x, a), (y, b)]), c)),
                                      (-x, commutator(a, c)), (-y, commutator(b, c))])
        assert jacobi.is_zero and bilinearity.is_zero
    assert counts["adds"] > 50 and counts["linear gcds"] > 100
    assert counts["reduce"] == counts["mul"] == counts["prem"] == 0
