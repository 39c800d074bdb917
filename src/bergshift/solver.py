"""Exact truncated commutant equations and their nullspace.

For positive parameters (p, s, n, d) with p < s and candidate degrees
(m, l) with m < l and l + p = m + s, a sum of two quasihomogeneous shifts
of degrees m and l commutes with the reference operator exactly when its
weight sequences F and G satisfy, at every basis index k,

    (1)  F[k+p] * Phi(z_k) - Phi(z_k + 2m) * F[k]  = 0
    (2)  G[k+s] * Psi(z_k) - Psi(z_k + 2l) * G[k]  = 0
    (3)  F[k+s] * Psi(z_k) + G[k+p] * Phi(z_k)
           - Psi(z_k + 2m) * F[k] - Phi(z_k + 2l) * G[k] = 0

with Phi(z) = (z+2p)/(z+p+n), Psi(z) = (z+2s)/(z+s+d) and z_k = 2k + 2.
Truncating at index K gives an exact linear system over the rationals in
the unknowns F_0..F_K, G_0..G_K.

Rows (1) and (2) are first-order recurrences with leading coefficients
Phi(z_k), Psi(z_k) > 0: they pin each F[k >= p] to an exact multiple of
F[k mod p] and each G[k >= s] to one of G[k mod s].  :func:`nullspace`
generates row k of (3) in the p + s parameters theta = (F[0..p-1],
G[0..s-1]) straight from the problem, extending the pins only as far as
the rows read them, eliminates the rows lazily and reports its basis as
theta vectors.  Pins, rows and elimination are one integer pass: pins
are numerator-denominator pairs extended inline from the sample
formulas, each row is p + s integers over the lcm of its denominators,
and the elimination is fraction-free.  Nothing is lifted to F_0..F_K,
G_0..G_K at run time, and nothing is re-multiplied: the explicit
expansion :func:`build_system` is the tests' oracle, which lift theta
through their own samples and re-multiply.  The module decides from
(p, s, n, d) what it can prove: whether the reference pair commutes
(:func:`commuting_pair`) and each cell's floor, with the vectors that
make it up.  A larger K only appends rows, so dim(K) cannot increase in
K, and it never drops below :func:`_proved_floor`: the elimination stops
once the rank leaves only the floor, so K caps the rows read and does
not set the cost of a settled cell.  A count at the floor is therefore
settled: it holds at every K' >= K and in the untruncated system, and
the nullspace is the span of the floor's vectors, whose basis is read
off them in closed form (:func:`_floor_basis`).  A count above the floor
is only an upper bound, and the verdict on it is inconclusive; only such
a cell is back-substituted, still over the integers, to the unique
reduced echelon form, and only at dimension 1 is its basis matched
against the root powers (:func:`match_root_power`).  The module is exact
throughout: it evaluates no ball.

Every index increment in the three families (p, s, and s, p again) is a
multiple of g = gcd(p, s), so the system decomposes into g independent
subsystems over the residue classes of k mod g.  At (m, l) = (p, s) each
class carries the class-restricted (Phi, Psi) sample vector, making the
sequence-space nullspace g-dimensional.  Weight sequences of actual shift
operators with radial symbols are samples of a single transform that is
already determined by its values on any one class (the class subsequence
satisfies the density condition used for zero-testing), so all class
constants must agree: the operator-realizable subspace is the single line
spanned by (Phi, Psi).  The theorem verdict checks exactly that structure
and reports both dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

from .exact_algebra import (
    Polynomial,
    RationalFunction,
    rf_eval,
    rf_normalize,
)
from .gamma_ratio import power_weight


def monomial_weight(p: int, n: int) -> RationalFunction:
    """The rational shift weight (z + 2p)/(z + p + n)."""
    return rf_normalize(Polynomial.z_plus(2 * p), (p + n,))


def commuting_pair(p: int, n: int, s: int, d: int) -> bool:
    """Whether the reference operators of degrees p < s with radial parts
    r^n and r^d commute: exactly when (n, d) = (p, s), for 1 <= p < s.

    Their weights are Phi(z) = (z+2p)/(z+p+n) and Psi(z) = (z+2s)/(z+s+d),
    and the commutator is the shift by p + s with the single weight
    Phi(z+2s) Psi(z) - Psi(z+2p) Phi(z).  Both products carry the factor
    z+2p+2s; after cancelling it, the weight vanishes iff

        (z+2s)(z+2p+s+d)(z+p+n) = (z+2p)(z+2s+p+n)(z+s+d),

    that is, iff the root multisets {2s, 2p+s+d, p+n} and
    {2p, 2s+p+n, s+d} are equal.  Since p < s and s + d > 0, 2p can only
    equal p+n, so n = p; then 2s cannot equal 2s+2p, so 2s = s+d and d = s.
    Conversely both weights are 1 at (n, d) = (p, s).
    """
    return (n, d) == (p, s)


@dataclass(frozen=True)
class CommutantProblem:
    """One truncated commutant instance; validates the degree hypotheses."""

    p: int
    s: int
    n: int
    d: int
    m: int
    l: int
    K: int

    def __post_init__(self):
        if not (1 <= self.p < self.s):
            raise ValueError("need 1 <= p < s")
        if not (1 <= self.m < self.l):
            raise ValueError("need 1 <= m < l")
        if self.l + self.p != self.m + self.s:
            raise ValueError("need the degree balance l + p = m + s")
        if self.n < 1 or self.d < 1:
            raise ValueError("monomial exponents must be positive")
        if self.K < max(self.p, self.s, self.m, self.l):
            raise ValueError("truncation K too small for the given degrees")


@dataclass(frozen=True)
class LinearEquation:
    """Sparse row: (unknown index, coefficient) pairs, exact rationals."""

    coeffs: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class ExactLinearSystem:
    rows: tuple[LinearEquation, ...]
    num_unknowns: int


def build_system(prob: CommutantProblem) -> ExactLinearSystem:
    """Expand the three equation families at every index that fits below K,
    in the unknowns F_0..F_K (columns 0..K) and G_0..G_K (K+1..2K+1).

    No solver path calls it: it is the explicit system that the tests
    re-multiply a lifted basis against."""
    p, s, n, d, m, l, K = prob.p, prob.s, prob.n, prob.d, prob.m, prob.l, prob.K
    phi = monomial_weight(p, n)
    psi = monomial_weight(s, d)
    # Phi(z_k + 2j) = Phi(z_{k+j}), so each weight is evaluated once per
    # sample point; no row reads an index beyond K - p + m = K - s + l.
    phi_at = [rf_eval(phi, Fraction(2 * k + 2)) for k in range(K - p + m + 1)]
    psi_at = [rf_eval(psi, Fraction(2 * k + 2)) for k in range(K - p + m + 1)]
    G = K + 1  # column of G_0; F_k is column k

    rows: list[LinearEquation] = []
    for k in range(K - p + 1):
        rows.append(LinearEquation(((k + p, phi_at[k]), (k, -phi_at[k + m]))))
    for k in range(K - s + 1):
        rows.append(LinearEquation(((G + k + s, psi_at[k]), (G + k, -psi_at[k + l]))))
    for k in range(K - s + 1):
        rows.append(LinearEquation(
            ((k + s, psi_at[k]),
             (G + k + p, phi_at[k]),
             (k, -psi_at[k + m]),
             (G + k, -phi_at[k + l]))))
    return ExactLinearSystem(tuple(rows), 2 * (K + 1))


def _echelon(rows: Iterable[list[int]], stop_rank: int) -> Optional[list[tuple[int, list[int]]]]:
    """The pivot rows of dense integer rows, as (pivot column, row) in the
    order found, by fraction-free elimination.  Each row is reduced
    against the pivot rows found before it: b * r - a * prow, with a / b =
    r[col] / prow[col] in lowest terms, clears the pivot column col.  It
    is then divided by its content and pivots at its first nonzero column.
    Once the rank reaches ``stop_rank`` no further row is read and the
    result is None.
    """
    pivots: list[tuple[int, list[int]]] = []
    for r in rows:
        for col, prow in pivots:
            a = r[col]
            if a:
                b = prow[col]
                c = gcd(a, b)
                a, b = a // c, b // c
                r = [b * x - a * y for x, y in zip(r, prow)]
        for col, x in enumerate(r):
            if x:
                break
        else:
            continue  # a dependent row
        c = gcd(*r)
        pivots.append((col, [x // c for x in r] if c != 1 else r))
        if len(pivots) == stop_rank:
            return None
    return pivots


def _eliminate(rows: Iterable[list[int]], ncols: int, stop_rank: int) -> Optional[list[list[Fraction]]]:
    """Nullspace basis of dense integer rows, or None once their rank
    reaches ``stop_rank``, with no further row read: the caller knows
    that nullspace.

    Otherwise the pivot rows (:func:`_echelon`) are back-substituted,
    still over the integers, into the reduced echelon form: each is 0
    before its pivot, so running them through again, last pivot first,
    clears every later pivot column.  That form is unique, so whatever the
    row order or scaling the basis is canonical: 1 at its free column, 0
    at the other free columns, and one Fraction per entry.
    """
    pivots = _echelon(rows, stop_rank)
    if pivots is None:
        return None
    # ncols + 1 is a rank no rows reach: every pivot row is read again
    reduced = dict(_echelon([r for _, r in sorted(pivots, reverse=True)], ncols + 1))
    return [[Fraction(-reduced[j][f], reduced[j][j]) if j in reduced
             else Fraction(int(j == f))
             for j in range(ncols)]
            for f in range(ncols) if f not in reduced]


def _mixed_rows(prob: CommutantProblem) -> Iterator[list[int]]:
    """Row k of (3), for k = 0, 1, ..., in the parameters F[0..p-1]
    (columns 0..p-1) and G[0..s-1] (columns p..p+s-1), as a dense integer
    row over the lcm of its denominators.

    Rows (1) and (2) pin F[k] = f[k] F[k mod p] and G[k] = g[k] G[k mod s],
    with f[k + p] = f[k] Phi(z_{k+m}) / Phi(z_k) and g[k + s] = g[k]
    Psi(z_{k+l}) / Psi(z_k); every sample is positive, so every pin exists.
    The pins are numerators and denominators in lowest terms, extended
    through k + s (f) and k + p (g), the last indices row k reads, never
    to K.  Samples are read off their formulas, not off
    :func:`build_system`'s rational functions, so a test that lifts a
    basis vector through its own samples and re-multiplies it checks one
    against the other.
    """
    p, s, n, d, m, l = prob.p, prob.s, prob.n, prob.d, prob.m, prob.l
    f_num, f_den = [1] * p, [1] * p
    g_num, g_den = [1] * s, [1] * s
    for k in count():
        z = 2 * k + 2
        while len(f_num) <= k + s:
            j = len(f_num) - p
            zj = 2 * j + 2  # f[j + p] = f[j] * Phi(z_{j+m}) / Phi(z_j)
            a = f_num[j] * (zj + 2 * m + 2 * p) * (zj + p + n)
            b = f_den[j] * (zj + 2 * m + p + n) * (zj + 2 * p)
            c = gcd(a, b)
            f_num.append(a // c)
            f_den.append(b // c)
        while len(g_num) <= k + p:
            j = len(g_num) - s
            zj = 2 * j + 2  # g[j + s] = g[j] * Psi(z_{j+l}) / Psi(z_j)
            a = g_num[j] * (zj + 2 * l + 2 * s) * (zj + s + d)
            b = g_den[j] * (zj + 2 * l + s + d) * (zj + 2 * s)
            c = gcd(a, b)
            g_num.append(a // c)
            g_den.append(b // c)
        # Psi(z_k) f[k+s], Phi(z_k) g[k+p], Psi(z_{k+m}) f[k], Phi(z_{k+l}) g[k]
        a, a_den = (z + 2 * s) * f_num[k + s], (z + s + d) * f_den[k + s]
        b, b_den = (z + 2 * p) * g_num[k + p], (z + p + n) * g_den[k + p]
        c, c_den = (z + 2 * m + 2 * s) * f_num[k], (z + 2 * m + s + d) * f_den[k]
        e, e_den = (z + 2 * l + 2 * p) * g_num[k], (z + 2 * l + p + n) * g_den[k]
        den = lcm(a_den, b_den, c_den, e_den)
        row = [0] * (p + s)
        row[(k + s) % p] = a * (den // a_den)
        row[k % p] -= c * (den // c_den)
        row[p + (k + p) % s] = b * (den // b_den)
        row[p + k % s] -= e * (den // e_den)
        yield row


@dataclass(frozen=True)
class NullspaceReport:
    """One cell's nullspace at K, in the p + s parameters theta.

    Each basis vector is theta: entries 0..p-1 are F[0..p-1] and entries
    p..p+s-1 are G[0..s-1].  Rows (1) and (2) pin every other F[k] and
    G[k] to these, so theta is the whole solution.  The basis is the
    reduced echelon one, in the order of its free columns, each vector
    divided by its first nonzero entry.  At dimension 1 with a root match
    the vector is divided by the matched constant instead, so that it is
    exactly the reference samples, and ``proportionality`` reads 1; a
    cell settled at floor 1, the (p, s) cell with gcd(p, s) = 1, reports
    that vector and that 1 from its proof, with no match.
    """

    dimension: int
    basis: tuple[tuple[Fraction, ...], ...]
    floor: int
    proportionality: Optional[Fraction]


#: Largest truncation K that `scan` and `verify_theorem` accept.
MAX_TRUNCATION = 1000

#: Largest monomial exponent n or d that any command or check accepts.
MAX_EXPONENT = 1000

#: Largest degree of a power of the canonical root that any command
#: accepts: `root-verify` composes the root p times, and `identity-check`
#: builds its m-th and l-th powers.
MAX_ROOT_DEGREE = 1000


def _proved_floor(prob: CommutantProblem) -> int:
    """A lower bound on the nullspace dimension that holds at every K.

    With g = gcd(p, s), every index step of rows (1)-(3) is a multiple of
    g, so each row reads a single residue class mod g.  For a commuting
    pair, (n, d) = (p, s), both weights are 1, and F or G equal to 1 on one
    class, the other 0, gives 2g independent solutions at every (m, l).
    Otherwise, at (m, l) = (p, s) the g class sample vectors solve every
    row: class j carries the samples Phi(z_k), Psi(z_k) at k = j mod g and
    zeros elsewhere, and each row cancels term by term since
    z_k + 2j = z_{k+j}.  Elsewhere the floor is 0.
    """
    g = gcd(prob.p, prob.s)
    if commuting_pair(prob.p, prob.n, prob.s, prob.d):
        return 2 * g
    return g if (prob.m, prob.l) == (prob.p, prob.s) else 0


def _floor_basis(prob: CommutantProblem, floor: int) -> tuple[tuple[Fraction, ...], ...]:
    """The nullspace of a cell settled at its proved floor, in closed form.

    At the floor the nullspace is the span of the vectors that
    :func:`_proved_floor` counts.  Their supports are disjoint and the
    free column of each is its last nonzero entry, so scaled as
    :class:`NullspaceReport` says they are the reported basis: for a
    commuting pair (floor 2g) the g F-class indicators, then the g G-class
    ones; at (m, l) = (p, s) (floor g) the g class sample vectors, each
    divided by its first entry Phi(z_j), or at g = 1 the reference samples
    themselves, whose root match reads 1.
    """
    if floor == 0:
        return ()
    p, s, g = prob.p, prob.s, gcd(prob.p, prob.s)
    zero, one = Fraction(0), Fraction(1)
    # Column c of theta, F[c] or G[c - p], is in class c mod g, as g | p.
    if floor == 2 * g:
        return tuple([tuple([one if (c < p) == in_f and c % g == j else zero
                             for c in range(p + s)])
                      for in_f in (True, False) for j in range(g)])
    theta = ([Fraction(2 * k + 2 + 2 * p, 2 * k + 2 + p + prob.n) for k in range(p)]
             + [Fraction(2 * k + 2 + 2 * s, 2 * k + 2 + s + prob.d) for k in range(s)])
    if g == 1:
        return (tuple(theta),)
    return tuple([tuple([x / theta[j] if c % g == j else zero for c, x in enumerate(theta)])
                  for j in range(g)])


def nullspace(prob: CommutantProblem) -> NullspaceReport:
    """Exact nullspace of the cell at K, as theta vectors, and the cell's
    proved floor.

    The rows of (3) through K - s decide dim(K).  Their elimination stops
    once the rank leaves only :func:`_proved_floor`: the count is then
    settled, the same at every K' >= K and untruncated, and the basis is
    the floor's own, in closed form (:func:`_floor_basis`), with no
    back-substitution and no root match.  A count above the floor reads
    every row through K - s, bounds the untruncated one from above only,
    and is back-substituted; at dimension 1 its basis is matched against
    the root powers.  No pin or sample past the last row eliminated is
    read, and the basis is reported in theta (see :class:`NullspaceReport`),
    so a settled cell costs the same at every K.
    """
    p, s, floor = prob.p, prob.s, _proved_floor(prob)
    thetas = _eliminate(islice(_mixed_rows(prob), prob.K - s + 1), p + s, p + s - floor)
    if thetas is None:
        return NullspaceReport(floor, _floor_basis(prob, floor), floor,
                               Fraction(1) if floor == 1 else None)
    leads = [next(v for v in theta if v != 0) for theta in thetas]
    basis = [tuple([v / lead for v in theta]) for theta, lead in zip(thetas, leads)]
    shared = None
    if len(basis) == 1:
        theta = basis[0]
        # F and c * w_m, w_m = power_weight(m, p, n), both satisfy row (1):
        # w_m(z+2p) Phi(z) = Phi(z+2m) w_m(z), as w_p = Phi and R^m, R^p are
        # powers of one root.  Its leading samples Phi(z_k) are positive, so
        # the two agree at every k once they agree at k < p, which is
        # theta[:p]; so does G with row (2) at k < s, which is theta[p:].
        f_const = match_root_power(theta[:p], prob.m, p, prob.n)
        g_const = match_root_power(theta[p:], prob.l, s, prob.d)
        if f_const is not None and f_const == g_const and f_const != 0:
            # Present the basis in the matched normalization, where theta
            # is exactly the reference samples and the constant reads 1.
            shared = Fraction(1)
            basis = [tuple([x / f_const for x in theta])]
    return NullspaceReport(len(basis), tuple(basis), floor, shared)


def match_root_power(v: Sequence[Fraction], m: int, p: int, n: int) -> Optional[Fraction]:
    """Constant c with v_k = c * power_weight(m, p, n)(2k+2) for all k.

    :func:`nullspace` calls it only on a cell of dimension 1 above its
    floor; a settled cell's proportionality comes from its floor's proof.
    Decided exactly when the power weight reduces to a rational function.
    Returns None when no single constant works, and at once when the power
    weight keeps Gamma content, since the solver reports exact constants
    only.  At m = p the power weight is the operator's own weight
    (z + 2p)/(z + p + n), :func:`monomial_weight`, and is not rebuilt.
    """
    rf = monomial_weight(p, n) if m == p else power_weight(m, p, n).as_rational()
    if rf is None:
        return None
    c: Optional[Fraction] = None
    for k, vk in enumerate(v):
        wk = rf_eval(rf, Fraction(2 * k + 2))
        if wk == 0:
            if vk != 0:
                return None
            continue
        if c is None:
            c = vk / wk
        elif vk != c * wk:
            return None
    return Fraction(0) if c is None else c


@dataclass(frozen=True)
class ScanCell:
    m: int
    l: int
    dimension: int
    floor: int
    root_match: Optional[Fraction]
    counterexample: bool


@dataclass(frozen=True)
class ScanReport:
    p: int
    s: int
    n: int
    d: int
    bound: int
    K: int
    nondegenerate: bool
    outside_hypotheses: bool
    cells: tuple[ScanCell, ...]
    counterexamples: tuple[tuple[int, int], ...]


def check_exponents(**exponents: int) -> None:
    """Raise ValueError, naming the limit, for a keyword above MAX_EXPONENT."""
    for name, value in exponents.items():
        if value > MAX_EXPONENT:
            raise ValueError(f"exponent {name} = {value} exceeds the limit {MAX_EXPONENT}")


def check_root_degrees(**degrees: int) -> None:
    """Raise ValueError, naming the limit, for a keyword above MAX_ROOT_DEGREE."""
    for name, value in degrees.items():
        if value > MAX_ROOT_DEGREE:
            raise ValueError(f"degree {name} = {value} exceeds the limit "
                             f"MAX_ROOT_DEGREE = {MAX_ROOT_DEGREE}")


def _check_input(p: int, s: int, n: int, d: int, bound: int, K: int) -> None:
    """Raise ValueError, naming the limit, for an input outside the bounds."""
    if not 1 <= p < s:
        raise ValueError("need 1 <= p < s")
    check_exponents(n=n, d=d)
    if K < 1:
        raise ValueError(f"truncation K = {K} is below the limit 1")
    if K < s:
        raise ValueError(f"truncation K = {K} is below s = {s}")
    if K > MAX_TRUNCATION:
        raise ValueError(f"truncation K = {K} exceeds the limit {MAX_TRUNCATION}")
    if bound > K:
        raise ValueError(f"bound {bound} exceeds the truncation K = {K}")


def scan(p: int, s: int, n: int, d: int, bound: int, K: int) -> ScanReport:
    """Sweep every admissible (m, l) pair up to `bound` at truncation K.

    A pair other than (p, s) with a nontrivial nullspace settled at its
    proved floor is flagged as a counterexample report.  A commuting
    reference pair is surfaced and the whole scan marked as outside the
    commutant hypotheses.  Raises
    ValueError before any elimination if bound > K, K < 1, K < s,
    K > MAX_TRUNCATION, n or d > MAX_EXPONENT, or bound < s - p + 1, which
    admits no pair.
    """
    _check_input(p, s, n, d, bound, K)
    if bound < s - p + 1:
        raise ValueError(
            f"bound {bound} admits no pair (m, m + s - p) with m >= 1: "
            f"it must be at least s - p + 1 = {s - p + 1}")
    return _sweep(p, s, n, d, bound, K)


def _sweep(p: int, s: int, n: int, d: int, bound: int, K: int) -> ScanReport:
    """The scan on checked input."""
    nondeg = not commuting_pair(p, n, s, d)
    alpha = s - p
    cells: list[ScanCell] = []
    counterexamples: list[tuple[int, int]] = []
    for m in range(1, bound - alpha + 1):
        l = m + alpha
        report = nullspace(CommutantProblem(p=p, s=s, n=n, d=d, m=m, l=l, K=K))
        bad = 0 < report.dimension == report.floor and (m, l) != (p, s)
        cells.append(ScanCell(
            m=m,
            l=l,
            dimension=report.dimension,
            floor=report.floor,
            root_match=report.proportionality,
            counterexample=bad,
        ))
        if bad:
            counterexamples.append((m, l))
    return ScanReport(
        p=p, s=s, n=n, d=d, bound=bound, K=K,
        nondegenerate=nondeg,
        outside_hypotheses=not nondeg,
        cells=tuple(cells),
        counterexamples=tuple(counterexamples),
    )


@dataclass(frozen=True)
class TheoremReport:
    p: int
    s: int
    n: int
    d: int
    bound: int
    K: int
    status: str  # pass | fail | inconclusive | outside_hypotheses
    passed: Optional[bool]
    c: Optional[Fraction]
    residue_classes: int
    sequence_dimension: Optional[int]
    operator_dimension: Optional[int]
    scan_report: ScanReport
    messages: tuple[str, ...]


def verify_theorem(p: int, s: int, n: int, d: int, bound: int, K: int) -> TheoremReport:
    """Desk-scale verification that the commutant forces (m, l) = (p, s)
    with a single proportionality constant.

    PASS requires a nondegenerate reference pair and every cell settled at
    its proved floor (see :func:`nullspace`): dimension 0 at every (m, l)
    other than (p, s), and gcd(p, s) at (p, s), where the floor is the span
    of the per-residue-class reference sample vectors.  Each count then
    holds at every K' >= K and untruncated, for every m <= ``bound``.  The
    operator-realizable subspace of that span is the single line with all
    class constants equal, because each class subsequence already pins the
    transform; its normalized constant is the reported c.  The raw sequence
    dimension is reported alongside, never suppressed.  FAIL means (p, s)
    is not covered by ``bound``, or a settled counterexample; a cell above
    its floor is only an upper bound, and makes the verdict inconclusive.
    Raises ValueError on the input bounds of :func:`scan`, except that a
    bound below s - p + 1 is a FAIL: (p, s) is not covered.
    """
    _check_input(p, s, n, d, bound, K)
    report = _sweep(p, s, n, d, bound, K)
    g = gcd(p, s)
    messages: list[str] = []
    if report.outside_hypotheses:
        messages.append(
            "reference operators commute; instance is outside the commutant hypotheses")
        return TheoremReport(p, s, n, d, bound, K, "outside_hypotheses", None,
                             None, g, None, None, report, tuple(messages))
    matching = next((c for c in report.cells if (c.m, c.l) == (p, s)), None)
    seq_dim = matching.dimension if matching else None
    for cell in report.cells:
        if cell.counterexample:
            messages.append(
                f"pair (m={cell.m}, l={cell.l}) has a settled nullspace of "
                f"dimension {cell.dimension}")
    if matching is None:
        messages.append(f"(m, l) = ({p}, {s}) not covered by bound {bound}")
    if messages:  # a settled counterexample, or (p, s) not covered
        return TheoremReport(p, s, n, d, bound, K, "fail", False, None,
                             g, seq_dim, None, report, tuple(messages))
    # At its floor the nullspace is exactly the span of the g class vectors,
    # and the realizable subspace (equal class constants) is one line.
    op_dim = 1 if matching.dimension == matching.floor else None
    if op_dim and g > 1:
        messages.append(
            f"sequence nullspace splits over {g} residue classes; "
            f"operator-realizable subspace is 1-dimensional")
    above = [c for c in report.cells if c.dimension != c.floor]
    if above:
        for cell in above:
            messages.append(
                f"pair (m={cell.m}, l={cell.l}) has dimension {cell.dimension} "
                f"above its proved floor {cell.floor} at K={K}")
        return TheoremReport(p, s, n, d, bound, K, "inconclusive", None, None,
                             g, seq_dim, op_dim, report, tuple(messages))
    # c refers to the normalized realizable vector, which equals the
    # reference sample pair exactly.
    return TheoremReport(p, s, n, d, bound, K, "pass", True, Fraction(1),
                         g, seq_dim, op_dim, report, tuple(messages))
