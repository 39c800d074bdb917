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
F[k mod p] and each G[k >= s] to one of G[k mod s].  :func:`build_system`
emits them first, in order of k, and the solver reads the pins from them
by position; a system whose leading rows do not have that layout raises
ValueError, and a system without a problem is eliminated whole.
Substituted into (3), the pins leave K - s + 1 rows in the p + s
parameters F[0..p-1], G[0..s-1], solved by one exact Gauss-Jordan
elimination.  Lifting back is a bijection onto the solutions of (1) and
(2), so the dimension is exact; each lifted vector is re-verified against
every row.  The multiples do not depend on K and a larger K only appends
rows, so dim(K) cannot increase in K.  As a stabilization check the
dimension is re-counted at K + 10 and reported as found, but only where
no proof settles it: dim(K) never drops below the floor of
:func:`_proved_floor`, so a count at the floor holds at K + 10 and is not
re-counted.  The module is exact throughout: it evaluates no ball.

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

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .exact_algebra import Polynomial, RationalFunction, rf_eval, rf_normalize
from .gamma_ratio import power_weight
from .mellin import RadialSymbol
from .shift_algebra import commutator, quasihomogeneous_operator


def monomial_weight(p: int, n: int) -> RationalFunction:
    """The rational shift weight (z + 2p)/(z + p + n)."""
    return rf_normalize(Polynomial.z_plus(2 * p), Polynomial.z_plus(p + n))


def commuting_pair(p: int, n: int, s: int, d: int) -> bool:
    """Exact check of whether the two reference operators commute."""
    a = quasihomogeneous_operator(p, RadialSymbol.monomial(n))
    b = quasihomogeneous_operator(s, RadialSymbol.monomial(d))
    return commutator(a, b).is_zero


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
    label: str


@dataclass(frozen=True)
class ExactLinearSystem:
    rows: tuple[LinearEquation, ...]
    num_unknowns: int
    problem: Optional[CommutantProblem] = None


def build_system(prob: CommutantProblem) -> ExactLinearSystem:
    """Expand the three equation families at every index that fits below K."""
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
        rows.append(LinearEquation(
            ((k + p, phi_at[k]), (k, -phi_at[k + m])),
            f"first[k={k}]"))
    for k in range(K - s + 1):
        rows.append(LinearEquation(
            ((G + k + s, psi_at[k]), (G + k, -psi_at[k + l])),
            f"second[k={k}]"))
    for k in range(K - s + 1):
        rows.append(LinearEquation(
            ((k + s, psi_at[k]),
             (G + k + p, phi_at[k]),
             (k, -psi_at[k + m]),
             (G + k, -phi_at[k + l])),
            f"mixed[k={k}]"))
    return ExactLinearSystem(tuple(rows), 2 * (K + 1), prob)


def _subtract(target: dict[int, Fraction], c: Fraction, row: dict[int, Fraction]) -> None:
    """target -= c * row, in place, dropping entries that become zero."""
    for j, v in row.items():
        x = target.get(j, 0) - c * v
        if x:
            target[j] = x
        else:
            target.pop(j, None)


def _eliminate(rows: Iterable[Iterable[tuple[int, Fraction]]], ncols: int) -> list[list[Fraction]]:
    """Nullspace basis of sparse rational rows by exact Gauss-Jordan elimination.

    The pivot rows stay in reduced echelon form, so whatever the row order
    the basis is canonical: 1 at its free column, 0 at the other free
    columns.  Rows after full rank are not read.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        if len(pivots) == ncols:
            break
        r: dict[int, Fraction] = {}
        for j, c in row:
            r[j] = r[j] + c if j in r else c
        r = {j: c for j, c in r.items() if c}
        for col, prow in pivots.items():
            if col in r:
                _subtract(r, r[col], prow)
        if not r:
            continue
        col = min(r)
        lead = r[col]
        r = {j: v / lead for j, v in r.items()}
        for prow in pivots.values():
            if col in prow:
                _subtract(prow, prow[col], r)
        pivots[col] = r
    return [[-pivots[j].get(f, 0) if j in pivots else Fraction(int(j == f))
             for j in range(ncols)]
            for f in range(ncols) if f not in pivots]


def _lift(sys: ExactLinearSystem):
    """Write every unknown as a scale times one parameter, F[0..p-1] or
    G[0..s-1], reading the pins by position from the rows (1) and (2) that
    :func:`build_system` emits first; without a problem, every unknown is
    its own parameter.  Returns the lift, one (parameter, scale) pair per
    unknown, the parameter count and the rows left to eliminate.
    """
    prob = sys.problem
    if prob is None:
        return [(j, Fraction(1)) for j in range(sys.num_unknowns)], sys.num_unknowns, sys.rows
    K = prob.K
    lift: list[tuple[int, Fraction]] = []
    i = 0
    for offset, step, first_param in ((0, prob.p, 0), (K + 1, prob.s, prob.p)):
        for k in range(K + 1):
            if k < step:
                lift.append((first_param + k, Fraction(1)))
                continue
            pinned, earlier = offset + k, offset + k - step
            row = sys.rows[i].coeffs if i < len(sys.rows) else ()
            if len(row) != 2 or (row[0][0], row[1][0]) != (pinned, earlier):
                raise ValueError(
                    f"row {i} is not the recurrence row ({pinned}, {earlier}) of build_system's "
                    f"layout: K - p + 1 first rows, then K - s + 1 second rows")
            (_, lead), (_, trail) = row
            if lead == 0:
                raise ArithmeticError(
                    f"recurrence row for unknown {pinned} has a zero leading coefficient")
            param, scale = lift[earlier]
            lift.append((param, scale * (-trail / lead)))
            i += 1
    return lift, prob.p + prob.s, sys.rows[i:]


def _nullspace_basis(sys: ExactLinearSystem) -> list[tuple[Fraction, ...]]:
    lift, width, rows = _lift(sys)
    # Lazy: the elimination stops reading rows once it has full rank.
    reduced = (((lift[j][0], c * lift[j][1]) for j, c in row.coeffs) for row in rows)
    basis: list[tuple[Fraction, ...]] = []
    for theta in _eliminate(reduced, width):
        vec = [scale * theta[param] for param, scale in lift]
        lead = next(v for v in vec if v != 0)
        vec = tuple([v / lead for v in vec])
        if not vector_in_nullspace(sys, vec):
            raise ArithmeticError("computed vector fails exact re-multiplication")
        basis.append(vec)
    return basis


def vector_in_nullspace(sys: ExactLinearSystem, vec: Sequence[Fraction]) -> bool:
    """Exact re-multiplication check A.v = 0.

    Each row sum is accumulated on ints as an unreduced num/den with
    den > 0, so the row vanishes exactly when num is 0.
    """
    for row in sys.rows:
        num, den = 0, 1
        for j, c in row.coeffs:
            x = vec[j]
            q = c.denominator * x.denominator
            num = num * q + c.numerator * x.numerator * den
            den *= q
        if num:
            return False
    return True


@dataclass(frozen=True)
class NullspaceReport:
    dimension: int
    basis: tuple[tuple[Fraction, ...], ...]
    dimension_at_increment: Optional[int]
    f_constant: Optional[Fraction]
    g_constant: Optional[Fraction]
    proportionality: Optional[Fraction]

    @property
    def stable(self) -> bool:
        return self.dimension_at_increment == self.dimension


#: Largest truncation K that `scan` and `verify_theorem` accept.
MAX_TRUNCATION = 1000

#: Largest monomial exponent n or d that `scan` and `verify_theorem` accept.
MAX_EXPONENT = 1000


#: Window by which K is extended for the stabilization re-count; a drop
#: in dimension over it shows that the count at K has not settled.
STABILIZATION_INCREMENT = 10


def _proved_floor(prob: CommutantProblem) -> int:
    """A lower bound on the nullspace dimension that holds at every K.

    With g = gcd(p, s), every index step of rows (1)-(3) is a multiple of
    g, so each row reads a single residue class mod g.  For n = p and
    d = s both weights are 1, and F or G equal to 1 on one class, the other
    0, gives 2g independent solutions at every (m, l).  Otherwise, at
    (m, l) = (p, s) the g class sample vectors of
    :func:`class_sample_vectors` solve every row.  Elsewhere the floor is 0.
    """
    g = gcd(prob.p, prob.s)
    if (prob.n, prob.d) == (prob.p, prob.s):
        return 2 * g
    return g if (prob.m, prob.l) == (prob.p, prob.s) else 0


def nullspace(sys: ExactLinearSystem) -> NullspaceReport:
    """Exact nullspace with stabilization re-count at K + STABILIZATION_INCREMENT.

    The re-count rebuilds the system from ``sys.problem``, so a system with
    a problem must be the one ``build_system(sys.problem)`` returns.  For
    that system dim(K) does not increase in K and never drops below
    :func:`_proved_floor`, so a dimension at the floor is reported at
    K + STABILIZATION_INCREMENT without a re-count.  The recurrence pins
    are read by position from the leading rows; ValueError is raised when
    those rows do not have :func:`build_system`'s layout, and rows after
    them stay constraints.  A system without a problem is eliminated whole.
    """
    basis = _nullspace_basis(sys)
    dim = len(basis)
    prob = sys.problem
    dim_plus: Optional[int] = None
    if prob is not None:
        if dim == _proved_floor(prob):
            dim_plus = dim
        else:
            bigger = dataclasses.replace(prob, K=prob.K + STABILIZATION_INCREMENT)
            dim_plus = len(_nullspace_basis(build_system(bigger)))
    f_const = g_const = shared = None
    if dim == 1 and prob is not None:
        K = prob.K
        vec = basis[0]
        f_const = match_root_power(vec[: K + 1], prob.m, prob.p, prob.n)
        g_const = match_root_power(vec[K + 1 :], prob.l, prob.s, prob.d)
        if f_const is not None and f_const == g_const and f_const != 0:
            # Present the basis in the matched normalization, where the
            # vector is exactly the reference sample pair and the shared
            # constant reads 1.
            shared = Fraction(1)
            basis = [tuple([x / f_const for x in vec])]
    return NullspaceReport(
        dimension=dim,
        basis=tuple(basis),
        dimension_at_increment=dim_plus,
        f_constant=f_const,
        g_constant=g_const,
        proportionality=shared,
    )


def match_root_power(v: Sequence[Fraction], m: int, p: int, n: int) -> Optional[Fraction]:
    """Constant c with v_k = c * power_weight(m, p, n)(2k+2) for all k.

    Decided exactly when the power weight reduces to a rational function.
    Returns None when no single constant works, and at once when the power
    weight keeps Gamma content, since the solver reports exact constants
    only.
    """
    rf = power_weight(m, p, n).as_rational()
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
    dimension_at_increment: int
    stable: bool
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


def _check_input(p: int, s: int, n: int, d: int, bound: int, K: int) -> None:
    """Raise ValueError, naming the limit, for an input outside the bounds."""
    if not 1 <= p < s:
        raise ValueError("need 1 <= p < s")
    for name, value in (("n", n), ("d", d)):
        if value > MAX_EXPONENT:
            raise ValueError(f"exponent {name} = {value} exceeds the limit {MAX_EXPONENT}")
    if K > MAX_TRUNCATION:
        raise ValueError(f"truncation K = {K} exceeds the limit {MAX_TRUNCATION}")
    if bound > K:
        raise ValueError(f"bound {bound} exceeds the truncation K = {K}")


def scan(p: int, s: int, n: int, d: int, bound: int, K: int) -> ScanReport:
    """Sweep every admissible (m, l) pair up to `bound` at truncation K.

    A pair other than (p, s) with a stable nontrivial nullspace is flagged
    as a counterexample report.  A commuting reference pair is surfaced and
    the whole scan marked as outside the commutant hypotheses.  Raises
    ValueError before any elimination if bound > K, K > MAX_TRUNCATION,
    n or d > MAX_EXPONENT, or bound < s - p + 1, which admits no pair.
    """
    _check_input(p, s, n, d, bound, K)
    if bound < s - p + 1:
        raise ValueError(
            f"bound {bound} admits no pair (m, m + s - p) with m >= 1: "
            f"it must be at least s - p + 1 = {s - p + 1}")
    return _sweep(p, s, n, d, bound, K)[0]


def _sweep(p: int, s: int, n: int, d: int, bound: int,
           K: int) -> tuple[ScanReport, Optional[ExactLinearSystem]]:
    """The scan on checked input, and the system it built at (m, l) = (p, s)
    (None when the bound does not reach that pair)."""
    nondeg = not commuting_pair(p, n, s, d)
    alpha = s - p
    cells: list[ScanCell] = []
    counterexamples: list[tuple[int, int]] = []
    sys_match: Optional[ExactLinearSystem] = None
    for m in range(1, bound - alpha + 1):
        l = m + alpha
        prob = CommutantProblem(p=p, s=s, n=n, d=d, m=m, l=l, K=K)
        sys_ = build_system(prob)
        if (m, l) == (p, s):
            sys_match = sys_
        report = nullspace(sys_)
        bad = report.dimension > 0 and (m, l) != (p, s) and report.stable
        cells.append(ScanCell(
            m=m,
            l=l,
            dimension=report.dimension,
            dimension_at_increment=report.dimension_at_increment,
            stable=report.stable,
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
    ), sys_match


def class_sample_vectors(prob: CommutantProblem) -> list[tuple[Fraction, ...]]:
    """Per-residue-class reference solutions at (m, l) = (p, s).

    Class j of g = gcd(p, s) carries (Phi, Psi) samples on indices k = j
    mod g and zeros elsewhere; their sum is the full reference pair.
    """
    g = gcd(prob.p, prob.s)
    weights = (monomial_weight(prob.p, prob.n), monomial_weight(prob.s, prob.d))
    samples = [[rf_eval(w, Fraction(2 * k + 2)) for k in range(prob.K + 1)] for w in weights]
    return [tuple([v if k % g == j else Fraction(0) for part in samples for k, v in enumerate(part)])
            for j in range(g)]


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

    PASS requires: a nondegenerate reference pair; stable zero-dimensional
    nullspaces at every (m, l) other than (p, s); and at (p, s) a stable
    nullspace that is exactly the span of the per-residue-class reference
    sample vectors (dimension gcd(p, s), verified by exact membership of
    each class vector).  The operator-realizable subspace of that span is
    the single line with all class constants equal, because each class
    subsequence already pins the transform; its normalized constant is the
    reported c.  The raw sequence dimension is reported alongside, never
    suppressed.  Raises ValueError on the input bounds of :func:`scan`,
    except that a bound below s - p + 1 is a FAIL: (p, s) is not covered.
    """
    _check_input(p, s, n, d, bound, K)
    report, sys_match = _sweep(p, s, n, d, bound, K)
    g = gcd(p, s)
    messages: list[str] = []
    if report.outside_hypotheses:
        messages.append(
            "reference operators commute; instance is outside the commutant hypotheses")
        return TheoremReport(p, s, n, d, bound, K, "outside_hypotheses", None,
                             None, g, None, None, report, tuple(messages))
    matching = next((c for c in report.cells if (c.m, c.l) == (p, s)), None)
    unstable = [c for c in report.cells if not c.stable]
    seq_dim = matching.dimension if matching else None
    op_dim: Optional[int] = None
    failed = False
    for cell in report.cells:
        if cell.counterexample:
            messages.append(
                f"pair (m={cell.m}, l={cell.l}) has a stable nullspace of "
                f"dimension {cell.dimension}")
            failed = True
    if matching is None:
        messages.append(f"(m, l) = ({p}, {s}) not covered by bound {bound}")
        failed = True
    else:
        if matching.dimension != g:
            messages.append(
                f"matching pair has sequence nullspace dimension "
                f"{matching.dimension}, expected gcd(p, s) = {g}")
            failed = True
        else:
            class_vectors = class_sample_vectors(sys_match.problem)
            bad = [j for j, v in enumerate(class_vectors)
                   if not vector_in_nullspace(sys_match, v)]
            if bad:
                messages.append(
                    f"class sample vectors {bad} fail the commutant equations")
                failed = True
            else:
                # dim == g and all g independent class vectors are members,
                # so the nullspace is exactly their span; the realizable
                # subspace (equal class constants) is one line.
                op_dim = 1
                if g > 1:
                    messages.append(
                        f"sequence nullspace splits over {g} residue classes; "
                        f"operator-realizable subspace is 1-dimensional")
    if failed:
        return TheoremReport(p, s, n, d, bound, K, "fail", False, None,
                             g, seq_dim, op_dim, report, tuple(messages))
    if unstable:
        for cell in unstable:
            messages.append(
                f"pair (m={cell.m}, l={cell.l}) dimensions {cell.dimension} -> "
                f"{cell.dimension_at_increment} not stabilized at K={K}")
        return TheoremReport(p, s, n, d, bound, K, "inconclusive", None, None,
                             g, seq_dim, op_dim, report, tuple(messages))
    # c refers to the normalized realizable vector, which equals the
    # reference sample pair exactly.
    return TheoremReport(p, s, n, d, bound, K, "pass", True, Fraction(1),
                         g, seq_dim, op_dim, report, tuple(messages))
