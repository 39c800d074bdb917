"""Test-side oracles for the commutant solver's theta basis.

``nullspace`` reports each basis vector in the p + s parameters theta =
(F[0..p-1], G[0..s-1]).  :func:`lift` extends theta to F_0..F_K,
G_0..G_K by rows (1) and (2), from samples of the weight functions
rather than from the solver's pins, so re-multiplying the lifted vector
against ``build_system`` compares two derivations of the samples.
:func:`eliminate` back-substitutes the pivot rows of ``solver._echelon``
to the unique reduced echelon form, which the solver never needs: a
settled cell's basis is its floor's, and a cell above its floor reports
its rank alone.
:func:`cleared` turns a sparse rational row into the dense integer row
that the kernel takes, :func:`eliminated` runs it on such rows with no
early stop, and :func:`echelon_report` gives a cell's basis and root
match from every row through K - s, the oracle for the floor's basis.
"""

from fractions import Fraction
from itertools import islice
from math import lcm

from bergshift import solver
from bergshift.exact_algebra import rf_eval
from bergshift.solver import CommutantProblem, match_root_power, monomial_weight


def grid_cells(K):
    """Every cell with l <= 8 of the 540 instances p < s <= 6, n, d in
    1..6, at truncation K: 3060 cells."""
    return [CommutantProblem(p=p, s=s, n=n, d=d, m=m, l=m + s - p, K=K)
            for s in range(2, 7) for p in range(1, s)
            for n in range(1, 7) for d in range(1, 7) for m in range(1, 9 - s + p)]


def lift(prob, theta):
    """F_0..F_K, G_0..G_K solving rows (1) and (2) from theta."""
    p, s, m, l, K = prob.p, prob.s, prob.m, prob.l, prob.K
    # rows (1) and (2) read samples through K - p + m = K - s + l
    z = [Fraction(2 * k + 2) for k in range(K - p + m + 1)]
    phi, psi = ([rf_eval(w, x) for x in z]
                for w in (monomial_weight(p, prob.n), monomial_weight(s, prob.d)))
    F, G = list(theta[:p]), list(theta[p:])
    for k in range(K - p + 1):  # row (1) at k: F[k+p] Phi(z_k) = Phi(z_{k+m}) F[k]
        F.append(F[k] * phi[k + m] / phi[k])
    for k in range(K - s + 1):  # row (2) at k: G[k+s] Psi(z_k) = Psi(z_{k+l}) G[k]
        G.append(G[k] * psi[k + l] / psi[k])
    return tuple(F + G)


def fraction_sum_in_nullspace(sys_, vec):
    """A.v = 0, by plain Fraction row sums."""
    return all(sum((c * vec[j] for j, c in row.coeffs), Fraction(0)) == 0
               for row in sys_.rows)


def cleared(row, ncols):
    """A sparse row of (column, int or Fraction) pairs as the dense
    integer row the elimination kernel takes: its entries over the lcm of
    their denominators, repeated columns summed."""
    entries = list(row)
    den = lcm(*[c.denominator for _, c in entries])
    dense = [0] * ncols
    for j, c in entries:
        dense[j] += c.numerator * (den // c.denominator)
    return dense


def eliminate(rows, ncols, stop_rank):
    """Nullspace basis of dense integer rows, or None once their rank
    reaches ``stop_rank``, with no further row read.

    Otherwise the pivot rows (``solver._echelon``) are back-substituted,
    still over the integers, into the reduced echelon form: each is 0
    before its pivot, so running them through again, last pivot first,
    clears every later pivot column.  That form is unique, so whatever the
    row order or scaling the basis is canonical: 1 at its free column, 0
    at the other free columns, and one Fraction per entry.
    """
    pivots = solver._echelon(rows, stop_rank)
    if pivots is None:
        return None
    # ncols + 1 is a rank no rows reach: every pivot row is read again
    reduced = dict(solver._echelon([r for _, r in sorted(pivots, reverse=True)], ncols + 1))
    return [[Fraction(-reduced[j][f], reduced[j][j]) if j in reduced
             else Fraction(int(j == f))
             for j in range(ncols)]
            for f in range(ncols) if f not in reduced]


def eliminated(rows, ncols):
    """The elimination kernel's basis of sparse rational rows, every row
    read: the kernel stops, returning None, only at full rank."""
    basis = eliminate([cleared(row, ncols) for row in rows], ncols, ncols)
    return [] if basis is None else basis


def echelon_report(prob):
    """(basis, proportionality) of the cell from every row of (3)
    through K - s, with no early stop: the reduced echelon basis, each
    vector divided by its first nonzero entry, and at dimension 1 one
    that matches the root powers (F at degree m, G at degree l, with one
    nonzero constant) divided by that constant instead, with
    proportionality 1.  Matching the first p entries of F and s of G
    decides the match of the whole lifted vector, by rows (1) and (2)."""
    p, s = prob.p, prob.s
    rows = islice(solver._mixed_rows(prob), prob.K - s + 1)
    basis = []
    for theta in eliminate(rows, p + s, p + s + 1):
        lead = next(x for x in theta if x)
        basis.append(tuple([v / lead for v in theta]))
    if len(basis) == 1:
        f = match_root_power(basis[0][:p], prob.m, p, prob.n)
        g = match_root_power(basis[0][p:], prob.l, s, prob.d)
        if f is not None and f == g and f != 0:
            return [tuple([x / f for x in basis[0]])], Fraction(1)
    return basis, None
