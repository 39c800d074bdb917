"""Test-side oracles for the commutant solver's theta basis.

``nullspace`` reports each basis vector in the p + s parameters theta =
(F[0..p-1], G[0..s-1]).  :func:`lift` extends theta to F_0..F_K,
G_0..G_K by rows (1) and (2), from samples of the weight functions
rather than from the solver's pins, so re-multiplying the lifted vector
against ``build_system`` compares two derivations of the samples.
"""

from fractions import Fraction

from bergshift.exact_algebra import rf_eval
from bergshift.solver import monomial_weight


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
