"""The commutant solver against the commutator identity: two derivations,
one verdict.

The two sides share only ``exact_algebra`` and ``gamma_ratio.power_weight``.
The solver eliminates the rows it generates from its pins; the identity
is built by ``shift_algebra.compose``/``commutator`` and decided by
``identities.verify_identity``.  A proportional commutator identity yields
a solution vector, so "proportional implies dim >= 1" is a theorem; the
converse is what every cell of the grid shows.
"""

from bergshift.identities import verify_identity
from bergshift.solver import CommutantProblem, commuting_pair, nullspace

K = 60


def _cells():
    for s in range(2, 6):
        for p in range(1, s):
            for n in range(1, 4):
                for d in range(1, 4):
                    if commuting_pair(p, n, s, d):
                        continue
                    for m in range(1, 7):
                        yield p, s, n, d, m, m + s - p


def test_nullspace_dimension_agrees_with_the_commutator_identity():
    seen = set()
    for p, s, n, d, m, l in _cells():
        dim = nullspace(CommutantProblem(p, s, n, d, m, l, K)).dimension
        rep = verify_identity("commutator", p, s, n, d, m, l)
        cell = (p, s, n, d, m, l, dim, rep.verdict)
        if rep.verdict == "proportional":
            assert dim >= 1, cell
        assert (dim == 0) == (rep.verdict == "not_proportional"), cell
        assert rep.exact, cell
        seen.add(rep.verdict)
    assert seen == {"proportional", "not_proportional"}
