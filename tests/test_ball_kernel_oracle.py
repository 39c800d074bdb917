"""The raw-interval kernel of ``gamma_ratio`` against the ``iv``-object
evaluation it replaced, kept here as the oracle.

The oracle walks the normalized terms with ``Fraction`` arithmetic and
mpmath ``iv`` objects: ``iv.mpf`` per integer, the quotient per rational,
``iv.gamma`` per argument, one memo per precision pass.  The kernel must
give the same endpoint tuples for both sides at every sample of every
pass, the same for every interval it makes into a ball (both sides, their
ratio ``q`` and the constant), and the same :class:`RatioCheck`.
"""

from fractions import Fraction

import pytest
from mpmath import iv, mp
from mpmath.libmp import finf, fninf, fone, fzero, from_int, mpf_neg

from bergshift import gamma_ratio
from bergshift.exact_algebra import PoleError, Polynomial, rf_normalize
from bergshift.gamma_ratio import (
    RatioCheck,
    SampleRow,
    WeightExpr,
    ball_ratio,
    eval_ball,
    power_weight,
    working_precision,
)
from bergshift.identities import build_sides

PRECISIONS = (1, 8, 53, 200, 1000)
# Poles of the Gamma atoms at 0 and -2, odd and even integers, and two rationals
# that the library accepts and the CLI never sends.
SAMPLES = [Fraction(z) for z in (0, -2, 3, 4)] + [Fraction(5, 2), Fraction(7, 3)]


# ---------------------------------------------------------------------------
# the oracle: the iv-object evaluation


def _is_gamma_pole(arg: Fraction) -> bool:
    return arg <= 0 and arg.denominator == 1


class _OracleMemo:
    def __init__(self):
        self._ints, self._rationals, self._gammas = {}, {}, {}

    def integer(self, k: int):
        x = self._ints.get(k)
        if x is None:
            x = self._ints[k] = iv.mpf(k)
        return x

    def rational(self, q: Fraction):
        x = self._rationals.get(q)
        if x is None:
            x = self._rationals[q] = self.integer(q.numerator) / self.integer(q.denominator)
        return x

    def gamma(self, arg: Fraction):
        x = self._gammas.get(arg)
        if x is None:
            x = self._gammas[arg] = iv.gamma(self.rational(arg))
        return x


def _oracle_weight(w: WeightExpr, z0: Fraction, memo: _OracleMemo):
    total = memo.integer(0)
    for c, g in w.terms:
        den = c.den.eval(z0)
        if den == 0:
            return None
        num_args = [(z0 + off) / td for td, off in g.num]
        if any(_is_gamma_pole(a) for a in num_args):
            return None
        den_args = [(z0 + off) / td for td, off in g.den]
        if any(_is_gamma_pole(a) for a in den_args):
            continue
        term = memo.rational(c.num.eval(z0)) / memo.rational(den)
        for a in num_args:
            term *= memo.gamma(a)
        for a in den_args:
            term /= memo.gamma(a)
        total += term
    return total


def _oracle_ball(x):
    a = mp.convert(x.a)
    b = mp.convert(x.b)
    mid = (a + b) / 2
    rad = max(mp.fsub(b, mid, rounding="u"), mp.fsub(mid, a, rounding="u"))
    return gamma_ratio.BallValue(mid, max(rad, mp.mpf(0)))


def _oracle_ratio(left, right, zs, precision_bits):
    """The iv-object ratio check; also returns, in evaluation order, each
    side's endpoint tuples (None at a pole) and those of every interval made
    into a ball: both sides, their ratio, and the constant."""
    sides, balled = [], []

    def ball(x):
        balled.append(x._mpi_)
        return _oracle_ball(x)

    bits = precision_bits
    for _ in range(5):
        with working_precision(bits):
            rows, skipped, ratio_ivs = [], [], []
            unresolved = False
            quality = mp.mpf(2) ** (-max(16, bits // 4))
            memo = _OracleMemo()
            for z in zs:
                riv = _oracle_weight(right, z, memo)
                sides.append((bits, z, None if riv is None else riv._mpi_))
                liv = None
                if riv is not None:
                    liv = _oracle_weight(left, z, memo)
                    sides.append((bits, z, None if liv is None else liv._mpi_))
                if liv is None:
                    skipped.append(z)
                    continue
                lball, rball = ball(liv), ball(riv)
                if 0 in riv:
                    rows.append(SampleRow(z, lball, rball, None))
                    if not all(x.a == 0 and x.b == 0 for x in (liv, riv)):
                        unresolved = True
                    continue
                q = liv / riv
                qball = ball(q)
                rows.append(SampleRow(z, lball, rball, qball))
                if qball.rad > quality * max(abs(qball.mid), mp.mpf(1)):
                    unresolved = True
                ratio_ivs.append((z, q))
            witness = next(((za, zb) for j, (za, qa) in enumerate(ratio_ivs)
                            for zb, qb in ratio_ivs[j + 1:] if 0 not in qa - qb), None)
            if witness is not None:
                check = RatioCheck("not_proportional", None, tuple(rows), (witness,),
                                   tuple(skipped), bits)
                return check, sides, balled
            if not unresolved:
                const = ball(ratio_ivs[0][1]) if ratio_ivs else None
                check = RatioCheck("proportional", const, tuple(rows), (), tuple(skipped), bits)
                return check, sides, balled
        bits *= 2
    check = RatioCheck("inconclusive", None, tuple(rows), (), tuple(skipped), bits // 2)
    return check, sides, balled


# ---------------------------------------------------------------------------
# comparison


def _raw_ball(b):
    return None if b is None else (b.mid._mpf_, b.rad._mpf_)


def _raw_check(check: RatioCheck):
    """Every field of a check, with each ball as its exact mpf tuples."""
    rows = [(r.z, _raw_ball(r.left), _raw_ball(r.right), _raw_ball(r.ratio)) for r in check.rows]
    return (check.verdict, _raw_ball(check.constant), rows, check.witnesses,
            check.skipped_poles, check.precision_bits)


def _kernel_ratio(left, right, zs, bits, monkeypatch):
    """ball_ratio, recording the kernel's side intervals and every interval
    it makes into a ball, in evaluation order."""
    sides, balled = [], []
    interval_at, ball = gamma_ratio._interval_at, gamma_ratio._ball

    def interval_spy(w, u, v, memo):
        x = interval_at(w, u, v, memo)
        sides.append((memo.bits, Fraction(u, v), x))
        return x

    def ball_spy(x, bits):
        balled.append(x)
        return ball(x, bits)

    with monkeypatch.context() as m:
        m.setattr(gamma_ratio, "_interval_at", interval_spy)
        m.setattr(gamma_ratio, "_ball", ball_spy)
        check = ball_ratio(left, right, zs, bits)
    return check, sides, balled


def _assert_same(left, right, zs, bits, monkeypatch):
    expected, sides, balled = _oracle_ratio(left, right, zs, bits)
    check, kernel_sides, kernel_balled = _kernel_ratio(left, right, zs, bits, monkeypatch)
    assert kernel_sides == sides
    assert kernel_balled == balled
    assert _raw_check(check) == _raw_check(expected)
    return check


def _ball_path_instances():
    """The sides of every instance of the grid that takes the ball path."""
    out = []
    for scenario in ("commutator", "factored", "functional"):
        for s in range(2, 6):
            for p in range(1, s):
                if scenario == "factored" and s != 2 * p:
                    continue
                for n in range(1, 5):
                    for d in range(1, 5):
                        for m in range(1, 4):
                            left, right = build_sides(scenario, p, s, n, d, m, m + s - p)
                            if not (left.is_rational and right.is_rational):
                                out.append((scenario, left, right))
    return out


BALL_PATH = _ball_path_instances()


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("scenario", ("commutator", "factored", "functional"))
def test_identity_grid_matches_the_oracle(scenario, bits, monkeypatch):
    """Each instance of the grid at one starting precision, taken in turn,
    so that every instance and every precision is checked."""
    turn = PRECISIONS.index(bits)
    instances = [inst for i, inst in enumerate(BALL_PATH)
                 if inst[0] == scenario and i % len(PRECISIONS) == turn]
    assert instances
    poles = 0
    for _, left, right in instances:
        check = _assert_same(left, right, SAMPLES, bits, monkeypatch)
        poles += bool(check.skipped_poles)
    assert poles  # the grid covers samples at poles


def _zero_at_4(w: WeightExpr) -> WeightExpr:
    return w * WeightExpr.from_rational(rf_normalize(Polynomial.z_plus(-4), Polynomial.one()))


def test_proportional_zero_and_inconclusive_paths_match_the_oracle(monkeypatch):
    w, v = power_weight(3, 2, 5), power_weight(2, 3, 1)
    pairs = [
        (w, w.scale(Fraction(3, 7))),                  # proportional
        (_zero_at_4(w), _zero_at_4(w).scale(-2)),      # both sides exactly 0 at z = 4
        (_zero_at_4(w), _zero_at_4(v)),                # only the right side 0 at z = 4
        (w + v, v.scale(5) + w.scale(5)),              # two terms each side
        (WeightExpr.zero(), w),
    ]
    verdicts = set()
    for bits in PRECISIONS:
        for left, right in pairs:
            verdicts.add(_assert_same(left, right, SAMPLES, bits, monkeypatch).verdict)
    assert verdicts == {"proportional", "not_proportional", "inconclusive"}


@pytest.mark.parametrize("bits", PRECISIONS)
def test_eval_ball_matches_the_oracle(bits):
    weights = [power_weight(3, 2, 5), *build_sides("functional", 1, 3, 1, 2, 1, 3),
               *build_sides("factored", 2, 4, 1, 3, 1, 3)]
    for w in weights:
        for z in SAMPLES + [Fraction(-1, 2), Fraction(1)]:
            with working_precision(bits):
                x = _oracle_weight(w, z, _OracleMemo())
                expected = None if x is None else _raw_ball(_oracle_ball(x))
            if expected is None:
                with pytest.raises(PoleError):
                    eval_ball(w, z, bits)
            else:
                assert _raw_ball(eval_ball(w, z, bits)) == expected


@pytest.mark.parametrize("bits", PRECISIONS)
def test_ball_of_special_intervals_matches_the_oracle(bits):
    big = from_int(3 ** 700)
    intervals = [(fzero, fzero), (fone, fone), (fninf, finf), (fzero, finf), (fninf, fzero),
                 (mpf_neg(big), fone), (fone, big), (from_int(-7), from_int(-3))]
    with working_precision(bits):
        for x in intervals:
            assert _raw_ball(gamma_ratio._ball(x, bits)) == _raw_ball(_oracle_ball(iv.make_mpf(x)))
            assert gamma_ratio._has_zero(x) == (0 in iv.make_mpf(x))


def test_the_oracle_sees_rational_coefficients():
    # a coefficient with a non-integer value at an integer sample
    c = rf_normalize(Polynomial.from_coeffs([Fraction(1, 3), Fraction(2, 5)]),
                     Polynomial.from_coeffs([Fraction(7, 2), 1]))
    w = WeightExpr.build([(c, power_weight(3, 2, 5).terms[0][1])])
    for bits in PRECISIONS:
        with working_precision(bits):
            for z in SAMPLES + [Fraction(-7, 2)]:
                x = _oracle_weight(w, z, _OracleMemo())
                got = gamma_ratio._interval_at(w, z.numerator, z.denominator,
                                               gamma_ratio._IntervalMemo(bits))
                assert got == (None if x is None else x._mpi_)
