"""The certified ratio check on mpmath ``iv`` objects: the tests' oracle for
the exact identity verdicts and for :func:`bergshift.gamma_ratio.eval_ball`.

:func:`oracle_weight` walks the normalized terms with ``Fraction``
arithmetic and ``iv`` objects: ``iv.mpf`` per integer, the quotient per
rational, ``iv.gamma`` per argument, one memo per precision pass.
:func:`ball_ratio` checks left(z) = c * right(z) at sample points with it.
Samples at a pole of either side are skipped.  Two samples with disjoint
ratio enclosures refute proportionality.  A sample is unresolved when its
ratio enclosure is loose, or when the right enclosure contains zero and
the two sides are not both exactly zero.  With no sample unresolved the
verdict is ``proportional`` and the constant is the first ratio; otherwise
the precision is doubled, up to four times, before the verdict is
``inconclusive``.  A ``not_proportional`` verdict is certified by its
witness pair; ``proportional`` is consistency with one constant at the
evaluated samples, not a proof of the identity.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import iv, mp

from bergshift.gamma_ratio import BallValue, WeightExpr, working_precision


@dataclass(frozen=True)
class SampleRow:
    z: Fraction
    left: BallValue
    right: BallValue
    ratio: Optional[BallValue]


@dataclass(frozen=True)
class RatioCheck:
    verdict: str  # proportional | not_proportional | inconclusive
    constant: Optional[BallValue]
    rows: tuple[SampleRow, ...]
    witnesses: tuple[tuple[Fraction, Fraction], ...]
    skipped_poles: tuple[Fraction, ...]
    precision_bits: int


def _is_gamma_pole(arg: Fraction) -> bool:
    return arg <= 0 and arg.denominator == 1


class OracleMemo:
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


def oracle_weight(w: WeightExpr, z0: Fraction, memo: OracleMemo):
    """The interval of w(z0), or None at a pole of some normalized term."""
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


def oracle_ball(x) -> BallValue:
    a = mp.convert(x.a)
    b = mp.convert(x.b)
    mid = (a + b) / 2
    rad = max(mp.fsub(b, mid, rounding="u"), mp.fsub(mid, a, rounding="u"))
    return BallValue(mid, max(rad, mp.mpf(0)))


def oracle_eval(w: WeightExpr, z0: Fraction, precision_bits: int) -> Optional[BallValue]:
    """The ball of w(z0) with a fresh memo, or None at a pole."""
    with working_precision(precision_bits):
        x = oracle_weight(w, z0, OracleMemo())
        return None if x is None else oracle_ball(x)


def ball_ratio(left: WeightExpr, right: WeightExpr, zs: Sequence[Fraction],
               precision_bits: int = 200) -> RatioCheck:
    bits = precision_bits
    for _ in range(5):  # initial try plus four doublings
        with working_precision(bits):
            rows, skipped, ratio_ivs = [], [], []
            unresolved = False
            quality = mp.mpf(2) ** (-max(16, bits // 4))
            memo = OracleMemo()
            for z in zs:
                riv = oracle_weight(right, z, memo)
                liv = None if riv is None else oracle_weight(left, z, memo)
                if liv is None:
                    skipped.append(z)
                    continue
                lball, rball = oracle_ball(liv), oracle_ball(riv)
                if 0 in riv:
                    rows.append(SampleRow(z, lball, rball, None))
                    if not all(x.a == 0 and x.b == 0 for x in (liv, riv)):
                        unresolved = True
                    continue
                q = liv / riv
                qball = oracle_ball(q)
                rows.append(SampleRow(z, lball, rball, qball))
                if qball.rad > quality * max(abs(qball.mid), mp.mpf(1)):
                    unresolved = True
                ratio_ivs.append((z, q))
            witness = next(((za, zb) for j, (za, qa) in enumerate(ratio_ivs)
                            for zb, qb in ratio_ivs[j + 1:] if 0 not in qa - qb), None)
            if witness is not None:
                return RatioCheck("not_proportional", None, tuple(rows), (witness,),
                                  tuple(skipped), bits)
            if not unresolved:
                # with no ratio at all, every sample had both sides exactly zero
                const = oracle_ball(ratio_ivs[0][1]) if ratio_ivs else None
                return RatioCheck("proportional", const, tuple(rows), (), tuple(skipped), bits)
        bits *= 2
    return RatioCheck("inconclusive", None, tuple(rows), (), tuple(skipped), bits // 2)
