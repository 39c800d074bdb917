"""The three benchmark workloads: seeded inputs, timed calls, reference checks.

Each workload produces an endless stream of cases from ``random.Random(seed)``
in rounds of fixed composition, so every stretch of a run sees the same mix
of case kinds and only the parameters inside each kind change with the
seed.  A case is run by :meth:`Workload.run`, which touches the package only
through its public functions and ``cli.dispatch`` and is the only part that
is timed; :meth:`Workload.check` then compares the result with an answer
from :mod:`reference` and returns the disagreements.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator

import reference as ref

#: Working precision of every certified evaluation the workloads request.
BITS = 200


@dataclass(frozen=True)
class Case:
    kind: str
    params: tuple
    argv: tuple[str, ...] = ()  # CLI invocation, empty for library cases

    def describe(self) -> str:
        return " ".join(self.argv) if self.argv else f"{self.kind}{self.params}"


class Failure(Exception):
    """The package misbehaved in a way that is not a verdict: it raised,
    exited with a usage code, or printed something that is not a report."""


def run_cli(bs, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bs.cli.dispatch(list(argv))
    return code, out.getvalue()


def _cli_payload(code: int, text: str) -> dict:
    if code not in (0, 1, 2):
        raise Failure(f"exit code {code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise Failure(f"stdout is not a JSON report: {exc}") from None


def _symbol(rng: random.Random) -> tuple[str, tuple[tuple[Fraction, Fraction], ...]]:
    """A radial symbol of 1-3 terms with fractional exponents, as the text
    ``parse_symbol`` reads and as the exact term list the reference uses."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = Fraction(rng.randint(1, 5), rng.choice((1, 1, 2, 3)))
        e = Fraction(rng.randint(1, 8), 2)
        terms.append((c, e))
    text = " + ".join(f"{c}*r^{e}" for c, e in terms)
    return text, tuple(terms)


class Workload:
    name = ""
    #: Fixed case run once in set-up, whatever the seed.
    warmup: Case

    def round(self, rng: random.Random) -> list[Case]:
        raise NotImplementedError

    def cases(self, seed: int) -> Iterator[Case]:
        rng = random.Random(seed)
        while True:
            yield from self.round(rng)

    def run(self, bs, case: Case) -> Any:
        raise NotImplementedError

    def check(self, case: Case, result: Any) -> list[str]:
        raise NotImplementedError

    def probe_argv(self, seed: int) -> tuple[str, ...]:
        """CLI invocation re-issued once per run for the determinism probe."""
        return next(c.argv for c in self.cases(seed) if c.argv)


# ---------------------------------------------------------------------------


_PAIRS = [(p, s) for s in range(2, 7) for p in range(1, s)]


def _theorem(p: int, s: int, n: int, d: int) -> Case:
    argv = ("verify-theorem", "--p", str(p), "--s", str(s), "--n", str(n),
            "--d", str(d), "--bound", "8", "--K", "60")
    return Case("verify-theorem", (p, s, n, d), argv)


class Commutant(Workload):
    """``verify-theorem`` at bound 8, K = 60 through the CLI."""

    name = "commutant"
    ACCEPTANCE = ((1, 2, 2, 3), (2, 4, 3, 5), (1, 2, 3, 6))
    warmup = _theorem(*ACCEPTANCE[0])

    def round(self, rng):
        # A run covers about one round, so the order is fixed and every seed
        # covers the same mix.  Cost depends on (p, s), so every pair is in
        # each round.  Instances with a pure shift (n = p or d = s) cost a
        # third to a half as much; a fixed number of them ends each round, so
        # a run on a fast or a slow spell of the host, which completes more or
        # fewer cases, still covers about the same share of them.
        def other_than(x):
            return rng.choice([v for v in range(1, 7) if v != x])

        cases = [_theorem(*inst) for inst in self.ACCEPTANCE]
        cases += [_theorem(p, s, other_than(p), other_than(s)) for p, s in _PAIRS]
        for _ in range(2):
            p, s = rng.choice(_PAIRS)
            n, d = (p, other_than(s)) if rng.random() < 0.5 else (other_than(p), s)
            cases.append(_theorem(p, s, n, d))
        p, s = rng.choice(_PAIRS)
        return cases + [_theorem(p, s, p, s)]

    def run(self, bs, case):
        return run_cli(bs, case.argv)

    def check(self, case, result):
        code, text = result
        return ref.theorem_errors(*case.params, code, _cli_payload(code, text))


# ---------------------------------------------------------------------------


class Algebra(Workload):
    """Operator-algebra laws, root telescoping and rationality decisions,
    called in process through the library."""

    name = "algebra"
    warmup = Case("jacobi", (("symbol", 1, "r^2"), ("symbol", 2, "2*r^3/2 + r"), ("root", 2, 3),
                             Fraction(1), Fraction(-2)))

    @staticmethod
    def _operator_spec(rng):
        if rng.random() < 0.25:
            return ("root", rng.randint(1, 3), rng.randint(1, 6))
        text, _ = _symbol(rng)
        return ("symbol", rng.randint(0, 3), text)

    @staticmethod
    def _scalar(rng):
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))

    def round(self, rng):
        cases = []
        for law in ("associativity", "antisymmetry", "bilinearity", "jacobi"):
            for _ in range(2):
                ops = tuple(self._operator_spec(rng) for _ in range(3))
                cases.append(Case(law, ops + (self._scalar(rng), self._scalar(rng))))
        for _ in range(2):
            cases.append(Case("telescoping", (rng.randint(1, 4), rng.randint(1, 6))))
        for _ in range(4):
            offsets = tuple(rng.randint(0, 12) for _ in range(4))
            cases.append(Case("rationality", offsets + (rng.randint(1, 3),)))
        rng.shuffle(cases)
        return cases

    @staticmethod
    def _build(bs, spec):
        if spec[0] == "root":
            return bs.root_operator(spec[1], spec[2])
        return bs.quasihomogeneous_operator(spec[1], bs.parse_symbol(spec[2]))

    def run(self, bs, case):
        if case.kind == "rationality":
            a, b, c, d, delta = case.params
            return bs.rationality_oracle(bs.GammaRatioExpr.of(2 * delta, [a, b], [c, d]))
        if case.kind == "telescoping":
            p, n = case.params
            root = bs.root_operator(p, n)
            power = bs.ShiftSum.identity()
            for _ in range(p):
                power = bs.compose(root, power)
            return power.degrees, power.weight_at(p).as_rational()
        a, b, c = (self._build(bs, spec) for spec in case.params[:3])
        x, y = case.params[3:]
        comm, lin = bs.commutator, bs.linear_combine
        if case.kind == "associativity":
            terms = [(1, bs.compose(bs.compose(a, b), c)), (-1, bs.compose(a, bs.compose(b, c)))]
        elif case.kind == "antisymmetry":
            terms = [(1, comm(a, b)), (1, comm(b, a))]
        elif case.kind == "bilinearity":
            terms = [(1, comm(lin([(x, a), (y, b)]), c)),
                     (-x, comm(a, c)), (-y, comm(b, c))]
        else:
            terms = [(1, comm(a, comm(b, c))), (1, comm(b, comm(c, a))),
                     (1, comm(c, comm(a, b)))]
        return lin(terms).is_zero

    def check(self, case, result):
        if case.kind == "rationality":
            expected = ref.rational_criterion(*case.params)
            return [] if result == expected else [f"rational: expected {expected}, got {result}"]
        if case.kind == "telescoping":
            p, n = case.params
            degrees, rf = result
            if degrees != (p,) or rf is None:
                return [f"telescoped degrees {degrees}, rational part {rf}"]
            if not ref.equals_monomial_weight(rf.num.coeffs, rf.den.coeffs, p, n):
                return [f"telescoped weight {rf} is not (z+{2 * p})/(z+{p + n})"]
            return []
        return [] if result is True else [f"{case.kind} law reported violated"]

    def probe_argv(self, seed):
        specs = (spec for case in itertools.islice(self.cases(seed), 64)
                 if case.kind not in ("rationality", "telescoping")
                 for spec in case.params[:3] if spec[0] == "symbol")
        (_, da, sa), (_, db, sb) = next(specs), next(specs)
        return ("commutator", "--a", f"{da}:{sa}", "--b", f"{db}:{sb}")


# ---------------------------------------------------------------------------


def _identity(scenario: str, p: int, s: int, n: int, d: int, m: int) -> Case:
    l = m + s - p
    argv = ("identity-check", "--id", scenario, "--p", str(p), "--s", str(s),
            "--n", str(n), "--d", str(d), "--m", str(m), "--l", str(l),
            "--samples", "50", "--precision-bits", str(BITS))
    return Case("identity-check", (p, s, n, d, m), argv)


class Identities(Workload):
    """Identity checks and quadrature cross-checks through the CLI, and
    certified ``eval_ball`` calls on root-power weights."""

    name = "identities"
    warmup = _identity("commutator", 1, 2, 2, 3, 2)  # takes the ball path

    def round(self, rng):
        def params():
            p, s = rng.choice(_PAIRS)
            return p, s, rng.randint(1, 6), rng.randint(1, 6)

        def other_than(p):
            return rng.choice([m for m in range(1, 5) if m != p])

        def mismatched(gamma: bool):
            # m != p.  Both sides reduce to rational functions exactly when both
            # root powers do; otherwise the decision takes the certified ball path.
            while True:
                p, s, n, d = params()
                m = other_than(p)
                if ref.root_powers_rational(p, s, n, d, m) != gamma:
                    return p, s, n, d, m

        # Ball-path refutations take most of the time and are kept a clear
        # majority, so the median case is one of them in every round.
        cases = []
        for scenario in ("commutator", "functional"):
            cases += [_identity(scenario, *mismatched(gamma=True)) for _ in range(6)]
            cases.append(_identity(scenario, *mismatched(gamma=False)))
            p, s, n, d = params()
            cases.append(_identity(scenario, p, s, n, d, p))
        p, s, _, _ = params()
        cases.append(_identity("commutator", p, s, p, s, other_than(p)))  # commuting pair
        for m_is_p in (False, True):
            p = rng.randint(1, 3)
            _, _, n, d = params()
            cases.append(_identity("factored", p, 2 * p, n, d, p if m_is_p else other_than(p)))
        qp, qk = rng.randint(0, 3), rng.randint(0, 10)
        text, terms = _symbol(rng)
        cases.append(Case("oracle-quadrature", (qp, qk, terms),
                          ("oracle-quadrature", "--p", str(qp), "--symbol", text, "--k", str(qk))))
        balls = tuple((rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 6), rng.randint(0, 20))
                      for _ in range(4))
        cases.append(Case("eval_ball", balls))
        rng.shuffle(cases)
        return cases

    def run(self, bs, case):
        if case.kind == "eval_ball":
            return [bs.eval_ball(bs.power_weight(m, p, n), Fraction(2 * k + 2), BITS)
                    for m, p, n, k in case.params]
        return run_cli(bs, case.argv)

    def check(self, case, result):
        if case.kind == "eval_ball":
            errors = []
            for (m, p, n, k), ball in zip(case.params, result):
                value = ref.power_weight_value(m, p, n, k, 2 * BITS)
                if not ref.ball_contains(ball.mid, ball.rad, value, 2 * BITS):
                    errors.append(f"power_weight({m},{p},{n}) at k={k}: {ball} misses {value}")
            return errors
        code, text = result
        payload = _cli_payload(code, text)
        if case.kind == "oracle-quadrature":
            p, k, terms = case.params
            if code != 0:
                return [f"quadrature exit {code}: {payload}"]
            error = abs(Fraction(payload["oracle"]) - ref.symbol_weight(p, terms, k))
            if payload["ok"] and error <= Fraction(1, 10**10):
                return []
            return [f"quadrature off by {float(error):.3g} (ok={payload['ok']})"]
        expected = ref.identity_verdict(*case.params)
        expected_code = 0 if expected == "proportional" else 1
        if payload["verdict"] == expected and code == expected_code:
            return []
        return [f"verdict {payload['verdict']!r} exit {code}, expected {expected!r} exit {expected_code}"]


WORKLOADS = {w.name: w for w in (Commutant(), Algebra(), Identities())}
