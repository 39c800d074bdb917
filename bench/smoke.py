"""Fast self-test of the benchmark: ``python3 bench/smoke.py`` from the root
of a checkout; exits non-zero with a message on the first problem.

Runs every workload for a few cases with tracing off and on, checks that
the metrics declared in BENCHMARK.json are exactly the ones emitted, and
that the reference checks and soundness probes reject deliberately wrong
verdicts, a changed mpmath precision and non-deterministic output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Case, Workload  # noqa: E402

SEED = 7


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: {message}")


def declared() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "workloads": {w["name"] for w in spec["workloads"]}}


def runs_and_metrics(spec) -> None:
    check(spec["workloads"] == set(WORKLOADS), "BENCHMARK.json workloads differ from WORKLOADS")
    for name in WORKLOADS:
        for trace in (False, True):
            result = run.run(name, SEED, seconds=60, trace=trace, setup_repeats=2,
                             max_cases=1 if name == "commutant" else 6)
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            check(emitted == spec[str(int(trace))],
                  f"{name} trace={int(trace)} emits {sorted(set(emitted) ^ set(spec[str(int(trace))]))} "
                  "differently from BENCHMARK.json")
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={int(trace)}: {result['verdicts']}")
            check(all(m["value"] > 0 for k, m in result["metrics"].items() if not trace),
                  f"{name}: an end-to-end metric reads 0")
            if trace:
                layers = [k for k in result["metrics"] if k.endswith(".self_ms") and k.count(".") == 1]
                busy = [k for k in layers if result["metrics"][k]["value"] > 0]
                check(busy, f"{name}: no layer self time recorded")
                print(f"smoke: {name} trace=1 busy layers {', '.join(k.split('.')[0] for k in busy)}")
            else:
                print(f"smoke: {name} trace=0 ok, {result['samples']['cases']} cases")


def _flip_json(text: str, key: str, new) -> str:
    payload = json.loads(text)
    payload[key] = new
    return json.dumps(payload)


def wrong_verdicts_rejected() -> None:
    """Every kind of case: the real result passes, a falsified one does not."""
    bs = run.setup(WORKLOADS["algebra"], SEED)[0]
    falsify = {
        "verify-theorem": lambda r: (1, _flip_json(r[1], "status", "fail")),
        "identity-check": lambda r: (r[0], _flip_json(
            r[1], "verdict", {"proportional": "not_proportional"}.get(json.loads(r[1])["verdict"], "proportional"))),
        "oracle-quadrature": lambda r: (r[0], _flip_json(r[1], "oracle", "1" + json.loads(r[1])["oracle"])),
        "eval_ball": lambda r: [SimpleNamespace(mid=b.mid * 2, rad=b.rad) for b in r],
        "rationality": lambda r: not r,
        "telescoping": lambda r: (r[0], bs.RationalFunction.one()),
        "associativity": lambda r: False,
        "antisymmetry": lambda r: False,
        "bilinearity": lambda r: False,
        "jacobi": lambda r: False,
    }
    seen = set()
    for workload in WORKLOADS.values():
        for case in itertools.islice(workload.cases(SEED), 40):
            if case.kind in seen:
                continue
            seen.add(case.kind)
            result = workload.run(bs, case)
            check(workload.check(case, result) == [], f"true result rejected: {case.describe()}")
            check(workload.check(case, falsify[case.kind](result)) != [],
                  f"falsified result accepted: {case.describe()}")
    check(seen == set(falsify), f"case kinds not covered: {set(falsify) - seen}")
    print(f"smoke: reference checks reject falsified results of {len(seen)} case kinds")


class _PrecisionLeak(Workload):
    name = "precision-leak"

    def round(self, rng):
        return [Case("leak", ())]

    def run(self, bs, case):
        from mpmath import mp
        mp.prec += 1

    def check(self, case, result):
        return []


def probes_detect_faults() -> None:
    tally = run.Tally()
    with contextlib.redirect_stderr(io.StringIO()):
        run.closed_loop(_PrecisionLeak(), None, SEED, 5, tally, max_cases=2)
    check(len(tally.failed) == 2, "a changed mpmath precision was not counted as failed")

    counter = itertools.count()

    def dispatch(argv):
        print(next(counter))
        return 0

    tally = run.Tally()
    fake = SimpleNamespace(cli=SimpleNamespace(dispatch=dispatch))
    run.determinism_probe(WORKLOADS["algebra"], fake, SEED, None, tally)
    check(len(tally.failed) == 1, "differing stdout was not counted as failed")
    print("smoke: precision and determinism probes count faults")


def main() -> int:
    spec = declared()
    wrong_verdicts_rejected()
    probes_detect_faults()
    runs_and_metrics(spec)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
