"""Closed-loop benchmark of bergshift: one client, one case at a time.

    python3 bench/run.py --workload commutant|algebra|identities \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed only generates inputs.  Every case's verdict is checked
against an answer the benchmark computes itself (``reference.py``); cases
that raise, exit with a usage code, change mpmath's working precision, or
fail the determinism probe count as failed.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs every
case twice, once with spans around the package's public functions
(``spans.py``), and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a stamped copy of the full result goes to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

from spans import TRACED, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, Failure, run_cli  # noqa: E402

#: Set-ups measured per untraced run (this process plus fresh interpreters);
#: setup_s is their median.
SETUP_REPEATS = 5

#: Percentiles tried for case_tail_ms, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = {"setup_s": "s", "cases_per_s": "1/s", "case_p50_ms": "ms",
              "case_tail_ms": "ms", "peak_rss_mib": "MiB"}


def setup(workload, seed: int):
    """Import the package, generate the first round of seeded inputs (later
    rounds are generated between cases, outside the timed calls) and run the
    workload's fixed warm-up case, which also fills mpmath's Gamma caches.
    Returns (package, seconds, warm-up case, warm-up result)."""
    start = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mpmath  # noqa: F401
    import bergshift
    import bergshift.cli  # noqa: F401

    next(workload.cases(seed))
    case = workload.warmup
    try:
        result = workload.run(bergshift, case)
    except Exception as exc:  # judged like any other case
        result = exc
    return bergshift, perf_counter() - start, case, result


def rank(n: int, q: float) -> int:
    """Nearest-rank position (1-based) of the q-th percentile of n values."""
    return max(1, math.ceil(n * q / 100))


def tail(sorted_values) -> tuple[float, float]:
    """(percentile, value): the highest percentile in TAIL_PERCENTILES with at
    least 10 cases beyond it.  With fewer than 20 cases no tail above the
    median has that many; then it is the highest percentile of any kind
    with 10 cases beyond, or the minimum."""
    n = len(sorted_values)
    for q in TAIL_PERCENTILES:
        if n - rank(n, q) >= 10:
            return q, sorted_values[rank(n, q) - 1]
    if n > 10:
        return 100.0 * (n - 10) / n, sorted_values[n - 11]
    return 0.0, sorted_values[0]


class Tally:
    """Verdict and failure bookkeeping shared by every phase of a run."""

    def __init__(self):
        self.attempted = 0
        self.wrong: list[str] = []
        self.failed: list[str] = []

    def judge(self, workload, case, result, precision_changed: str | None) -> None:
        """Count the case; record at most one failure and one wrong verdict."""
        self.attempted += 1
        problems = [precision_changed] if precision_changed else []
        errors = []
        if isinstance(result, Exception):
            problems.append(f"raised {result!r}")
        else:
            try:
                errors = workload.check(case, result)
            except (Failure, KeyError, TypeError, ValueError) as exc:  # malformed report
                problems.append(repr(exc))
        if problems:
            self.failed.append(f"{case.describe()}: {'; '.join(problems)}")
        if errors:
            self.wrong.append(f"{case.describe()}: {'; '.join(errors)}")


def precision_state():
    from mpmath import iv, mp
    return mp.prec, iv.prec


def restore_precision(state) -> None:
    from mpmath import iv, mp
    mp.prec, iv.prec = state


def execute(workload, bs, case, tally, tracer=None):
    """Run one case, timed, with spans if ``tracer`` is given; judge it.
    Returns (seconds, result)."""
    before = precision_state()
    if tracer is not None:
        tracer.enable()
    start = perf_counter()
    try:
        result = workload.run(bs, case)
    except Exception as exc:  # a failed case, recorded by the tally
        result = exc
    elapsed = perf_counter() - start
    if tracer is not None:
        tracer.disable()
    if isinstance(result, Exception):
        traceback.print_exception(result, file=sys.stderr)
    after = precision_state()
    changed = None
    if after != before:
        changed = f"mpmath precision (mp, iv) changed from {before} to {after}"
        restore_precision(before)
    if tracer is not None:
        out = len(result[1]) if case.argv and not isinstance(result, Exception) else 0
        tracer.end_case(elapsed, out)
    tally.judge(workload, case, result, changed)
    return elapsed, result


def closed_loop(workload, bs, seed, seconds, tally, tracer=None, max_cases=None):
    """Run cases back to back for ``seconds``.  With a tracer, every case
    runs twice in a row, untraced and traced in alternating order, so the
    tracing overhead is measured on the same cases at nearly the same time.
    Returns (untraced times, traced times, (argv, stdout) of the first CLI
    case or None)."""
    times: list[float] = []
    traced_times: list[float] = []
    first_output = None
    cases = workload.cases(seed)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline and (max_cases is None or len(times) < max_cases):
        case = next(cases)
        modes = (None,) if tracer is None else (None, tracer) if len(times) % 2 else (tracer, None)
        for mode in modes:
            elapsed, result = execute(workload, bs, case, tally, mode)
            (times if mode is None else traced_times).append(elapsed)
        if case.argv and first_output is None and not isinstance(result, Exception):
            first_output = (case.argv, result[1])
    return times, traced_times, first_output


def determinism_probe(workload, bs, seed, first_output, tally) -> None:
    """Re-issue one CLI invocation and require byte-identical stdout."""
    argv = workload.probe_argv(seed)
    if first_output is None or first_output[0] != argv:
        first_output = (argv, run_cli(bs, argv)[1])
    tally.attempted += 1
    if run_cli(bs, argv)[1] != first_output[1]:
        tally.failed.append(f"{' '.join(argv)}: stdout differs between identical invocations")


def setup_probe(workload_name: str, seed: int) -> float:
    """Set-up seconds of a fresh interpreter, via ``--setup-probe``."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload_name: str, seed: int, seconds: float, trace: int) -> dict:
    import mpmath
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, max_cases=None) -> dict:
    """One benchmark run; returns the full result (see ``main`` for output)."""
    workload = WORKLOADS[workload_name]
    tally = Tally()
    bs, setup_s, warm_case, warm_result = setup(workload, seed)
    tally.judge(workload, warm_case, warm_result, None)
    result = {"stamp": stamp(workload_name, seed, seconds, int(trace))}

    if not trace:
        setups = [setup_s] + [setup_probe(workload_name, seed) for _ in range(setup_repeats - 1)]
        times, _, first_output = closed_loop(workload, bs, seed, seconds, tally, max_cases=max_cases)
        determinism_probe(workload, bs, seed, first_output, tally)
        ordered = sorted(times)
        q, tail_value = tail(ordered)
        metrics = {
            "setup_s": statistics.median(setups),
            "cases_per_s": len(times) / sum(times),
            "case_p50_ms": ordered[rank(len(ordered), 50) - 1] * 1000,
            "case_tail_ms": tail_value * 1000,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        result["samples"] = {"cases": len(times), "tail_percentile": q, "setups": setups}
    else:
        tracer = Tracer()
        tracer.bind([bs] + [getattr(bs, m) for m in TRACED])
        try:
            times, traced, first_output = closed_loop(
                workload, bs, seed, seconds, tally, tracer, max_cases)
        finally:
            tracer.disable()
        determinism_probe(workload, bs, seed, first_output, tally)
        metrics = tracer.metrics(len(traced) / sum(traced), len(times) / sum(times))
        units = dict(per_layer_metrics())
        result["samples"] = {"cases": len(times)}
        result["spans_file"] = f"{workload_name}-seed{seed}-spans.json.gz"
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / result["spans_file"])

    wrong_ratio = len(tally.wrong) / tally.attempted
    failed_ratio = len(tally.failed) / tally.attempted
    result.update({
        "correct": not tally.wrong and not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "verdicts": {"wrong_verdict_ratio": wrong_ratio, "failed_ratio": failed_ratio,
                     "wrong": tally.wrong, "failures": tally.failed},
    })
    return result


def report(result: dict) -> None:
    """Print the human-readable table, then the one-line JSON summary."""
    for text in result["verdicts"]["wrong"]:
        print(f"WRONG VERDICT {text}", file=sys.stderr)
    for text in result["verdicts"]["failures"]:
        print(f"FAILED {text}", file=sys.stderr)
    name = result["stamp"]["workload"]
    samples = result["samples"]
    for key, metric in result["metrics"].items():
        note = ""
        if key == "case_p50_ms":
            note = f"  (n={samples['cases']})"
        elif key == "case_tail_ms":
            note = f"  (p{samples['tail_percentile']:g}, n={samples['cases']})"
        print(f"{name:<11} {key:<44} {metric['value']:>14.6g} {metric['unit']}{note}")
    for key in ("wrong_verdict_ratio", "failed_ratio"):
        print(f"{name:<11} {key:<44} {result['verdicts'][key]:>14.6g} ratio"
              f"  (of {result['attempted']} attempted)")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "bergshift" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(setup(WORKLOADS[args.workload], args.seed)[1])
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
