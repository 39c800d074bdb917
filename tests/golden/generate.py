"""Golden corpus of the solver commands: argv, output hashes, exit code.

Each line of ``solver_cli.jsonl`` holds one ``verify-theorem`` or ``scan``
invocation and what it gave: the sha256 of its stdout and of its stderr
and its exit code.  ``tests/test_golden.py`` replays every line in process
and compares.  The corpus covers

* a fixed-seed sample of the grid p < s <= 6, n, d in 1..6 at K = 40, 60,
* every pure-shift pair (n = p, d = s), the instances outside the
  hypotheses,
* the smallest truncations, where a count above its floor is re-counted,
* K = 1000 on the acceptance instances, and
* the inputs that exit 64.

Regenerate it only with a change that alters the JSON or the exit codes
on purpose, and list the entries that changed with it::

    python tests/golden/generate.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "solver_cli.jsonl"
SEED = 20241018
SAMPLES_PER_K = 30


def _argv(command: str, p: int, s: int, n: int, d: int, bound: int, K: int) -> list[str]:
    return [command, "--p", str(p), "--s", str(s), "--n", str(n), "--d", str(d),
            "--bound", str(bound), "--K", str(K)]


def corpus_argvs() -> list[list[str]]:
    """Every invocation of the corpus, in a fixed order."""
    grid = [(p, s, n, d) for s in range(2, 7) for p in range(1, s)
            for n in range(1, 7) for d in range(1, 7)]
    rng = random.Random(SEED)
    argvs = []
    for K in (40, 60):
        for command in ("verify-theorem", "scan"):
            for inst in rng.sample(grid, SAMPLES_PER_K):
                argvs.append(_argv(command, *inst, 8, K))
    for s in range(2, 7):
        for p in range(1, s):
            for command in ("verify-theorem", "scan"):
                argvs.append(_argv(command, p, s, p, s, 8, 40))
    # Smallest truncations: cells above their proved floor are re-counted.
    for p, s, n, d in ((1, 2, 2, 3), (2, 4, 3, 5), (1, 3, 2, 2), (2, 3, 1, 4)):
        for K in (s, s + 1, s + 3):
            for command in ("verify-theorem", "scan"):
                argvs.append(_argv(command, p, s, n, d, K, K))
    for p, s, n, d in ((1, 2, 2, 3), (2, 4, 3, 5), (1, 2, 3, 6), (3, 5, 2, 1), (1, 6, 4, 2)):
        argvs.append(_argv("verify-theorem", p, s, n, d, 8, 1000))
    argvs.append(["--output", "text"] + _argv("verify-theorem", 1, 2, 2, 3, 8, 40))
    argvs.append(["--output", "text"] + _argv("scan", 2, 4, 3, 5, 8, 40))
    # Inputs that exit 64: bound > K, K > 1000, n or d > 1000, p >= s, and
    # a scan bound below s - p + 1; verify-theorem fails that last one.
    for command in ("verify-theorem", "scan"):
        argvs += [
            _argv(command, 1, 2, 2, 3, 41, 40),
            _argv(command, 1, 2, 2, 3, 8, 1001),
            _argv(command, 1, 2, 1001, 3, 8, 40),
            _argv(command, 1, 2, 2, 1001, 8, 40),
            _argv(command, 2, 2, 2, 3, 8, 40),
            _argv(command, 1, 6, 2, 3, 5, 40),
        ]
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]  # first of duplicates


def capture(argv: list[str]) -> dict:
    """Run one CLI invocation in process; its corpus entry."""
    from bergshift.cli import dispatch

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    return {
        "argv": list(argv),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "exit": code,
    }


def load() -> list[dict]:
    with CORPUS.open() as f:
        return [json.loads(line) for line in f]


def main() -> None:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    with CORPUS.open("w") as f:
        for argv in corpus_argvs():
            f.write(json.dumps(capture(argv)) + "\n")


if __name__ == "__main__":
    main()
