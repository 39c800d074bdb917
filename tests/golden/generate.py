"""Golden CLI corpora: argv, output hashes, exit code.

Each line of a corpus file holds one invocation and what it gave: the
sha256 of its stdout and of its stderr and its exit code.
``tests/test_golden.py`` replays every line in process and compares.

``solver_cli.jsonl`` holds the ``verify-theorem`` and ``scan`` calls:

* a fixed-seed sample of the grid p < s <= 6, n, d in 1..6 at K = 40, 60,
* every pure-shift pair (n = p, d = s), the instances outside the
  hypotheses,
* the smallest truncations, where a count can lie above its proved floor,
* K = 1000 on the acceptance instances,
* the large-integer regime, where the pin coefficients are largest
  (n, d near 1000, K = 1000, bounds up to 60), and
* the inputs that exit 64.

``commands_cli.jsonl`` holds every other subcommand:

* a fixed-seed sample of the ``identity-check`` grid (3 scenarios, six
  (p, s) pairs, n in 1..3, d in {1, 3}, m in 1..4, l = m + s - p, 20
  samples); instances refuted by a separating term at 50 samples and
  53, 400 and 1000 bits and at a low starting precision; an instance
  where no term separates the sides and the Gamma parts are matched, at
  the same precisions, which it only echoes; the bounds,
* ``apply``, ``commutator``, ``weight``, ``mellin``, ``rationality``,
  ``root-verify`` and ``oracle-quadrature``, with text output; the
  quadrature also with fractional exponents (Q > 1), a negative
  coefficient, 1 and 60 digits, and a call that spends its panel budget
  and exits 2,
* the algebra-heavy paths: ``commutator`` and ``weight`` on multi-term
  symbols with fractional exponents, among them two 8-term symbols whose
  exponent denominators are distinct primes, and ``root-verify`` on
  Gamma-bearing roots,
* ``--help`` and the usage errors, among them ``--flag=--``, which
  argparse reads as an empty list.

Regenerate a corpus only with a change that alters the JSON or the exit
codes on purpose, and list the entries that changed with it; ``--check``
prints the argv of every entry that would change and writes nothing::

    python tests/golden/generate.py --check
    python tests/golden/generate.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
SEED = 20241018
SAMPLES_PER_K = 30
IDENTITY_SAMPLES = 60


def _argv(command: str, p: int, s: int, n: int, d: int, bound: int, K: int) -> list[str]:
    return [command, "--p", str(p), "--s", str(s), "--n", str(n), "--d", str(d),
            "--bound", str(bound), "--K", str(K)]


def _unique(argvs: list[list[str]]) -> list[list[str]]:
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]  # first of duplicates


def solver_argvs() -> list[list[str]]:
    """Every invocation of the solver corpus, in a fixed order."""
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
    # Smallest truncations: cells whose count lies above the proved floor.
    for p, s, n, d in ((1, 2, 2, 3), (2, 4, 3, 5), (1, 3, 2, 2), (2, 3, 1, 4)):
        for K in (s, s + 1, s + 3):
            for command in ("verify-theorem", "scan"):
                argvs.append(_argv(command, p, s, n, d, K, K))
    for p, s, n, d in ((1, 2, 2, 3), (2, 4, 3, 5), (1, 2, 3, 6), (3, 5, 2, 1), (1, 6, 4, 2)):
        argvs.append(_argv("verify-theorem", p, s, n, d, 8, 1000))
    # Large integers: exponents near the limit and long pin products.
    for p, s, n, d, bound, K in ((5, 6, 1000, 999, 60, 1000), (4, 10, 7, 1, 40, 1000),
                                 (9, 10, 1, 1000, 20, 40)):
        for command in ("verify-theorem", "scan"):
            argvs.append(_argv(command, p, s, n, d, bound, K))
    argvs.append(["--output", "text"] + _argv("verify-theorem", 1, 2, 2, 3, 8, 40))
    argvs.append(["--output", "text"] + _argv("scan", 2, 4, 3, 5, 8, 40))
    # Inputs that exit 64: bound > K, K > 1000, K < 1, K < s, n or d > 1000,
    # p >= s, and a scan bound below s - p + 1; verify-theorem fails that
    # last one when K >= s.
    for command in ("verify-theorem", "scan"):
        argvs += [
            _argv(command, 1, 2, 2, 3, 41, 40),
            _argv(command, 1, 2, 2, 3, 8, 1001),
            _argv(command, 1, 2, 2, 3, -3, -1),
            _argv(command, 1, 2, 2, 3, 0, 0),
            _argv(command, 3, 5, 1, 1, 3, 3),
            _argv(command, 3, 5, 1, 1, 1, 4),
            _argv(command, 1, 2, 1001, 3, 8, 40),
            _argv(command, 1, 2, 2, 1001, 8, 40),
            _argv(command, 2, 2, 2, 3, 8, 40),
            _argv(command, 1, 6, 2, 3, 5, 40),
        ]
    return _unique(argvs)


def _identity(scenario: str, p: int, s: int, n: int, d: int, m: int, l: int,
              *extra: str) -> list[str]:
    return ["identity-check", "--id", scenario, "--p", str(p), "--s", str(s), "--n", str(n),
            "--d", str(d), "--m", str(m), "--l", str(l), *extra]


def command_argvs() -> list[list[str]]:
    """Every invocation of the corpus of the other subcommands, in a fixed order."""
    grid = [(scenario, p, s, n, d, m, m + s - p)
            for scenario in ("commutator", "factored", "functional")
            for p, s in ((1, 2), (1, 3), (2, 3), (2, 4), (1, 4), (3, 4))
            for n in (1, 2, 3) for d in (1, 3) for m in range(1, 5)]
    rng = random.Random(SEED)
    argvs = [_identity(*inst, "--samples", "20") for inst in rng.sample(grid, IDENTITY_SAMPLES)]
    functional = ("functional", 1, 2, 2, 3, 2, 3)
    # Refuted by a separating term whatever the samples and the precision:
    # these took the ball path before the structural test.
    separated = [("commutator", 2, 3, 1, 1, 1, 2), ("factored", 1, 2, 1, 3, 2, 3), functional]
    argvs += [_identity(*inst, "--samples", "50", "--precision-bits", str(bits))
              for inst in separated for bits in (53, 400, 1000)]
    argvs.append(_identity("commutator", 1, 2, 1, 3, 2, 3, "--samples", "50",
                           "--precision-bits", "8"))
    # Both sides carry the same two Gamma parts, so no term separates them,
    # and matching the parts decides; the precision is only echoed.
    argvs += [_identity("functional", 2, 4, 1, 4, 1, 3, "--samples", "50", "--precision-bits", bits)
              for bits in ("53", "400", "1000", "8")]
    argvs += [
        _identity(*functional, "--samples", "5", "--precision-bits", "1"),
        _identity("commutator", 1, 2, 2, 3, 1, 2),
        ["--output", "text"] + _identity(*functional, "--samples", "3"),
        # exit 64: one sample, too many, too much precision, none, n > 1000
        _identity(*functional, "--samples", "1"),
        _identity(*functional, "--samples", "1001"),
        _identity(*functional, "--precision-bits", "4097"),
        _identity(*functional, "--samples", "5", "--precision-bits", "0"),
        _identity("commutator", 1, 2, 1001, 3, 1, 2),
        _identity("commutator", 0, 2, 2, 3, 1, 2),
    ]
    argvs += [
        ["apply", "--term", "1:r^2", "--term", "2:r^3", "--k", "0"],
        ["apply", "--term", "1:r^2", "--term", "2:r^3", "--k", "7"],
        ["apply", "--term", "0:1", "--k", "3"],
        ["apply", "--term", "3:2*r+3*r^4", "--term", "0:r^1/2", "--k", "2"],
        ["apply", "--term", "1:r^2", "--k", "-1"],
        ["--output", "text", "apply", "--term", "2:r", "--k", "1"],
        ["commutator", "--a", "1:r", "--b", "2:r^2"],
        ["commutator", "--a", "1:r^2", "--b", "2:r^3"],
        ["commutator", "--a", "1:r^2", "--a", "2:r", "--b", "3:r^3", "--b", "0:r^2"],
        ["--output", "text", "commutator", "--a", "1:r^2", "--b", "2:r^3"],
        ["weight", "--p", "1", "--symbol", "r^2"],
        ["weight", "--p", "0", "--symbol", "1"],
        ["weight", "--p", "3", "--symbol", "2*r+3*r^4"],
        ["weight", "--p", "2", "--symbol", "r^1/2-1/3*r^5"],
        ["mellin", "--symbol", "2*r+3*r^4"],
        ["mellin", "--symbol", "1"],
        ["mellin", "--symbol=-r^3/2+7"],
        ["mellin", "--symbol", "-r^3/2+7"],  # the same value as the joined spelling
        ["rationality", "--a", "2", "--b", "4", "--c", "0", "--d", "6", "--delta", "1"],
        ["rationality", "--a", "2", "--b", "3", "--c", "0", "--d", "5", "--delta", "2"],
        ["rationality", "--a", "1", "--b", "5", "--c", "3", "--d", "3", "--delta", "2"],
        ["root-verify", "--p", "3", "--n", "4"],
        ["root-verify", "--p", "1", "--n", "1"],
        ["root-verify", "--p", "6", "--n", "2"],
        ["root-verify", "--p", "1001", "--n", "1"],
        ["root-verify", "--p", "2", "--n", "1001"],
        ["oracle-quadrature", "--p", "1", "--symbol", "r^2", "--k", "0"],
        ["oracle-quadrature", "--p", "2", "--symbol", "2*r+3*r^4", "--k", "3",
         "--digits", "15"],
        # exit 64: a tolerance below 10^-digits
        ["oracle-quadrature", "--p", "1", "--symbol", "r", "--k", "2",
         "--tolerance", "0"],
        ["oracle-quadrature", "--p", "1", "--symbol", "r^2", "--k", "0",
         "--tolerance", "0"],
        # Q > 1, a negative coefficient, the fewest digits and 60, and
        # exit 2: 16 terms get 3000/16 panels, too few for 60 digits
        ["oracle-quadrature", "--p", "2", "--symbol", "r^7/3", "--k", "3"],
        ["oracle-quadrature", "--p", "3", "--symbol", "r^1/2-1/3*r^5", "--k", "2"],
        ["oracle-quadrature", "--p", "1", "--symbol", "r^2", "--k", "5", "--digits", "1"],
        ["oracle-quadrature", "--p", "1", "--symbol", "2*r^3-r^1/2", "--k", "4",
         "--digits", "60"],
        ["oracle-quadrature", "--p", "1", "--symbol", "+".join(f"r^{2 * i + 1}/3" for i in range(16)),
         "--k", "40", "--digits", "60"],
    ]
    # The algebra-heavy paths: multi-term symbols with fractional exponents,
    # Gamma-bearing roots, and two 8-term symbols whose exponent
    # denominators are distinct primes.
    a8 = "r^1/3+2*r^2/5-r^3/7+3/2*r^4/11+r^5/13-2*r^6/17+r^7/19+5*r^8/23"
    b8 = "-r^1/29+r^2/31+4*r^3/37-r^4/41+1/3*r^5/43+r^6/47-7*r^7/53+r^8/59"
    argvs += [
        ["commutator", "--a", "2:r^1/2+3*r^5/3", "--b", "3:r^2/5-1/2*r^7/4"],
        ["commutator", "--a", "1:r^1/3-r^2/3+r", "--a", "3:2*r^3/2",
         "--b", "2:r^5/7+1/4*r^9/7"],
        ["commutator", "--a", "3:" + a8, "--b", "5:" + b8],
        ["weight", "--p", "4", "--symbol", "r^1/3+2*r^5/7-1/2*r^11/5"],
        ["weight", "--p", "2", "--symbol", a8],
        ["root-verify", "--p", "4", "--n", "3"],
        ["root-verify", "--p", "5", "--n", "7"],
        ["root-verify", "--p", "2", "--n", "9"],
        ["root-verify", "--p", "12", "--n", "5"],
    ]
    # --help and the usage errors
    argvs += [
        ["--help"],
        ["weight", "--help"],
        ["identity-check", "--help"],
        [],
        ["frobnicate"],
        ["weight", "--p", "1"],
        ["weight", "--p", "1", "--symbol", "r^-1"],
        ["weight", "--p", "1", "--symbol", "r", "--bogus"],
        ["weight", "--p", "x", "--symbol", "r"],
        ["apply", "--term", "r^2", "--k", "0"],
        ["apply", "--term", "-1:r", "--k", "0"],
        ["apply", "--term", "1:r^2", "--k", "0", "--precision-bits", "80"],
        ["mellin", "--symbol", ""],
        ["mellin", "--symbol", "r^"],
        ["--output", "xml", "mellin", "--symbol", "r"],
        ["identity-check", "--id", "nonsense", "--p", "1", "--s", "2", "--n", "2",
         "--d", "3", "--m", "1", "--l", "2"],
        # argparse reads --flag=-- as an empty list
        ["--output=--", "mellin", "--symbol", "r"],
        ["weight", "--p=--", "--symbol", "r"],
        ["apply", "--term=--", "--k", "0"],
        ["oracle-quadrature", "--p", "1", "--symbol", "r", "--k", "0", "--tolerance=--"],
    ]
    return _unique(argvs)


CORPORA = {"solver_cli.jsonl": solver_argvs, "commands_cli.jsonl": command_argvs}


def capture(argv: list[str]) -> dict:
    """Run one CLI invocation in process; its corpus entry.

    Usage text is wrapped at 80 columns whatever the terminal, and a
    ``--help`` that ends the parse gives the code it exits with.
    """
    from bergshift.cli import dispatch

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = dispatch(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {
        "argv": list(argv),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "exit": code,
    }


def load(name: str) -> list[dict]:
    with (HERE / name).open() as f:
        return [json.loads(line) for line in f]


def changed(name: str) -> list[list[str]]:
    """Argv of every entry of corpus ``name`` that would differ on regeneration:
    a different stdout, stderr or exit code, or an entry added or dropped."""
    old = {tuple(e["argv"]): e for e in load(name)}
    argvs = CORPORA[name]()
    diff = [argv for argv in argvs if old.pop(tuple(argv), None) != capture(argv)]
    return diff + [list(argv) for argv in old]


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the golden CLI corpora.")
    parser.add_argument("--check", action="store_true",
                        help="print the argv of every entry that differs; write nothing")
    opts = parser.parse_args(args)
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    if opts.check:
        diff = [(name, argv) for name in CORPORA for argv in changed(name)]
        for name, argv in diff:
            print(f"{name}: {' '.join(argv)}")
        return 1 if diff else 0
    for name, argvs in CORPORA.items():
        with (HERE / name).open("w") as f:
            for argv in argvs():
                f.write(json.dumps(capture(argv)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
