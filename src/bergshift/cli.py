"""Command-line front end with machine-readable reports.

One subcommand per capability; JSON output by default (``--output text``
for human-readable tables).  Exit codes triage results for CI:

* 0  - success / verified positive (PASS)
* 1  - verified negative (mismatch, FAIL, counterexample)
* 2  - inconclusive (unknown, a cell above its proved floor, non-convergent)
* 64 - usage or input error (the grammar is printed)
* 70 - an exception escaped the command (``EX_SOFTWARE``, BSD sysexits.h)
* 141 - stdout was closed before the report was written, the status a
  shell gives a process ended by SIGPIPE

All configuration is via flags; no environment variables are read, so
identical invocations produce byte-identical output.

The grammar is declared once, in :data:`GRAMMAR`.  :func:`_read_argv`
reads the common argv straight from it: leading ``--output``, a
subcommand and its flags by their exact names, as ``--flag VALUE`` or
``--flag=VALUE``.  Every other argv (``--help``, abbreviations, unknown
flags, a spaced value that starts with ``-``, a missing or malformed
value) goes to the argparse parser :func:`build_parser` makes from the
same table, which is built only then or for the usage line of an input
error; argparse writes every help, usage and error text.  The JSON report
is written directly by :func:`_json_text`, byte for byte the text of
``json.dumps(payload, indent=2)``; payloads hold only str-keyed dicts,
lists, str, int, bool and None (``ser_value`` turns every other number
into a string).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

import mpmath
from mpmath import mp

from .exact_algebra import (
    ExprSyntaxError,
    PoleError,
    format_rational,
    format_rational_function,
)
from .gamma_ratio import (
    GammaRatioExpr,
    WeightExpr,
    is_rational_divisibility,
    rationality_oracle,
)
from .identities import SCENARIOS, IdentityReport, default_samples, verify_identity
from .mellin import (
    bergman_quadrature_oracle,
    check_digits,
    format_symbol,
    mellin_transform,
    parse_symbol,
    toeplitz_weight,
)
from .quadrature import QuadratureError
from .shift_algebra import (
    ShiftSum,
    apply_to_basis,
    commutator,
    compose,
    root_operator,
)
from .solver import (
    ScanReport,
    TheoremReport,
    check_exponents,
    check_root_degrees,
    scan,
    verify_theorem,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70
EXIT_BROKEN_PIPE = 141


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n\n{self.format_usage()}")


# ---------------------------------------------------------------------------
# serialization


def ser_value(v: Any) -> Any:
    if v is None:
        return None
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, (int, bool, str)):
        return v
    return str(v)


def ser_weight(w: WeightExpr) -> Any:
    rf = w.as_rational()
    if rf is not None:
        return format_rational_function(rf)
    return {
        "terms": [
            {
                "coeff": format_rational_function(c),
                "gamma": {
                    "num": [{"two_delta": td, "offset": off} for td, off in g.num],
                    "den": [{"two_delta": td, "offset": off} for td, off in g.den],
                },
            }
            for c, g in w.terms
        ]
    }


def ser_shift_sum(op: ShiftSum) -> dict:
    return {"parts": [{"degree": d, "weight": ser_weight(w)} for d, w in op.parts]}


def ser_identity_report(rep: IdentityReport) -> dict:
    return {
        "scenario": rep.scenario,
        "params": rep.params,
        "verdict": rep.verdict,
        "constant": ser_value(rep.constant),
        "exact": rep.exact,
        "both_sides_zero": rep.both_sides_zero,
        "precision_bits": rep.precision_bits,
        "note": rep.note,
        "witnesses": [[ser_value(a), ser_value(b)] for a, b in rep.witnesses],
        "skipped_poles": [ser_value(z) for z in rep.skipped_poles],
        "samples": [
            {
                "z": ser_value(row.z),
                "left": ser_value(row.left),
                "right": ser_value(row.right),
                "ratio": ser_value(row.ratio),
            }
            for row in rep.samples
        ],
    }


def ser_scan_report(rep: ScanReport) -> dict:
    return {
        "p": rep.p, "s": rep.s, "n": rep.n, "d": rep.d,
        "bound": rep.bound, "K": rep.K,
        "nondegenerate": rep.nondegenerate,
        "outside_hypotheses": rep.outside_hypotheses,
        "cells": [
            {
                "m": c.m,
                "l": c.l,
                "dim": c.dimension,
                "floor": c.floor,
                "root_match": ser_value(c.root_match),
                "counterexample": c.counterexample,
            }
            for c in rep.cells
        ],
        "counterexamples": [list(pair) for pair in rep.counterexamples],
    }


def ser_theorem_report(rep: TheoremReport) -> dict:
    return {
        "pass": rep.passed,
        "c": ser_value(rep.c),
        "status": rep.status,
        "p": rep.p, "s": rep.s, "n": rep.n, "d": rep.d,
        "bound": rep.bound, "K": rep.K,
        "residue_classes": rep.residue_classes,
        "sequence_dimension": rep.sequence_dimension,
        "operator_dimension": rep.operator_dimension,
        "messages": list(rep.messages),
        "scan": ser_scan_report(rep.scan_report),
    }


_quote = json.encoder.encode_basestring_ascii


def _write_json(value: Any, out: list[str], pad: str) -> None:
    """Append to ``out`` the text of ``json.dumps(value, indent=2)`` for a
    value nested at ``pad`` (a newline and its indentation).  Only
    str-keyed dicts, lists, tuples, str, int, bool and None are written;
    anything else raises TypeError."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(_quote(key))
            out.append(": ")
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(payload: Any) -> str:
    """The bytes of ``json.dumps(payload, indent=2)``, written directly:
    with an indent, json runs its pure-Python encoder."""
    out: list[str] = []
    _write_json(payload, out, "\n")
    return "".join(out)


def _emit(payload: dict, mode: str) -> None:
    if mode == "json":
        print(_json_text(payload))
        return
    _emit_text(payload)


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list):
            print(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    line = ", ".join(f"{k}={v}" for k, v in item.items()
                                     if not isinstance(v, (dict, list)))
                    print(f"{pad}  - {line}")
                else:
                    print(f"{pad}  - {item}")
        else:
            print(f"{pad}{key}: {value}")


# ---------------------------------------------------------------------------
# command implementations


def _parse_term(text: str) -> tuple[int, str]:
    degree, sep, symbol = text.partition(":")
    if not sep:
        raise _UsageError(f"operator term must look like DEGREE:SYMBOL, got {text!r}")
    try:
        deg = int(degree)
    except ValueError:
        raise _UsageError(f"bad degree in operator term {text!r}") from None
    if deg < 0:
        raise _UsageError("shift degrees must be nonnegative")
    return deg, symbol


def _operator_from_terms(terms: list[str]) -> ShiftSum:
    parts = []
    for term in terms:
        deg, sym = _parse_term(term)
        parts.append((deg, toeplitz_weight(deg, parse_symbol(sym))))
    return ShiftSum.build(parts)


def _cmd_mellin(args) -> tuple[dict, int]:
    phi = parse_symbol(args.symbol)
    image = mellin_transform(phi)
    payload = {
        "symbol": format_symbol(phi),
        "mellin": format_rational_function(image.value),
    }
    return payload, EXIT_OK


def _cmd_weight(args) -> tuple[dict, int]:
    phi = parse_symbol(args.symbol)
    w = toeplitz_weight(args.p, phi)
    return {"degree": args.p, "weight": ser_weight(w)}, EXIT_OK


def _cmd_apply(args) -> tuple[dict, int]:
    op = _operator_from_terms(args.term)
    vectors = apply_to_basis(op, args.k)
    return {
        "k": args.k,
        "result": [
            {"index": bv.index, "coefficient": ser_value(bv.coefficient)}
            for bv in vectors
        ],
    }, EXIT_OK


def _cmd_commutator(args) -> tuple[dict, int]:
    a = _operator_from_terms(args.a)
    b = _operator_from_terms(args.b)
    bracket = commutator(a, b)
    return {
        "commutator": ser_shift_sum(bracket),
        "zero": bracket.is_zero,
    }, EXIT_OK


def _cmd_rationality(args) -> tuple[dict, int]:
    criterion = is_rational_divisibility(args.a, args.b, args.c, args.d, args.delta)
    expr = GammaRatioExpr.of(2 * args.delta, [args.a, args.b], [args.c, args.d])
    oracle = rationality_oracle(expr)
    agree = criterion == oracle
    payload = {"criterion": criterion, "oracle": oracle, "agree": agree}
    if not agree:
        return payload, EXIT_INCONCLUSIVE
    return payload, EXIT_OK if criterion else EXIT_NEGATIVE


def _cmd_root_verify(args) -> tuple[dict, int]:
    check_root_degrees(p=args.p)
    check_exponents(n=args.n)
    root = root_operator(args.p, args.n)
    power = ShiftSum.identity()
    for _ in range(args.p):
        power = compose(root, power)
    telescoped = power.weight_at(args.p)
    expected = toeplitz_weight(args.p, parse_symbol(f"r^{args.n}"))
    match = telescoped == expected
    payload = {
        "p": args.p,
        "n": args.n,
        "root_weight": ser_weight(root.weight_at(1)),
        "telescoped": ser_weight(telescoped),
        "expected": ser_weight(expected),
        "match": match,
    }
    return payload, EXIT_OK if match else EXIT_NEGATIVE


def _cmd_identity_check(args) -> tuple[dict, int]:
    samples = default_samples(args.samples)
    rep = verify_identity(
        args.id, args.p, args.s, args.n, args.d, args.m, args.l,
        sample_zs=samples, precision_bits=args.precision_bits)
    code = {"proportional": EXIT_OK,
            "not_proportional": EXIT_NEGATIVE}.get(rep.verdict, EXIT_INCONCLUSIVE)
    return ser_identity_report(rep), code


def _cmd_scan(args) -> tuple[dict, int]:
    rep = scan(args.p, args.s, args.n, args.d, args.bound, args.K)
    payload = ser_scan_report(rep)
    if rep.outside_hypotheses:
        return payload, EXIT_INCONCLUSIVE
    if rep.counterexamples:
        return payload, EXIT_NEGATIVE
    return payload, EXIT_OK


def _cmd_verify_theorem(args) -> tuple[dict, int]:
    rep = verify_theorem(args.p, args.s, args.n, args.d, args.bound, args.K)
    payload = ser_theorem_report(rep)
    code = {"pass": EXIT_OK, "fail": EXIT_NEGATIVE}.get(rep.status, EXIT_INCONCLUSIVE)
    return payload, code


def _oracle_tolerance(text: Optional[str], digits: int) -> mpmath.mpf:
    """The tolerance at the working precision, read by the parser the
    comparison uses: ``text``, or 1e-10 when it is None.  Raise ValueError
    unless it is a finite number of at least 10^-digits: below that, the
    verdict reads the rounding noise of the working precision, and nan or
    inf decide nothing.  The default is raised to that floor."""
    floor = mp.mpf(10) ** -digits
    if text is None:
        return max(mp.mpf("1e-10"), floor)
    try:
        tol = mp.mpf(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"tolerance must be a finite number, got {text!r}") from None
    if not mp.isfinite(tol):
        raise ValueError(f"tolerance must be a finite number, got {text!r}")
    if tol < floor:
        raise ValueError(f"tolerance must be at least 1e-{digits} (10^-digits), got {text!r}")
    return tol


def _cmd_oracle_quadrature(args) -> tuple[dict, int]:
    check_digits(args.digits)
    with mp.workdps(args.digits + 15):
        tol = _oracle_tolerance(args.tolerance, args.digits)
        phi = parse_symbol(args.symbol)
        try:
            result = bergman_quadrature_oracle(args.p, phi, args.k, args.digits)
        except QuadratureError as exc:
            return {
                "error": "quadrature did not converge",
                "achieved": mpmath.nstr(exc.achieved, 10),
                "requested": mpmath.nstr(exc.requested, 10),
            }, EXIT_INCONCLUSIVE
        exact = toeplitz_weight(args.p, phi).eval_exact(Fraction(2 * args.k + 2))
        exact_mp = mp.mpf(exact.numerator) / exact.denominator
        abs_err = abs(result.value - exact_mp)
        payload = {
            "p": args.p,
            "k": args.k,
            "symbol": format_symbol(phi),
            "oracle": mpmath.nstr(result.value, args.digits),
            "error_estimate": mpmath.nstr(result.error_estimate, 5),
            "exact": ser_value(exact),
            "abs_error": mpmath.nstr(abs_err, 5),
            "tolerance": mpmath.nstr(tol, 5),
            "ok": bool(abs_err <= tol),
        }
    return payload, EXIT_OK if payload["ok"] else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# argument grammar


class _Flag(NamedTuple):
    """One ``--name VALUE`` flag, as argparse declares it and as
    :func:`_read_argv` reads it."""

    name: str
    type: Optional[Callable[[str], Any]] = None
    required: bool = False
    default: Any = None
    choices: Optional[tuple[str, ...]] = None
    append: bool = False
    metavar: Optional[str] = None
    help: Optional[str] = None
    #: A value that starts with a single ``-`` may follow the flag as the
    #: next argument (a symbol such as ``-r^2``), not only after ``=``.
    dash_value: bool = False

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class _Command(NamedTuple):
    name: str
    help: str
    handler: Callable[[argparse.Namespace], tuple[dict, int]]
    flags: tuple[_Flag, ...]


class _Grammar:
    """The flags read before the subcommand, and the subcommands, each
    with its flags looked up by name."""

    def __init__(self, flags: tuple[_Flag, ...], commands: tuple[_Command, ...]):
        self.flags = flags
        self.commands = commands
        self.top = {f.name: f for f in flags}
        self.by_name = {c.name: (c, {f.name: f for f in c.flags}) for c in commands}
        self.dash_values = {f.name for c in commands for f in c.flags if f.dash_value}


def _required_ints(*names: str) -> tuple[_Flag, ...]:
    return tuple([_Flag(name, int, required=True) for name in names])


#: The whole command-line grammar: ``build_parser`` and ``_read_argv`` both
#: read it, in the order given here (the order of ``--help``).
GRAMMAR = _Grammar(
    flags=(_Flag("--output", choices=("json", "text"), default="json"),),
    commands=(
        _Command("mellin", "Mellin transform of a radial symbol", _cmd_mellin, (
            _Flag("--symbol", required=True, dash_value=True),
        )),
        _Command("weight", "shift weight of a quasihomogeneous operator", _cmd_weight, (
            *_required_ints("--p"),
            _Flag("--symbol", required=True, dash_value=True),
        )),
        _Command("apply", "apply an operator sum to a basis monomial z^k", _cmd_apply, (
            _Flag("--term", required=True, append=True, metavar="DEGREE:SYMBOL"),
            *_required_ints("--k"),
        )),
        _Command("commutator", "commutator of two operator sums", _cmd_commutator, (
            _Flag("--a", required=True, append=True, metavar="DEGREE:SYMBOL"),
            _Flag("--b", required=True, append=True, metavar="DEGREE:SYMBOL"),
        )),
        _Command("rationality", "decide rationality of a 2-over-2 Gamma quotient",
                 _cmd_rationality, _required_ints("--a", "--b", "--c", "--d", "--delta")),
        _Command("root-verify", "telescoping check for the canonical root", _cmd_root_verify,
                 _required_ints("--p", "--n")),
        _Command("identity-check", "pointwise proportionality of a weight identity",
                 _cmd_identity_check, (
                     _Flag("--id", choices=SCENARIOS, required=True),
                     *_required_ints("--p", "--s", "--n", "--d", "--m", "--l"),
                     _Flag("--samples", int, default=50),
                     _Flag("--precision-bits", int, default=200),
                 )),
        _Command("scan", "nullspace dimensions over all admissible (m, l) pairs", _cmd_scan, (
            *_required_ints("--p", "--s", "--n", "--d"),
            _Flag("--bound", int, default=8),
            _Flag("--K", int, default=40),
        )),
        _Command("verify-theorem", "full commutant verification at truncation scale",
                 _cmd_verify_theorem, (
                     *_required_ints("--p", "--s", "--n", "--d"),
                     _Flag("--bound", int, default=8),
                     _Flag("--K", int, default=40),
                 )),
        _Command("oracle-quadrature", "cross-check a weight against quadrature",
                 _cmd_oracle_quadrature, (
                     *_required_ints("--p"),
                     _Flag("--symbol", required=True, dash_value=True),
                     *_required_ints("--k"),
                     _Flag("--digits", int, default=25),
                     _Flag("--tolerance",
                           help="default 1e-10, or 10^-digits when that is larger"),
                 )),
    ),
)


def _add_flags(parser: argparse.ArgumentParser, flags: tuple[_Flag, ...]) -> None:
    for f in flags:
        parser.add_argument(
            f.name, action="append" if f.append else "store", type=f.type,
            required=f.required, default=f.default, choices=f.choices,
            metavar=f.metavar, help=f.help)


def build_parser() -> _Parser:
    """The argparse form of :data:`GRAMMAR`: it writes every help, usage
    and error text."""
    parser = _Parser(
        prog="bergshift",
        description="Exact weighted-shift calculus for quasihomogeneous "
                    "Toeplitz operators on the Bergman space.",
    )
    _add_flags(parser, GRAMMAR.flags)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in GRAMMAR.commands:
        c = sub.add_parser(command.name, help=command.help)
        c.set_defaults(handler=command.handler)
        _add_flags(c, command.flags)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The grammar, built once per process: parsing keeps no state in it."""
    return build_parser()


def _read_argv(argv: list[str]) -> Optional[argparse.Namespace]:
    """The Namespace argparse would give for ``argv``, read straight from
    :data:`GRAMMAR`, or None unless ``argv`` is leading ``GRAMMAR.flags``,
    a subcommand and its flags, each flag given by its exact name as
    ``--flag VALUE`` or ``--flag=VALUE`` and every required one present.
    None also for a spaced value that starts with ``-``, a value argparse
    would not convert or that is not among the flag's choices, and every
    other argv: argparse then reads it, and writes any help or error."""
    values = {f.dest: f.default for f in GRAMMAR.flags}
    flags = GRAMMAR.top
    command = None
    seen = set()
    i, n = 0, len(argv)
    while i < n:
        arg = argv[i]
        if arg[:1] != "-":
            if command is not None or arg not in GRAMMAR.by_name:
                return None
            command, flags = GRAMMAR.by_name[arg]
            values["command"] = arg
            values["handler"] = command.handler
            for f in command.flags:
                values[f.dest] = f.default
            i += 1
            continue
        name, eq, text = arg.partition("=")
        flag = flags.get(name)
        if flag is None:
            return None
        if eq:
            if text == "--":  # argparse drops it, leaving the flag no value
                return None
            i += 1
        elif i + 1 < n and argv[i + 1][:1] != "-":
            text = argv[i + 1]
            i += 2
        else:
            return None
        if flag.type is not None:
            try:
                text = flag.type(text)
            except (TypeError, ValueError):
                return None
        if flag.choices is not None and text not in flag.choices:
            return None
        if flag.append:
            values[flag.dest] = [*(values[flag.dest] or ()), text]
        else:
            values[flag.dest] = text
        seen.add(name)
    if command is None or any(f.required and f.name not in seen for f in command.flags):
        return None
    return argparse.Namespace(**values)


def _join_dash_values(argv: list[str]) -> list[str]:
    """``--symbol -r^2`` as ``--symbol=-r^2``, for each ``dash_value``
    flag: argparse reads a value that starts with a single ``-`` as an
    option."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1] in GRAMMAR.dash_values
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def dispatch(argv: Optional[list[str]] = None) -> int:
    """Run one command; returns the exit code, printing the report.

    ``_read_argv`` reads the argv when it can; otherwise, and for the
    usage line of an input error, argparse is built.  argparse gives a
    flag written ``--flag=--`` the value ``[]``: a usage error here."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_argv(argv)
        if args is None:
            args = _parser().parse_args(_join_dash_values(argv))
            empty = [k for k, v in vars(args).items() if v == [] or isinstance(v, list) and [] in v]
            if empty:
                _parser().error(f"argument --{empty[0].replace('_', '-')}: expected one argument")
        payload, code = args.handler(args)
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    except (ExprSyntaxError, PoleError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n\n{_parser().format_usage()}\n")
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only a crash pays for this import
        at = traceback.extract_tb(exc.__traceback__)[-1]
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc} ({os.path.basename(at.filename)}:{at.lineno})\n")
        return EXIT_SOFTWARE
    _emit(payload, args.output)
    return code


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head -1`).  Point stdout at
        # devnull so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
