"""Command-line front end with machine-readable reports.

One subcommand per capability; JSON output by default (``--output text``
for human-readable tables).  Exit codes triage results for CI:

* 0  - success / verified positive (PASS)
* 1  - verified negative (mismatch, FAIL, counterexample)
* 2  - inconclusive (unknown, a cell above its proved floor, non-convergent)
* 64 - usage or input error (the grammar is printed)
* 141 - stdout was closed before the report was written, the status a
  shell gives a process ended by SIGPIPE

All configuration is via flags; no environment variables are read, so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Any, Optional

import mpmath
from mpmath import mp

from .exact_algebra import (
    ExprSyntaxError,
    PoleError,
    ZeroDenominatorError,
    format_rational,
    format_rational_function,
    parse_rational_function,
)
from .gamma_ratio import (
    BallValue,
    GammaRatioExpr,
    WeightExpr,
    is_rational_divisibility,
    rationality_oracle,
)
from .identities import SCENARIOS, IdentityReport, default_samples, verify_identity
from .mellin import (
    bergman_quadrature_oracle,
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
    if isinstance(v, BallValue):
        return {"mid": mpmath.nstr(v.mid, 30), "rad": mpmath.nstr(v.rad, 5)}
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


def weight_from_jsonable(data: Any) -> WeightExpr:
    """Inverse of :func:`ser_weight`, used for round-trip checks."""
    if isinstance(data, str):
        return WeightExpr.from_rational(parse_rational_function(data))
    terms = []
    for t in data["terms"]:
        gamma = GammaRatioExpr(
            tuple([(a["two_delta"], a["offset"]) for a in t["gamma"]["num"]]),
            tuple([(a["two_delta"], a["offset"]) for a in t["gamma"]["den"]]),
        )
        terms.append((parse_rational_function(t["coeff"]), gamma))
    return WeightExpr.build(terms)


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


def _emit(payload: dict, mode: str) -> None:
    if mode == "json":
        print(json.dumps(payload, indent=2))
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


def _cmd_oracle_quadrature(args) -> tuple[dict, int]:
    phi = parse_symbol(args.symbol)
    with mp.workdps(args.digits + 15):
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
        tol = mp.mpf(args.tolerance)
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


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bergshift",
        description="Exact weighted-shift calculus for quasihomogeneous "
                    "Toeplitz operators on the Bergman space.",
    )
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("mellin", help="Mellin transform of a radial symbol")
    c.set_defaults(handler=_cmd_mellin)
    c.add_argument("--symbol", required=True)

    c = sub.add_parser("weight", help="shift weight of a quasihomogeneous operator")
    c.set_defaults(handler=_cmd_weight)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--symbol", required=True)

    c = sub.add_parser("apply", help="apply an operator sum to a basis monomial z^k")
    c.set_defaults(handler=_cmd_apply)
    c.add_argument("--term", action="append", required=True,
                   metavar="DEGREE:SYMBOL")
    c.add_argument("--k", type=int, required=True)

    c = sub.add_parser("commutator", help="commutator of two operator sums")
    c.set_defaults(handler=_cmd_commutator)
    c.add_argument("--a", action="append", required=True, metavar="DEGREE:SYMBOL")
    c.add_argument("--b", action="append", required=True, metavar="DEGREE:SYMBOL")

    c = sub.add_parser("rationality", help="decide rationality of a 2-over-2 Gamma quotient")
    c.set_defaults(handler=_cmd_rationality)
    for flag in ("--a", "--b", "--c", "--d"):
        c.add_argument(flag, type=int, required=True)
    c.add_argument("--delta", type=int, required=True)

    c = sub.add_parser("root-verify", help="telescoping check for the canonical root")
    c.set_defaults(handler=_cmd_root_verify)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)

    c = sub.add_parser("identity-check", help="pointwise proportionality of a weight identity")
    c.set_defaults(handler=_cmd_identity_check)
    c.add_argument("--id", choices=SCENARIOS, required=True)
    for flag in ("--p", "--s", "--n", "--d", "--m", "--l"):
        c.add_argument(flag, type=int, required=True)
    c.add_argument("--samples", type=int, default=50)
    c.add_argument("--precision-bits", type=int, default=200)

    c = sub.add_parser("scan", help="nullspace dimensions over all admissible (m, l) pairs")
    c.set_defaults(handler=_cmd_scan)
    for flag in ("--p", "--s", "--n", "--d"):
        c.add_argument(flag, type=int, required=True)
    c.add_argument("--bound", type=int, default=8)
    c.add_argument("--K", type=int, default=40)

    c = sub.add_parser("verify-theorem", help="full commutant verification at truncation scale")
    c.set_defaults(handler=_cmd_verify_theorem)
    for flag in ("--p", "--s", "--n", "--d"):
        c.add_argument(flag, type=int, required=True)
    c.add_argument("--bound", type=int, default=8)
    c.add_argument("--K", type=int, default=40)

    c = sub.add_parser("oracle-quadrature", help="cross-check a weight against quadrature")
    c.set_defaults(handler=_cmd_oracle_quadrature)
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--symbol", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--digits", type=int, default=25)
    c.add_argument("--tolerance", default="1e-10")

    return parser


@functools.cache
def _parser() -> _Parser:
    """The grammar, built once per process: parsing keeps no state in it."""
    return build_parser()


def dispatch(argv: Optional[list[str]] = None) -> int:
    """Run one command; returns the exit code, printing the report."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        payload, code = args.handler(args)
    except _UsageError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_USAGE
    except (ExprSyntaxError, ZeroDenominatorError, PoleError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n\n{parser.format_usage()}\n")
        return EXIT_USAGE
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
