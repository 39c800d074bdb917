"""CLI dispatch, serialization round-trips, exit-code triage."""

import functools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bergshift import cli, identities, mellin, quadrature, shift_algebra, solver
from bergshift.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INCONCLUSIVE,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_SOFTWARE,
    EXIT_USAGE,
    dispatch,
    ser_value,
    ser_weight,
)
from bergshift.exact_algebra import MAX_NESTING_DEPTH
from bergshift.gamma_ratio import power_weight
from bergshift.mellin import RadialSymbol, toeplitz_weight
from iv_oracle import ball_ratio
from rf_text import parse_rational, weight_from_jsonable


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestComputationCommands:
    def test_weight(self, capsys):
        code, payload = run(capsys, "weight", "--p", "1", "--symbol", "r^2")
        assert code == EXIT_OK
        assert payload == {"degree": 1, "weight": "(z+2)/(z+3)"}

    def test_weight_identity(self, capsys):
        code, payload = run(capsys, "weight", "--p", "0", "--symbol", "1")
        assert code == EXIT_OK
        assert payload["weight"] == "1"

    def test_mellin(self, capsys):
        code, payload = run(capsys, "mellin", "--symbol", "2*r+3*r^4")
        assert code == EXIT_OK
        assert payload["symbol"] == "2*r+3*r^4"

    def test_apply(self, capsys):
        code, payload = run(capsys, "apply", "--term", "1:r^2", "--term", "2:r^3",
                            "--k", "0")
        assert code == EXIT_OK
        assert payload["result"] == [
            {"index": 1, "coefficient": "4/5"},
            {"index": 2, "coefficient": "6/7"},
        ]

    def test_commutator_zero_operator(self, capsys):
        code, payload = run(capsys, "commutator", "--a", "1:r", "--b", "2:r^2")
        assert code == EXIT_OK
        assert payload["commutator"] == {"parts": []}
        assert payload["zero"] is True

    def test_commutator_nonzero(self, capsys):
        code, payload = run(capsys, "commutator", "--a", "1:r^2", "--b", "2:r^3")
        assert code == EXIT_OK
        [part] = payload["commutator"]["parts"]
        assert part["degree"] == 3


class TestVerdictCommands:
    def test_rationality_positive(self, capsys):
        code, payload = run(capsys, "rationality", "--a", "2", "--b", "4",
                            "--c", "0", "--d", "6", "--delta", "1")
        assert code == EXIT_OK
        assert payload == {"criterion": True, "oracle": True, "agree": True}

    def test_rationality_negative(self, capsys):
        code, payload = run(capsys, "rationality", "--a", "2", "--b", "3",
                            "--c", "0", "--d", "5", "--delta", "2")
        assert code == EXIT_NEGATIVE
        assert payload["criterion"] is False

    def test_root_verify(self, capsys):
        code, payload = run(capsys, "root-verify", "--p", "3", "--n", "4")
        assert code == EXIT_OK
        assert payload["match"] is True
        assert payload["telescoped"] == payload["expected"] == "(z+6)/(z+7)"

    def test_identity_check_proportional(self, capsys):
        code, payload = run(capsys, "identity-check", "--id", "commutator",
                            "--p", "1", "--s", "2", "--n", "2", "--d", "3",
                            "--m", "1", "--l", "2")
        assert code == EXIT_OK
        assert payload["verdict"] == "proportional"
        assert payload["constant"] == "1"

    def test_identity_check_refuted(self, capsys):
        code, payload = run(capsys, "identity-check", "--id", "functional",
                            "--p", "1", "--s", "2", "--n", "2", "--d", "3",
                            "--m", "2", "--l", "3", "--samples", "12")
        assert code == EXIT_NEGATIVE
        # refuted structurally: exact, with no sample evaluated
        assert payload["exact"] is True and payload["constant"] is None
        assert payload["witnesses"] == payload["samples"] == payload["skipped_poles"] == []
        assert payload["note"].startswith("the left term with Gamma part gamma(")
        # the iv-object ball oracle refutes the same sides with witnesses
        check = ball_ratio(*identities.build_sides("functional", 1, 2, 2, 3, 2, 3),
                           identities.default_samples(12), 200)
        assert check.verdict == "not_proportional"
        assert check.witnesses

    @pytest.mark.parametrize("bits", ["8", "1000"])
    def test_identity_check_matched_parts(self, bits, capsys):
        # no term separates the sides: the Gamma parts are matched, exactly,
        # and the requested precision is echoed
        code, payload = run(capsys, "identity-check", "--id", "functional",
                            "--p", "2", "--s", "4", "--n", "1", "--d", "4",
                            "--m", "1", "--l", "3", "--samples", "50", "--precision-bits", bits)
        assert code == EXIT_NEGATIVE
        assert payload["verdict"] == "not_proportional"
        assert payload["exact"] is True and payload["constant"] is None
        assert payload["precision_bits"] == int(bits)
        assert payload["witnesses"] == payload["samples"] == payload["skipped_poles"] == []
        assert payload["note"].startswith("the Gamma parts of both sides are pairwise dissimilar")

    def test_scan_clean(self, capsys):
        code, payload = run(capsys, "scan", "--p", "1", "--s", "2", "--n", "2",
                            "--d", "3", "--bound", "4", "--K", "20")
        assert code == EXIT_OK
        first = payload["cells"][0]
        assert (first["m"], first["l"], first["dim"], first["floor"]) == (1, 2, 1, 1)
        assert first["root_match"] == "1"

    def test_scan_degenerate(self, capsys):
        code, payload = run(capsys, "scan", "--p", "1", "--s", "2", "--n", "1",
                            "--d", "2", "--bound", "4", "--K", "20")
        assert code == EXIT_INCONCLUSIVE
        assert payload["outside_hypotheses"] is True

    def test_verify_theorem(self, capsys):
        code, payload = run(capsys, "verify-theorem", "--p", "1", "--s", "2",
                            "--n", "2", "--d", "3", "--bound", "4", "--K", "20")
        assert code == EXIT_OK
        assert payload["pass"] is True
        assert payload["c"] == "1"

    def test_oracle_quadrature(self, capsys):
        code, payload = run(capsys, "oracle-quadrature", "--p", "1",
                            "--symbol", "r^2", "--k", "0")
        assert code == EXIT_OK
        assert payload["exact"] == "4/5"
        assert payload["ok"] is True

    @pytest.mark.parametrize("extra", [("--k", "10000"), ("--k", "400", "--digits", "1")])
    def test_oracle_quadrature_finds_the_mass_near_one_at_large_k(self, capsys, extra):
        # r^N has its mass within about 1/N of r = 1
        code, payload = run(capsys, "oracle-quadrature", "--p", "1", "--symbol", "r^2", *extra)
        assert code == EXIT_OK
        assert payload["ok"] is True
        assert float(payload["abs_error"]) <= 1e-10


class TestOracleQuadratureLimits:
    """Hostile tolerances and precisions exit 64 before any quadrature, and
    the panel budget ends a call that cannot converge with exit 2."""

    @pytest.fixture
    def no_quadrature(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(mellin, "integrate_adaptive", boom)

    @pytest.mark.parametrize("argv", [
        ("--tolerance", "0"),
        ("--tolerance", "-1"),
        ("--tolerance", "nan"),
        ("--tolerance", "inf"),
        ("--tolerance=-inf",),
        ("--tolerance", "1e-26"),
        ("--tolerance", "1e-11", "--digits", "10"),
        ("--tolerance", "abc"),
        ("--tolerance", "1/0"),
        ("--tolerance", "1e-999999999"),
        ("--digits", "0"),
        ("--digits", str(mellin.MAX_DIGITS + 1)),
        ("--digits", "1000000000"),
        ("--k", str(mellin.MAX_POWER // 2 - 1)),  # r^2 r^(2k+2): 2^40 + 2
        ("--k", str(10 ** 60)),
    ])
    def test_exit_64_before_any_work(self, capsys, no_quadrature, argv):
        code = dispatch(["oracle-quadrature", "--p", "1", "--symbol", "r^2", "--k", "0", *argv])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("--tolerance", "1e-25"),
        ("--tolerance", "1/1000", "--digits", "3"),
        ("--tolerance", "1e999999999"),
        ("--digits", str(mellin.MAX_DIGITS)),
        ("--k", str(mellin.MAX_POWER // 2 - 2)),  # r^2 r^(2k+2): 2^40
    ])
    def test_tolerances_and_digits_at_their_limits_run(self, capsys, argv):
        code, payload = run(capsys, "oracle-quadrature", "--p", "1", "--symbol", "r^2",
                            "--k", "0", *argv)
        assert code == EXIT_OK
        assert payload["ok"] is True

    @pytest.mark.parametrize("digits, tolerance", [("3", "0.001"), ("25", "1.0e-10")])
    def test_default_tolerance_is_raised_to_the_floor(self, capsys, digits, tolerance):
        code, payload = run(capsys, "oracle-quadrature", "--p", "1", "--symbol", "r^2",
                            "--k", "0", "--digits", digits)
        assert code == EXIT_OK
        assert payload["tolerance"] == tolerance

    def test_panel_budget_ends_the_call_with_exit_2(self, capsys, monkeypatch):
        # 46 panels reach 25 digits here; each panel of this 2-term symbol
        # costs 2, and a budget of 40 stops the halving after 20
        monkeypatch.setattr(quadrature, "MAX_WORK", 40)
        panels = []
        panel = quadrature._panel
        monkeypatch.setattr(quadrature, "_panel", lambda *a: panels.append(len(a[0])) or panel(*a))
        code, payload = run(capsys, "oracle-quadrature", "--p", "1", "--symbol", "r^7/3+2*r^5",
                            "--k", "40")
        assert code == EXIT_INCONCLUSIVE
        assert payload["error"] == "quadrature did not converge"
        assert float(payload["achieved"]) > float(payload["requested"]) > 0
        assert 19 <= len(panels) <= 20
        assert set(panels) == {2}  # the kernel evaluates both terms at every node

    def test_benchmark_sized_call_fits_the_budget(self, capsys):
        code, payload = run(capsys, "oracle-quadrature", "--p", "1", "--symbol", "r^7/3+2*r^5",
                            "--k", "40")
        assert code == EXIT_OK
        assert payload["ok"] is True


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert dispatch(["frobnicate"]) == EXIT_USAGE

    def test_missing_flag(self, capsys):
        assert dispatch(["weight", "--p", "1"]) == EXIT_USAGE

    def test_bad_symbol(self, capsys):
        assert dispatch(["weight", "--p", "1", "--symbol", "r^-1"]) == EXIT_USAGE

    def test_bad_term_format(self, capsys):
        assert dispatch(["apply", "--term", "r^2", "--k", "0"]) == EXIT_USAGE

    def test_apply_takes_no_precision_flag(self, capsys):
        # Every operator the CLI builds is rational, so apply evaluates no ball.
        code = dispatch(["apply", "--term", "1:r^2", "--k", "0", "--precision-bits", "80"])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --precision-bits" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert dispatch(["weight", "--p", "1", "--symbol", "r", "--bogus"]) == EXIT_USAGE

    def test_nonpositive_precision_on_ball_path(self, capsys):
        # the instance is refuted structurally, so no precision scope is
        # entered: 0 bits must be rejected before the sides are decided
        argv = ["identity-check", "--id", "functional", "--p", "1", "--s", "2", "--n", "2",
                "--d", "3", "--m", "2", "--l", "3", "--samples", "5"]
        assert dispatch(argv + ["--precision-bits", "0"]) == EXIT_USAGE
        assert dispatch(argv + ["--precision-bits", "1"]) == EXIT_NEGATIVE


def _valid_value(command, flag):
    if flag.choices:
        return flag.choices[0]
    if flag.append:
        return "1:r"
    return "r^2" if flag.type is None else "1"


@pytest.mark.parametrize("command", cli.GRAMMAR.commands, ids=lambda c: c.name)
def test_a_flag_written_with_an_empty_value_is_a_usage_error(command, capsys):
    """argparse reads ``--flag=--`` as ``[]``; with every other required
    flag valid, each flag of the grammar so written exits 64, and so does
    ``--output=--``."""
    for flag in command.flags + cli.GRAMMAR.flags:
        argv = [f"{flag.name}=--"] if flag in cli.GRAMMAR.flags else []
        argv.append(command.name)
        for other in command.flags:
            if other is flag:
                argv.append(f"{flag.name}=--")
            elif other.required:
                argv += [other.name, _valid_value(command, other)]
        assert dispatch(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert f"argument {flag.name}: expected one argument" in err
        assert "Traceback" not in err


def test_a_crash_in_a_handler_exits_70_not_1(monkeypatch, capsys):
    """An exception that escapes a handler is no verdict: one stderr line
    and EX_SOFTWARE, never the 1 of a verified negative."""
    def crash(args):
        raise TypeError("unexpected")
    command = next(c for c in cli.GRAMMAR.commands if c.name == "weight")
    monkeypatch.setitem(cli.GRAMMAR.by_name, "weight", (command._replace(handler=crash),
                                                       cli.GRAMMAR.by_name["weight"][1]))
    assert dispatch(["weight", "--p", "1", "--symbol", "r"]) == EXIT_SOFTWARE == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: TypeError: unexpected (test_cli.py:")
    assert captured.err.count("\n") == 1


class TestNegativeSymbol:
    """A symbol that starts with a single ``-`` is the value of ``--symbol``,
    whether it is joined to the flag or given as the next argument."""

    @pytest.mark.parametrize("command", [["mellin"], ["weight", "--p", "1"]])
    @pytest.mark.parametrize("symbol", ["-r^3/2+7", "-r", "-r^x"])
    def test_both_spellings_give_the_same_output(self, command, symbol, capsys):
        joined = dispatch(command + [f"--symbol={symbol}"])
        joined_out = capsys.readouterr()
        separate = dispatch(command + ["--symbol", symbol])
        separate_out = capsys.readouterr()
        assert (separate, separate_out.out, separate_out.err) == (
            joined, joined_out.out, joined_out.err)
        assert joined == (EXIT_USAGE if symbol.endswith("x") else EXIT_OK)

    def test_a_flag_after_symbol_is_still_a_missing_value(self, capsys):
        assert dispatch(["weight", "--p", "1", "--symbol", "--p"]) == EXIT_USAGE
        assert "argument --symbol: expected one argument" in capsys.readouterr().err


class TestDeepNesting:
    DEEP = "(" * 3000 + "1" + ")" * 3000

    @pytest.mark.parametrize("argv", [
        ["weight", "--p", "1", "--symbol", DEEP],
        ["mellin", "--symbol", "r^" + DEEP],
        ["apply", "--term", "1:" + DEEP, "--k", "0"],
    ])
    def test_deep_nesting_is_a_usage_error(self, argv, capsys):
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"nesting deeper than MAX_NESTING_DEPTH = {MAX_NESTING_DEPTH}" in captured.err

    def test_nesting_at_the_limit_is_accepted(self, capsys):
        depth = MAX_NESTING_DEPTH
        code, payload = run(capsys, "weight", "--p", "1", "--symbol",
                            "(" * depth + "1" + ")" * depth + "*r^2")
        assert code == EXIT_OK
        assert payload["weight"] == "(z+2)/(z+3)"


class TestSymbolLength:
    LONG = "+".join(["r"] + [f"r^{i}" for i in range(2, mellin.MAX_SYMBOL_TERMS + 2)])

    @pytest.mark.parametrize("argv", [
        ["weight", "--p", "1", "--symbol", LONG],
        ["mellin", "--symbol", LONG],
        ["oracle-quadrature", "--p", "1", "--symbol", LONG, "--k", "0"],
        ["apply", "--term", "1:" + LONG, "--k", "0"],
        ["commutator", "--a", "1:r", "--b", "2:" + LONG],
    ])
    def test_a_symbol_past_the_bound_is_a_usage_error(self, argv, capsys):
        assert dispatch(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"more than MAX_SYMBOL_TERMS = {mellin.MAX_SYMBOL_TERMS} terms" in captured.err

    def test_a_symbol_at_the_bound_is_accepted(self, capsys):
        text = self.LONG.rpartition("+")[0]
        code, payload = run(capsys, "mellin", "--symbol", text)
        assert code == EXIT_OK
        assert payload["symbol"] == text


class TestParserReuse:
    """``dispatch`` builds its argument parser at most once per process,
    and only for an argv ``_read_argv`` declines or for the usage line of
    an input error; a call must not see anything an earlier call left
    behind."""

    IDENTITY = ["identity-check", "--id", "functional", "--p", "1", "--s", "2",
                "--n", "2", "--d", "3", "--m", "2", "--l", "3"]

    @staticmethod
    def outputs(capsys, sequence):
        results = []
        for argv in sequence:
            code = dispatch(list(argv))
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    @pytest.mark.parametrize("sequence", [
        [["--output", "text", "weight", "--p", "1", "--symbol", "r^2"],
         ["weight", "--p", "1", "--symbol", "r^2"]],
        [["weight", "--p", "1"],
         ["weight", "--p", "1", "--symbol", "r^2"],
         ["frobnicate"],
         ["weight", "--p", "2", "--symbol", "r"]],
        [["apply", "--term", "1:r^2", "--term", "2:r^3", "--k", "0"],
         ["apply", "--term", "1:r^2", "--k", "1"],
         ["mellin", "--symbol", "2*r+3*r^4"],
         IDENTITY + ["--samples", "5", "--precision-bits", "64"],
         IDENTITY + ["--samples", "3"],
         ["rationality", "--a", "2", "--b", "4", "--c", "0", "--d", "6", "--delta", "1"],
         ["commutator", "--a", "1:r^2", "--a", "0:r", "--b", "2:r^3"],
         ["commutator", "--a", "1:r^2", "--b", "2:r^3"],
         ["root-verify", "--p", "2", "--n", "3"]],
    ])
    def test_sequence_matches_a_fresh_parser_per_call(self, sequence, capsys, monkeypatch):
        assert cli._parser() is cli._parser()
        reused = self.outputs(capsys, sequence)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.outputs(capsys, sequence)
        assert reused == fresh

    VERIFY = ["verify-theorem", "--p", "1", "--s", "2", "--n", "2", "--d", "3",
              "--bound", "4", "--K", "20"]

    @pytest.mark.parametrize("sequence", [
        [VERIFY,
         VERIFY[:-1] + ["0"],
         VERIFY[:-4] + ["--bo", "4"],
         ["verify-theorem", "--p", "-1", "--s", "2", "--n", "2", "--d", "3"],
         VERIFY + ["--output", "text"],
         ["--output", "text"] + VERIFY,
         ["verify-theorem", "--p", "1"],
         VERIFY],
        [["weight", "--p", "1", "--symbol", "-r^2"],
         ["weight", "--p", "1", "--symbol=-r^2"],
         ["mellin", "--sym", "r^2"],
         ["mellin", "--symbol", "r^2"],
         ["apply", "--term", "1:r^2", "--term=2:r^3", "--k", "0"],
         ["apply", "--term", "1:r^2", "--k", "x"],
         ["--output", "text", "apply", "--term", "1:r^2", "--k", "1"]],
    ])
    def test_read_and_declined_argv_in_one_sequence(self, sequence, capsys, monkeypatch):
        """Argv that ``_read_argv`` reads and argv it leaves to argparse,
        interleaved, give what a fresh parser per call gives."""
        assert {cli._read_argv(list(argv)) is None for argv in sequence} == {True, False}
        self.test_sequence_matches_a_fresh_parser_per_call(sequence, capsys, monkeypatch)

    def test_argparse_is_built_only_when_needed(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(True) or real())
        monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
        assert dispatch(self.VERIFY) == EXIT_OK
        assert built == []
        # the usage line of an input error, then a declined argv: built once
        assert dispatch(self.VERIFY[:-1] + ["0"]) == EXIT_USAGE
        assert built == [True]
        assert dispatch(["verify-theorem", "--p", "1"]) == EXIT_USAGE
        assert built == [True]
        assert "usage: bergshift" in capsys.readouterr().err

    def test_text_output_does_not_stick(self, capsys):
        outputs = self.outputs(capsys, [
            ["--output", "text", "weight", "--p", "1", "--symbol", "r^2"],
            ["weight", "--p", "1", "--symbol", "r^2"],
        ])
        assert [code for code, _, _ in outputs] == [EXIT_OK, EXIT_OK]
        assert outputs[0][1] == "degree: 1\nweight: (z+2)/(z+3)\n"
        assert json.loads(outputs[1][1]) == {"degree": 1, "weight": "(z+2)/(z+3)"}

    def test_repeated_flags_do_not_accumulate(self, capsys):
        code, first = run(capsys, "apply", "--term", "1:r^2", "--term", "2:r^3", "--k", "0")
        code2, second = run(capsys, "apply", "--term", "1:r^2", "--k", "0")
        assert (code, code2) == (EXIT_OK, EXIT_OK)
        assert [r["index"] for r in first["result"]] == [1, 2]
        assert second["result"] == [{"index": 1, "coefficient": "4/5"}]


class TestIdentityCheckBounds:
    ARGV = ["identity-check", "--id", "commutator", "--p", "1", "--s", "2", "--n", "2",
            "--d", "3", "--m", "2", "--l", "3"]

    @pytest.fixture
    def no_evaluation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sides built for a rejected input")
        monkeypatch.setattr(identities, "build_sides", refuse)

    @pytest.mark.parametrize("samples", ["-3", "0", "1"])
    def test_fewer_than_two_samples_rejected(self, samples, capsys, no_evaluation):
        # with no sample this instance used to print a false "proportional"
        code = dispatch(self.ARGV + ["--samples", samples])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert f"MAX_SAMPLES = {identities.MAX_SAMPLES}" in captured.err

    def test_two_samples_refute(self, capsys):
        code, payload = run(capsys, *self.ARGV, "--samples", "5")
        assert code == EXIT_NEGATIVE
        assert payload["verdict"] == "not_proportional"

    def test_samples_above_limit_names_the_limit(self, capsys, no_evaluation):
        code = dispatch(self.ARGV + ["--samples", str(identities.MAX_SAMPLES + 1)])
        assert code == EXIT_USAGE
        assert f"MAX_SAMPLES = {identities.MAX_SAMPLES}" in capsys.readouterr().err

    def test_huge_sample_count_fails_fast(self, capsys, no_evaluation):
        assert dispatch(self.ARGV + ["--samples", str(10**12)]) == EXIT_USAGE

    def test_precision_above_limit_names_the_limit(self, capsys, no_evaluation):
        bits = identities.MAX_PRECISION_BITS + 1
        code = dispatch(self.ARGV + ["--samples", "5", "--precision-bits", str(bits)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"precision_bits {bits} exceeds MAX_PRECISION_BITS = {identities.MAX_PRECISION_BITS}" in err

    @pytest.mark.parametrize("bits", ["0", "-5"])
    def test_precision_below_one_rejected(self, bits, capsys, no_evaluation):
        code = dispatch(self.ARGV + ["--samples", "5", "--precision-bits", bits])
        assert code == EXIT_USAGE
        assert "precision_bits must be positive" in capsys.readouterr().err

    def test_huge_degrees_refuted_sparsely(self, capsys):
        # lcm(2p, 2s) is about 4e12: the pole counts are read on their support
        start = time.perf_counter()
        code, payload = run(capsys, "identity-check", "--id", "commutator", "--p", "999983",
                            "--s", "1000003", "--n", "2", "--d", "3", "--m", "2", "--l", "22")
        assert time.perf_counter() - start < 0.1
        assert code == EXIT_NEGATIVE
        assert payload["verdict"] == "not_proportional" and payload["exact"] is True

    def test_limits_themselves_accepted(self, capsys):
        code, payload = run(capsys, "identity-check", "--id", "functional", "--p", "1",
                            "--s", "2", "--n", "2", "--d", "3", "--m", "1", "--l", "2",
                            "--samples", "2",
                            "--precision-bits", str(identities.MAX_PRECISION_BITS))
        assert code == EXIT_OK
        assert len(payload["samples"]) == 2

    @pytest.mark.parametrize("flag", ["--n", "--d"])
    @pytest.mark.parametrize("value", [solver.MAX_EXPONENT + 1, 10**9])
    def test_exponent_above_limit_names_the_limit(self, flag, value, capsys, no_evaluation,
                                                  monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("power weight built for a rejected input")
        monkeypatch.setattr(identities, "power_weight", refuse)
        argv = list(self.ARGV)
        argv[argv.index(flag) + 1] = str(value)
        code = dispatch(argv + ["--samples", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert f"exponent {flag[2:]} = {value} exceeds the limit {solver.MAX_EXPONENT}" in captured.err

    @pytest.mark.parametrize("scenario", ["commutator", "functional"])
    def test_exponent_limit_itself_accepted(self, scenario, capsys):
        limit = str(solver.MAX_EXPONENT)
        code, payload = run(capsys, "identity-check", "--id", scenario, "--p", "2", "--s", "3",
                            "--n", limit, "--d", limit, "--m", "2", "--l", "3",
                            "--samples", "2")
        assert code in (EXIT_OK, EXIT_NEGATIVE)
        assert payload["params"]["n"] == payload["params"]["d"] == solver.MAX_EXPONENT

    @pytest.mark.parametrize("flag", ["--m", "--l"])
    @pytest.mark.parametrize("value", [solver.MAX_ROOT_DEGREE + 1, 10**9])
    def test_degree_above_limit_names_the_limit(self, flag, value, capsys, no_evaluation):
        # the run time grows steeply in m: --m 1000 --l 1001 took 9 s
        argv = list(self.ARGV)
        argv[argv.index(flag) + 1] = str(value)
        code = dispatch(argv + ["--samples", "5"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert (f"degree {flag[2:]} = {value} exceeds the limit "
                f"MAX_ROOT_DEGREE = {solver.MAX_ROOT_DEGREE}") in captured.err

    def test_degree_limit_itself_passes_the_check(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached(args)
        monkeypatch.setattr(identities, "build_sides", reached)
        limit = solver.MAX_ROOT_DEGREE
        with pytest.raises(Reached):
            identities.verify_identity("commutator", 1, 2, 2, 3, limit, limit,
                                       sample_zs=identities.default_samples(2))


class TestRootVerifyBound:
    @pytest.fixture
    def no_composition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("root composed for a rejected input")
        monkeypatch.setattr(cli, "compose", refuse)
        monkeypatch.setattr(shift_algebra, "power_weight", refuse)

    @pytest.mark.parametrize("p", [solver.MAX_ROOT_DEGREE + 1, 10**9])
    def test_degree_above_limit_names_the_limit(self, p, capsys, no_composition):
        code = dispatch(["root-verify", "--p", str(p), "--n", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert f"p = {p} exceeds the limit MAX_ROOT_DEGREE = {solver.MAX_ROOT_DEGREE}" in captured.err

    def test_limit_itself_accepted(self, capsys):
        code, payload = run(capsys, "root-verify", "--p", str(solver.MAX_ROOT_DEGREE), "--n", "3")
        assert code == EXIT_OK
        assert payload["match"] is True

    @pytest.mark.parametrize("n", [solver.MAX_EXPONENT + 1, 10**9])
    def test_exponent_above_limit_names_the_limit(self, n, capsys, no_composition):
        code = dispatch(["root-verify", "--p", "2", "--n", str(n)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert f"exponent n = {n} exceeds the limit {solver.MAX_EXPONENT}" in captured.err

    def test_exponent_limit_itself_accepted(self, capsys):
        code, payload = run(capsys, "root-verify", "--p", "2", "--n", str(solver.MAX_EXPONENT))
        assert code == EXIT_OK
        assert payload["match"] is True


def test_every_subcommand_registers_its_handler():
    """Each subcommand of the grammar table names its ``_cmd_`` handler,
    and the argparse subparser built from that entry sets it."""
    commands = cli.GRAMMAR.commands
    assert len({c.name for c in commands}) == len(commands) == 10
    parser = cli.build_parser()
    for command in commands:
        assert command.handler is getattr(cli, "_cmd_" + command.name.replace("-", "_"))
        argv = [command.name]
        for flag in command.flags:
            if flag.required:
                argv += [flag.name, flag.choices[0] if flag.choices else "1"]
        args = parser.parse_args(argv)
        assert (args.command, args.handler) == (command.name, command.handler)


class TestSolverBounds:
    @pytest.fixture
    def no_elimination(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("nullspace computed for a rejected input")
        monkeypatch.setattr(solver, "nullspace", refuse)

    @pytest.mark.parametrize("command", ["scan", "verify-theorem"])
    def test_bound_above_truncation_fails_fast(self, command, capsys, no_elimination):
        code = dispatch([command, "--p", "1", "--s", "2", "--n", "2", "--d", "3",
                         "--bound", "40", "--K", "30"])
        assert code == EXIT_USAGE
        assert "bound 40 exceeds the truncation K = 30" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan", "verify-theorem"])
    def test_truncation_above_limit_names_the_limit(self, command, capsys, no_elimination):
        K = solver.MAX_TRUNCATION + 1
        code = dispatch([command, "--p", "1", "--s", "2", "--n", "2", "--d", "3",
                         "--K", str(K)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"exceeds the limit {solver.MAX_TRUNCATION}" in err

    @pytest.mark.parametrize("command", ["scan", "verify-theorem"])
    @pytest.mark.parametrize("bound, K", [(-3, -1), (0, 0)])
    def test_truncation_below_one_names_the_limit(self, command, bound, K, capsys,
                                                  no_elimination):
        code = dispatch([command, "--p", "1", "--s", "2", "--n", "2", "--d", "3",
                         "--bound", str(bound), "--K", str(K)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"truncation K = {K} is below the limit 1" in captured.err

    @pytest.mark.parametrize("command", ["scan", "verify-theorem"])
    @pytest.mark.parametrize("bound, K", [(3, 3), (1, 4)])
    def test_truncation_below_s_names_the_limit(self, command, bound, K, capsys, no_elimination):
        code = dispatch([command, "--p", "3", "--s", "5", "--n", "1", "--d", "1",
                         "--bound", str(bound), "--K", str(K)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"truncation K = {K} is below s = 5" in captured.err

    def test_scan_without_admissible_pair_fails_fast(self, capsys, no_elimination, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reference pair examined for a rejected input")
        monkeypatch.setattr(solver, "commuting_pair", refuse)
        code = dispatch(["scan", "--p", "1", "--s", "100", "--n", "2", "--d", "3",
                         "--bound", "8", "--K", "100"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bound 8" in captured.err and "s - p" in captured.err

    def test_verify_theorem_without_admissible_pair_still_fails(self, capsys, no_elimination):
        code, payload = run(capsys, "verify-theorem", "--p", "1", "--s", "100", "--n", "2",
                            "--d", "3", "--bound", "8", "--K", "100")
        assert code == EXIT_NEGATIVE
        assert payload["status"] == "fail"
        assert payload["scan"]["cells"] == []

    @pytest.mark.parametrize("command", ["scan", "verify-theorem"])
    @pytest.mark.parametrize("flag", ["--n", "--d"])
    def test_exponent_above_limit_names_the_limit(self, command, flag, capsys, no_elimination):
        argv = {"--p": "1", "--s": "2", "--n": "2", "--d": "3"}
        argv[flag] = "100000"
        code = dispatch([command] + [x for kv in argv.items() for x in kv])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{flag[2:]} = 100000 exceeds the limit {solver.MAX_EXPONENT}" in err


class TestCellAboveProvedFloor:
    """A count above its proved floor only bounds the untruncated one from
    above, so it makes the verdict inconclusive, never a FAIL; each of
    these calls used to exit 1 with a wrong FAIL."""

    @pytest.mark.parametrize("p, s, n, d, K, matching", [
        (1, 2, 2, 3, 2, (2, 1)),  # (dim, floor) of the (p, s) cell
        (2, 4, 3, 5, 4, (5, 2)),
        (1, 3, 2, 2, 3, (3, 1)),
        (2, 3, 1, 4, 3, (4, 1)),
        (2, 3, 1, 4, 4, (3, 1)),
    ])
    def test_verify_theorem_names_each_cell_above_its_floor(self, p, s, n, d, K, matching,
                                                           capsys):
        code, payload = run(capsys, "verify-theorem", "--p", str(p), "--s", str(s),
                            "--n", str(n), "--d", str(d), "--bound", str(K), "--K", str(K))
        assert code == EXIT_INCONCLUSIVE
        assert (payload["status"], payload["pass"]) == ("inconclusive", None)
        assert payload["operator_dimension"] is None
        cells = payload["scan"]["cells"]
        assert [(c["dim"], c["floor"]) for c in cells if (c["m"], c["l"]) == (p, s)] == [matching]
        above = [c for c in cells if c["dim"] != c["floor"]]
        assert all(c["dim"] > c["floor"] for c in above)
        assert payload["messages"] == [
            f"pair (m={c['m']}, l={c['l']}) has dimension {c['dim']} above its proved "
            f"floor {c['floor']} at K={K}" for c in above]


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_quietly(unbuffered):
    # Buffered, the report is still pending when dispatch returns and fails
    # on the final flush; unbuffered, print itself fails inside dispatch.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "bergshift.cli", "weight", "--p", "1", "--symbol", "r^2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # no reader left: every write to stdout fails with EPIPE
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
    assert code == EXIT_BROKEN_PIPE


class TestDeterminismAndRoundTrip:
    def test_byte_identical_reruns(self, capsys):
        args = ["verify-theorem", "--p", "1", "--s", "2", "--n", "2", "--d", "3",
                "--bound", "3", "--K", "15"]
        dispatch(args)
        first = capsys.readouterr().out
        dispatch(args)
        second = capsys.readouterr().out
        assert first == second

    def test_rational_serialization_round_trip(self):
        for q in (Fraction(4, 5), Fraction(-7, 3), Fraction(12)):
            assert parse_rational(ser_value(q)) == q

    def test_weight_serialization_round_trip_rational(self):
        w = toeplitz_weight(2, RadialSymbol.monomial(5))
        assert weight_from_jsonable(ser_weight(w)) == w

    def test_weight_serialization_round_trip_gamma(self):
        w = power_weight(3, 2, 3)
        data = ser_weight(w)
        assert isinstance(data, dict)
        assert weight_from_jsonable(data) == w

    @pytest.mark.parametrize("atom, message", [
        ({"two_delta": 2, "offset": -1}, "offsets must be nonnegative"),
        ({"two_delta": 0, "offset": 1}, "two_delta must be a positive integer"),
        ({"two_delta": 2, "offset": 1.5}, "offsets must be integers"),
    ])
    def test_weight_from_jsonable_rejects_bad_atoms(self, atom, message):
        data = {"terms": [{"coeff": "1", "gamma": {"num": [atom], "den": []}}]}
        with pytest.raises(ValueError, match=message):
            weight_from_jsonable(data)

    def test_text_output_mode(self, capsys):
        code = dispatch(["--output", "text", "weight", "--p", "1", "--symbol", "r^2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "(z+2)/(z+3)" in out
