"""CLI dispatch, serialization round-trips, exit-code triage."""

import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bergshift import cli, identities, shift_algebra, solver
from bergshift.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INCONCLUSIVE,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    dispatch,
    ser_value,
    ser_weight,
    weight_from_jsonable,
)
from bergshift.exact_algebra import MAX_NESTING_DEPTH, parse_rational
from bergshift.gamma_ratio import power_weight
from bergshift.mellin import RadialSymbol, toeplitz_weight


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
        assert payload["witnesses"]

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
        argv = ["identity-check", "--id", "functional", "--p", "1", "--s", "2", "--n", "2",
                "--d", "3", "--m", "2", "--l", "3", "--samples", "5"]
        assert dispatch(argv + ["--precision-bits", "0"]) == EXIT_USAGE
        assert dispatch(argv + ["--precision-bits", "1"]) == EXIT_NEGATIVE


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


class TestParserReuse:
    """``dispatch`` builds its argument parser once per process; a call must
    not see anything an earlier call left behind."""

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
    [sub] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 10
    for name, parser in sub.choices.items():
        assert parser.get_default("handler") is getattr(cli, "_cmd_" + name.replace("-", "_"))


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

    def test_scan_without_admissible_pair_fails_fast(self, capsys, no_elimination, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reference pair examined for a rejected input")
        monkeypatch.setattr(solver, "commuting_pair", refuse)
        code = dispatch(["scan", "--p", "1", "--s", "100", "--n", "2", "--d", "3",
                         "--bound", "8", "--K", "40"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bound 8" in captured.err and "s - p" in captured.err

    def test_verify_theorem_without_admissible_pair_still_fails(self, capsys, no_elimination):
        code, payload = run(capsys, "verify-theorem", "--p", "1", "--s", "100", "--n", "2",
                            "--d", "3", "--bound", "8", "--K", "40")
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
