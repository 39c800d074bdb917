"""CLI dispatch, serialization round-trips, exit-code triage."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bergshift import solver
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
from bergshift.exact_algebra import parse_rational
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
        assert (first["m"], first["l"], first["dim"]) == (1, 2, 1)
        assert first["stable"] is True
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

    def test_unknown_flag(self, capsys):
        assert dispatch(["weight", "--p", "1", "--symbol", "r", "--bogus"]) == EXIT_USAGE

    def test_nonpositive_precision_on_ball_path(self, capsys):
        argv = ["identity-check", "--id", "functional", "--p", "1", "--s", "2", "--n", "2",
                "--d", "3", "--m", "2", "--l", "3", "--samples", "5"]
        assert dispatch(argv + ["--precision-bits", "0"]) == EXIT_USAGE
        assert dispatch(argv + ["--precision-bits", "1"]) == EXIT_NEGATIVE


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

    def test_text_output_mode(self, capsys):
        code = dispatch(["--output", "text", "weight", "--p", "1", "--symbol", "r^2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "(z+2)/(z+3)" in out
