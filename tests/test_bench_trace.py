"""The benchmark's trace mode (``bench/run.py --trace 1``) still binds.

``bench/spans.py`` wraps the package functions it names in ``TRACED``,
found by name in the package modules; a function renamed or removed in
the package would break the traced run.  These tests load the file as it
is and bind it the way ``bench/run.py`` does.
"""

import importlib.util
from pathlib import Path

import bergshift as bs
from bergshift.cli import dispatch

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    """The module, compiled from its source: no bytecode is written under bench/."""
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader("bench_spans", None))
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def bound_tracer(spans):
    tracer = spans.Tracer()
    tracer.bind([bs] + [getattr(bs, layer) for layer in spans.TRACED])
    return tracer


def test_every_traced_name_resolves():
    spans = load_spans()
    tracer = bound_tracer(spans)
    bound = {(id(owner), attr) for owner, attr, _, _ in tracer._bindings}
    for layer, names in spans.TRACED.items():
        for name in names:
            owner = getattr(bs, layer)
            *path, attr = name.split(".")
            for part in path:
                owner = getattr(owner, part)
            assert callable(getattr(owner, attr)), f"{layer}.{name}"
            assert (id(owner), attr) in bound, f"{layer}.{name}"


def test_traced_verify_theorem_records_the_solver_spans(capsys):
    spans = load_spans()
    original = bs.solver.build_system
    tracer = bound_tracer(spans)
    tracer.enable()
    try:
        code = dispatch(["verify-theorem", "--p", "1", "--s", "2", "--n", "2", "--d", "3",
                         "--bound", "8", "--K", "60"])
    finally:
        tracer.disable()
    capsys.readouterr()
    tracer.end_case(0.0, 0)
    metrics = tracer.metrics(1.0, 1.0)
    assert code == 0
    assert metrics["solver.verify_theorem.calls"] == 1
    assert metrics["solver.nullspace.calls"] == 7
    # the solver reports theta and builds no explicit system, so the
    # system-size rows read 0
    assert metrics["solver.build_system.calls"] == 0
    assert metrics["solver.system.rows"] == 0
    assert metrics["solver.system.unknowns"] == 0
    assert bs.solver.build_system is original
