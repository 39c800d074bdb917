"""Spans around the package's public functions, recorded from outside it.

:meth:`Tracer.enable` replaces each traced function, in the namespace of
every package module that binds it, with a wrapper that appends a span
(name, start, end, parent) to the current case's list; :meth:`disable`
puts the originals back.  At the end of each case the spans are folded
into per-function and per-layer totals, self time being a span's duration
minus that of its child spans, and the first spans of the run are kept for
:meth:`dump`.  The package itself is not changed.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
from time import perf_counter

#: Traced public functions, by layer (the package module that defines them).
TRACED = {
    "cli": ("dispatch",),
    "solver": ("verify_theorem", "scan", "nullspace", "build_system",
               "match_root_power", "commuting_pair"),
    "exact_algebra": ("rf_normalize", "poly_gcd", "rf_eval"),
    "gamma_ratio": ("WeightExpr.build", "canonicalize", "rationality_oracle",
                    "eval_ball", "power_weight"),
    "shift_algebra": ("compose", "commutator", "linear_combine"),
    "identities": ("verify_identity", "build_sides"),
    "mellin": ("parse_symbol", "toeplitz_weight", "bergman_quadrature_oracle"),
    "quadrature": ("integrate_adaptive",),
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]

#: Quantities read off results (sizes and the identity reports), by name.
DERIVED = {
    "solver.nullspace.self_ms": "ms",
    "solver.system.rows": "count",
    "solver.system.unknowns": "count",
    "solver.basis.max_bits": "bits",
    "gamma_ratio.weight.max_terms": "count",
    "gamma_ratio.weight.max_gamma_atoms": "count",
    "identities.decide_exact_ms": "ms",
    "identities.decide_ball_ms": "ms",
    "identities.exact_share": "ratio",
    "identities.precision_doublings": "count",
    "identities.skipped_poles": "count",
    "cli.dispatch.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.cases_per_s": "1/s",
    "trace.untraced_cases_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "trace.unattributed_ms": "ms",
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every metric a traced run prints, as (name, unit)."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.ms", "ms"), (f"{name}.errors", "count")]
    out += [(f"{layer}.self_ms", "ms") for layer in TRACED]
    out += list(DERIVED.items())
    return out


#: Spans kept for the written trace; later ones are folded and dropped.
KEEP_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.spans: list = []     # (name id, start, end, parent index) of the current case
        self.stack: list[int] = []
        self.flags: dict[int, bool] = {}  # verify_identity span -> report.exact
        n = len(SPAN_NAMES)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.errors = [0] * n
        self.layer_of = [name.split(".", 1)[0] for name in SPAN_NAMES]
        self.layer_self = dict.fromkeys(TRACED, 0.0)
        self.sizes = {"rows": 0, "unknowns": 0, "max_bits": 0, "max_terms": 0, "max_atoms": 0}
        self.identity = {"exact": 0, "reports": 0, "doublings": 0, "poles": 0,
                         "decide_exact": 0.0, "decide_ball": 0.0}
        self.output_bytes = 0
        self.cases = 0
        self.case_time = 0.0
        self.top_level = 0.0
        self.span_count = 0
        self.kept: list = []
        self.origin = perf_counter()
        self._bindings: list = []  # (owner, attribute, original, wrapper)
        self._observers = {SPAN_NAMES.index(k): v for k, v in (
            ("solver.build_system", self._observe_system),
            ("solver.nullspace", self._observe_nullspace),
            ("shift_algebra.commutator", self._observe_commutator),
            ("identities.verify_identity", self._observe_identity),
        )}

    # -- installation -------------------------------------------------------

    def bind(self, modules) -> None:
        """Find every binding of a traced function in ``modules`` and make
        its wrapper; :meth:`enable` and :meth:`disable` then swap them."""
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for span_id, name in enumerate(SPAN_NAMES):
            layer, fn = name.split(".", 1)
            if fn == "WeightExpr.build":
                cls = by_name[layer].WeightExpr
                original = cls.__dict__["build"]
                wrapper = staticmethod(self._wrap(span_id, original.__func__))
                self._bindings.append((cls, "build", original, wrapper))
                continue
            original = getattr(by_name[layer], fn)
            wrapper = self._wrap(span_id, original)
            self._bindings += [(module, attr, original, wrapper) for module in modules
                               for attr, value in vars(module).items() if value is original]

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _wrap(self, span_id: int, fn):
        spans, stack, errors = self.spans, self.stack, self.errors
        observer = self._observers.get(span_id)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[span_id] += 1
                raise
            finally:
                spans[idx] = (span_id, start, perf_counter(), parent)
                stack.pop()
            if observer is not None:
                observer(idx, result, kwargs)
            return result

        return traced

    # -- observers on results -----------------------------------------------

    def _observe_system(self, idx, system, kwargs):
        self.sizes["rows"] = max(self.sizes["rows"], len(system.rows))
        self.sizes["unknowns"] = max(self.sizes["unknowns"], system.num_unknowns)

    def _observe_nullspace(self, idx, report, kwargs):
        bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                    for vec in report.basis for x in vec), default=0)
        self.sizes["max_bits"] = max(self.sizes["max_bits"], bits)

    def _observe_commutator(self, idx, op, kwargs):
        for _, weight in op.parts:
            self.sizes["max_terms"] = max(self.sizes["max_terms"], len(weight.terms))
            for _, gamma in weight.terms:
                self.sizes["max_atoms"] = max(self.sizes["max_atoms"], len(gamma.num) + len(gamma.den))

    def _observe_identity(self, idx, report, kwargs):
        requested = kwargs.get("precision_bits", 200)
        self.flags[idx] = report.exact
        self.identity["reports"] += 1
        self.identity["exact"] += report.exact
        self.identity["doublings"] += round(math.log2(report.precision_bits / requested))
        self.identity["poles"] += len(report.skipped_poles)

    # -- folding ------------------------------------------------------------

    def end_case(self, case_seconds: float, output_bytes: int) -> None:
        """Fold the finished case's spans into the totals."""
        case_id = self.cases
        self.cases += 1
        spans = self.spans
        child = [0.0] * len(spans)
        sides = [0.0] * len(spans)
        build_sides = SPAN_NAMES.index("identities.build_sides")
        for span_id, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
                if span_id == build_sides:
                    sides[parent] += end - start
        for i, (span_id, start, end, parent) in enumerate(spans):
            duration = end - start
            self.calls[span_id] += 1
            self.total[span_id] += duration
            self.self_time[span_id] += duration - child[i]
            self.layer_self[self.layer_of[span_id]] += duration - child[i]
            if parent < 0:
                self.top_level += duration
        for i, exact in self.flags.items():
            _, start, end, _ = spans[i]
            self.identity["decide_exact" if exact else "decide_ball"] += end - start - sides[i]
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            base = len(self.kept)
            self.kept += [(case_id, s, a - self.origin, b - self.origin, p + base if p >= 0 else -1)
                          for s, a, b, p in spans[:room]]
        self.span_count += len(spans)
        self.case_time += case_seconds
        self.output_bytes += output_bytes
        spans.clear()
        self.flags.clear()

    def metrics(self, traced_rate: float, untraced_rate: float) -> dict[str, float]:
        ms = 1000.0
        out: dict[str, float] = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.ms"] = self.total[i] * ms
            out[f"{name}.errors"] = self.errors[i]
        for layer, seconds in self.layer_self.items():
            out[f"{layer}.self_ms"] = seconds * ms
        ident = self.identity
        out.update({
            "solver.nullspace.self_ms": self.self_time[SPAN_NAMES.index("solver.nullspace")] * ms,
            "solver.system.rows": self.sizes["rows"],
            "solver.system.unknowns": self.sizes["unknowns"],
            "solver.basis.max_bits": self.sizes["max_bits"],
            "gamma_ratio.weight.max_terms": self.sizes["max_terms"],
            "gamma_ratio.weight.max_gamma_atoms": self.sizes["max_atoms"],
            "identities.decide_exact_ms": ident["decide_exact"] * ms,
            "identities.decide_ball_ms": ident["decide_ball"] * ms,
            "identities.exact_share": ident["exact"] / ident["reports"] if ident["reports"] else 0.0,
            "identities.precision_doublings": ident["doublings"],
            "identities.skipped_poles": ident["poles"],
            "cli.dispatch.self_ms": self.self_time[SPAN_NAMES.index("cli.dispatch")] * ms,
            "cli.output_bytes": self.output_bytes,
            "trace.cases_per_s": traced_rate,
            "trace.untraced_cases_per_s": untraced_rate,
            "trace.overhead_ratio": untraced_rate / traced_rate if traced_rate else 0.0,
            "trace.spans": self.span_count,
            "trace.unattributed_ms": (self.case_time - self.top_level) * ms,
        })
        return out

    def dump(self, path) -> None:
        """Write the kept spans as gzipped JSON; times in seconds from the
        tracer's creation, parents as indices into the same list."""
        with gzip.open(path, "wt") as f:
            json.dump({"names": SPAN_NAMES, "fields": ["case", "name", "start", "end", "parent"],
                       "recorded": self.span_count, "spans": self.kept}, f)
