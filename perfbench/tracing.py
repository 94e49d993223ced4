"""Spans and counters for the traced run, recorded from outside the package.

The tracer rebinds the public functions it times, by name, in the module
namespaces the benchmark and the package call them through.  A rebound name
records a span (name, start, end, parent span, op id) while an op is open and
passes straight through otherwise, so the output checks that run between ops
are never traced.  Nothing under ``src/`` changes; ``uninstall`` puts every
original back.

The analysis half (``self_times`` and ``layer_metrics``) only reads span and
counter records, so the parent process can use it without importing vsp.
"""

from __future__ import annotations

import os
import time

# Function name -> layer (the vsp module it belongs to).  Layers are the
# package's modules; "harness" is the benchmark's own time inside an op.
TIMED = {
    "generate_grid_instance": "instances",
    "read_instance": "instances",
    "write_instance": "instances",
    "read_schedule": "instances",
    "write_schedule": "instances",
    "validate_schedule": "core",
    "evaluate": "core",
    "run_dispatch": "heuristics",
    "deadline_and_proximity": "heuristics",
    "solve_exact": "exact",
    "minimal_times": "exact",
    "conflict_pairs": "exact",
    "export_mip": "mip",
    "parse_lp": "mip",
    "run_sweep": "bench",
    "emit_csv": "bench",
    "main": "cli",
}
LAYERS = ("instances", "core", "heuristics", "exact", "mip", "bench", "cli")
HARNESS = "harness"
OP_SPAN = "harness.op"

# Namespaces whose bindings are replaced: the ones the package calls its own
# layers through, plus the package root the benchmark itself calls.
NAMESPACES = ("vsp", "vsp.cli", "vsp.bench", "vsp.heuristics", "vsp.exact")

_PROVED_OR_INFEASIBLE = ("optimal", "infeasible")


class Tracer:
    """Keeps spans and counters in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = {}
        self.walksets: set[int] = set()
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- rebinding -----------------------------------------------------
    def install(self, modules: dict[str, object]) -> None:
        """Rebind every TIMED name found in the given namespaces."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for ns in NAMESPACES:
            module = modules[ns]
            for name in TIMED:
                original = getattr(module, name, None)
                if callable(original):
                    self._saved.append((module, name, original))
                    setattr(module, name, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, name: str, fn):
        span_name = f"{TIMED[name]}.{name}"

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self._observe(name, args, result)
            return result

        return traced

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op: int) -> int:
        self._op = op
        return self._open(OP_SPAN)

    def end_op(self, sid: int) -> None:
        self._close(sid)
        self._op = None

    # -- counters ------------------------------------------------------
    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _observe(self, name: str, args: tuple, result) -> None:
        """Count work at the boundary where it happens, from public results."""
        if name == "generate_grid_instance":
            self._add("instances.separation_entries", len(result.separations))
            self.walksets.add(hash(tuple(w.vertices for w in result.walks)))
        elif name == "write_instance":
            self._add("instances.json_bytes", os.path.getsize(args[1]))
        elif name == "run_dispatch":
            self._add("heuristics.stamps", sum(len(row) for row in result.times))
            self._add("heuristics.slot_failures", result.slot_failures)
            self._add("heuristics.hard_violations", result.hard_violations)
        elif name == "validate_schedule":
            self._add("core.validate_schedule.pairs_checked",
                      len(args[0].separations) // 2)
        elif name == "solve_exact":
            self._add("exact.nodes", result.node_count)
            if result.status.value not in _PROVED_OR_INFEASIBLE:
                self._add("exact.budget_stops", 1)
        elif name == "conflict_pairs":
            self._add("exact.conflict_pairs", len(result))
        elif name == "export_mip":
            self._add("mip.lp_bytes", len(result))
        elif name == "parse_lp":
            self._add("mip.rows", len(result.rows))

    def add_gap(self, key: str, value: float) -> None:
        """Record a quality gap measured by the benchmark after an op."""
        self._add(key, value)
        self._add(key + ".samples", 1)

    def dump(self) -> dict:
        counters = dict(self.counters)
        counters["instances.walksets"] = len(self.walksets)
        return {"spans": self.spans, "counters": counters}


# -- analysis (no vsp import) ------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(trace: dict, traced_ops: int) -> dict[str, float]:
    """Per-layer numbers of a traced run, as means per traced op.

    Times are seconds per op; counts are per op; ``*_per_s`` are totals
    over totals; gaps are means over the instances they were measured on.
    """
    spans, counters = trace["spans"], trace["counters"]
    ops = max(traced_ops, 1)
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in (*LAYERS, HARNESS)}
    op_wall = 0.0
    for span, self_s in zip(spans, own):
        name, start, end = span[0], span[1], span[2]
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        layer_self[_layer_of(name)] += self_s
        if name == OP_SPAN:
            op_wall += end - start

    def per_op(value: float) -> float:
        return value / ops

    def gap(key: str) -> float:
        samples = counters.get(key + ".samples", 0)
        return counters.get(key, 0) / samples if samples else 0.0

    generate_calls = calls.get("instances.generate_grid_instance", 0)
    dispatch_s = total.get("heuristics.run_dispatch", 0.0)
    solve_s = total.get("exact.solve_exact", 0.0)
    out = {
        "instances.generate_grid_instance.s":
            per_op(total.get("instances.generate_grid_instance", 0.0)),
        "instances.generate_grid_instance.calls": per_op(generate_calls),
        "instances.separation_entries":
            per_op(counters.get("instances.separation_entries", 0)),
        "instances.read_instance.s": per_op(total.get("instances.read_instance", 0.0)),
        "instances.write_instance.s": per_op(total.get("instances.write_instance", 0.0)),
        "instances.json_bytes": per_op(counters.get("instances.json_bytes", 0)),
        "instances.read_schedule.s": per_op(total.get("instances.read_schedule", 0.0)),
        "instances.write_schedule.s": per_op(total.get("instances.write_schedule", 0.0)),
        "instances.walkset_reuse": (
            counters.get("instances.walksets", 0) / generate_calls
            if generate_calls else 0.0
        ),
        "heuristics.run_dispatch.s": per_op(dispatch_s),
        "heuristics.run_dispatch.calls": per_op(calls.get("heuristics.run_dispatch", 0)),
        "heuristics.deadline_and_proximity.self_s":
            per_op(self_total.get("heuristics.deadline_and_proximity", 0.0)),
        "heuristics.stamps_per_s": (
            counters.get("heuristics.stamps", 0) / dispatch_s if dispatch_s else 0.0
        ),
        "heuristics.slot_failures": per_op(counters.get("heuristics.slot_failures", 0)),
        "heuristics.hard_violations":
            per_op(counters.get("heuristics.hard_violations", 0)),
        "core.validate_schedule.s": per_op(total.get("core.validate_schedule", 0.0)),
        "core.validate_schedule.pairs_checked":
            per_op(counters.get("core.validate_schedule.pairs_checked", 0)),
        "core.evaluate.s": per_op(total.get("core.evaluate", 0.0)),
        "exact.solve_exact.s": per_op(solve_s),
        "exact.nodes": per_op(counters.get("exact.nodes", 0)),
        "exact.nodes_per_s": counters.get("exact.nodes", 0) / solve_s if solve_s else 0.0,
        "exact.conflict_pairs": per_op(counters.get("exact.conflict_pairs", 0)),
        "exact.minimal_times.s": per_op(total.get("exact.minimal_times", 0.0)),
        "exact.budget_stops": per_op(counters.get("exact.budget_stops", 0)),
        "exact.root_gap": gap("exact.root_gap"),
        "exact.heuristic_gap": gap("exact.heuristic_gap"),
        "mip.export_mip.s": per_op(total.get("mip.export_mip", 0.0)),
        "mip.parse_lp.s": per_op(total.get("mip.parse_lp", 0.0)),
        "mip.lp_bytes": per_op(counters.get("mip.lp_bytes", 0)),
        "mip.rows": per_op(counters.get("mip.rows", 0)),
        "bench.run_sweep.self_s": per_op(self_total.get("bench.run_sweep", 0.0)),
        "bench.emit_csv.s": per_op(total.get("bench.emit_csv", 0.0)),
        "cli.main.self_s": per_op(self_total.get("cli.main", 0.0)),
        "cli.main.calls": per_op(calls.get("cli.main", 0)),
    }
    for layer, value in layer_self.items():
        out[f"{layer}.self_s"] = per_op(value)
    package_self = sum(layer_self[layer] for layer in LAYERS)
    out["trace.layer_self_share"] = package_self / op_wall if op_wall else 0.0
    out["trace.spans_per_op"] = per_op(len(spans))
    return out
