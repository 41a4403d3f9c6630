"""Traced runs: spans around harnackflow's public functions, and the layer metrics.

Run as a script, this module is the traced child process::

    python3 bench/tracing.py SPANS.json <harnackflow CLI arguments...>

It wraps the functions in ``TARGETS`` wherever a harnackflow module binds
them (so ``runner.run_flow``, bound by ``from .flow import run as run_flow``,
is wrapped together with ``flow.run``), runs ``harnackflow.cli.main`` on the
arguments, times the geometry and action kernels on the workload's own grid,
and writes the spans to SPANS.json.  A target that no longer exists is
listed as missing instead of failing the run.

Imported, it turns such a file into the per-layer metrics (``layer_metrics``).
No harnackflow module is imported at module level, so the benchmark process
itself stays free of the program under test.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time

# (module, function, kind).  The span is named "<module>.<function>" and its
# layer is the module.  ``kind`` picks what the span records beside its
# times, and which metric sums it.
TARGETS = (
    ("config", "parse_config", "config"),
    ("config", "build_initial_state", None),
    ("flow", "run", "flow_run"),
    ("flow", "save_trajectory", "save"),
    ("harnack", "monitor_series", "monitors"),
    ("harnack", "write_monitor_csv", "io"),
    ("identities", "residual_general_H", "residual"),
    ("identities", "residual_cor_H", "residual"),
    ("identities", "residual_general_P", "residual"),
    ("identities", "residual_tP", "residual"),
    ("identities", "residual_surface", "residual"),
    ("identities", "residual_grad", "residual"),
    ("identities", "preset_agreement_H", "agreement"),
    ("identities", "preset_agreement_P", "agreement"),
    ("identities", "preset_agreement_grad", "agreement"),
    ("identities", "fuzz_residuals", "fuzz"),
    ("identities", "write_identity_csv", "io"),
    ("action", "min_action", "min_action"),
    ("action", "check_integrated_harnack", "pair"),
    ("action", "random_pairs", None),
    ("action", "write_action_csv", "io"),
    ("runner", "run_scenario", None),
    ("runner", "verify_identities", None),
    ("runner", "run_trajectory", None),
    ("runner", "action_rows", None),
    ("runner", "evaluate_assertions", "assert"),
    ("runner", "_write_plot_script", "io"),
)

# Probes: kernels timed on the workload's own grid after the command ends.
PROBES = ("geometry.bg_lap_us", "geometry.curvature_us", "geometry.hessian_us",
          "action.table_ms", "action.dp_layer_ms")

PROBE_BUDGET_S = 0.25  # per probe; at least PROBE_MIN_REPS repetitions
PROBE_MIN_REPS = 3


def _count_reports(result):
    return len(result) if isinstance(result, (tuple, list)) else 1


def _note(kind, args, result):
    """What a span records beside its times, from the call's arguments and result."""
    if kind == "flow_run":
        return {"steps": (len(result) - 1) * round(result.dt_out / result.dt),
                "nodes": result.geom.node_count}
    if kind == "save":
        return {"bytes": os.path.getsize(args[1])}
    if kind == "monitors":
        return {"rows": len(result.times)}
    if kind in ("residual", "fuzz"):
        return {"reports": _count_reports(result)}
    if kind == "min_action":
        return {"layers": len(result[1].snapshots) - 1}
    return None


class Tracer:
    """In-memory spans: [name, kind, parent index, start, end, note]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.flow_traj = None  # first trajectory a flow run returned
        self.action_traj = None  # last trajectory the action minimizer saw
        self.unreadable = set()  # spans whose note no longer fits the call

    def wrap(self, name, kind, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, kind, self._stack[-1] if self._stack else -1, time.perf_counter(), None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            try:
                span[5] = _note(kind, args, result)
            except (AttributeError, TypeError, IndexError, OSError):
                self.unreadable.add(name)
            if kind == "flow_run" and self.flow_traj is None:
                self.flow_traj = result
            elif kind == "min_action" and args:
                self.action_traj = args[0]
            return result

        return traced


def install(tracer):
    """Wrap every target at each name a harnackflow module binds it; return the missing."""
    importlib.import_module("harnackflow.cli")  # imports every module the CLI reaches
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "harnackflow"]
    missing = []
    originals = {}
    for module, func, kind in TARGETS:
        origin = sys.modules.get(f"harnackflow.{module}")
        fn = getattr(origin, func, None)
        if not callable(fn):
            missing.append(f"{module}.{func}")
            continue
        originals[f"{module}.{func}"] = fn
        traced = tracer.wrap(f"{module}.{func}", kind, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)
    return missing, originals


def _median_time(fn):
    times = []
    start = time.perf_counter()
    while len(times) < PROBE_MIN_REPS or time.perf_counter() - start < PROBE_BUDGET_S:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def run_probes(cli_args, originals, traj):
    """Kernel times on the workload's own grid; unknown names are reported missing."""
    from harnackflow import action

    probes, missing = {}, []
    config_path = cli_args[cli_args.index("--config") + 1]
    try:
        with open(config_path, encoding="utf-8") as fh:
            cfg = originals["config.parse_config"](fh.read(), name="probe")
        state = originals["config.build_initial_state"](cfg)
        geom, w = state.geom, state.f
    except (AttributeError, TypeError, KeyError):
        return probes, list(PROBES)
    checks = {
        "geometry.bg_lap_us": (1e6, lambda: geom.background_laplacian(w)),
        "geometry.curvature_us": (1e6, lambda: geom.scalar_curvature()),
        "geometry.hessian_us": (1e6, lambda: geom.covariant_hessian(w)),
    }
    if traj is not None and len(traj) >= 2:
        k = (len(traj) - 1) // 2
        t1, t2 = float(traj.times[k]), float(traj.times[k + 1])
        checks["action.table_ms"] = (1e3, lambda: action.layer_distance_fn(traj, k, cfg.window))
        checks["action.dp_layer_ms"] = (1e3, lambda: originals["action.min_action"](traj, (0, t1), (0, t2), cfg.window))
    for name in PROBES:
        if name not in checks:
            missing.append(name)
            continue
        scale, fn = checks[name]
        try:
            probes[name] = scale * _median_time(fn)
        except (AttributeError, TypeError, KeyError):
            missing.append(name)
    return probes, missing


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    missing, originals = install(tracer)
    from harnackflow import cli

    code = tracer.wrap("cli.main", None, cli.main)(cli_args)
    start = time.perf_counter()
    traj = tracer.flow_traj if tracer.action_traj is None else tracer.action_traj
    probes, probe_missing = run_probes(cli_args, originals, traj)
    record = {
        "spans": tracer.spans,
        "missing": missing + probe_missing + sorted(tracer.unreadable),
        "probes": probes,
        "probe_s": time.perf_counter() - start,
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


# ---------------------------------------------------------------------------
# layer metrics from one traced command


PER_LAYER = (
    ("config.load_ms", "ms"),
    ("geometry.bg_lap_us", "us"),
    ("geometry.curvature_us", "us"),
    ("geometry.hessian_us", "us"),
    ("flow.run_s", "s"),
    ("flow.runs", "count"),
    ("flow.steps", "count"),
    ("flow.step_us", "us"),
    ("flow.node_step_ns", "ns"),
    ("flow.save_s", "s"),
    ("flow.save_bytes", "bytes"),
    ("harnack.monitor_s", "s"),
    ("harnack.snapshots", "count"),
    ("identities.residual_s", "s"),
    ("identities.residuals", "count"),
    ("identities.fuzz_s", "s"),
    ("identities.fuzz_tuples", "count"),
    ("action.min_action_s", "s"),
    ("action.min_action_calls", "count"),
    ("action.pairs", "count"),
    ("action.calls_per_pair", "ratio"),
    ("action.layers", "count"),
    ("action.layer_ms", "ms"),
    ("action.table_ms", "ms"),
    ("action.dp_layer_ms", "ms"),
    ("runner.self_s", "s"),
    ("runner.io_s", "s"),
    ("runner.assert_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.missing", "count"),
)

# Counts that must repeat exactly between traced commands of one run.
REPEATED_COUNTS = ("flow.runs", "flow.steps", "action.layers", "action.min_action_calls",
                   "identities.residuals", "identities.fuzz_tuples", "harnack.snapshots")


def self_times(spans):
    """Self time per layer: each span's duration minus its children's durations."""
    child = [0.0] * len(spans)
    for name, _kind, parent, start, end, _note in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, _kind, _parent, start, end, _note) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
    return out


def layer_metrics(record):
    """Per-layer metrics of one traced command (``trace.overhead_s`` is left to the caller)."""
    spans = record["spans"]
    total, count, notes = {}, {}, {}

    def under_fuzz(i):
        while i >= 0:
            if spans[i][1] == "fuzz":
                return True
            i = spans[i][2]
        return False

    for i, (name, kind, parent, start, end, note) in enumerate(spans):
        if kind in ("residual", "agreement") and under_fuzz(parent):
            kind = "fuzzed"
        total[kind] = total.get(kind, 0.0) + end - start
        count[kind] = count.get(kind, 0) + 1
        for key, value in (note or {}).items():
            notes[(kind, key)] = notes.get((kind, key), 0) + value
        if kind == "flow_run" and note:
            notes[("flow_run", "node_steps")] = notes.get(("flow_run", "node_steps"), 0) + note["steps"] * note["nodes"]

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    run_s, steps = total.get("flow_run", 0.0), notes.get(("flow_run", "steps"), 0)
    ma_s, calls = total.get("min_action", 0.0), count.get("min_action", 0)
    layers, pairs = notes.get(("min_action", "layers"), 0), count.get("pair", 0)
    probes = record["probes"]
    metrics = {
        "config.load_ms": 1e3 * total.get("config", 0.0),
        "geometry.bg_lap_us": probes.get("geometry.bg_lap_us", 0.0),
        "geometry.curvature_us": probes.get("geometry.curvature_us", 0.0),
        "geometry.hessian_us": probes.get("geometry.hessian_us", 0.0),
        "flow.run_s": run_s,
        "flow.runs": count.get("flow_run", 0),
        "flow.steps": steps,
        "flow.step_us": ratio(run_s, steps, 1e6),
        "flow.node_step_ns": ratio(run_s, notes.get(("flow_run", "node_steps"), 0), 1e9),
        "flow.save_s": total.get("save", 0.0),
        "flow.save_bytes": notes.get(("save", "bytes"), 0),
        "harnack.monitor_s": total.get("monitors", 0.0),
        "harnack.snapshots": notes.get(("monitors", "rows"), 0),
        "identities.residual_s": total.get("residual", 0.0) + total.get("agreement", 0.0),
        "identities.residuals": notes.get(("residual", "reports"), 0),
        "identities.fuzz_s": total.get("fuzz", 0.0),
        "identities.fuzz_tuples": notes.get(("fuzz", "reports"), 0),
        "action.min_action_s": ma_s,
        "action.min_action_calls": calls,
        "action.pairs": pairs,
        "action.calls_per_pair": ratio(calls, pairs),
        "action.layers": layers,
        "action.layer_ms": ratio(ma_s, layers, 1e3),
        "action.table_ms": probes.get("action.table_ms", 0.0),
        "action.dp_layer_ms": probes.get("action.dp_layer_ms", 0.0),
        "runner.self_s": self_times(spans).get("runner", 0.0),
        "runner.io_s": total.get("io", 0.0) + total.get("save", 0.0),
        "runner.assert_s": total.get("assert", 0.0),
        "trace.missing": len(record["missing"]),
    }
    return metrics


def traced_total(record):
    """Duration of the root spans, which the layer self times add up to."""
    return sum(end - start for _n, _k, parent, start, end, _note in record["spans"] if parent < 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
