"""Self-test of the benchmark; it makes no timing assertion.

    python3 bench/selftest.py [--quick]

Checks that every metric of BENCHMARK.json is printed by name with its
unit, that the layer self times of a traced command add up to no more
than its traced total, that a perturbed reference counts as a failed
command, and that a wrapper whose target is gone is reported as missing.
``--quick`` skips the end-to-end runs of the benchmark (about two minutes).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import check
import tracing
from run import ROOT, run_benchmark
from workloads import REF_SEED, REFERENCE_DIR, WORKLOADS

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _spec():
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, traced):
    proc = subprocess.run(
        [sys.executable, RUN_SCRIPT, "--workload", workload, "--seed", "2", "--seconds", "1",
         "--trace", str(int(traced))],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_matches_workloads():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_pair_plans_match_configs():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from harnackflow import parse_config

    for wl in WORKLOADS.values():
        plan = wl.pair_plan
        if plan is None:
            continue
        with open(os.path.join(os.path.dirname(RUN_SCRIPT), "configs", wl.config), encoding="utf-8") as fh:
            cfg = parse_config(fh.read().replace("@PAIRS@", plan.config_line(REF_SEED)), name=wl.name)
        assert (cfg.n, cfg.window, cfg.dt_out) == (plan.n, plan.window, plan.dt_out), wl.name
        assert abs(cfg.t0 - plan.first_k * plan.dt_out) < 1e-12, wl.name
        assert round(cfg.t_end / cfg.dt_out) == plan.last_k, wl.name
        assert len(cfg.pairs) == len(plan.spans) and cfg.pair_count == 0, wl.name
        for seed in range(20):
            spans = [round((t2 - t1) / plan.dt_out) for _x1, t1, _x2, t2 in plan.pairs(seed)]
            assert spans == list(plan.spans), (wl.name, seed)


def test_reference_check_tolerances():
    work = os.path.join(ROOT, ".bench_out", f"selftest-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        ref = os.path.join(REFERENCE_DIR, "bump_field", "action.csv")
        with open(ref, encoding="utf-8") as fh:
            header, first, *rest = fh.read().splitlines()
        cells = first.split(",")
        for factor, expect_ok in ((1 + 1e-9, True), (1 + 1e-3, False)):
            cells[4] = repr(float(first.split(",")[4]) * factor)
            path = os.path.join(work, "action.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join([header, ",".join(cells), *rest]) + "\n")
            assert (not check.compare_csv(path, ref, *check.TOLERANCES["action.csv"])) == expect_ok, factor
        table = os.path.join(REFERENCE_DIR, "identity_ladder", "identity_summary.txt")
        assert not check.compare_table(table, table)
        assert math.isclose(check._last_digit_unit("6.671e+01"), 0.01)
        assert math.isclose(check._last_digit_unit("16.59"), 0.01)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_missing_target_is_reported():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    saved = tracing.TARGETS
    tracing.TARGETS = saved + (("action", "no_such_function", None),)
    try:
        missing, _ = tracing.install(tracing.Tracer())
    finally:
        tracing.TARGETS = saved
    assert missing == ["action.no_such_function"], missing


def test_self_times_within_total():
    spans = [["cli.main", None, -1, 0.0, 10.0, None],
             ["runner.run_scenario", None, 0, 1.0, 9.0, None],
             ["action.check_integrated_harnack", "pair", 1, 2.0, 6.0, None],
             ["action.min_action", "min_action", 2, 2.5, 5.5, {"layers": 3}]]
    selfs = tracing.self_times(spans)
    assert selfs == {"cli": 2.0, "runner": 4.0, "action": 4.0}, selfs
    assert sum(selfs.values()) == tracing.traced_total({"spans": spans})


def test_perturbed_reference_counts_as_failed():
    work = os.path.join(ROOT, ".bench_out", f"selftest-ref-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(REFERENCE_DIR, work)
    try:
        path = os.path.join(work, "bump_field", "monitors.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[1].split(",")
        cells[5] = repr(float(cells[5]) * 1.01)  # the mass column
        lines[1] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        result, info = run_benchmark(ROOT, "bump_field", 2, 0.1, False, ref_root=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert result["failed"] == 1 and not result["correct"], result
    assert result["metrics"]["pass_rate"]["value"] < 1.0
    assert info["error_rate"] == 1 / result["attempted"], info["error_rate"]


def test_every_metric_printed_with_unit():
    spec = _spec()
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            info, result = _run(workload, traced)
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, (workload, info["problems"])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, traced, got)
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            for command in info.get("traced", []):
                assert sum(command["self_s"].values()) <= command["root_s"] + 1e-9, command
                assert command["root_s"] <= command["wall_s"], command


def main(argv):
    quick = "--quick" in argv
    tests = [test_spec_matches_workloads, test_pair_plans_match_configs, test_reference_check_tolerances,
             test_missing_target_is_reported, test_self_times_within_total]
    if not quick:
        tests += [test_perturbed_reference_counts_as_failed, test_every_metric_printed_with_unit]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}")
        except Exception as err:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {test.__name__}: {type(err).__name__}: {err}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
