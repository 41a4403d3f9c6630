"""Record the reference outputs the benchmark compares against.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs each workload once at the reference seed in the benchmark's own
command environment and copies its compared output files into
``bench/reference/<workload>/``.  Re-record only when a change is meant to
alter the program's results, and say so in that change.
"""

from __future__ import annotations

import os
import shutil
import sys

import check
from run import ROOT, child_env, preflight, spawn
from workloads import REF_SEED, REFERENCE_DIR, WORKLOADS


def record(name):
    wl = WORKLOADS[name]
    ref_dir = os.path.join(REFERENCE_DIR, name)
    os.makedirs(ref_dir, exist_ok=True)
    preflight(ROOT, name)
    work = os.path.join(ROOT, ".bench_out", f"record-{name}-{os.getpid()}")
    out_dir = os.path.join(work, "out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        args = wl.cli_args(wl.config_path(ROOT, REF_SEED, work), out_dir, REF_SEED)
        env = child_env(ROOT, os.path.join(ROOT, ".bench_out", "pycache"))
        run = spawn([sys.executable, "-m", "harnackflow.cli", *args], env, os.path.join(work, "cmd.log"), ROOT)
        problems = check.command_problems(run.returncode, run.stdout, out_dir, wl.summary)
        if problems:
            raise SystemExit(f"{name}: not recorded: {problems}")
        for fname in wl.compared:
            shutil.copyfile(os.path.join(out_dir, fname), os.path.join(ref_dir, fname))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"recorded {name} at seed {REF_SEED}: {', '.join(wl.compared)}")


if __name__ == "__main__":
    for workload in sys.argv[1:] or sorted(WORKLOADS):
        record(workload)
