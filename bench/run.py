"""harnackflow benchmark: one workload, measured from outside through the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``, nothing needs installing.  Every command is a fresh
single-threaded process, and one caller waits for each to exit before it
starts the next (a closed loop with one client).

A run first executes the workload once at the reference seed and compares
its outputs with ``bench/reference`` (an untimed warm-up).  With
``--trace 0`` it then times ``setup_s`` several times and runs the
workload at ``--seed`` until ``--seconds`` are used up, reporting medians.
With ``--trace 1`` it alternates untraced and traced commands (see
``tracing.py``) and reports the per-layer metrics instead.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it records the machine, the workload's
reason and layer map, and every sample.  ``failed / attempted`` is the
error rate: commands that exited non-zero, printed a FAIL line or failed
the output check, over all commands started.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

import numpy as np

import check
import tracing
from workloads import LAYER_MAP, OMITTED, REF_SEED, REFERENCE_DIR, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracing.py")

SETUP_REPEATS = 7
# A shared machine's speed can drift by a third between runs a minute
# apart.  So this process times a fixed calibration kernel before the
# set-ups and after every command, and wall_s and setup_s are their
# medians scaled by CAL_REF_S over the median calibration time: seconds on
# a machine whose calibration takes CAL_REF_S.
CAL_REF_S = 0.13
COMMAND_TIMEOUT_S = 60.0
MIN_TRACED_PAIRS = 2  # so the counts can be compared between traced commands

SETUP_CODE = (
    "import sys\n"
    "from harnackflow import build_initial_state, parse_config\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    build_initial_state(parse_config(fh.read(), name='setup'))\n"
)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def child_env(root, pycache):
    """Environment of every command: no output redirect, one thread, this checkout's source."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "HARNACKFLOW_OUT"}
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONPYCACHEPREFIX=pycache, PYTHONHASHSEED="0")
    return env


@dataclass
class Spawned:
    returncode: int
    wall_s: float
    rss_mb: float
    stdout: str


def spawn(argv, env, log_path, cwd):
    """Run one command to its exit; wall time from start to exit, peak RSS from wait4."""
    with open(log_path, "w", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:  # interrupted: stop the command and reap it, then re-raise
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    with open(log_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return Spawned(proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout)


def machine():
    """The machine the numbers were measured on."""
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "cpu_model": platform.processor() or None,
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        info["cpu_model"] = models[0] if models else info["cpu_model"]
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, index, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            info["caches"][f"L{fields['level']} {fields['type']}"] = fields["size"]
        except OSError:
            continue
    return info


class Bench:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, root, workload, work, ref_root):
        self.root, self.wl, self.work, self.ref_root = root, workload, work, ref_root
        self.env = child_env(root, os.path.join(root, ".bench_out", "pycache"))
        self.attempted = self.failed = 0
        self.problems = []
        self._configs = {}

    def config(self, seed):
        if seed not in self._configs:
            self._configs[seed] = self.wl.config_path(self.root, seed, self.work)
        return self._configs[seed]

    def _tally(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append({label: problems})

    def command(self, seed, traced=False, compare=False):
        """One workload command in a fresh, empty output directory; (Spawned, trace record)."""
        index = self.attempted
        out_dir = os.path.join(self.work, f"out{index}")
        os.makedirs(out_dir)
        args = self.wl.cli_args(self.config(seed), out_dir, seed)
        spans = os.path.join(self.work, f"spans{index}.json")
        head = [TRACE_SCRIPT, spans] if traced else ["-m", "harnackflow.cli"]
        run = spawn([sys.executable, *head, *args], self.env, os.path.join(self.work, f"cmd{index}.log"), self.root)
        problems = check.command_problems(run.returncode, run.stdout, out_dir, self.wl.summary)
        if compare:
            problems += check.reference_problems(out_dir, os.path.join(self.ref_root, self.wl.name), self.wl.compared)
        record = None
        if traced:
            try:
                with open(spans, encoding="utf-8") as fh:
                    record = json.load(fh)
            except (OSError, ValueError):
                problems.append("no trace record written")
        shutil.rmtree(out_dir)
        self._tally(f"seed {seed}{' traced' if traced else ''}", problems)
        return run, record

    def setup(self, seed):
        run = spawn([sys.executable, "-c", SETUP_CODE, self.config(seed)], self.env,
                    os.path.join(self.work, "setup.log"), self.root)
        self._tally("setup", [] if run.returncode == 0 else [f"exit code {run.returncode}: {run.stdout[-500:]}"])
        return run.wall_s


def _line_kernel():
    # 1-D stencil updates, bound by numpy's per-call cost like the sphere flow
    a = np.linspace(0.0, 1.0, 128)
    for _ in range(5000):
        a = a + 1e-3 * np.exp(-a) * (np.roll(a, 1) + np.roll(a, -1) - 2.0 * a)
        float(np.min(a))


def _dp_kernel():
    # 64x64 min-plus relaxation over rolled offsets, like the action DP
    v = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    for _ in range(900):
        best = np.full((64, 64), np.inf)
        for a in (-2, -1, 0, 1, 2):
            cand = np.roll(v, (a, 1), axis=(0, 1)) + 0.5
            best = np.where(cand < best, cand, best)
        v = 0.5 * (v + best)


def _grid_kernel():
    # 128x128 stencil with exp, like the torus flow
    g = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
    for _ in range(900):
        g = g + 1e-3 * np.exp(-g) * (np.roll(g, 1, 0) + np.roll(g, -1, 1) - 2.0 * g)


def calibrate():
    """Geometric mean of the three kernels' times in seconds: the machine's current speed.

    It uses numpy only, never the program under test, so a change to the
    program cannot move it.
    """
    product = 1.0
    for kernel in (_line_kernel, _dp_kernel, _grid_kernel):
        start = time.perf_counter()
        kernel()
        product *= time.perf_counter() - start
    return product ** (1.0 / 3.0)


def closed_loop(seconds, minimum, one):
    """Call ``one`` back to back; stop before a call would end past ``seconds``."""
    samples = []
    start = time.perf_counter()
    while len(samples) < minimum or (time.perf_counter() - start) * (len(samples) + 1) / len(samples) <= seconds:
        samples.append(one())
    return samples


def run_benchmark(root, name, seed, seconds, traced, ref_root=REFERENCE_DIR):
    """Run one workload; returns (result, info) as printed on the last two lines."""
    wl = WORKLOADS[name]
    work = os.path.join(root, ".bench_out", f"{name}-s{seed}-t{int(traced)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(root, wl, work, ref_root)
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced), "why": wl.why,
            "reference_seed": REF_SEED, "machine": machine(), "layer_map": LAYER_MAP, "omitted": OMITTED}
    try:
        bench.command(REF_SEED, compare=True)
        if traced:
            metrics, extra, counts_ok = _traced_metrics(bench, seed, seconds)
            info.update(extra)
        else:
            metrics, samples = _end_to_end_metrics(bench, seed, seconds)
            info["samples"] = samples
            counts_ok = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["problems"] = bench.problems
    info["error_rate"] = bench.failed / bench.attempted
    result = {
        "correct": bench.failed == 0 and counts_ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    return result, info


def _end_to_end_metrics(bench, seed, seconds):
    calibrate()  # first use of the kernel's ufuncs is slower
    cal = [calibrate()]
    setups = [bench.setup(seed) for _ in range(SETUP_REPEATS)]
    cal.append(calibrate())

    def one():
        run = bench.command(seed)[0]
        cal.append(calibrate())
        return run

    runs = closed_loop(seconds, 1, one)
    scale = CAL_REF_S / statistics.median(cal)
    samples = {"wall_s": [r.wall_s for r in runs], "peak_rss_mb": [r.rss_mb for r in runs], "setup_s": setups,
               "calibration_s": cal}
    metrics = {
        "wall_s": {"value": statistics.median(samples["wall_s"]) * scale, "unit": "s"},
        "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(samples["peak_rss_mb"]), "unit": "MiB"},
        "pass_rate": {"value": (bench.attempted - bench.failed) / bench.attempted, "unit": "fraction"},
    }
    return metrics, samples


def _traced_metrics(bench, seed, seconds):
    def pair():
        plain, _ = bench.command(seed)
        run, record = bench.command(seed, traced=True)
        return plain, run, record

    pairs = [p for p in closed_loop(seconds, MIN_TRACED_PAIRS, pair) if p[2] is not None]
    per_command, traced = [], []
    for plain, run, record in pairs:
        layer = tracing.layer_metrics(record)
        layer["trace.overhead_s"] = run.wall_s - record["probe_s"] - plain.wall_s
        per_command.append(layer)
        traced.append({"wall_s": run.wall_s, "probe_s": record["probe_s"],
                       "root_s": tracing.traced_total(record), "self_s": tracing.self_times(record["spans"]),
                       "missing": record["missing"]})
    metrics, counts_ok = {}, bool(per_command)
    for name, unit in tracing.PER_LAYER:
        values = [m[name] for m in per_command] or [0]
        value = values[0] if unit == "count" else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        if name in tracing.REPEATED_COUNTS and len(set(values)) > 1:
            counts_ok = False
            bench.problems.append({"counts": f"{name} differs between traced commands: {values}"})
    return metrics, {"traced": traced}, counts_ok


def preflight(root, name):
    wl = WORKLOADS[name]
    needed = [os.path.join(root, "src", "harnackflow", "cli.py"),
              os.path.join(REFERENCE_DIR, name)]
    if wl.pair_plan is None:
        needed.append(os.path.join(root, wl.config))
    for path in needed:
        if not os.path.exists(path):
            raise BenchError(f"{os.path.relpath(path, root)} is missing; run from a harnackflow source checkout")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, signal.default_int_handler)  # run the cleanup on SIGTERM too
    try:
        preflight(ROOT, args.workload)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    result, info = run_benchmark(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in info["problems"]:
        print(f"bench: FAIL {json.dumps(problem)}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
