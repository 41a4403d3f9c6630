"""The benchmark's workloads: what each one runs, why, and which layers it stresses.

Each workload is one harnackflow CLI command.  Its inputs come from the
benchmark seed alone: ``identity_ladder`` passes the seed to the CLI (it
draws the fuzz tuples), and the two ``run`` workloads also get explicit
space-time pairs drawn from the seed with a fixed layer count per pair, so
that every seed asks for the same amount of DP work.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# Seed at which the stored reference outputs in reference/<workload>/ were made.
REF_SEED = 1

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(HERE, "configs")
REFERENCE_DIR = os.path.join(HERE, "reference")


@dataclass(frozen=True)
class PairPlan:
    """Explicit action pairs whose layer counts do not depend on the seed.

    ``first_k`` is the snapshot index of the config's monitor start t0
    (pairs start there or later, as ``action.random_pairs`` does) and
    ``last_k`` the last snapshot index.  The seed picks the start snapshot
    and the nodes of each pair; the reach of the end node stays inside
    ``window`` nodes per layer, so every pair is reachable.
    """

    n: int
    window: int
    dt_out: float
    first_k: int
    last_k: int
    spans: tuple

    def pairs(self, seed):
        rng = random.Random(seed)
        n, out = self.n, []
        for span in self.spans:
            k1 = rng.randint(self.first_k, self.last_k - span)
            x1 = rng.randrange(n * n)
            reach = min(self.window * span, n // 2)
            di, dj = rng.randint(-reach, reach), rng.randint(-reach, reach)
            x2 = ((x1 // n + di) % n) * n + (x1 % n + dj) % n
            out.append((x1, k1 * self.dt_out, x2, (k1 + span) * self.dt_out))
        return out

    def config_line(self, seed):
        return "; ".join(f"{x1},{t1!r},{x2},{t2!r}" for x1, t1, x2, t2 in self.pairs(seed))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommand: str  # "run" or "verify-identities"
    config: str  # scenario path relative to the checkout, or a template in configs/
    pair_plan: PairPlan | None
    compared: tuple  # output files compared with the reference at REF_SEED
    summary: str  # summary file the command writes into its output directory

    def config_path(self, root, seed, work_dir):
        """Config file for ``seed``; templates are filled in under ``work_dir``."""
        if self.pair_plan is None:
            return os.path.join(root, self.config)
        with open(os.path.join(CONFIG_DIR, self.config), encoding="utf-8") as fh:
            text = fh.read()
        path = os.path.join(work_dir, f"{self.name}-seed{seed}.cfg")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text.replace("@PAIRS@", self.pair_plan.config_line(seed)))
        return path

    def cli_args(self, config_path, out_dir, seed):
        extra = ["--levels", "3"] if self.subcommand == "verify-identities" else []
        return [self.subcommand, "--config", config_path, *extra, "--out", out_dir, "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="identity_ladder",
            why="3-level identity ladder on the sphere: ~95% flow.run (10 flows, 42k RK4 steps), "
            "bound by numpy per-call overhead; no action work. Batched steppers must show here.",
            subcommand="verify-identities",
            config="scenarios/sphere_identities.cfg",
            pair_plan=None,
            compared=("identities.csv", "identity_summary.txt"),
            summary="identity_summary.txt",
        ),
        Workload(
            name="flat_action",
            why="torus_plain with 20 seeded pairs (251 layers): ~93% action DP on a flat metric, "
            "~5% torus flow. DP rework must show here; torus-flow work must not.",
            subcommand="run",
            config="flat_action.cfg",
            pair_plan=PairPlan(
                n=64, window=5, dt_out=0.0125, first_k=3, last_k=40,
                spans=(1, 1, 2, 3, 4, 6, 6, 6, 10, 12, 13, 14, 15, 16, 18, 20, 21, 23, 28, 32),
            ),
            compared=("monitors.csv", "action.csv"),
            summary="summary.txt",
        ),
        Workload(
            name="bump_field",
            why="non-flat evolving torus, n=128: ~43% 2-D flow, ~48% action, mostly the "
            "window-distance relaxation, ~4% monitors and identities on the same run.",
            subcommand="run",
            config="bump_field.cfg",
            pair_plan=PairPlan(n=128, window=3, dt_out=0.01, first_k=2, last_k=20, spans=(7, 8)),
            compared=("monitors.csv", "identities.csv", "action.csv"),
            summary="summary.txt",
        ),
    )
}

# Per-layer metric -> (end-to-end metric it should move, workloads where it
# does the work, workloads where it should not move).  Written down before
# any optimisation, as the measuring method asks.
LAYER_MAP = {
    "config.load_ms": ("setup_s", "all", "-"),
    "geometry.bg_lap_us": ("wall_s via flow.step_us", "identity_ladder, bump_field", "flat_action"),
    "geometry.curvature_us": ("wall_s via flow.step_us", "identity_ladder, bump_field", "flat_action"),
    "geometry.hessian_us": ("wall_s via flow.step_us", "identity_ladder, bump_field", "flat_action"),
    "flow.*": ("wall_s", "identity_ladder, bump_field", "flat_action"),
    "harnack.*": ("wall_s (small share: a gain here alone will not move wall_s)", "bump_field", "-"),
    "identities.*": ("wall_s (<2% today)", "identity_ladder", "-"),
    "action.min_action_s/calls/pairs/calls_per_pair/layers/layer_ms": (
        "wall_s", "flat_action", "identity_ladder"),
    "action.table_ms": ("wall_s; caching must keep peak_rss_mb in bound", "bump_field", "identity_ladder"),
    "action.dp_layer_ms": ("wall_s; caching must keep peak_rss_mb in bound", "flat_action", "identity_ladder"),
    "runner.self_s/io_s/assert_s": ("wall_s", "all", "-"),
    "trace.overhead_s": ("none: traced minus untraced wall time", "all", "-"),
}

# Left out on purpose, with the reason.
OMITTED = {
    "tier-1 test suite": "35-44 s per run, and it mostly times pytest",
    "sweep --jobs": "on 2 cores it times the process scheduler; its work is the sum of the scenario runs above",
    "bandwidth / roofline": "the largest field is 512 KiB and the 2-core Xeon it was measured on has a 300 MiB L3, "
    "so no kernel is bound by memory",
}
