"""Scenario orchestration: flow -> monitors -> identities -> action.

``run_scenario`` executes one configured scenario end to end, persists the
trajectory and CSV reports, evaluates every enabled assertion at its fixed
tolerance and writes a one-line-per-assertion summary.  It is one pass over
the flow: ``flow.snapshots`` hands on each snapshot as it is made, and
every stage consumes it at once, so only a window of the last three
snapshots stays in memory.  Each stage is a consumer with ``feed(traj, k)``
and ``finish(traj)``; ``flow.replay`` feeds the same consumers from a stored
trajectory, which is all ``save_trajectory``, ``monitor_series``,
``check_pairs``, ``action_rows`` and ``evaluate_assertions`` do.  The
process is deterministic given the config and seed; a scenario passes iff
every enabled assertion holds.

``verify_identities`` runs only the identity machinery over a ladder of
refinement levels (N, 2N, 4N, ... with dt and dt_out scaled by 1/4 per
level; with ``dt = auto`` every level steps by the flow's CFL rule) and
reports the residual convergence table, the preset-agreement check and the
randomized-parameter fuzz.  Each of its flows keeps only the three
snapshots its residuals read.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, replace

import numpy as np

from . import action as action_mod
from . import harnack, identities
from .config import build_initial_state, check_snapshot_plan
from .errors import ConfigError, ConstraintViolationError, HarnackFlowError
from .flow import (
    EnsembleMember,
    FlowRun,
    FlowState,
    SnapshotWindow,
    Trajectory,
    TrajectoryWriter,
    member_trajectories,
    output_count,
    replay,
    run_ensemble,
    snapshot_times,
    snapshots,
)
from .geometry import SphereGeometry

# Fixed tolerances of the assertion suite.
TOL_SUP_H = 1e-3
TOL_TP_STEP = 1e-3
TOL_TRACE = -1e-3
TOL_LYH = -1e-3
TOL_F_SIGN = 1e-6
TOL_ENTROPY_SLOPE = 1e-3
TOL_MASS_DRIFT = 1e-8
TOL_GRAD = 1e-3
TOL_MARGIN = -1e-2
TOL_FLAT_PHI = 1e-10
RATIO_MIN = 3.0
PRESET_AGREEMENT = 1e-12
FUZZ_FACTOR = 5.0


@dataclass
class AssertionResult:
    ident: str
    ok: bool
    observed: float
    bound: float
    description: str

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status} {self.ident}: observed = {self.observed:.6g}, "
            f"bound = {self.bound:.6g} ({self.description})"
        )


@dataclass
class ScenarioReport:
    name: str
    assertions: list
    out_dir: str
    failure: str = ""  # the FAIL line of a stage that raised; no assertion then ran

    @property
    def passed(self):
        return not self.failure and all(a.ok for a in self.assertions)


def resolve_out_dir(cfg, out_flag=None):
    return out_flag or cfg.directory or os.path.join("out", cfg.name)


def _remove_stale_reports(out_dir, *names):
    """Remove reports of an earlier run, so one that stops early leaves none behind."""
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            os.remove(path)


def _seeded_rng(cfg, seed):
    """The run's ``random.Random``, from ``seed`` or, when that is None, the config's seed.

    Every draw reads its ``random()`` alone, whose stream Python keeps the
    same across versions.  A negative seed raises ConstraintViolationError
    (exit 2); callers ask for the generator after removing stale reports
    and before any flow runs.
    """
    seed = cfg.seed if seed is None else seed
    if seed < 0:
        raise ConstraintViolationError(f"the seed must be a non-negative integer, got {seed}")
    return random.Random(seed)


def _failure_line(stage, err):
    """``FAIL <stage>: <error type>[ at t = ...]: <message>`` for a stage that raised."""
    stamp = f" at t = {err.time:.6g}" if err.time is not None else ""
    return f"FAIL {stage}: {type(err).__name__}{stamp}: {err}"


def _series_extreme(series, column, reducer):
    vals = series.columns[column]
    vals = vals[~np.isnan(vals)]
    if vals.size == 0:
        return None
    return float(reducer(vals))


def _slope_max(series, column):
    vals = series.columns[column]
    t = series.times
    keep = ~np.isnan(vals)
    vals, t = vals[keep], t[keep]
    if vals.size < 2:
        return None
    return float(np.max(np.diff(vals) / np.diff(t)))


def _step_increase_max(series, column):
    vals = series.columns[column]
    vals = vals[~np.isnan(vals)]
    if vals.size < 2:
        return None
    return float(np.max(np.diff(vals)))


class _RunFacts:
    """The running summaries of a trajectory that the assertions read, fed snapshot by snapshot.

    The smallest R at the first snapshot and its largest |phi|, the
    largest |phi| over every snapshot, and the trajectory's equation and
    geometry kind.
    """

    def feed(self, traj, k):
        state = traj[k]
        phi_max = float(np.max(np.abs(state.geom.phi)))
        if k == 0:
            self.min_r0, self.phi0_max, self.phi_max = float(np.min(state.R)), phi_max, phi_max
        self.phi_max = max(self.phi_max, phi_max)

    def finish(self, traj):
        self.c, self.evolve_metric, self.kind = traj.c, traj.evolve_metric, traj[-1].geom.kind
        return self


def evaluate_assertions(cfg, traj, series, margins=None):
    """Assertion list for a finished run; eligibility follows the scenario.

    ``traj`` is the stored trajectory, summarized by ``_RunFacts``.
    """
    return _assertions(replay(_RunFacts(), traj), series, margins)


def _assertions(facts, series, margins=None):
    """Assertion list from a run's ``_RunFacts``, monitor series and action margins."""
    out = []
    weakly_positive = facts.min_r0 >= -1e-12
    strictly_positive = facts.min_r0 > 0.0
    with_potential = facts.c == -1.0

    def add(ident, ok, observed, bound, description):
        out.append(AssertionResult(ident, bool(ok), observed, bound, description))

    if with_potential:
        m = series.columns["mass"]
        m = m[~np.isnan(m)]
        if m.size >= 2:
            span = series.times[-1] - series.times[0]
            drift = float((np.max(m) - np.min(m)) / abs(m[0]) / max(span, 1e-300))
            add(
                "mass-conserved",
                drift <= TOL_MASS_DRIFT,
                drift,
                TOL_MASS_DRIFT,
                "relative drift of integral f dmu per unit time",
            )

    if with_potential and weakly_positive and facts.evolve_metric:
        sup_h = _series_extreme(series, "sup_H", np.max)
        if sup_h is not None:
            add("log-harnack-sup", sup_h <= TOL_SUP_H, sup_h, TOL_SUP_H, "sup_x H <= 0")
        inc = _step_increase_max(series, "sup_tP")
        if inc is not None:
            add(
                "tP-max-monotone",
                inc <= TOL_TP_STEP,
                inc,
                TOL_TP_STEP,
                "per-step increase of max tP",
            )
        for col, label in (("min_traceH_V0", "V = 0"), ("min_traceH_Vu", "V = grad u")):
            mn = _series_extreme(series, col, np.min)
            if mn is not None:
                add(
                    f"trace-harnack-{'v0' if col.endswith('V0') else 'vu'}",
                    mn >= TOL_TRACE,
                    mn,
                    TOL_TRACE,
                    f"curvature trace quantity with {label}",
                )
        f_vals = series.columns["F"]
        f_vals = f_vals[~np.isnan(f_vals)]
        if f_vals.size:
            worst = float(np.max(f_vals))
            floor = TOL_F_SIGN * float(np.max(np.abs(f_vals)))
            add("entropy-F-sign", worst <= floor, worst, floor, "F <= 0 within round-off")
        for col in ("F", "W"):
            sl = _slope_max(series, col)
            if sl is not None:
                add(
                    f"entropy-{col}-slope",
                    sl <= TOL_ENTROPY_SLOPE,
                    sl,
                    TOL_ENTROPY_SLOPE,
                    f"discrete d{col}/dt",
                )

    if strictly_positive and facts.evolve_metric and with_potential:
        for col, ident in (("min_LYH_curv", "lyh-curvature"), ("min_LYH_heat", "lyh-heat")):
            mn = _series_extreme(series, col, np.min)
            if mn is not None:
                add(ident, mn >= TOL_LYH, mn, TOL_LYH, "log-Harnack surface bound")

    sup_grad = _series_extreme(series, "sup_grad", np.max)
    if sup_grad is not None:
        add(
            "gradient-bound",
            sup_grad <= TOL_GRAD,
            sup_grad,
            TOL_GRAD,
            "sup(|grad u|^2 - u/t) for plain heat, 0 < f < 1",
        )

    if facts.kind == "torus" and facts.evolve_metric and facts.phi0_max == 0.0:
        dev = facts.phi_max
        add(
            "flat-fixed-point",
            dev <= TOL_FLAT_PHI,
            dev,
            TOL_FLAT_PHI,
            "flat torus metric is stationary",
        )

    if margins is not None and len(margins):
        worst = float(np.min(margins))
        add(
            "action-margin",
            worst >= TOL_MARGIN,
            worst,
            TOL_MARGIN,
            "integrated inequality margin over sampled pairs",
        )
    return out


def _monitor_enable(cfg):
    if cfg.monitors == ("auto",):
        return None  # all applicable
    return [col for name in cfg.monitors for col in harnack.MONITOR_GROUPS[name]]


def _flow_run(cfg):
    """The scenario's flow: one run of one member from the configured initial state."""
    member = EnsembleMember(build_initial_state(cfg), c=cfg.c, evolve_metric=cfg.evolve_metric,
                            initial_id=cfg.initial_id)
    return FlowRun([member], cfg.t_end, cfg.dt, cfg.dt_out)


def run_trajectory(cfg):
    """The scenario's flow with every snapshot kept, as one Trajectory."""
    return run_ensemble([_flow_run(cfg)])[0][0]


class _ActionStage:
    """The action stage: the configured pairs, then ``pair_count`` drawn ones, checked by ``PairChecks``.

    The pairs are drawn and located from ``planned`` before any snapshot
    exists (a Trajectory, or the ``PlannedSnapshots`` of one), and
    ``static`` says, as for ``PairChecks``, whether its snapshots share
    one geometry.  ``finish`` returns the rows of action.csv.
    """

    def __init__(self, cfg, planned, rng, static=None):
        self.pairs = [((x1, t1), (x2, t2)) for (x1, t1, x2, t2) in cfg.pairs]
        if cfg.pair_count:
            self.pairs.extend(
                action_mod.random_pairs(planned, cfg.pair_count, rng, t_min=cfg.t0, window=cfg.window)
            )
        self.checks = action_mod.PairChecks(planned, self.pairs, cfg.window, static)

    def feed(self, traj, k):
        self.checks.feed(traj, k)

    def finish(self, traj):
        results = self.checks.finish(traj)
        return [(x1, t1, x2, t2, gamma, margin) for ((x1, t1), (x2, t2)), (margin, gamma) in zip(self.pairs, results)]


def action_rows(cfg, traj, rng):
    """The action stage's rows on a stored trajectory."""
    return replay(_ActionStage(cfg, traj, rng), traj)


def _kept_range(k):
    """The snapshots the residuals at check index k read: k - 1, k and k + 1 (0 and 1 when k = 0)."""
    return range(max(k - 1, 0), k + 2)


class _IdentityStage:
    """The identity stage of ``run``: the presets at the check index k, from snapshots k - 1 .. k + 1 alone.

    They are kept as they arrive and evaluated, re-based so that k reads
    index 1, when snapshot k + 1 arrives; ``finish`` returns the reports.
    """

    def __init__(self, cfg, last):
        self.k = _check_index(cfg.t_check, cfg.dt_out, last)
        self.want, self.d = set(cfg.identity_presets), cfg.d
        self.kept, self.reports = [], None

    def feed(self, traj, k):
        kept = _kept_range(self.k)
        if k in kept:
            self.kept.append(traj[k])
        if k == kept[-1]:
            short, check = replace(traj, states=self.kept), self.k - kept[0]
            if float(np.min(short[check].R)) <= 0:
                self.want.discard("surface")  # it needs R > 0 at the checked snapshot
            self.reports = identities.preset_reports({short.c: short}, check, self.want, self.d)
            self.kept = None

    def finish(self, traj):
        return self.reports


class _Stages:
    """The stages after the flow, in pipeline order, each fed every snapshot until it fails.

    ``makers`` are (name, make) in pipeline order.  A stage that raises a
    HarnackFlowError, when it is made, fed or finished, stops being fed,
    and so does every later stage.  Only an earlier stage can fail after
    that, so ``failure`` ends as the earliest failing stage's (name,
    error), with its first failure in time order; ``results`` holds each
    finished stage's result by name.
    """

    def __init__(self, makers):
        self.names = [name for name, _ in makers]
        self.fed = []  # the stages still fed: a prefix of the pipeline
        self.results = {}
        self.failure = None
        for pos, (_, make) in enumerate(makers):
            stage = self._call(pos, make)
            if self.failure is not None:
                break
            self.fed.append(stage)

    def _call(self, pos, call, *args):
        try:
            return call(*args)
        except HarnackFlowError as err:
            self.failure = self.names[pos], err
            del self.fed[pos:]  # which also ends a loop over self.fed

    def feed(self, traj, k):
        for pos, stage in enumerate(self.fed):
            self._call(pos, stage.feed, traj, k)

    def finish(self, traj):
        for pos, stage in enumerate(self.fed):
            self.results[self.names[pos]] = self._call(pos, stage.finish, traj)


def _write_plot_script(path, monitors_csv):
    lines = [
        "# gnuplot script over the monitor CSV (generated; plotting is external)",
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'time'",
        f"plot '{monitors_csv}' using 1:2 with lines title 'sup H', \\",
        f"     '{monitors_csv}' using 1:3 with lines title 'sup tP', \\",
        f"     '{monitors_csv}' using 1:4 with lines title 'F', \\",
        f"     '{monitors_csv}' using 1:5 with lines title 'W'",
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_scenario(cfg, out_flag=None, seed=None):
    """Full pipeline for one scenario; returns a ScenarioReport.

    One pass over the flow: each snapshot goes to ``trajectory.bin`` and
    through every stage (monitors, identities, action, and the
    assertions' running summaries) as the flow makes it, and a window of
    the last three snapshots is all that stays in memory.  The action
    pairs are drawn and located before the flow, from its planned times.

    A HarnackFlowError in any stage (flow, monitors, identities, action)
    ends the run: summary.txt then holds the single line
    ``FAIL <stage>: <error type>[ at t = ...]: <message>``, which the
    report carries in ``failure``, and the report fails.  The stage named
    is the earliest failing one in that order, with its first failing
    snapshot in time order (the first failing pair in list order for the
    action); a failing stage stops being fed, and so does every later one.
    ``trajectory.bin`` is written when the flow finishes, and a stage's
    reports only if it and every earlier stage passed.  Every file a run
    writes that an earlier run left is removed first, so a stage this run
    disables or never reaches leaves no report behind; a negative seed then
    raises ConstraintViolationError before the flow runs.  A run that stops
    early leaves no partial ``trajectory.bin`` and no ``trajectory.bin.part``.
    """
    out_dir = resolve_out_dir(cfg, out_flag)
    os.makedirs(out_dir, exist_ok=True)
    _remove_stale_reports(
        out_dir, "trajectory.bin", "trajectory.bin.part", "monitors.csv", "plots.gp", "identities.csv",
        "action.csv", "summary.txt",
    )
    rng = _seeded_rng(cfg, seed)
    try:
        run = _flow_run(cfg)
        (member,) = run.members
        times = snapshot_times(run)
        makers = [("monitors", lambda: harnack.MonitorRows(cfg.d, cfg.t0, _monitor_enable(cfg)))]
        if cfg.identities_enable:
            makers.append(("identities", lambda: _IdentityStage(cfg, len(times) - 1)))
        if cfg.action_enable:
            planned = action_mod.PlannedSnapshots(np.array(times), member.initial.geom, cfg.dt_out)
            makers.append(("action", lambda: _ActionStage(cfg, planned, rng, member.static)))
        stages, facts = _Stages(makers), _RunFacts()
        live = Trajectory(SnapshotWindow(3), dt=cfg.dt, dt_out=cfg.dt_out, c=member.c,
                          evolve_metric=member.evolve_metric, initial_id=member.initial_id)
        with TrajectoryWriter(os.path.join(out_dir, "trajectory.bin")) as writer:
            for snap in snapshots([run]):
                live.states.append(snap.states[0])
                live.dt = snap.dt
                for consumer in (writer, facts, stages):
                    consumer.feed(live, snap.k)
            writer.finish(live)
    except HarnackFlowError as err:
        return _failed(cfg, out_dir, _failure_line("flow", err))
    facts.finish(live)
    stages.finish(live)

    for name in stages.names:
        if stages.failure is not None and stages.failure[0] == name:
            return _failed(cfg, out_dir, _failure_line(*stages.failure))
        result = stages.results[name]
        if name == "monitors":
            series = result
            harnack.write_monitor_csv(series, os.path.join(out_dir, "monitors.csv"))
            _write_plot_script(os.path.join(out_dir, "plots.gp"), "monitors.csv")
        elif name == "identities":
            identities.write_identity_csv(result, os.path.join(out_dir, "identities.csv"))
        else:
            action_mod.write_action_csv(result, os.path.join(out_dir, "action.csv"))
    margins = np.array([r[5] for r in stages.results["action"]]) if cfg.action_enable else None

    assertions = _assertions(facts, series, margins)
    with open(os.path.join(out_dir, "summary.txt"), "w", newline="\n") as fh:
        for a in assertions:
            fh.write(a.line() + "\n")
    return ScenarioReport(cfg.name, assertions, out_dir)


def _failed(cfg, out_dir, failure):
    """Write a run's FAIL line as its summary.txt; the failed report."""
    with open(os.path.join(out_dir, "summary.txt"), "w", newline="\n") as fh:
        fh.write(failure + "\n")
    return ScenarioReport(cfg.name, [], out_dir, failure=failure)


def _check_index(t_check, dt_out, last):
    """Index of the snapshot nearest ``t_check``, clamped to the interior of snapshots 0 .. ``last``."""
    return min(max(int(round(t_check / dt_out)), 1), last - 1)


# ---------------------------------------------------------------------------
# identity refinement ladder


def _round_companion_state(cfg):
    """Round sphere with constant heat field, matching the config's scale."""
    geom = SphereGeometry(cfg.n)
    phi = np.full(geom.field_shape, SphereGeometry.round_phi(cfg.radius))
    return FlowState(0.0, geom.with_phi(phi), np.full(geom.field_shape, cfg.f0))


# Fuzz calibration trajectory: a canonical perturbed unit sphere followed
# close to its extinction time.  There the curvature dynamics dominate the
# residual's time-differencing error for every tuple, so the preset
# residual sits at generic scale instead of in a cancellation dip of the
# singular 1/t terms, and the 5x bound is meaningful.  The residuals read
# snapshots _FUZZ_CHECK - 1 .. _FUZZ_CHECK + 1 (t = 0.39 .. 0.41), and the
# flow stops at the last of them.
_FUZZ_DT_OUT = 0.01
_FUZZ_CHECK = 40


def _fuzz_run(n):
    """The calibration flow, one member; each interval's step comes from the flow's CFL rule."""
    geom = SphereGeometry(n)
    state = FlowState(
        0.0, geom.with_phi(0.1 * geom.cos_theta), 0.5 + 0.2 * geom.cos_theta
    )
    t_end = (_FUZZ_CHECK + 1) * _FUZZ_DT_OUT
    return FlowRun([EnsembleMember(state, c=-1.0)], t_end, None, _FUZZ_DT_OUT)


def _level_coeffs(want):
    """Reaction coefficients of a level's runs: c = -1, then each further c a wanted preset needs."""
    coeffs = [-1.0]
    for name, (c, _) in identities.PRESET_REGISTRY.items():
        if name in want and c not in coeffs:
            coeffs.append(c)
    return coeffs


def _level_run(lcfg, want, state0, last):
    """The flows of one ladder level from its initial state, as one run.

    Its members are one per ``_level_coeffs`` and, for ``surface``, the
    round companion of ``surface_fR`` last.  The run stops at snapshot
    ``last``; the level's ``t_end`` is still checked against every
    evolving sphere's extinction time.
    """
    members = [
        EnsembleMember(state0, c=c, evolve_metric=lcfg.evolve_metric, initial_id=lcfg.initial_id)
        for c in _level_coeffs(want)
    ]
    if "surface" in want:
        members.append(EnsembleMember(_round_companion_state(lcfg), c=-1.0, initial_id="constant"))
    return FlowRun(members, lcfg.t_end, lcfg.dt, lcfg.dt_out, last)


def _checked_flows(runs, checks):
    """Integrate the runs; per run, its members' trajectories of the snapshots its check index reads.

    Run i keeps only ``_kept_range(checks[i])``, snapshots k - 1, k and
    k + 1 of its check index k, as they are made, so its trajectories are
    re-based: k reads index 1 (index 0 when k = 0).  ``dt_out`` is the
    run's, and ``dt`` its smallest step up to snapshot k + 1.
    """
    runs = list(runs)
    kept = [[] for _ in runs]
    dts = [None] * len(runs)
    for snap in snapshots(runs):
        if snap.k in _kept_range(checks[snap.run]):
            kept[snap.run].append(snap.states)
            dts[snap.run] = snap.dt
    return [member_trajectories(run, states, dt) for run, states, dt in zip(runs, kept, dts)]


@dataclass
class IdentityLevel:
    """One ladder level.  ``dt`` is the level's smallest step; under
    ``dt = auto`` that is over the intervals its flows ran, up to
    snapshot k + 1 of its check index k."""

    n: int
    dt: float
    dt_out: float
    t_check: float
    reports: list


@dataclass
class IdentityStudy:
    levels: list
    ratios: dict  # identity -> list of max-norm ratios between levels
    agreement: dict  # identity pair -> max abs residual-field mismatch
    fuzz_max: dict  # family -> worst fuzz max-norm
    fuzz_bound: dict  # family -> 5x preset bound
    assertions: list
    failure: str = ""  # the FAIL line of a stage that raised; no assertion then ran

    @property
    def passed(self):
        return not self.failure and all(a.ok for a in self.assertions)

    def table(self):
        lines = ["identity            " + "".join(f"{'N=' + str(l.n):>14}" for l in self.levels) + "   ratios"]
        names = [r.identity for r in self.levels[0].reports]
        for i, name in enumerate(names):
            cells = "".join(f"{lvl.reports[i].max_norm:14.3e}" for lvl in self.levels)
            ratios = self.ratios.get(name, [])
            lines.append(f"{name:<20}{cells}   " + ", ".join(f"{r:.2f}" for r in ratios))
        return "\n".join(lines)


def verify_identities(cfg, levels=3, out_flag=None, seed=None):
    """Run the identity ladder at N, 2N, 4N, ... and collect convergence data.

    dt and dt_out scale by 1/4 per level so spatial and temporal residual
    components shrink together; each level evaluates the residuals at the
    same snapshot time t_check, through ``identities.preset_reports`` as
    ``run`` does.  The flows of a level share n, dt and dt_out and form
    one run; the fuzz calibration is one more.  All of them are
    integrated by one ``snapshots`` call, in lockstep stacks, before any
    residual, and each run keeps only the snapshots k - 1, k and k + 1 of
    its check index k (``_checked_flows``).  Each level's run stops at
    snapshot k + 1 (t_check + dt_out), the last one its residuals read,
    with k picked as on a run to t_end; the configured t_end is still checked,
    so a member whose extinction time it reaches raises
    ConstraintViolationError before any flow.  Fuzz tuples run at the
    coarsest level, on a calibration flow that likewise stops one
    snapshot after its own check time.
    The ``surface`` preset runs on sphere configs only: by Gauss-Bonnet a
    torus never has R > 0 everywhere.  Its general-f form runs on the
    scenario's trajectory and its f := R form on the round companion, in
    one ``residual_surface`` call per level.  The reports of an earlier
    ladder are removed first; fewer than two levels, which leave no
    convergence ratio to check, then raise ConstraintViolationError before
    any flow runs, as do a frozen metric (``evolve_metric = false``; the
    identities assume dg/dt = -R g), a negative seed, an invalid initial
    state at any level and a level whose snapshots 0 .. k + 1 of all its
    runs exceed ``config.MAX_SNAPSHOT_BYTES``.  A HarnackFlowError in a
    stage (a level's flows or residuals, the fuzz) that is not a config
    error ends the ladder: identity_summary.txt then holds the single line
    ``FAIL <stage> (level L, N = n): <error type>[ at t = ...]: <message>``,
    no identities.csv is written, and the returned study carries that line
    in ``failure`` and fails.  Since the flows all finish first, a flow
    failure is reported for the first run to fail in step order: ``flow``
    for a level's run, ``fuzz`` for the calibration.
    """
    out_dir = resolve_out_dir(cfg, out_flag)
    os.makedirs(out_dir, exist_ok=True)
    _remove_stale_reports(out_dir, "identity_summary.txt", "identities.csv")
    if levels < 2:
        raise ConstraintViolationError(
            f"the identity ladder needs at least 2 levels to check convergence, got {levels}"
        )
    if not cfg.evolve_metric:
        raise ConstraintViolationError("the evolution identities assume dg/dt = -R g; flow.evolve_metric is false")
    want = set(cfg.identity_presets)
    if cfg.kind != "rot_sphere":
        want.discard("surface")
    rng = _seeded_rng(cfg, seed)

    coeffs = _level_coeffs(want)
    level_cfgs, checks = [], []
    for lvl in range(levels):
        # dt = auto (None) stays auto: every level then steps by the flow's CFL rule
        lcfg = replace(
            cfg,
            n=cfg.n * 2**lvl,
            dt=None if cfg.dt is None else cfg.dt / (4**lvl),
            dt_out=cfg.dt_out / (4**lvl),
        )
        # the level's check index k, as on a run to t_end; its flows stop at
        # k + 1, and the plan of its snapshots 0 .. k + 1, of which they keep
        # three, must fit before any state is built, or any further level
        # made: each level multiplies n
        k = _check_index(cfg.t_check, lcfg.dt_out, output_count(lcfg.t_end, lcfg.dt_out))
        check_snapshot_plan(lcfg, k + 2, len(coeffs) + ("surface" in want), f"ladder level {lvl} (N = {lcfg.n})")
        level_cfgs.append(lcfg)
        checks.append(k)
    # an invalid initial state is a config error (exit 2), found before any flow runs
    starts = [build_initial_state(lcfg) for lcfg in level_cfgs]
    runs = [_level_run(lcfg, want, state0, k + 1) for lcfg, state0, k in zip(level_cfgs, starts, checks)]
    stages = [f"flow (level {lvl}, N = {lcfg.n})" for lvl, lcfg in enumerate(level_cfgs)]
    run_checks = list(checks)  # per run, the check index whose snapshots it keeps
    if cfg.fuzz_count:
        runs.append(_fuzz_run(cfg.n))
        stages.append(f"fuzz (level 0, N = {cfg.n})")
        run_checks.append(_FUZZ_CHECK)

    level_rows = []
    agree = {}
    fuzz_max = {}
    fuzz_bound = {}
    preset_max = {}
    stage = None  # while the flows run: the failing run's stage
    try:
        flows = _checked_flows(runs, run_checks)
        for lvl, (lcfg, check, level_flows) in enumerate(zip(level_cfgs, checks, flows)):
            k = check - _kept_range(check).start  # the check index in the kept snapshots
            where = f"level {lvl}, N = {lcfg.n}"
            stage = f"residuals ({where})"
            trajs = dict(zip(coeffs, level_flows))
            traj_pot = trajs[-1.0]
            # The slaved f := R form chains six discrete derivatives of phi,
            # so on generic data its float64 noise floor grows ~ h^-6 and
            # overtakes the signal by N = 256; its refinement study runs on
            # the constant-curvature companion, where it is noise-free.  The
            # general-f form stays on the scenario's own trajectory.
            traj_round = level_flows[-1] if "surface" in want else None
            reports = identities.preset_reports(trajs, k, want, cfg.d, traj_round)
            level_rows.append(
                IdentityLevel(n=lcfg.n, dt=traj_pot.dt, dt_out=lcfg.dt_out, t_check=traj_pot[k].t, reports=reports)
            )
            if lvl == 0:
                # preset agreement: general assemblies at the presets reproduce
                # the dedicated collapsed assemblies to reassociation round-off
                agree["general_H/cor_H"] = identities.preset_agreement_H(traj_pot, k)
                agree["general_P/cor_P"] = identities.preset_agreement_P(traj_pot, k, cfg.d)
                if "grad" in want:
                    agree["general_H/grad"] = identities.preset_agreement_grad(trajs[identities.GRAD_PRESET.c], k)
                if cfg.fuzz_count:
                    stage = f"fuzz ({where})"
                    (traj_fuzz,) = flows[-1]
                    kf = _FUZZ_CHECK - _kept_range(_FUZZ_CHECK).start
                    for family, preset_report in (
                        ("H", identities.residual_general_H(traj_fuzz, kf, identities.COR_H_PRESET)),
                        ("P", identities.residual_general_P(traj_fuzz, kf, replace(identities.COR_P_PRESET, d=cfg.d))),
                    ):
                        fz = identities.fuzz_residuals(traj_fuzz, kf, cfg.fuzz_count, rng, family)
                        fuzz_max[family] = max(r.max_norm for r in fz)
                        fuzz_bound[family] = FUZZ_FACTOR * preset_report.max_norm
                        preset_max[family] = preset_report.max_norm
    except HarnackFlowError as err:
        if isinstance(err, ConfigError):
            raise
        failure = _failure_line(stage or stages[getattr(err, "run", 0)], err)
        with open(os.path.join(out_dir, "identity_summary.txt"), "w", newline="\n") as fh:
            fh.write(failure + "\n")
        return IdentityStudy(level_rows, {}, agree, fuzz_max, fuzz_bound, [], failure=failure)

    names = [r.identity for r in level_rows[0].reports]
    ratios = {}
    for i, name in enumerate(names):
        seq = [lvl.reports[i].max_norm for lvl in level_rows]
        ratios[name] = [seq[j] / seq[j + 1] if seq[j + 1] > 0 else np.inf for j in range(len(seq) - 1)]

    assertions = []
    for name, rr in ratios.items():
        worst = min(rr) if rr else np.inf
        assertions.append(
            AssertionResult(
                f"residual-convergence-{name}",
                worst >= RATIO_MIN,
                worst,
                RATIO_MIN,
                "max-norm reduction factor per refinement level",
            )
        )
    for pair, mismatch in agree.items():
        assertions.append(
            AssertionResult(
                f"preset-agreement-{pair.replace('/', '-')}",
                mismatch <= PRESET_AGREEMENT,
                mismatch,
                PRESET_AGREEMENT,
                "general vs dedicated assembly at the preset",
            )
        )
    for family in fuzz_max:
        assertions.append(
            AssertionResult(
                f"fuzz-bounded-{family}",
                fuzz_max[family] <= fuzz_bound[family],
                fuzz_max[family],
                fuzz_bound[family],
                f"{cfg.fuzz_count} random tuples vs 5x preset residual {preset_max[family]:.3e}",
            )
        )

    all_reports = [r for lvl in level_rows for r in lvl.reports]
    identities.write_identity_csv(all_reports, os.path.join(out_dir, "identities.csv"))
    study = IdentityStudy(
        levels=level_rows,
        ratios=ratios,
        agreement=agree,
        fuzz_max=fuzz_max,
        fuzz_bound=fuzz_bound,
        assertions=assertions,
    )
    with open(os.path.join(out_dir, "identity_summary.txt"), "w", newline="\n") as fh:
        fh.write(study.table() + "\n")
        for a in assertions:
            fh.write(a.line() + "\n")
    return study
