"""Scenario orchestration: flow -> monitors -> identities -> action.

``run_scenario`` executes one configured scenario end to end, persists the
trajectory and CSV reports, evaluates every enabled assertion at its fixed
tolerance and writes a one-line-per-assertion summary.  The process is
deterministic given the config and seed; a scenario passes iff every
enabled assertion holds.

``verify_identities`` runs only the identity machinery over a ladder of
refinement levels (N, 2N, 4N, ... with dt and dt_out scaled by 1/4 per
level; with ``dt = auto`` every level steps by the flow's CFL rule) and
reports the residual convergence table, the preset-agreement check and the
randomized-parameter fuzz.

Both commands are one pass over the flow, by one stage driver,
``_drive``: ``flow.snapshots`` hands on each snapshot as it is made, and
the driver feeds it at once to every stage of its run, so a run keeps no
more snapshots than its stages read.  Each stage is a consumer with
``feed(traj, k)``, ``finish(traj)`` and ``reads``, the number of snapshots
it reads, the newest and those just before it; ``flow.replay`` feeds the
same consumers from a stored trajectory, which is all ``save_trajectory``,
``monitor_series``, ``check_pairs``, ``action_rows`` and
``evaluate_assertions`` do.  The driver also owns the one failure rule:
a flow failure beats every stage failure, and otherwise the earliest
failing stage in pipeline order is reported, with its first failure in
time order.  ``run``'s stages read a window of three snapshots; the
residuals of either command read snapshots k - 1, k and k + 1 of a check
index k, which ``_Kept`` keeps as they arrive.
"""

from __future__ import annotations

import contextlib
import os
import random
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import action as action_mod
from . import harnack, identities
from .config import ScenarioConfig, build_initial_state, check_snapshot_plan, output_grid
from .errors import (
    ConfigError,
    ConstraintViolationError,
    HarnackFlowError,
    OutputDirError,
    require_count,
    require_kind,
    require_path,
)
from .flow import (
    EnsembleMember,
    FlowRun,
    FlowState,
    SnapshotWindow,
    Trajectory,
    TrajectoryWriter,
    replay,
    run_ensemble,
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
    """``out_flag``, unless it is empty, else the config's directory, else ``out/<name>``."""
    require_kind(cfg, ScenarioConfig, "cfg")
    if out_flag:
        require_path(out_flag, "out_flag")
    return out_flag or cfg.directory or os.path.join("out", cfg.name)


@contextlib.contextmanager
def _writing_to(out_dir):
    """Make ``out_dir``; an OSError from making it or from the block raises OutputDirError naming the path."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        yield
    except OSError as err:
        raise OutputDirError(f"{err.filename or out_dir}: cannot write: {err.strerror or err}") from err


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
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
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

    reads = 1

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

    ``traj`` is the stored trajectory, summarized by ``_RunFacts``, and
    ``margins``, when given, real numbers.
    """
    require_kind(series, harnack.MonitorSeries, "series")
    if margins is not None:
        try:
            margins = np.asarray(margins, dtype=float).reshape(-1)
        except (TypeError, ValueError):
            raise ConstraintViolationError(f"margins = {margins!r:.80} must be real numbers") from None
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

    reads = action_mod.PairChecks.reads

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


class _Kept:
    """Snapshots k - 1, k and k + 1 (0 and 1 when k = 0) of a run's check index k, kept, then evaluated.

    ``evaluate(trajs, check)`` gets one trajectory per member of those
    snapshots alone, re-based so that k reads index ``check``, whose ``dt``
    is the run's smallest step up to snapshot k + 1.  With ``at_once`` it
    runs when snapshot k + 1 arrives, and the snapshots go then; otherwise
    in ``finish``, after the flow.  ``finish`` returns its result.  Since
    it keeps what it reads, it reads the newest snapshot alone.
    """

    reads = 1

    def __init__(self, k, evaluate, at_once=False):
        self.range, self.check = range(max(k - 1, 0), k + 2), min(k, 1)
        self.evaluate, self.at_once = evaluate, at_once
        self.kept = []

    def feed(self, trajs, k):
        if k in self.range:
            self.kept.append([traj[k] for traj in trajs])
        if k == self.range[-1]:
            self.trajs = [replace(traj, states=list(states)) for traj, states in zip(trajs, zip(*self.kept))]
            self.kept = None
            if self.at_once:
                self.result, self.trajs = self.evaluate(self.trajs, self.check), None

    def finish(self, trajs):
        return self.result if self.at_once else self.evaluate(self.trajs, self.check)


def _identity_stage(cfg, grid):
    """The identity stage of ``run``: the presets at ``grid``'s check index k, evaluated when snapshot k + 1 arrives."""
    want = set(cfg.identity_presets)

    def evaluate(trajs, check):
        (traj,) = trajs
        if float(np.min(traj[check].R)) <= 0:
            want.discard("surface")  # it needs R > 0 at the checked snapshot
        return identities.preset_reports({traj.c: traj}, check, want, cfg.d)

    return _Kept(grid.check_index(cfg.t_check), evaluate, at_once=True)


class _Stage(NamedTuple):
    """A stage of ``_drive``: its name in a FAIL line, its run, ``make(run)`` and the member it reads.

    ``make`` gets the FlowRun of the stage's run.  A ``member`` of None
    gives the stage every member's trajectory, as a list.
    """

    name: str
    run: int
    make: Callable
    member: int | None = 0


def _drive(runs, flow_names, stages):
    """One pass over the flow of ``runs``, a list of FlowRuns, feeding each snapshot to its run's stages.

    The stages, in pipeline order, are made before any step, each from its
    run, and are fed its run's live trajectories: windows of as many
    snapshots as the run's stages read, indexed as the whole trajectory,
    whose ``dt`` is the run's smallest step so far.  Returns (results,
    failure) by the one failure rule:

    - a HarnackFlowError of the flow ends the pass, and the flow stage of
      its run, ``flow_names[err.run]``, fails, whatever the stages did;
    - otherwise a stage that raises one, when it is made, fed or finished,
      stops being fed, and so does every later stage, so the earliest
      failing stage in pipeline order fails, with its first failure in
      time order.

    ``failure`` is the failing stage's FAIL line, or None; ``results``
    holds the finished stages' results, a prefix of the pipeline.  A
    config error of the flow, which comes before any step, propagates.
    The driver empties ``runs`` once the stages are made, so that, held by
    nothing else, each run's initial states go once its stack starts.
    """
    fed, results, failure = [], [], None

    def call(pos, method, *args):
        nonlocal failure
        try:
            return method(*args)
        except HarnackFlowError as err:
            failure = _failure_line(stages[pos].name, err)
            del fed[pos:]  # which also ends a loop over fed

    def view(stage):
        trajs = lives[stage.run]
        return trajs if stage.member is None else trajs[stage.member]

    try:
        flow = snapshots(runs)
        for pos, stage in enumerate(stages):
            consumer = call(pos, stage.make, runs[stage.run])
            if failure is not None:
                break
            fed.append(consumer)
        reads = [max([c.reads for s, c in zip(stages, fed) if s.run == i], default=1) for i in range(len(runs))]
        lives = [
            [Trajectory(SnapshotWindow(size, run.grid), run.dt, run.dt_out, mem.c, mem.evolve_metric,
                        initial_id=mem.initial_id)
             for mem in run.members]
            for run, size in zip(runs, reads)
        ]
        runs.clear()
        for snap in flow:
            for traj, state in zip(lives[snap.run], snap.states):
                traj.states.append(state)
                traj.dt = snap.dt
            for pos, (stage, consumer) in enumerate(zip(stages, fed)):
                if stage.run == snap.run:
                    call(pos, consumer.feed, view(stage), snap.k)
    except HarnackFlowError as err:
        if isinstance(err, ConfigError):
            raise
        return [], _failure_line(flow_names[getattr(err, "run", 0)], err)
    for pos, consumer in enumerate(fed):
        results.append(call(pos, consumer.finish, view(stages[pos])))
    return results[: len(fed)], failure


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

    One pass over the flow, by ``_drive``: each snapshot goes to
    ``trajectory.bin`` and through every stage (the assertions' running
    summaries, monitors, identities, action) as the flow makes it, and a
    window of the last three snapshots is all that stays in memory.  The
    action pairs are drawn and located before the flow, from its planned
    times.

    A HarnackFlowError in any stage (flow, monitors, identities, action)
    ends the run: summary.txt then holds the single line
    ``FAIL <stage>: <error type>[ at t = ...]: <message>``, which the
    report carries in ``failure``, and the report fails.  A flow failure
    is reported whatever the stages did; otherwise the stage named is the
    earliest failing one in that order, with its first failing snapshot in
    time order (the first failing pair in list order for the action); a
    failing stage stops being fed, and so does every later one.  A config
    error of the flow, raised before any step, is a flow failure too.
    ``trajectory.bin`` is written when the flow finishes, and a stage's
    reports only if it and every earlier stage passed.  Every file a run
    writes that an earlier run left is removed first, so a stage this run
    disables or never reaches leaves no report behind; a negative seed then
    raises ConstraintViolationError before the flow runs.  A run that stops
    early leaves no partial ``trajectory.bin`` and no ``trajectory.bin.part``.
    An output directory that cannot be made or written raises
    OutputDirError, naming the path.
    """
    out_dir = resolve_out_dir(cfg, out_flag)
    with _writing_to(out_dir):
        return _scenario(cfg, out_dir, seed)


def _scenario(cfg, out_dir, seed):
    """``run_scenario`` in its output directory ``out_dir``, made."""
    _remove_stale_reports(
        out_dir, "trajectory.bin", "trajectory.bin.part", "monitors.csv", "plots.gp", "identities.csv",
        "action.csv", "summary.txt",
    )
    rng = _seeded_rng(cfg, seed)
    stages = [
        _Stage("flow", 0, lambda run: writer),
        _Stage("flow", 0, lambda run: _RunFacts()),
        _Stage("monitors", 0, lambda run: harnack.MonitorRows(cfg.d, cfg.t0, _monitor_enable(cfg))),
    ]
    if cfg.identities_enable:
        stages.append(_Stage("identities", 0, lambda run: _identity_stage(cfg, run.grid), None))
    if cfg.action_enable:
        stages.append(_Stage("action", 0, lambda run: _ActionStage(cfg, _planned(run), rng, run.members[0].static)))
    with TrajectoryWriter(os.path.join(out_dir, "trajectory.bin")) as writer:
        try:
            results, failure = _drive([_flow_run(cfg)], ["flow"], stages)
        except HarnackFlowError as err:  # a config error of the flow, or an invalid initial state
            results, failure = [], _failure_line("flow", err)

    for stage, result in zip(stages[2:], results[2:]):
        if stage.name == "monitors":
            series = result
            harnack.write_monitor_csv(series, os.path.join(out_dir, "monitors.csv"))
            _write_plot_script(os.path.join(out_dir, "plots.gp"), "monitors.csv")
        elif stage.name == "identities":
            identities.write_identity_csv(result, os.path.join(out_dir, "identities.csv"))
        else:
            action_mod.write_action_csv(result, os.path.join(out_dir, "action.csv"))
    if failure is not None:
        return _failed(cfg, out_dir, failure)
    margins = np.array([r[5] for r in results[-1]]) if cfg.action_enable else None

    assertions = _assertions(results[1], series, margins)
    with open(os.path.join(out_dir, "summary.txt"), "w", newline="\n") as fh:
        for a in assertions:
            fh.write(a.line() + "\n")
    return ScenarioReport(cfg.name, assertions, out_dir)


def _planned(run):
    """What a FlowRun's stages know of its snapshots before any step: its output grid and its geometry."""
    return action_mod.PlannedSnapshots(run.grid, run.members[0].initial.geom)


def _failed(cfg, out_dir, failure):
    """Write a run's FAIL line as its summary.txt; the failed report."""
    with open(os.path.join(out_dir, "summary.txt"), "w", newline="\n") as fh:
        fh.write(failure + "\n")
    return ScenarioReport(cfg.name, [], out_dir, failure=failure)


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


def _level_run(lcfg, want, state0, k):
    """The flows of one ladder level from its initial state, as one run, for the check index ``k``.

    Its members are one per ``_level_coeffs`` and, for ``surface``, the
    round companion of ``surface_fR`` last.  The run builds the states of
    the snapshots its residuals read alone, k - 1, k and k + 1, and stops
    at k + 1; the level's ``t_end`` is still checked against every
    evolving sphere's extinction time.
    """
    members = [
        EnsembleMember(state0, c=c, evolve_metric=lcfg.evolve_metric, initial_id=lcfg.initial_id)
        for c in _level_coeffs(want)
    ]
    if "surface" in want:
        members.append(EnsembleMember(_round_companion_state(lcfg), c=-1.0, initial_id="constant"))
    return FlowRun(members, lcfg.t_end, lcfg.dt, lcfg.dt_out, last=k + 1, first=k - 1)


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
    one run; the fuzz calibration is one more.  ``_drive`` integrates all
    of them in one ``snapshots`` call, in lockstep stacks, and feeds each
    run to one stage (``_Kept``), which keeps only its snapshots k - 1, k
    and k + 1 of its check index k and evaluates them after every flow has
    finished: the levels' residuals, each level a stage, with the fuzz
    after level 0.  Each level's run stops at
    snapshot k + 1 (t_check + dt_out), the last one its residuals read,
    and builds no state before k - 1, the first one they read (``FlowRun``'s
    ``last`` and ``first``), with k picked as on a run to t_end; the
    configured t_end is still checked,
    so a member whose extinction time it reaches raises
    ConstraintViolationError before any flow.  Fuzz tuples run at the
    coarsest level, on a calibration flow that likewise stops one
    snapshot after its own check time and builds its states from one
    snapshot before it; ``identities.fuzz_residuals`` evaluates them in
    batches.
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
    in ``failure`` and fails.  By ``_drive``'s rule a flow failure beats
    every residual failure, since no residual is evaluated before every
    flow has finished; it is reported for the first run to fail in step
    order: ``flow`` for a level's run, ``fuzz`` for the calibration.
    Otherwise the first failing stage in the order level 0, fuzz, level 1,
    ... is reported, and no later one is evaluated.  An output directory
    that cannot be made or written raises OutputDirError, naming the path.
    """
    out_dir = resolve_out_dir(cfg, out_flag)
    with _writing_to(out_dir):
        return _ladder(cfg, levels, out_dir, seed)


def _ladder(cfg, levels, out_dir, seed):
    """``verify_identities`` in its output directory ``out_dir``, made."""
    _remove_stale_reports(out_dir, "identity_summary.txt", "identities.csv")
    require_count(levels, "levels")
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
        k = output_grid(lcfg).check_index(cfg.t_check)
        check_snapshot_plan(lcfg, k + 2, len(coeffs) + ("surface" in want), f"ladder level {lvl} (N = {lcfg.n})")
        level_cfgs.append(lcfg)
        checks.append(k)
    # an invalid initial state is a config error (exit 2), found before any flow runs
    runs = [_level_run(lcfg, want, build_initial_state(lcfg), k) for lcfg, k in zip(level_cfgs, checks)]
    names = [f"flow (level {lvl}, N = {lcfg.n})" for lvl, lcfg in enumerate(level_cfgs)]
    agree, fuzz_max, fuzz_bound, preset_max = {}, {}, {}, {}

    def level(lvl, lcfg, check):
        """The stage of a ladder level: its presets, and at level 0 their agreement."""

        def evaluate(level_flows, k):
            trajs = dict(zip(coeffs, level_flows))
            traj_pot = trajs[-1.0]
            # The slaved f := R form chains six discrete derivatives of phi,
            # so on generic data its float64 noise floor grows ~ h^-6 and
            # overtakes the signal by N = 256; its refinement study runs on
            # the constant-curvature companion, where it is noise-free.  The
            # general-f form stays on the scenario's own trajectory.
            traj_round = level_flows[-1] if "surface" in want else None
            reports = identities.preset_reports(trajs, k, want, cfg.d, traj_round)
            if lvl == 0:
                # preset agreement: general assemblies at the presets reproduce
                # the dedicated collapsed assemblies to reassociation round-off
                agree["general_H/cor_H"] = identities.preset_agreement_H(traj_pot, k)
                agree["general_P/cor_P"] = identities.preset_agreement_P(traj_pot, k, cfg.d)
                if "grad" in want:
                    agree["general_H/grad"] = identities.preset_agreement_grad(trajs[identities.GRAD_PRESET.c], k)
            return IdentityLevel(n=lcfg.n, dt=traj_pot.dt, dt_out=lcfg.dt_out, t_check=traj_pot[k].t, reports=reports)

        return _Stage(f"residuals (level {lvl}, N = {lcfg.n})", lvl, lambda run: _Kept(check, evaluate), None)

    def fuzz(flows, k):
        (traj_fuzz,) = flows
        for family, preset_report in (
            ("H", identities.residual_general_H(traj_fuzz, k, identities.COR_H_PRESET)),
            ("P", identities.residual_general_P(traj_fuzz, k, replace(identities.COR_P_PRESET, d=cfg.d))),
        ):
            fz = identities.fuzz_residuals(traj_fuzz, k, cfg.fuzz_count, rng, family)
            fuzz_max[family] = max(r.max_norm for r in fz)
            fuzz_bound[family] = FUZZ_FACTOR * preset_report.max_norm
            preset_max[family] = preset_report.max_norm

    stages = [level(lvl, lcfg, k) for lvl, (lcfg, k) in enumerate(zip(level_cfgs, checks))]
    if cfg.fuzz_count:
        # the fuzz reads snapshots _FUZZ_CHECK - 1 .. _FUZZ_CHECK + 1 alone
        runs.append(_fuzz_run(cfg.n)._replace(first=_FUZZ_CHECK - 1))
        names.append(f"fuzz (level 0, N = {cfg.n})")
        stages.insert(1, _Stage(names[-1], levels, lambda run: _Kept(_FUZZ_CHECK, fuzz), None))
    results, failure = _drive(runs, names, stages)
    level_rows = [r for r in results if isinstance(r, IdentityLevel)]
    if failure is not None:
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
