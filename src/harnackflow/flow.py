"""Method-of-lines integration of the coupled metric/heat system.

The metric evolves inside its conformal class, ``d(phi)/dt = -R/2``
(equivalent to ``dg/dt = -R g`` on surfaces), while the heat field obeys

    df/dt = lap_g f - c * R * f

for a constant reaction coefficient ``c``.  The two shipped presets are
``c = -1`` (heat with curvature potential, the variant whose total mass
``integral of f dmu`` is conserved) and ``c = 0`` (plain heat).  The spatial
discretization conserves mass exactly for ``c = -1``: the flux-form
Laplacian integrates to zero against the area weights, and the measure
shrinks at rate ``-R dmu``.

Time stepping is classic RK4 with one step size per output interval.  The
identity checks difference stored snapshots in time and need exactly
uniform output spacing, so every interval ends on its snapshot time; only
the RK4 step inside an interval may differ from one interval to the next.
Every step must satisfy the explicit CFL rule
``dt <= 0.2 * h^2 * min(e^(2 phi))``, re-checked against the current state
before every step.  An explicit ``dt`` is used in every interval.  Without
one (``dt=None``) each interval takes the fewest equal steps that keep
``CFL_SAFETY`` below the bound at the interval's start, shrunk by the area
law across it: an evolving sphere loses area at rate 8 pi, and
``min(e^(2 phi))``, hence the bound, falls about in proportion.  The
choice is a pure function of the state, so runs stay bit-identical.

``evolve_metric=False`` freezes ``phi`` (heat flow on a static metric);
the gradient-estimate scenarios use it to probe curved static backgrounds.

One kernel steps every flow.  ``run_ensemble`` integrates several runs in
lockstep; a run (``FlowRun``) is members on one grid, each with its own
``c`` and ``evolve_metric``, plus the run's own ``t_end``, ``dt`` and
``dt_out``.  ``run`` is its one-run, one-member case.  Runs share one
field-major stack ``x`` of shape ``(2, *body)``: ``x[0]`` holds every
member's phi and ``x[1]`` every member's f.  Sphere runs of any n share a
stack whose body is one flat axis of rows; torus runs share one only with
the same n and side length, and the stacks are stepped one after
another.  Every per-field operand of a step is one C-contiguous block,
the step is a list of numpy calls built once per stack, and the
operands that differ between members (c, and the step of each run) are
per node on the sphere and per member on the torus.  Between snapshot
events the kernel takes as many steps as the nearest event allows; a
run whose last interval ends leaves the stack, which is rebuilt.  Every
operation is elementwise in the single-field operand order, so each
member is bit-identical to a run of it alone.  The checks run on every
member at every step: each run's CFL bound before the step, in one
segmented reduction over the stack, and the overflow guard and the
positivity of f after it; the extinction time is checked once per member
before any step.  A failure raises its typed error with the failing run,
time and member.

Each ``FlowState`` computes its scalar curvature once, on first use of
``FlowState.R``; the monitors, the identity residuals, the action DP and the
assertions all read it there.  Nothing else derived from a state is kept:
u, lap u, |grad u|^2 and the v-family are recomputed on each call, which
keeps a trajectory's memory at its fields plus one curvature per snapshot.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    BlowupError,
    ConstraintViolationError,
    GridMismatchError,
    HarnackFlowError,
    IndexAtBoundaryError,
    PositivityLostError,
    StepTooLargeError,
    TrajectoryFormatError,
)
from .geometry import CFL_FACTOR, SphereGeometry, SurfaceGeometry, TorusGeometry, cfl_limit, sphere_flux_plan

OVERFLOW_GUARD = 1e12
# Without an explicit dt, each interval's step stays this factor below its
# estimate of the interval's smallest CFL bound.
CFL_SAFETY = 1.25

# variant name -> reaction coefficient c in df/dt = lap f - c R f
VARIANT_C = {"with_potential": -1.0, "plain_heat": 0.0}


def variant_name(c):
    for name, cv in VARIANT_C.items():
        if c == cv:
            return name
    return "general"


@dataclass(frozen=True)
class FlowState:
    """One time slice of the evolution: time, geometry, heat field.

    ``f`` must be strictly positive and finite; the time may be zero (runs
    start at t = 0) but quantities with 1/t terms demand t > 0 themselves.
    ``R`` is the scalar curvature of ``geom``, computed on first use and
    kept, read-only, for the life of the state.
    """

    t: float
    geom: SurfaceGeometry
    f: np.ndarray

    def __post_init__(self):
        f = self.geom.check_field(self.f, "f").copy()
        fmin = float(np.min(f))
        if fmin <= 0.0:
            raise PositivityLostError(
                f"min f = {fmin:.6g} <= 0 at t = {self.t:.6g}", time=self.t
            )
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        if self.t < 0:
            raise ConstraintViolationError(f"negative time t = {self.t}")

    @cached_property
    def R(self):
        """Scalar curvature of the live metric; every stage reads it here."""
        curv = self.geom.scalar_curvature()
        curv.setflags(write=False)
        return curv


class EnsembleMember(NamedTuple):
    """One member of a ``FlowRun``: its initial state and its own equation."""

    initial: FlowState
    c: float = -1.0
    evolve_metric: bool = True
    initial_id: str = ""


class FlowRun(NamedTuple):
    """One run of ``run_ensemble``: members on one grid, integrated to the run's own times.

    ``t_end``, ``dt`` (explicit, or None for the CFL rule) and ``dt_out``
    follow the rules of ``run``.  A ``last`` snapshot index stops the run
    there if it comes before ``t_end``; ``t_end`` is still checked.
    """

    members: list
    t_end: float
    dt: float | None
    dt_out: float
    last: int | None = None


def output_count(span, dt_out):
    """Full output intervals of ``dt_out`` in a time span, to float tolerance."""
    return int(np.floor(span / dt_out + 1e-9))


def _member_error(err, member, count):
    """Tag a step failure with its member; multi-member runs also name it in the message."""
    err.member = member
    if count > 1:
        err.args = (f"member {member}: {err}",)
    return err


# 0-d operands: numpy takes them faster than Python floats
_TWO, _MINUS_TWO, _MINUS_HALF = (np.array(v) for v in (2.0, -2.0, -0.5))
_CFL_SLACK = np.array(1.0 + 1e-12)


class _RK4Kernel:
    """Checked RK4 over one field-major stack of the members of several runs.

    The stack ``x`` has shape ``(2, *body)``: ``x[0]`` holds every member's
    phi and ``x[1]`` every member's f, so each per-field operand of a step
    is one contiguous block.  On the sphere the body is one flat axis of
    rows, each member's row of its own n, and one flux plan serves rows of
    mixed n; on the torus it is ``(members, n, n)``, one n and side length
    for the whole stack.  Members sit run by run, the evolving ones first
    within each run; a frozen member's phi rate stays zero and its phi is
    never updated.

    Every buffer, view and operand is made once, in the constructor, and
    one step is a prebuilt list of (callable, operands) with positional
    outputs.  Operands that differ between members are per node on the
    sphere and per member on the torus: the reaction coefficient c and the
    step operands dt/2, dt and dt/6, which are 0-d when the stack holds one
    run.  ``set_step`` changes a run's step between its output intervals.
    Every operation is elementwise and keeps the operand order of the
    single-field formulas, so each member reproduces, bit for bit, a run of
    that member alone.  ``t`` holds each run's time and ``dts`` its step.
    """

    def __init__(self, runs, fields):
        """``runs`` are ``_Run``s of one stack; ``fields`` their members' (phi, f), in stack order."""
        self.runs = runs
        geom = runs[0].geom
        sphere = isinstance(geom, SphereGeometry)
        slots = [(pos, i) for pos, run in enumerate(runs) for i in run.order]
        # each member's extent along the first axis of the stack's body
        sizes = [runs[pos].geom.n if sphere else 1 for pos, _ in slots]
        ends = np.cumsum(sizes).tolist()
        starts = [end - size for end, size in zip(ends, sizes)]
        body = (ends[-1],) if sphere else (len(slots),) + geom.field_shape
        x = np.empty((2,) + body)
        views = [x[:, a:b] if sphere else x[:, a] for a, b in zip(starts, ends)]
        for view, (phi, f) in zip(views, fields):
            view[0], view[1] = phi, f
        # per run: its members as (member index, (phi, f) view), and its span of the body
        self.members, spans, first = [], [], 0
        for run in runs:
            last = first + len(run.order)
            self.members.append([(i, views[s]) for s, (_, i) in enumerate(slots[first:last], first)])
            spans.append(slice(starts[first], ends[last - 1]))
            first = last
        self.spans = spans
        # a 0-d step operand is set whole
        self.operand_spans = spans if len(runs) > 1 else [...]
        if sphere:
            spread = lambda values: np.repeat(values, sizes)  # noqa: E731
        else:
            spread = lambda values: np.reshape(values, (-1,) + (1,) * len(geom.field_shape))  # noqa: E731
        self.c = spread([runs[pos].members[i].c for pos, i in slots])
        if len(runs) == 1:
            self.half, self.full, self.sixth = (np.empty(()) for _ in range(3))
        else:
            self.half, self.full, self.sixth = (spread(np.empty(len(slots))) for _ in range(3))
        # the CFL check: one segmented minimum of phi per run
        self.phi_flat = x[0].reshape(-1)
        per_unit = self.phi_flat.size // body[0]
        self.cfl_starts = np.array([span.start * per_unit for span in spans], dtype=np.intp)
        self.coef = np.array([CFL_FACTOR * run.h * run.h for run in runs])
        self.bound = np.empty(len(runs))
        self.bad = np.empty(len(runs), dtype=bool)
        self.t = np.array([run.t for run in runs])
        self.dts = np.zeros(len(runs))

        # contiguous spans of evolving members, whose phi alone is updated
        evolving = []
        for (pos, i), a, b in zip(slots, starts, ends):
            if runs[pos].members[i].evolve_metric:
                if evolving and evolving[-1][1] == a:
                    evolving[-1][1] = b
                else:
                    evolving.append([a, b])
        self.x = x
        self.phi, self.f = x
        # rates start at zero: the frozen members' phi rates are never written
        y, k1, acc, k = (np.zeros(x.shape) for _ in range(4))
        self.z = z = np.empty(x.shape)
        z0, z1 = z
        e2m, ctmp = np.empty(body), np.empty(body)
        r_bg = np.array(geom.background_curvature)
        if sphere:
            lap_x, lap_y = (sphere_flux_plan(w, z, sizes * 2) for w in (x, y))
        else:
            lap_x, lap_y = (geom.laplacian_plan(w, z) for w in (x, y))

        def rhs(lap, state, rate):
            """Rates (dphi/dt, df/dt) at ``state``, written into ``rate``."""
            phi, f = state
            return [
                (lap, ()),
                (np.multiply, (phi, _MINUS_TWO, e2m)),
                (np.exp, (e2m, e2m)),
                (np.multiply, (z0, _TWO, z0)),
                (np.subtract, (r_bg, z0, z0)),
                (np.multiply, (z, e2m, z)),  # z = (R, e^(-2 phi) lap f)
                (np.multiply, (self.c, z0, ctmp)),
                (np.multiply, (ctmp, f, ctmp)),
                (np.subtract, (z1, ctmp, rate[1])),
            ] + [(np.multiply, (z0[a:b], _MINUS_HALF, rate[0, a:b])) for a, b in evolving]

        def stage(scale, rate):
            return [(np.multiply, (rate, scale, y)), (np.add, (x, y, y))]

        ops = rhs(lap_x, x, k1) + stage(self.half, k1)
        ops += rhs(lap_y, y, acc) + stage(self.half, acc)
        ops += rhs(lap_y, y, k) + [(np.add, (acc, k, acc))]  # k2 + k3
        ops += stage(self.full, k) + rhs(lap_y, y, k)
        ops += [(np.multiply, (acc, _TWO, acc)), (np.add, (acc, k1, acc)), (np.add, (acc, k, acc))]
        ops.append((np.multiply, (acc, self.sixth, acc)))
        # the update: the whole stack when every member evolves, else the
        # evolving members' phi and every f; a frozen phi is never touched
        if evolving == [[0, body[0]]]:
            ops.append((np.add, (x, acc, x)))
        else:
            ops += [(np.add, (x[0, a:b], acc[0, a:b], x[0, a:b])) for a, b in evolving]
            ops.append((np.add, (x[1], acc[1], x[1])))
        self.ops = ops

    def run_phi(self, pos):
        """The phi of every member of run ``pos``."""
        return self.phi[self.spans[pos]]

    def set_step(self, pos, dt):
        """Step run ``pos`` by ``dt`` from now on."""
        span = self.operand_spans[pos]
        self.half[span], self.full[span], self.sixth[span] = 0.5 * dt, dt, dt / 6.0
        self.dts[pos] = dt

    def step(self):
        """One checked RK4 step of every run by its own step; a failure names its run and member.

        Each run's CFL bound is checked before the step, all in one
        segmented reduction; the overflow guard and the positivity of f
        after it, on every member.
        """
        bound = self.bound
        np.minimum.reduceat(self.phi_flat, self.cfl_starts, out=bound)
        np.multiply(bound, _TWO, bound)
        np.exp(bound, bound)
        np.multiply(self.coef, bound, bound)
        np.multiply(bound, _CFL_SLACK, bound)
        if np.greater(self.dts, bound, self.bad).any():
            self._raise_cfl()
        for fn, args in self.ops:
            fn(*args)
        # NaNs fail both comparisons, so non-finite fields are caught here
        # too; z is free until the next step's first Laplacian.
        big = float(np.abs(self.x, out=self.z).max())
        fmin = float(self.f.min())
        if not (big <= OVERFLOW_GUARD and fmin > 0.0):
            self._raise_state()
        np.add(self.t, self.dts, self.t)

    def _raise_cfl(self):
        # each member's own bound decides; the stack's check only says where to look
        for pos in np.flatnonzero(self.bad):
            run, dt = self.runs[pos], float(self.dts[pos])
            for i, (phi, _) in self.members[pos]:
                bound = cfl_limit(run.h, phi)
                if dt > bound * (1.0 + 1e-12):
                    err = _member_error(StepTooLargeError(dt, bound), i, len(run.members))
                    raise run.tag(err, float(self.t[pos]))

    def _raise_state(self):
        for pos, run in enumerate(self.runs):
            t = float(self.t[pos] + self.dts[pos])
            for i, (phi, f) in self.members[pos]:
                try:
                    _check_state_arrays(phi, f, t)
                except HarnackFlowError as err:
                    raise run.tag(_member_error(err, i, len(run.members)), t) from None


def _check_state_arrays(phi, f, t):
    # NaNs fail both comparisons, so non-finite fields are caught here too.
    big = max(float(np.max(np.abs(phi))), float(np.max(np.abs(f))))
    if not big <= OVERFLOW_GUARD:
        raise BlowupError(f"|field| = {big:.3g} exceeds overflow guard at t = {t:.6g}", time=t)
    fmin = float(np.min(f))
    if not fmin > 0.0:
        raise PositivityLostError(f"min f = {fmin:.6g} <= 0 at t = {t:.6g}", time=t)


@dataclass
class Trajectory:
    """Time-ordered snapshots at exactly uniform output spacing dt_out."""

    states: list
    dt: float
    dt_out: float
    c: float
    evolve_metric: bool = True
    variant: str = ""
    initial_id: str = ""

    def __post_init__(self):
        if not self.variant:
            self.variant = variant_name(self.c)

    def __len__(self):
        return len(self.states)

    def __getitem__(self, k):
        return self.states[k]

    @property
    def times(self):
        return np.array([s.t for s in self.states])

    @property
    def geom(self):
        return self.states[0].geom

    def save(self, path):
        save_trajectory(self, path)


def _steps_per_output(dt, dt_out):
    """Steps of ``dt`` per output interval ``dt_out``: both positive and finite, dt dividing dt_out."""
    if not (0 < dt < np.inf and 0 < dt_out < np.inf):
        raise ConstraintViolationError(f"dt = {dt!r} and dt_out = {dt_out!r} must be positive and finite")
    steps = int(round(dt_out / dt)) if dt_out / dt < np.inf else 0
    if steps < 1 or abs(steps * dt - dt_out) > 1e-9 * dt_out:
        raise ConstraintViolationError(
            f"dt = {dt!r} must divide dt_out = {dt_out!r} (got {dt_out / dt:.6g} steps per output)"
        )
    return steps


def _interval_steps(bound, shrink, dt_out):
    """Steps of one output interval under the CFL rule: the fewest that keep
    ``CFL_SAFETY`` below ``bound * shrink``, the interval's estimated smallest bound."""
    if not bound > 0.0:  # NaN fails too
        raise StepTooLargeError(dt_out, bound)
    return max(1, int(np.ceil(dt_out * CFL_SAFETY / (bound * shrink) - 1e-12)))


def run(initial, t_end, dt, dt_out, c=-1.0, evolve_metric=True, initial_id=""):
    """Integrate from ``initial`` to ``t_end``, recording every ``dt_out``.

    An explicit ``dt`` must divide ``dt_out`` to float accuracy and is used
    in every interval; ``dt=None`` picks each interval's step by the CFL
    rule of this module.  Recorded times are ``t_start + k*dt_out`` (the
    system is autonomous, so snapping the time label is exact).  ``t_end``
    is truncated to the last full output interval.  Deterministic:
    identical inputs give bit-identical states.

    Step errors propagate with the failing time attached.  This is
    ``run_ensemble`` with one run of one member.
    """
    member = EnsembleMember(initial, c=c, evolve_metric=evolve_metric, initial_id=initial_id)
    return run_ensemble([FlowRun([member], t_end, dt, dt_out)])[0][0]


def run_ensemble(runs):
    """Integrate several runs in lockstep; one list of Trajectories, one per member, per run.

    Each ``FlowRun`` has its own members, ``t_end``, ``dt`` and ``dt_out``,
    and stops at its ``last`` snapshot if that comes first.
    Its members' initial states share the geometry kind, grid shape,
    spacing and start time; each member has its own ``c``,
    ``evolve_metric`` and ``initial_id``.  With ``dt=None`` a run's members
    take the same steps, set by the smallest CFL bound among them and the
    fastest-shrinking evolving sphere.  Every run is checked before any
    step is taken.

    Runs share one stack when they can: every sphere run, whatever its n,
    and the torus runs of one n and side length.  The stacks are stepped
    one after another, each until its last run has its last snapshot.
    Within a stack every step advances each run by its own step; between
    snapshot events the kernel takes as many steps as the nearest event
    allows, and a run whose last interval ends leaves the stack.  Each
    returned trajectory is bit-identical to a ``run`` of that member alone
    at the same steps, and its ``dt`` is the smallest step its run used.

    Every error carries the index of its run in ``.run``.  A run that fails
    its checks (mismatched grids within it raise GridMismatchError) raises
    before any step.  A step failure raises the error of the first run to
    fail, in step order, with the failing time in ``.time`` and the member
    index in ``.member`` (and in the message when its run has more than
    one member).
    """
    plans = [_Run(index, spec) for index, spec in enumerate(runs)]
    stacks = {}
    for plan in plans:
        if plan.n_out:
            g = plan.geom
            key = (g.kind,) if isinstance(g, SphereGeometry) else (g.kind, g.field_shape, g.background_spacing)
            stacks.setdefault(key, []).append(plan)
    for live in stacks.values():
        _step_stack(live)
    return [plan.trajectories() for plan in plans]


def _step_stack(live):
    """Step the runs of one stack in lockstep until every one has its last snapshot."""
    fields = [(run.members[i].initial.geom.phi, run.members[i].initial.f) for run in live for i in run.order]
    while live:
        kernel = _RK4Kernel(live, fields)
        for pos, run in enumerate(live):
            if not run.left:
                run.begin_interval(kernel.run_phi(pos))
            kernel.set_step(pos, run.step)
        while all(run.k < run.n_out for run in live):
            count = min(run.left for run in live)
            for _ in range(count):
                kernel.step()
            for pos, run in enumerate(live):
                run.left -= count
                if not run.left:
                    run.t = float(kernel.t[pos])
                    run.snapshot(kernel.members[pos])
                    if run.k < run.n_out:
                        run.begin_interval(kernel.run_phi(pos))
                        kernel.set_step(pos, run.step)
        # the runs that go on move, mid-interval, to a stack without the finished ones
        for pos, run in enumerate(live):
            run.t = float(kernel.t[pos])
        fields = [(phi, f) for pos, run in enumerate(live) if run.k < run.n_out for _, (phi, f) in kernel.members[pos]]
        live = [run for run in live if run.k < run.n_out]


class _Run:
    """One run of ``run_ensemble``: its checked plan and its progress."""

    def __init__(self, index, spec):
        self.index = index
        try:
            self._check(spec)
        except HarnackFlowError as err:
            raise self.tag(err)
        self.h = self.geom.background_spacing
        # evolving members first, so the frozen ones trail within the run
        self.order = sorted(range(len(self.members)), key=lambda i: not self.members[i].evolve_metric)
        self.states = [[mem.initial] for mem in self.members]
        self.t = self.t_start  # advanced step by step
        self.k = 0  # output intervals done
        self.left = 0  # steps left in the current interval
        self.step, self.max_steps = self.dt, 1

    def _check(self, spec):
        members = self.members = list(spec.members)
        if not members:
            raise ConstraintViolationError("a run needs at least one member")
        self.dt, self.dt_out = spec.dt, spec.dt_out
        if self.dt is None:
            if not 0 < self.dt_out < np.inf:
                raise ConstraintViolationError(f"dt_out = {self.dt_out!r} must be positive and finite")
        else:
            self.steps = _steps_per_output(self.dt, self.dt_out)
        geom = self.geom = members[0].initial.geom
        t_start = self.t_start = members[0].initial.t
        for i, mem in enumerate(members):
            g = mem.initial.geom
            if (g.kind, g.field_shape, g.background_spacing) != (geom.kind, geom.field_shape, geom.background_spacing):
                raise GridMismatchError(
                    f"member {i} lives on a {g.kind} grid of shape {g.field_shape} and spacing "
                    f"{g.background_spacing:.6g}; member 0 on a {geom.kind} grid of shape "
                    f"{geom.field_shape} and spacing {geom.background_spacing:.6g}"
                )
            if mem.initial.t != t_start:
                raise ConstraintViolationError(
                    f"member {i} starts at t = {mem.initial.t:.6g}, member 0 at t = {t_start:.6g}"
                )
        t_end = spec.t_end
        if t_end < t_start - 1e-12:
            raise ConstraintViolationError("t_end precedes the initial time")
        # initial areas of the evolving spheres, which lose area at rate 8 pi
        self.areas = []
        for i, mem in enumerate(members):
            if isinstance(mem.initial.geom, SphereGeometry) and mem.evolve_metric:
                self.areas.append(mem.initial.geom.total_area())
                extinction = mem.initial.geom.extinction_time()
                if t_end - t_start >= extinction:
                    where = f"member {i}: " if len(members) > 1 else ""
                    raise ConstraintViolationError(
                        f"{where}t_end = {t_end:.6g} reaches the extinction time {t_start + extinction:.6g}"
                    )
        self.n_out = output_count(t_end - t_start, self.dt_out)
        if spec.last is not None:
            if spec.last < 0:
                raise ConstraintViolationError(f"last = {spec.last!r} must be a nonnegative snapshot index")
            self.n_out = min(self.n_out, spec.last)

    def tag(self, err, time=None):
        """Attach this run's index, and the failing time unless the error has one."""
        err.run = self.index
        if time is not None and err.time is None:
            err.time = time
        return err

    def begin_interval(self, phi):
        """Plan the next output interval's steps; ``phi`` is every member's, now."""
        if self.dt is None:
            # area fraction an evolving sphere keeps across this interval
            lost = 8.0 * np.pi * self.k * self.dt_out
            shrink = min(((a - lost - 8.0 * np.pi * self.dt_out) / (a - lost) for a in self.areas), default=1.0)
            try:
                self.steps = _interval_steps(cfl_limit(self.h, phi), shrink, self.dt_out)
            except HarnackFlowError as err:
                raise self.tag(err, self.t)
            self.step, self.max_steps = self.dt_out / self.steps, max(self.max_steps, self.steps)
        self.left = self.steps

    def snapshot(self, members):
        """Record the (member index, (phi, f)) of ``members`` at the end of an interval."""
        self.k += 1
        t_snap = self.t_start + self.k * self.dt_out
        for i, (phi, f) in members:
            self.states[i].append(FlowState(t_snap, self.members[i].initial.geom.with_phi(phi), f))

    def trajectories(self):
        dt = self.dt_out / self.max_steps if self.dt is None else self.dt
        return [
            Trajectory(states, dt=dt, dt_out=self.dt_out, c=mem.c, evolve_metric=mem.evolve_metric,
                       initial_id=mem.initial_id)
            for states, mem in zip(self.states, self.members)
        ]


# ---------------------------------------------------------------------------
# derived-field time differencing


def time_derivative(traj, k, field):
    """Centered time difference of a derived field at snapshot k.

    ``field`` is a callable mapping a FlowState to a field.  Snapshots
    share one coordinate grid (only phi evolves), so the difference is
    pointwise; accuracy is O(dt_out^2).
    """
    if k <= 0 or k >= len(traj) - 1:
        raise IndexAtBoundaryError(
            f"snapshot {k} has no two neighbors in a trajectory of length {len(traj)}"
        )
    wm = field(traj[k - 1])
    return (field(traj[k + 1]) - wm) / (2.0 * traj.dt_out)


# ---------------------------------------------------------------------------
# snapshot persistence

_MAGIC = b"HFTRAJ01"


def save_trajectory(traj, path):
    """Write a trajectory to one binary file.

    Layout: 8-byte magic ``HFTRAJ01``; little-endian uint32 header length;
    UTF-8 JSON header (geometry kind, n, length for the torus, dt, dt_out,
    variant, c, evolve_metric, initial_id, snapshot count); then per
    snapshot the time followed by the flat phi and f arrays, all
    little-endian float64, torus fields in row-major order.
    """
    geom = traj.geom
    header = {
        "kind": geom.kind,
        "n": geom.n,
        "length": getattr(geom, "length", None),
        "dt": traj.dt,
        "dt_out": traj.dt_out,
        "variant": traj.variant,
        "c": traj.c,
        "evolve_metric": traj.evolve_metric,
        "initial_id": traj.initial_id,
        "snapshots": len(traj),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for s in traj.states:
            fh.write(struct.pack("<d", s.t))
            fh.write(np.ascontiguousarray(s.geom.phi, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(s.f, dtype="<f8").tobytes())


def load_trajectory(path):
    """Read a trajectory written by ``save_trajectory``.

    A file without that layout (wrong magic, a header that is not JSON or
    lacks a field, a size other than the header implies) raises
    TrajectoryFormatError naming the path.  So does one that no run could
    have written: a ``dt`` or ``dt_out`` that is not positive and finite, or
    a ``dt`` that does not divide ``dt_out``; a snapshot time t_k other than
    t_0 + k dt_out (within 1e-9 dt_out); or a snapshot whose fields fail
    ``FlowState``'s checks, which the error names by its index.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != _MAGIC:
        raise TrajectoryFormatError(f"{path}: not a harnackflow trajectory file")
    if len(data) < 12:
        raise TrajectoryFormatError(f"{path}: truncated before the header length")
    (hlen,) = struct.unpack_from("<I", data, 8)
    offset = 12 + hlen
    if len(data) < offset:
        raise TrajectoryFormatError(f"{path}: truncated inside the {hlen}-byte header")
    try:
        header = json.loads(data[12:offset].decode("utf-8"))
        kind, n, snapshots = header["kind"], int(header["n"]), int(header["snapshots"])
        if kind == "torus":
            base = TorusGeometry(n, float(header["length"]))
        elif kind == "rot_sphere":
            base = SphereGeometry(n)
        else:
            raise TrajectoryFormatError(f"{path}: unknown geometry kind {kind!r}")
        params = dict(
            dt=float(header["dt"]),
            dt_out=float(header["dt_out"]),
            c=float(header["c"]),
            evolve_metric=bool(header["evolve_metric"]),
            variant=str(header["variant"]),
            initial_id=str(header["initial_id"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError, GridMismatchError) as err:
        raise TrajectoryFormatError(f"{path}: bad header ({type(err).__name__}: {err})") from err
    if snapshots < 1:
        raise TrajectoryFormatError(f"{path}: header declares {snapshots} snapshots")
    try:
        _steps_per_output(params["dt"], params["dt_out"])
    except ConstraintViolationError as err:
        raise TrajectoryFormatError(f"{path}: bad header ({err})") from err
    dt_out = params["dt_out"]
    count = base.node_count
    expected = offset + snapshots * (8 + 16 * count)
    if len(data) != expected:
        raise TrajectoryFormatError(
            f"{path}: {len(data)} bytes, but a header of {snapshots} snapshots "
            f"of {count} nodes implies {expected}"
        )
    states = []
    (t0,) = struct.unpack_from("<d", data, offset)
    for k in range(snapshots):
        (t,) = struct.unpack_from("<d", data, offset)
        fields = np.frombuffer(data, dtype="<f8", count=2 * count, offset=offset + 8)
        phi, f = fields.reshape((2, *base.field_shape))
        offset += 8 + 16 * count
        # NaN fails the comparison, so a non-finite time is caught here too
        if not abs(t - (t0 + k * dt_out)) <= 1e-9 * dt_out:
            raise TrajectoryFormatError(
                f"{path}: snapshot {k} at t = {t!r}, expected t_0 + {k} * dt_out = {t0 + k * dt_out!r}"
            )
        try:
            states.append(FlowState(t, base.with_phi(phi), f))
        except HarnackFlowError as err:
            raise TrajectoryFormatError(f"{path}: snapshot {k}: {type(err).__name__}: {err}") from err
    return Trajectory(states, **params)
