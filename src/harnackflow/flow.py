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
A flat torus, ``phi = +0`` everywhere, is a fixed point of the flow.  Both
are static members: their phi never changes, so the kernel steps their f
alone, by ``df/dt = e^(-2 phi) lap f - ((-2c) dphi/dt) f`` with the
e^(-2 phi) and the reaction factor computed once, and their snapshots
share the initial geometry.

Every run and every trajectory has one output grid, an ``OutputGrid``
(``FlowRun.grid``, ``Trajectory.grid``): snapshot k at
t_k = t_start + k dt_out for k = 0 .. count.  It answers every question
of which snapshot a time names, under one rule, |t - t_k| <= 1e-9 dt_out
with t_k as stored, so the rule holds however far the grid lies from
t = 0: the count of full intervals in a run, the snapshot a time names, the
first one at or after a start time and the interior check index of the
identity residuals.  The config's t0, t_check and action pairs, the
action's pairs, the monitors' start and the times of a loaded trajectory
are all read through it.  ``run_ensemble``, which keeps every snapshot,
refuses a plan above ``MAX_SNAPSHOT_BYTES`` before any step.

One kernel steps every flow.  ``snapshots`` integrates several runs in
lockstep and hands each snapshot on as it is made; a run (``FlowRun``) is
members on one grid, each with its own ``c`` and ``evolve_metric``, plus
the run's own ``t_end``, ``dt`` and ``dt_out``.  ``run_ensemble`` keeps
every snapshot as Trajectories, and ``run`` is its one-run, one-member
case.  Runs share one
field-major stack ``x`` of shape ``(2, *body)``: ``x[0]`` holds every
member's phi and ``x[1]`` every member's f, the static members first.
Flat, the part a step updates is then one tail: the evolving members'
phi, then every f.  Sphere runs of any n share a stack whose body is one
flat axis of rows; torus runs share one only with the same n and side
length, and the stacks are stepped one after another.  Every per-field
operand of a step is one C-contiguous block, the step is a list of numpy
calls built once per stack, and the operands that differ between members
(c, and each run's step, 0-d in a stack of one run) are per node on the
sphere and per member on the torus.  Between snapshot events the kernel
takes as many steps as the nearest event allows; each event starts the
intervals that end there and sets every run's step.  A run whose last
interval ends leaves the stack, which is rebuilt.  Every
operation is elementwise in the single-field operand order, so each
member is bit-identical to a run of it alone.  Only the stack puts the
members in another order: everywhere else, outputs and errors included,
a run's members are in member-index order.

Each rate evaluation writes its Laplacians straight into its rate buffer,
in the unit of the Laplacian plans (``SurfaceGeometry.plan_unit``: h^2 on
the torus, 1 on the sphere), so the kernel carries every rate in that
unit and folds 1/unit into the step operands it multiplies by anyway: no
stage divides.  The CFL check reads each run's real step.  A rate
evaluation also folds the curvature into the phi rate,
``dphi/dt = (lap_bg phi - R_bg/2) e^(-2 phi)``, which is -R/2; the
reaction term reads R as -2 times it, ``((-2c) dphi/dt) f``.  Scaling by
2 is exact above the subnormal range, so -2 dphi/dt is R in the plans'
unit, and both rates are those of the unfolded formulas in that unit bit
for bit, but for the sign of an exactly-zero phi rate: +0 where
``lap_bg phi - R_bg/2`` is +0, where -R/2 is -0.

The checks run on every member at every step: its CFL bound against its
run's step before the step, and the overflow guard and the positivity of
f after it; the extinction time is checked once per member before any
step.  One segmented reduction over the stack, each member's min phi
after an update, serves both the guard and the next step's CFL check,
which compares it with a floor set per member with the step,
1/2 ln(dt / (0.2 h^2)): a hair conservative, so that only the exact rule
of ``cfl_limit``, applied to the member alone, raises.  A failure raises its
typed error with the failing time, the first failing run in stack order
and that run's lowest-index failing member.

Each geometry computes its scalar curvature once, on first use of
``SurfaceGeometry.R``, and ``FlowState.R`` reads it there; so do the
monitors, the identity residuals, the action DP and the assertions.
Nothing else derived from a state is kept: u, lap u, |grad u|^2 and the
v-family are recomputed on each call, which keeps a snapshot's memory at
its fields plus one curvature per geometry, one for all the snapshots of
a static member.  A caller of ``snapshots`` keeps what it reads: a
``SnapshotWindow`` holds the last few snapshots of a live trajectory, and
``replay`` feeds a stored trajectory to the same consumers, snapshot by
snapshot.  ``TrajectoryWriter`` is the one such consumer here: it writes
``save_trajectory``'s file as the snapshots arrive.
"""

from __future__ import annotations

import collections
import json
import os
import shutil
import struct
from dataclasses import dataclass
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
    require_count,
    require_items,
    require_kind,
    require_path,
    require_real,
)
from .geometry import CFL_FACTOR, SphereGeometry, SurfaceGeometry, TorusGeometry, cfl_limit, sphere_flux_plans

OVERFLOW_GUARD = 1e12
# Without an explicit dt, each interval's step stays this factor below its
# estimate of the interval's smallest CFL bound.
CFL_SAFETY = 1.25

# Largest set of snapshots a plan may keep: 16 GiB of phi and f, float64 at
# every node.  ``run_ensemble`` keeps every snapshot it plans; a scenario
# writes every one to trajectory.bin, and a ladder level plans up to its last.
MAX_SNAPSHOT_BYTES = 2**34

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

    ``f`` must be strictly positive and finite; the time, a real number
    and not a bool, may be zero (runs start at t = 0) but quantities with
    1/t terms demand t > 0 themselves.
    ``R`` is the scalar curvature of ``geom``, cached on the geometry, so
    states that share a geometry share it.
    """

    t: float
    geom: SurfaceGeometry
    f: np.ndarray

    def __post_init__(self):
        require_real(self.t, "time t")
        require_kind(self.geom, SurfaceGeometry, "geom")
        f = self.geom.check_field(self.f, "f").copy()
        fmin = float(np.min(f))
        if fmin <= 0.0:
            raise PositivityLostError(
                f"min f = {fmin:.6g} <= 0 at t = {self.t:.6g}", time=self.t
            )
        f.setflags(write=False)
        object.__setattr__(self, "f", f)
        if not 0 <= self.t < np.inf:  # NaN fails too
            raise ConstraintViolationError(f"time t = {self.t} must be finite and nonnegative")

    @property
    def R(self):
        """Scalar curvature of the live metric; every stage reads it here."""
        return self.geom.R


class EnsembleMember(NamedTuple):
    """One member of a ``FlowRun``: its initial state and its own equation."""

    initial: FlowState
    c: float = -1.0
    evolve_metric: bool = True
    initial_id: str = ""

    @property
    def static(self):
        """Whether its phi never changes: a frozen metric, or a flat torus at +0 everywhere.

        Its snapshots then share the initial geometry; an evolving member's
        snapshots each have their own.  On the torus R_bg = 0, so a +0 phi
        has the rate (lap phi) e^(-2 phi) = +0 at every stage and stays +0;
        a -0 would turn +0.
        """
        phi = self.initial.geom.phi
        if not self.evolve_metric:
            return True
        return isinstance(self.initial.geom, TorusGeometry) and not (phi.any() or np.signbit(phi).any())


class FlowRun(NamedTuple):
    """One run of ``run_ensemble``: members on one grid, integrated to the run's own times.

    ``t_end``, ``dt`` (explicit, or None for the CFL rule) and ``dt_out``
    follow the rules of ``run``.  A ``last`` snapshot index, a nonnegative
    int, stops the run there if it comes before ``t_end``; ``t_end`` is
    still checked.  A ``first`` snapshot index, a nonnegative int, is the
    first one whose states are built: the snapshots 1 .. first - 1 between
    are stepped to and handed on, each with None for every state, for a
    caller that reads none of them.
    """

    members: list
    t_end: float
    dt: float | None
    dt_out: float
    last: int | None = None
    first: int = 0

    @property
    def grid(self):
        """Its output grid, up to the last snapshot it makes; of its fields it checks only the times'.

        ``snapshots`` checks the whole run, and takes its grid from here.
        """
        grid = OutputGrid.spanning(self.members[0].initial.t, self.t_end, self.dt_out)
        return grid if self.last is None else grid._replace(count=min(grid.count, int(self.last)))


class OutputGrid(NamedTuple):
    """The output times of a run or a trajectory: snapshot k at t_k = t_start + k dt_out, k = 0 .. count.

    Every question of which snapshot a time names is answered here, under
    one rule: t names snapshot k when |t - t_k| <= 1e-9 dt_out.
    """

    t_start: float
    dt_out: float
    count: int  # the index of the last snapshot

    @classmethod
    def spanning(cls, t_start, t_end, dt_out):
        """The grid of the full output intervals from t_start to t_end; a t_end that names t_k ends it at k.

        A ``dt_out`` that is not positive and finite, a t_end before t_0 that
        names no snapshot, and an interval count that overflows a float
        raise ConstraintViolationError.
        """
        if not 0 < dt_out < np.inf:  # NaN fails too
            raise ConstraintViolationError(f"dt_out = {dt_out!r} must be positive and finite")
        intervals = (t_end - t_start) / dt_out
        if not abs(intervals) < np.inf:  # NaN fails too
            raise ConstraintViolationError(f"({t_end!r} - {t_start!r}) / dt_out = {dt_out!r} overflows a float")
        count = int(np.floor(intervals))
        count += cls(t_start, dt_out, count + 1).index(t_end) == count + 1
        if count < 0:
            raise ConstraintViolationError("t_end precedes the initial time")
        return cls(t_start, dt_out, count)

    def time(self, k):
        """t_k."""
        return self.t_start + k * self.dt_out

    def index(self, t):
        """The snapshot that time t names, or None when it names none of 0 .. count.

        Only the nearest snapshot can be named by t, and the rule compares t
        with its stored time t_k, so t_k names k however far the grid lies
        from t = 0.
        """
        x = (t - self.t_start) / self.dt_out
        k = round(x) if abs(x) < np.inf else -1  # NaN takes -1
        return k if 0 <= k <= self.count and abs(t - self.time(k)) <= 1e-9 * self.dt_out else None

    def first_at(self, t):
        """The first snapshot at or after time t, one that t names included; count + 1 when there is none."""
        k, x = self.index(t), (t - self.t_start) / self.dt_out
        # a t that names no snapshot takes the next one; a NaN t takes count + 1
        return k if k is not None else int(max(np.ceil(x), 0)) if x <= self.count else self.count + 1

    def check_index(self, t):
        """The interior snapshot nearest time t, at which the identity residuals are checked.

        The residuals at k divide by t_(k-1), so snapshot 1, whose left
        neighbour is t_0, is taken only when no later one is interior.  With
        no interior snapshot (count < 2) it is 0 or -1, which the residuals
        refuse.
        """
        k = round(min(self.count, max(0, (t - self.t_start) / self.dt_out)))  # NaN takes 0
        return min(max(k, 1 if self.count < 3 else 2), self.count - 1)


def _member_error(err, member, count):
    """Tag a step failure with its member; multi-member runs also name it in the message."""
    err.member = member
    if count > 1:
        err.args = (f"member {member}: {err}",)
    return err


# 0-d operands: numpy takes them faster than Python floats
_TWO, _MINUS_TWO = np.array(2.0), np.array(-2.0)


class _RK4Kernel:
    """Checked RK4 over one field-major stack of the members of several runs.

    The stack ``x`` has shape ``(2, *body)``: ``x[0]`` holds every member's
    phi and ``x[1]`` every member's f, so each per-field operand of a step
    is one contiguous block.  On the sphere the body is one flat axis of
    rows, each member's row of its own n, and one flux plan serves rows of
    mixed n; on the torus it is ``(members, n, n)``, one n and side length
    for the whole stack.  The static members (``EnsembleMember.static``:
    frozen, or a flat torus at +0) sit first, run by run, then the
    evolving ones, so a run's members may sit in two blocks.  Flat, the
    part of the stack a step updates is then one tail: the evolving
    members' phi, then every f.
    Only the stack has this order: ``members`` holds each run's (phi, f)
    views in member order, as ``fields`` gives them.

    Every buffer, view and operand is made once, in the constructor, and
    one step is a prebuilt list of (callable, operands) with positional
    outputs.  The reaction operand -2c is per node on the sphere and per
    member on the torus.  Every rate is carried in the plans' unit u
    (``plan_unit``, one per stack: h^2 on the torus, 1 on the sphere), so
    the step operands are (dt/u)/2, dt/u and (dt/u)/6: no stage divides by
    h^2, and on the sphere dt/1 is dt bit for bit.  Set by ``set_steps``,
    they are stack-shaped, so one multiply scales the whole tail, but 0-d
    when the stack holds one run: a broadcast operand costs two to three
    times as much per call.  Every operation is elementwise and keeps
    the operand order of the single-field formulas, so each member
    reproduces, bit for bit, a run of that member alone.  ``t`` holds each
    run's time and ``dts`` its step.

    A step works on six arrays of the stack's shape: ``x``, the stage
    state ``y``, the rate buffers ``k1``, ``acc`` (k2, then the weighted
    sum) and ``k`` (k3, then k4), and one scratch block.  One Laplacian
    plan per (state, rate) pair writes the Laplacians of the tail, times
    u, into its rate buffer; an evolving member's phi rate is then u times
    ``(lap phi - R_bg/2) e^(-2 phi)``, with no subtraction on the torus,
    where R_bg = 0 and x - 0 is x bit for bit, and its f rate u times
    ``e^(-2 phi) lap f - ((-2c) rate_phi) f``.  A static member's
    e^(-2 phi) and reaction factor (-2c) rate_phi are computed once, here,
    by the same formulas from the same plan, in the same unit, so its
    rate is ``e^(-2 phi) lap f - factor f``, without the multiply where
    e^(-2 phi) is exactly 1 and without the subtraction where the factor
    is exactly 0: x 1 is x, and a reaction of +-0 flips only the sign of
    an exactly-zero rate, which f + rate dt hides since f > 0.  The scratch block holds e^(-2 phi) and the
    reaction term after each Laplacian, and the torus plans' 4w of the
    tail during it; the static members' e^(-2 phi) lies outside the tail
    and is never overwritten.  The sphere plans share their flux buffer,
    mask and coefficients.  After the step, the overflow guard and the
    positivity of f are checked by reductions alone, and a failure is then
    located member by member.  The members' min phi (``phi_min``), one
    segmented reduction after each update, is both the guard's min phi and
    the next step's CFL check against ``floor``, set by ``set_steps``.
    """

    def __init__(self, runs):
        """``runs`` are ``_Run``s of one stack, each holding its members' (phi, f) in ``fields``."""
        self.runs = runs
        geom = runs[0].geoms[0]  # the grid, which every geometry of the stack shares
        sphere = isinstance(geom, SphereGeometry)
        # stack order: the static members, then the evolving ones, each run by run
        slots = sorted(((pos, i) for pos, run in enumerate(runs) for i in range(len(run.c))),
                       key=lambda slot: not runs[slot[0]].static[slot[1]])
        n_static = sum(sum(run.static) for run in runs)
        slot_runs = [pos for pos, _ in slots]
        # each member's extent along the first axis of the stack's body
        sizes = [runs[pos].geoms[0].n if sphere else 1 for pos in slot_runs]
        ends = np.cumsum(sizes).tolist()
        starts = [end - size for end, size in zip(ends, sizes)]
        body = (ends[-1],) if sphere else (len(slots),) + geom.field_shape
        x = np.empty((2,) + body)
        # per run: its members' (phi, f) views, in member order
        self.members = [[None] * len(run.c) for run in runs]
        for (pos, i), a, b in zip(slots, starts, ends):
            view = self.members[pos][i] = x[:, a:b] if sphere else x[:, a]
            view[0], view[1] = runs[pos].fields[i]
        if sphere:
            spread = lambda values: np.repeat(values, sizes)  # noqa: E731
        else:
            spread = lambda values: np.reshape(values, (-1,) + (1,) * len(geom.field_shape))  # noqa: E731
        c = spread([runs[pos].c[i] for pos, i in slots])
        # the step operands, and the run each of their entries reads its step from
        self.operand_runs = 0 if len(runs) == 1 else spread(slot_runs)
        shape = () if len(runs) == 1 else (2,) + c.shape
        self.half, self.full, self.sixth = (np.empty(shape) for _ in range(3))
        # the rates are carried in the plans' unit, one for the stack: a
        # torus stack has one h, and every sphere's unit is 1
        self.unit = geom.plan_unit
        # the checks: one segmented minimum of phi per member, taken after
        # each update, serves the overflow guard and the next step's CFL check
        self.phi_flat = x[0].reshape(-1)
        per_unit = self.phi_flat.size // body[0]
        self.cfl_starts = np.array(starts, dtype=np.intp) * per_unit
        self.coef = np.array([CFL_FACTOR * runs[pos].h * runs[pos].h for pos in slot_runs])
        self.phi_min = np.empty(len(slots))
        self.floor = np.empty(len(slots))
        self.bad = np.empty(len(slots), dtype=bool)
        self.slot_runs = np.array(slot_runs)
        self.slot_dts = np.zeros(len(slots))
        self.t = np.array([run.t for run in runs])
        self.dts = np.zeros(len(runs))

        self.x = x
        self.phi, self.f = x
        np.minimum.reduceat(self.phi_flat, self.cfl_starts, out=self.phi_min)
        y, k1, acc, k = (np.empty(x.shape) for _ in range(4))
        # one scratch block: e^(-2 phi) and the reaction term after each
        # Laplacian, and the torus plans' 4w during it
        scratch = np.empty(x.shape)
        e2m, react = scratch
        # the first evolving unit of the body: S holds the static members, E the evolving ones
        e0 = starts[n_static] if n_static < len(slots) else body[0]
        S, E = slice(0, e0), slice(e0, None)
        evolving = e0 < body[0]

        def tail(a):
            """The part of a stack-shaped array that a step updates: flat, from the first evolving phi on."""
            return a.reshape((-1,) + a.shape[2:])[e0:] if n_static else a

        pairs = [(tail(w), tail(out)) for w, out in ((x, k1), (y, acc), (y, k))]
        if sphere:
            lap_k1, lap_acc, lap_k = sphere_flux_plans(sizes[n_static:] + sizes, *pairs)
        else:
            lap_k1, lap_acc, lap_k = (geom.laplacian_plan(w, out, tail(scratch)) for w, out in pairs)
        # R = -2 rate_phi, so the reaction term -c R f is ((-2c) rate_phi) f
        minus_two_c = np.multiply(c, _MINUS_TWO)
        half_r_bg = np.array(0.5 * geom.background_curvature * self.unit)
        e2m_one = reacts = False
        if n_static:
            # the static members' e^(-2 phi) into e2m[S], which no tail
            # reaches, and their reaction factor, by the formulas of rhs; a
            # phi whose e^(-2 phi) overflows fails the CFL check before any step
            phi_s, factor = x[0, S], np.empty(x[0, S].shape)
            if sphere:
                sphere_flux_plans(sizes[:n_static], (phi_s, factor))[0]()
            else:
                geom.laplacian_plan(phi_s, factor)()
            with np.errstate(over="ignore", invalid="ignore"):
                np.exp(np.multiply(phi_s, _MINUS_TWO, e2m[S]), e2m[S])
                if sphere:
                    np.subtract(factor, half_r_bg, factor)
                np.multiply(factor, e2m[S], factor)
                np.multiply(minus_two_c[S], factor, factor)
            e2m_one, reacts = bool(np.all(e2m[S] == 1.0)), bool(factor.any())

        def rhs(lap, state, rate):
            """Rates (dphi/dt, df/dt) at ``state``, written into ``rate`` by its Laplacian plan."""
            phi, f = state
            ops = [(lap, ())]
            if evolving:
                ops += [(np.multiply, (phi[E], _MINUS_TWO, e2m[E])), (np.exp, (e2m[E], e2m[E]))]
                if sphere:  # on the torus R_bg = 0, and lap phi - 0 is lap phi bit for bit
                    ops.append((np.subtract, (rate[0, E], half_r_bg, rate[0, E])))
                ops += [
                    (np.multiply, (rate[:, E], e2m[E], rate[:, E])),  # ((lap phi - R_bg/2) e^(-2 phi), e^(-2 phi) lap f)
                    (np.multiply, (minus_two_c[E], rate[0, E], react[E])),
                    (np.multiply, (react[E], f[E], react[E])),
                ]
            if n_static and not e2m_one:
                ops.append((np.multiply, (rate[1, S], e2m[S], rate[1, S])))
            if reacts:
                ops.append((np.multiply, (factor, f[S], react[S])))
            # less the reaction term, wherever there is one
            if reacts or evolving:
                part = slice(None) if reacts else E
                ops.append((np.subtract, (rate[1, part], react[part], rate[1, part])))
            return ops

        # a 0-d step operand scales the whole tail
        half, full, sixth = (tail(a) if a.ndim else a for a in (self.half, self.full, self.sixth))

        def stage(scale, rate):
            return [(np.multiply, (tail(rate), scale, tail(y))), (np.add, (tail(x), tail(y), tail(y)))]

        ops = rhs(lap_k1, x, k1) + stage(half, k1)
        ops += rhs(lap_acc, y, acc) + stage(half, acc)
        ops += rhs(lap_k, y, k) + [(np.add, (tail(acc), tail(k), tail(acc)))]  # k2 + k3
        ops += stage(full, k) + rhs(lap_k, y, k)
        total = tail(acc)
        ops += [
            (np.multiply, (total, _TWO, total)),
            (np.add, (total, tail(k1), total)),
            (np.add, (total, tail(k), total)),
            (np.multiply, (total, sixth, total)),
        ]
        # the update: a static member's phi is never touched
        ops.append((np.add, (tail(x), total, tail(x))))
        self.ops = ops

    def set_steps(self, steps):
        """Step each run by its entry of ``steps`` from now on; the operands carry them over the plans' unit.

        Each member's CFL floor is set here: the step passes while the
        member's min phi is at least 1/2 ln(dt / coef), with coef = 0.2 h^2,
        which is dt <= coef e^(2 min phi).  It leaves out the 1 + 1e-12 slack
        of the exact rule, so it is a hair conservative: the rounding of the
        ln and of the exact rule's exp is far below 1e-12, and a step it
        flags that the exact rule passes goes on.
        """
        self.dts[:] = steps
        np.take(self.dts, self.slot_runs, out=self.slot_dts)
        self.full[...] = self.dts[self.operand_runs]
        np.divide(self.full, self.unit, self.full)
        np.multiply(self.full, 0.5, self.half)
        np.divide(self.full, 6.0, self.sixth)
        np.multiply(np.log(self.slot_dts / self.coef), 0.5, self.floor)

    def step(self):
        """One checked RK4 step of every run by its own step; a failure names its run and member.

        Each member's min phi, taken in one segmented reduction after the
        previous update (or when the stack was built), is checked against
        its CFL floor before the step; after it, the overflow guard and
        the positivity of f are checked on every member, and the segmented
        minimum is taken again for both the guard and the next step.
        """
        if np.less(self.phi_min, self.floor, self.bad).any():
            self._raise_cfl()
        for fn, args in self.ops:
            fn(*args)
        np.minimum.reduceat(self.phi_flat, self.cfl_starts, out=self.phi_min)
        # Reductions alone: with every f positive, max(x.max(), -phi.min())
        # is max |x|.  A NaN makes every reduction NaN, which fails both
        # comparisons, so non-finite fields are caught here too.
        big = max(float(self.x.max()), -float(self.phi_min.min()))
        fmin = float(self.f.min())
        if not (big <= OVERFLOW_GUARD and fmin > 0.0):
            self._raise_state()
        np.add(self.t, self.dts, self.t)

    def _raise_cfl(self):
        # each member's own bound, by the exact rule, decides; the stack's check only says where to look
        for pos in np.unique(self.slot_runs[self.bad]):
            run, dt = self.runs[pos], float(self.dts[pos])
            for i, (phi, _) in enumerate(self.members[pos]):
                bound = cfl_limit(run.h, phi)
                if dt > bound * (1.0 + 1e-12):
                    err = _member_error(StepTooLargeError(dt, bound), i, len(run.c))
                    raise run.tag(err, float(self.t[pos]))

    def _raise_state(self):
        for pos, run in enumerate(self.runs):
            t = float(self.t[pos] + self.dts[pos])
            for i, (phi, f) in enumerate(self.members[pos]):
                try:
                    _check_state_arrays(phi, f, t)
                except HarnackFlowError as err:
                    raise run.tag(_member_error(err, i, len(run.c)), t) from None


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

    @property
    def grid(self):
        """Its ``OutputGrid``: a live trajectory's window carries its run's; a stored one's spans its snapshots."""
        return getattr(self.states, "grid", None) or OutputGrid(self[0].t, self.dt_out, len(self) - 1)

    def save(self, path):
        save_trajectory(self, path)


class SnapshotWindow:
    """The last ``size`` snapshots of a growing trajectory, indexed as the whole trajectory.

    A Trajectory whose ``states`` is a window is the live trajectory of a
    flow that hands its snapshots on one by one: ``len`` counts every
    snapshot made, ``[k]`` (or ``[-1]``, the newest) reads a kept one, and
    asking for a dropped one raises LookupError, which iterating from the
    start does too.  So ``geom`` and ``times``, which read the first
    snapshot or all of them, do not apply; ``grid`` is its run's.
    """

    def __init__(self, size, grid):
        self.kept = collections.deque(maxlen=size)
        self.count = 0
        self.grid = grid

    def append(self, state):
        self.kept.append(state)
        self.count += 1

    def __len__(self):
        return self.count

    def __getitem__(self, k):
        pos = (k if k >= 0 else k + self.count) - (self.count - len(self.kept))
        if not 0 <= pos < len(self.kept):
            raise LookupError(f"snapshot {k} is not kept: the window holds the last {len(self.kept)} of {self.count}")
        return self.kept[pos]


def replay(consumer, traj):
    """Feed every snapshot of a stored trajectory to ``consumer`` in order; its ``finish``'s result.

    A consumer takes ``feed(traj, k)`` once snapshot k of ``traj`` exists,
    reading that snapshot and, at most, the ``reads - 1`` before it, and
    ``finish(traj)`` after the last.  A flow's live trajectory feeds the
    same consumers snapshot by snapshot, so one code path serves both.
    """
    require_kind(traj, Trajectory, "traj")
    for k in range(len(traj)):
        consumer.feed(traj, k)
    return consumer.finish(traj)


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


class Snapshot(NamedTuple):
    """One snapshot of one run, as ``snapshots`` makes it."""

    run: int  # index of its run in the list given
    k: int  # snapshot index, 0 for the initial states
    states: list  # one FlowState per member, in member order
    dt: float  # the run's smallest step so far: its trajectories' dt once its last snapshot is made


def run_ensemble(runs):
    """Integrate several runs in lockstep; one list of Trajectories, one per member, per run.

    ``snapshots`` with every snapshot kept.  Each returned trajectory is
    bit-identical to a ``run`` of that member alone at the same steps, and
    its ``dt`` is the smallest step its run used.  Runs whose snapshots
    0 .. last, phi and f of every member, exceed ``MAX_SNAPSHOT_BYTES``
    raise ConstraintViolationError before any step.
    """
    runs = require_items(runs, FlowRun, "runs")
    plans = [_Run(index, spec) for index, spec in enumerate(runs)]
    planned = sum((plan.grid.count + 1) * len(plan.c) * 16 * plan.geoms[0].node_count for plan in plans)
    if planned > MAX_SNAPSHOT_BYTES:
        raise ConstraintViolationError(
            f"the runs keep {planned:.4g} bytes of snapshots, above the limit of {MAX_SNAPSHOT_BYTES} bytes (2^34)"
        )
    kept = [[] for _ in runs]
    dts = [None] * len(runs)
    for snap in _handed_on(plans):
        kept[snap.run].append(snap.states)
        dts[snap.run] = snap.dt
    return [
        [Trajectory(list(member_states), dt=dt, dt_out=run.dt_out, c=mem.c, evolve_metric=mem.evolve_metric,
                    initial_id=mem.initial_id) for mem, member_states in zip(run.members, zip(*states))]
        for run, states, dt in zip(runs, kept, dts)
    ]


def snapshots(runs):
    """Integrate several runs in lockstep, handing each snapshot to the caller as it is made.

    Yields a ``Snapshot`` per run and snapshot index: first every run's
    initial states (k = 0), then each snapshot when its run's interval
    ends, in step order.  Nothing is kept here, so the caller decides what
    stays in memory.  Each ``FlowRun`` has its own members, ``t_end``,
    ``dt`` and ``dt_out``, and stops at its ``last`` snapshot if that comes
    first, and builds no state before its ``first`` snapshot.  Its
    members' initial states share the geometry kind, grid
    shape, spacing and start time; each member has its own finite ``c``,
    ``evolve_metric`` and ``initial_id``.  With ``dt=None`` a run's members
    take the same steps, set by the smallest CFL bound among them and the
    fastest-shrinking evolving sphere.  Every run is checked when
    ``snapshots`` is called, before any snapshot is handed on, and none is
    held here beyond what the next snapshot needs: a run holds its initial
    states until it hands them on, their (phi, f) until its stack starts,
    and from then on each member's newest geometry.

    Runs share one stack when they can: every sphere run, whatever its n,
    and the torus runs of one n and side length.  The stacks are stepped
    one after another, each until its last run has its last snapshot.
    Within a stack every step advances each run by its own step; between
    snapshot events the kernel takes as many steps as the nearest event
    allows, and a run whose last interval ends leaves the stack.  Every
    member is bit-identical to a ``run`` of it alone at the same steps.  A
    static member's snapshots share its initial geometry, and so its
    cached curvature.

    Every error carries the index of its run in ``.run``.  A run that fails
    its checks (mismatched grids within it raise GridMismatchError) raises
    before any step.  A step failure raises the error of the first run to
    fail, in step order, with the failing time in ``.time`` and the index
    of that run's lowest-index failing member in ``.member`` (and in the
    message when its run has more than one member).
    """
    return _handed_on([_Run(index, spec) for index, spec in enumerate(require_items(runs, FlowRun, "runs"))])


def _handed_on(plans):
    """The snapshots of the checked runs ``plans``, in the order ``snapshots`` hands them on."""
    stacks = {}
    for plan in plans:
        yield plan.made(plan.initial)
        plan.initial = None  # handed on: the run holds its members' (phi, f) alone until its stack starts
        if plan.grid.count:
            stacks.setdefault(plan.stack, []).append(plan)
    for live in stacks.values():
        yield from _step_stack(live)


def _step_stack(live):
    """Step the runs of one stack in lockstep, yielding each snapshot as its interval ends."""
    while live:
        kernel = _RK4Kernel(live)
        for run, fields in zip(live, kernel.members):
            run.fields = fields  # the stack holds them from now on
        while all(run.k < run.grid.count for run in live):
            for pos, run in enumerate(live):
                if not run.left:
                    run.begin_interval(kernel.members[pos])
            kernel.set_steps([run.step for run in live])
            count = min(run.left for run in live)
            # an overflow or a NaN the step makes fails its checks, typed, without a warning
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(count):
                    kernel.step()
            for pos, run in enumerate(live):
                run.left -= count
                run.t = float(kernel.t[pos])
                if not run.left:
                    yield run.snapshot(kernel.members[pos])
        # a finished run lets go of the stack; the others move, mid-interval,
        # to a stack without it
        for run in live:
            if run.k == run.grid.count:
                run.fields = None
        live = [run for run in live if run.fields is not None]


class _Run:
    """One run of ``snapshots``: its checked plan and its progress.

    Of its members it keeps their ``c`` and whether they are static, their
    initial states until ``snapshots`` hands them on, their (phi, f) in
    ``fields`` (the initial ones until its stack starts, then the stack's
    views until it ends) and in ``geoms`` each one's newest geometry, from
    which the next snapshot's is made: a static member's is its initial
    one throughout.
    """

    def __init__(self, index, spec):
        self.index = index
        try:
            members = self._check(spec)
        except HarnackFlowError as err:
            raise self.tag(err)
        self.initial = [mem.initial for mem in members]
        self.fields = [(state.geom.phi, state.f) for state in self.initial]
        self.geoms = [state.geom for state in self.initial]
        self.c = [mem.c for mem in members]
        self.static = [mem.static for mem in members]
        g = self.geoms[0]
        self.h = g.background_spacing
        # the runs it may share a stack with have the same key: every sphere, a torus of its n and side length
        self.stack = (g.kind,) if isinstance(g, SphereGeometry) else (g.kind, g.field_shape, self.h)
        self.t = self.grid.t_start  # advanced step by step
        self.k = 0  # output intervals done
        self.left = 0  # steps left in the current interval
        self.step, self.max_steps = self.dt, 1

    def _check(self, spec):
        """Check ``spec`` and plan its intervals; its members, in member order."""
        members = require_items(spec.members, EnsembleMember, "members")
        if not members:
            raise ConstraintViolationError("a run needs at least one member")
        self.dt, self.dt_out = spec.dt, spec.dt_out
        require_real(self.dt_out, "dt_out")
        if self.dt is not None:
            require_real(self.dt, "dt")
            self.steps = _steps_per_output(self.dt, self.dt_out)
        for i, mem in enumerate(members):
            require_kind(mem.initial, FlowState, f"member {i}: initial")
        geom = members[0].initial.geom
        t_start = members[0].initial.t
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
            require_real(mem.c, f"member {i}: c", finite=True)
        t_end = spec.t_end
        require_real(t_end, "t_end", finite=True)
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
        if spec.last is not None:
            require_count(spec.last, "last", "a nonnegative snapshot index")
        self.grid = spec._replace(members=members).grid
        t_last = self.grid.time(self.grid.count)
        if self.dt is not None and t_last + self.dt == t_last:
            raise ConstraintViolationError(f"dt = {self.dt!r} does not advance the run's last time {t_last!r}")
        require_count(spec.first, "first", "a nonnegative snapshot index")
        self.first = spec.first
        return members

    def tag(self, err, time=None):
        """Attach this run's index, and the failing time unless the error has one."""
        err.run = self.index
        if time is not None and err.time is None:
            err.time = time
        return err

    def begin_interval(self, members):
        """Plan the next output interval's steps from the members' (phi, f), now."""
        if self.dt is None:
            # area fraction an evolving sphere keeps across this interval
            lost = 8.0 * np.pi * self.k * self.dt_out
            shrink = min(((a - lost - 8.0 * np.pi * self.dt_out) / (a - lost) for a in self.areas), default=1.0)
            try:
                bound = min(cfl_limit(self.h, phi) for phi, _ in members)
                self.steps = _interval_steps(bound, shrink, self.dt_out)
            except HarnackFlowError as err:
                raise self.tag(err, self.t)
            self.step, self.max_steps = self.dt_out / self.steps, max(self.max_steps, self.steps)
        self.left = self.steps

    def snapshot(self, members):
        """The members' (phi, f), in member order, as the next snapshot, at the end of an interval.

        A static member's snapshots share its initial geometry.  Before the
        run's ``first`` snapshot no state is built: each is None.
        """
        self.k += 1
        if self.k < self.first:
            return self.made([None] * len(members))
        t_snap = self.grid.time(self.k)
        states = [
            FlowState(t_snap, geom if static else geom.with_phi(phi), f)
            for geom, static, (phi, f) in zip(self.geoms, self.static, members)
        ]
        self.geoms = [state.geom for state in states]
        return self.made(states)

    def made(self, states):
        """``states`` as snapshot ``self.k``, with the smallest step taken so far."""
        return Snapshot(self.index, self.k, states, self.dt_out / self.max_steps if self.dt is None else self.dt)


# ---------------------------------------------------------------------------
# derived-field time differencing


def time_derivative(traj, k, field):
    """Centered time difference of a derived field at snapshot k.

    ``field`` is a callable mapping a FlowState to a field.  Snapshots
    share one coordinate grid (only phi evolves), so the difference is
    pointwise; accuracy is O(dt_out^2).  A ``k`` that is not a nonnegative
    int is refused.
    """
    require_kind(traj, Trajectory, "traj")
    require_count(k, "k", "a nonnegative snapshot index")
    if not callable(field):
        raise ConstraintViolationError(f"field = {field!r} must map a FlowState to a field")
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
    """Write a trajectory to one binary file: ``TrajectoryWriter`` fed from the stored trajectory.

    Layout: 8-byte magic ``HFTRAJ01``; little-endian uint32 header length;
    UTF-8 JSON header (geometry kind, n, length for the torus, dt, dt_out,
    variant, c, evolve_metric, initial_id, snapshot count); then per
    snapshot the time followed by the flat phi and f arrays, all
    little-endian float64, torus fields in row-major order.
    """
    with TrajectoryWriter(path) as writer:
        replay(writer, traj)


class TrajectoryWriter:
    """``save_trajectory`` one snapshot at a time, as a flow makes them.

    ``feed(traj, k)`` appends snapshot k's record to ``<path>.part``, in
    the directory of ``path``; ``finish(traj)`` writes the header, which
    needs the snapshot count and the run's ``dt`` (under the CFL rule the
    smallest step, known only when the flow ends), then moves the records
    into place under it.  Closing the writer removes the ``.part`` file, so
    a run that stops early leaves neither it nor ``path``.
    """

    reads = 1

    def __init__(self, path):
        require_path(path)
        self.path = os.fspath(path)
        self.part = self.path + ".part"
        self.fh = open(self.part, "wb")
        self.count = 0

    def feed(self, traj, k):
        s = traj[k]
        self.fh.write(struct.pack("<d", s.t))
        self.fh.write(np.ascontiguousarray(s.geom.phi, dtype="<f8").tobytes())
        self.fh.write(np.ascontiguousarray(s.f, dtype="<f8").tobytes())
        self.count += 1

    def finish(self, traj):
        geom = traj[-1].geom
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
            "snapshots": self.count,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        self.fh.close()
        with open(self.path, "wb") as fh, open(self.part, "rb") as records:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            shutil.copyfileobj(records, fh)
        os.remove(self.part)

    def close(self):
        self.fh.close()
        if os.path.exists(self.part):
            os.remove(self.part)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def load_trajectory(path):
    """Read a trajectory written by ``save_trajectory``.

    A file without that layout (wrong magic, a header that is not JSON or
    lacks a field, a size other than the header implies) raises
    TrajectoryFormatError naming the path.  So does one that no run could
    have written: a ``dt`` or ``dt_out`` that is not positive and finite, or
    a ``dt`` that does not divide ``dt_out``; a snapshot time t_k that does
    not name snapshot k of the grid t_0 + k dt_out; or a snapshot whose
    fields fail ``FlowState``'s checks, which the error names by its index.
    So does a file that cannot be read.  A ``path`` that is not a non-empty
    str or os.PathLike raises ConstraintViolationError.
    """
    require_path(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise TrajectoryFormatError(f"{path}: cannot read: {err.strerror or err}") from err
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
            length, count = float(header["length"]), n * n
        elif kind == "rot_sphere":
            count = n
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
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise TrajectoryFormatError(f"{path}: bad header ({type(err).__name__}: {err})") from err
    if snapshots < 1:
        raise TrajectoryFormatError(f"{path}: header declares {snapshots} snapshots")
    try:
        _steps_per_output(params["dt"], params["dt_out"])
    except ConstraintViolationError as err:
        raise TrajectoryFormatError(f"{path}: bad header ({err})") from err
    # the size the header's integers imply, checked before any geometry is
    # built: a header that declares a huge grid must not allocate its fields
    expected = offset + snapshots * (8 + 16 * count)
    if len(data) != expected:
        raise TrajectoryFormatError(
            f"{path}: {len(data)} bytes, but a header of {snapshots} snapshots "
            f"of {count} nodes implies {expected}"
        )
    try:
        base = TorusGeometry(n, length) if kind == "torus" else SphereGeometry(n)
    except GridMismatchError as err:
        raise TrajectoryFormatError(f"{path}: bad header ({type(err).__name__}: {err})") from err
    states = []
    grid = OutputGrid(struct.unpack_from("<d", data, offset)[0], params["dt_out"], snapshots - 1)
    for k in range(snapshots):
        (t,) = struct.unpack_from("<d", data, offset)
        fields = np.frombuffer(data, dtype="<f8", count=2 * count, offset=offset + 8)
        phi, f = fields.reshape((2, *base.field_shape))
        offset += 8 + 16 * count
        if grid.index(t) != k:
            raise TrajectoryFormatError(
                f"{path}: snapshot {k} at t = {t!r}, expected t_0 + {k} * dt_out = {grid.time(k)!r}"
            )
        try:
            states.append(FlowState(t, base.with_phi(phi), f))
        except HarnackFlowError as err:
            raise TrajectoryFormatError(f"{path}: snapshot {k}: {type(err).__name__}: {err}") from err
    return Trajectory(states, **params)
