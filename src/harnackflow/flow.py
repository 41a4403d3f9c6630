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

Time stepping is classic fixed-step RK4.  Adaptivity is deliberately
absent: the identity checks difference stored snapshots in time and need
exactly uniform output spacing.  The step size must satisfy the explicit
CFL rule ``dt <= 0.2 * h^2 * min(e^(2 phi))``, re-checked against the
current state before every step.

``evolve_metric=False`` freezes ``phi`` (heat flow on a static metric);
the gradient-estimate scenarios use it to probe curved static backgrounds.

One kernel steps every flow.  ``run_ensemble`` integrates several members
on one grid in lockstep, each with its own ``c`` and ``evolve_metric``.
Their states are stacked field-major, ``x`` of shape
``(2, members, *field_shape)``: ``x[0]`` holds every member's phi and
``x[1]`` every member's f, evolving members first.  Every per-field
operand of a step is then one C-contiguous block, and one RK4 step is one
pass of numpy calls over the whole stack, on stage buffers allocated once
per run.  ``run`` is ``run_ensemble`` with one member.  Every operation is
elementwise in the single-field operand order, so each member is
bit-identical to a run of it alone.  The checks run on every member at
every step: the CFL bound before the step, the overflow guard and the
positivity of f after it; the extinction time is checked once per member.
A failure raises its typed error with the failing time and the member.

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
from .geometry import SphereGeometry, SurfaceGeometry, TorusGeometry, cfl_limit

OVERFLOW_GUARD = 1e12

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
    """One member of ``run_ensemble``: its initial state and its own equation."""

    initial: FlowState
    c: float = -1.0
    evolve_metric: bool = True
    initial_id: str = ""


def _member_error(err, member, count):
    """Tag a step failure with its member; multi-member runs also name it in the message."""
    err.member = member
    if count > 1:
        err.args = (f"member {member}: {err}",)
    return err


class _RK4Kernel:
    """Checked RK4 over a field-major stack ``x`` of M same-grid members.

    ``x`` has shape ``(2, M, *field_shape)``: ``x[0]`` holds every member's
    phi and ``x[1]`` every member's f, so each per-field operand of a step
    is one contiguous block.  Every buffer, and every view of one that a
    step uses, is made once, in the constructor.  Members whose metric is
    frozen sit after the ``evolving`` ones; their phi rate stays zero and
    their phi is never updated.  Each member reproduces, bit for bit, a run
    of that member alone: every operation is elementwise and keeps the
    operand order of the single-field formulas.
    """

    def __init__(self, geom, x, c, evolving, dt, names):
        self.names = names  # member index of each row, for error messages
        self.h = geom.background_spacing
        self.r_bg = geom.background_curvature
        self.dt = dt
        members = x.shape[1]
        # a broadcast column: a full-shape c would stream one more field per stage
        self.c = np.asarray(c, dtype=float).reshape((members,) + (1,) * len(geom.field_shape))
        self.e2m = np.empty(x.shape[1:])
        self.ctmp = np.empty(x.shape[1:])
        # rates start at zero: the frozen members' phi rates are never written
        self.x, self.y, self.k1, self.acc, self.k = x, *(np.zeros(x.shape) for _ in range(4))
        self.z = np.empty(x.shape)
        self.z0, self.z1 = self.z
        self.z0_ev = self.z0[:evolving]
        self.phi, self.f = x
        # (Laplacian plan into z, phi, f) of the state and of the stage state
        self.at_x = (geom.laplacian_plan(x, self.z), *x)
        self.at_y = (geom.laplacian_plan(self.y, self.z), *self.y)
        # (df/dt, dphi/dt of the evolving members): the views each rate buffer is written through
        self.into_k1, self.into_acc, self.into_k = ((k[1], k[0, :evolving]) for k in (self.k1, self.acc, self.k))
        # the update: the whole stack when every member evolves, else the
        # evolving members' phi and every f; a frozen phi is never touched
        acc = self.acc
        if evolving == members:
            self.updates = [(x, acc)]
        else:
            self.updates = [(x[0, :evolving], acc[0, :evolving]), (x[1], acc[1])]

    def _rhs(self, at, into):
        """Rates (dphi/dt, df/dt) at the stage state ``at = (lap, phi, f)``, written ``into`` a rate buffer."""
        lap, phi, f = at
        k_f, k_phi_ev = into
        z, z0, e2m, ctmp = self.z, self.z0, self.e2m, self.ctmp
        lap()
        np.multiply(phi, -2.0, out=e2m)
        np.exp(e2m, out=e2m)
        np.multiply(z0, 2.0, out=z0)
        np.subtract(self.r_bg, z0, out=z0)
        np.multiply(z, e2m, out=z)  # z = (R, e^(-2 phi) lap f)
        np.multiply(self.c, z0, out=ctmp)
        np.multiply(ctmp, f, out=ctmp)
        np.subtract(self.z1, ctmp, out=k_f)
        np.multiply(self.z0_ev, -0.5, out=k_phi_ev)

    def _stage(self, scale, k):
        y = self.y
        np.multiply(k, scale, out=y)
        np.add(self.x, y, out=y)

    def step(self, t):
        """One checked step from time t; raises with the failing member attached.

        The CFL bound of the current fields is checked before the step, the
        overflow guard and the positivity of f after it, on every member.
        """
        dt = self.dt
        if dt > cfl_limit(self.h, self.phi) * (1.0 + 1e-12):
            self._raise_cfl()
        half = 0.5 * dt
        a, k = self.acc, self.k
        self._rhs(self.at_x, self.into_k1)
        self._stage(half, self.k1)
        self._rhs(self.at_y, self.into_acc)
        self._stage(half, a)
        self._rhs(self.at_y, self.into_k)
        np.add(a, k, out=a)  # k2 + k3
        self._stage(dt, k)
        self._rhs(self.at_y, self.into_k)
        np.multiply(a, 2.0, out=a)
        np.add(a, self.k1, out=a)
        np.add(a, k, out=a)
        np.multiply(a, dt / 6.0, out=a)
        for xs, accs in self.updates:
            np.add(xs, accs, out=xs)
        # NaNs fail both comparisons, so non-finite fields are caught here
        # too; z is free until the next step's first Laplacian.
        big = float(np.abs(self.x, out=self.z).max())
        fmin = float(self.f.min())
        if not (big <= OVERFLOW_GUARD and fmin > 0.0):
            self._raise_state(t + dt)

    def _raise_cfl(self):
        for m, phi in enumerate(self.phi):
            bound = cfl_limit(self.h, phi)
            if self.dt > bound * (1.0 + 1e-12):
                raise _member_error(StepTooLargeError(self.dt, bound), self.names[m], len(self.phi))

    def _raise_state(self, t):
        for m, (phi, f) in enumerate(zip(self.phi, self.f)):
            try:
                _check_state_arrays(phi, f, t)
            except HarnackFlowError as err:
                raise _member_error(err, self.names[m], len(self.phi)) from None


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


def run(initial, t_end, dt, dt_out, c=-1.0, evolve_metric=True, initial_id=""):
    """Integrate from ``initial`` to ``t_end``, recording every ``dt_out``.

    ``dt`` must divide ``dt_out`` to float accuracy; recorded times are
    ``t_start + k*dt_out`` (the system is autonomous, so snapping the time
    label is exact).  ``t_end`` is truncated to the last full output
    interval.  Deterministic: identical inputs give bit-identical states.

    Step errors propagate with the failing time attached.  This is
    ``run_ensemble`` with one member.
    """
    member = EnsembleMember(initial, c=c, evolve_metric=evolve_metric, initial_id=initial_id)
    return run_ensemble([member], t_end, dt, dt_out)[0]


def run_ensemble(members, t_end, dt, dt_out):
    """Integrate several members on one grid in lockstep; one Trajectory each.

    ``members`` are ``EnsembleMember``s whose initial states share the
    geometry kind, grid shape, spacing and start time; each has its own
    ``c``, ``evolve_metric`` and ``initial_id``.  ``t_end``, ``dt`` and
    ``dt_out`` are shared and follow the rules of ``run``.  Each returned
    trajectory is bit-identical to a ``run`` of that member alone.

    Mismatched grids raise GridMismatchError.  A step failure raises the
    error of the first failing member, with the failing time in ``.time``
    and the member index in ``.member`` (and in the message when there is
    more than one member).
    """
    members = list(members)
    if not members:
        raise ConstraintViolationError("run_ensemble needs at least one member")
    steps_per_out = _steps_per_output(dt, dt_out)
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
    if t_end < t_start - 1e-12:
        raise ConstraintViolationError("t_end precedes the initial time")
    for i, mem in enumerate(members):
        if isinstance(mem.initial.geom, SphereGeometry) and mem.evolve_metric:
            extinction = mem.initial.geom.total_area() / (8.0 * np.pi)
            if t_end - t_start >= extinction:
                where = f"member {i}: " if len(members) > 1 else ""
                raise ConstraintViolationError(
                    f"{where}t_end = {t_end:.6g} reaches the extinction time {t_start + extinction:.6g}"
                )
    n_out = int(np.floor((t_end - t_start) / dt_out + 1e-9))
    # evolving members first, so the frozen ones are one trailing slice
    order = sorted(range(len(members)), key=lambda i: not members[i].evolve_metric)
    evolving = sum(1 for mem in members if mem.evolve_metric)
    x = np.empty((2, len(members)) + geom.field_shape)
    for row, i in enumerate(order):
        x[0, row] = members[i].initial.geom.phi
        x[1, row] = members[i].initial.f
    kernel = _RK4Kernel(geom, x, [members[i].c for i in order], evolving, dt, order)
    states = [[mem.initial] for mem in members]
    t_cur = t_start
    try:
        for k in range(1, n_out + 1):
            for _ in range(steps_per_out):
                kernel.step(t_cur)
                t_cur += dt
            t_snap = t_start + k * dt_out
            for row, i in enumerate(order):
                g = members[i].initial.geom
                states[i].append(FlowState(t_snap, g.with_phi(x[0, row]), x[1, row]))
    except HarnackFlowError as err:
        if getattr(err, "time", None) is None:
            err.time = t_cur  # attach the failing time for the caller
        raise
    return [
        Trajectory(
            states[i],
            dt=dt,
            dt_out=dt_out,
            c=mem.c,
            evolve_metric=mem.evolve_metric,
            initial_id=mem.initial_id,
        )
        for i, mem in enumerate(members)
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
