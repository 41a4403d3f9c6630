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
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

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


def _rhs(geom, phi, f, c, evolve_metric):
    """Right-hand sides (dphi/dt, df/dt) at the given stage fields.

    Works on raw arrays against the shared background of ``geom``; the
    conformal exponent of ``geom`` itself is ignored.
    """
    e2m = np.exp(-2.0 * phi)
    curv = e2m * (geom.background_curvature - 2.0 * geom._bg_lap_raw(phi))
    df = e2m * geom._bg_lap_raw(f) - c * curv * f
    if not evolve_metric:
        return None, df
    return -0.5 * curv, df


def _check_state_arrays(phi, f, t):
    # NaNs fail both comparisons, so non-finite fields are caught here too.
    big = max(float(np.max(np.abs(phi))), float(np.max(np.abs(f))))
    if not big <= OVERFLOW_GUARD:
        raise BlowupError(f"|field| = {big:.3g} exceeds overflow guard at t = {t:.6g}", time=t)
    fmin = float(np.min(f))
    if not fmin > 0.0:
        raise PositivityLostError(f"min f = {fmin:.6g} <= 0 at t = {t:.6g}", time=t)


def _rk4(geom, phi, f, dt, c, evolve_metric):
    half = 0.5 * dt
    k1p, k1f = _rhs(geom, phi, f, c, evolve_metric)
    if not evolve_metric:
        _, k2f = _rhs(geom, phi, f + half * k1f, c, False)
        _, k3f = _rhs(geom, phi, f + half * k2f, c, False)
        _, k4f = _rhs(geom, phi, f + dt * k3f, c, False)
        return phi, f + (dt / 6.0) * (k1f + 2.0 * (k2f + k3f) + k4f)
    k2p, k2f = _rhs(geom, phi + half * k1p, f + half * k1f, c, True)
    k3p, k3f = _rhs(geom, phi + half * k2p, f + half * k2f, c, True)
    k4p, k4f = _rhs(geom, phi + dt * k3p, f + dt * k3f, c, True)
    phi_new = phi + (dt / 6.0) * (k1p + 2.0 * (k2p + k3p) + k4p)
    f_new = f + (dt / 6.0) * (k1f + 2.0 * (k2f + k3f) + k4f)
    return phi_new, f_new


def _advance(geom, h, phi, f, t, dt, c, evolve_metric):
    """One checked RK4 step from time t on raw arrays; returns (phi, f) at t + dt.

    Raises StepTooLargeError when dt violates the CFL bound of the current
    fields, PositivityLostError if the heat field loses positivity, and
    BlowupError past the overflow guard.
    """
    bound = cfl_limit(h, phi)
    if dt > bound * (1.0 + 1e-12):
        raise StepTooLargeError(dt, bound)
    phi, f = _rk4(geom, phi, f, dt, c, evolve_metric)
    _check_state_arrays(phi, f, t + dt)
    return phi, f


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


def run(initial, t_end, dt, dt_out, c=-1.0, evolve_metric=True, initial_id=""):
    """Integrate from ``initial`` to ``t_end``, recording every ``dt_out``.

    ``dt`` must divide ``dt_out`` to float accuracy; recorded times are
    ``t_start + k*dt_out`` (the system is autonomous, so snapping the time
    label is exact).  ``t_end`` is truncated to the last full output
    interval.  Deterministic: identical inputs give bit-identical states.

    Step errors propagate with the failing time attached.
    """
    if dt <= 0 or dt_out <= 0:
        raise ConstraintViolationError("dt and dt_out must be positive")
    steps_per_out = int(round(dt_out / dt))
    if steps_per_out < 1 or abs(steps_per_out * dt - dt_out) > 1e-9 * dt_out:
        raise ConstraintViolationError(
            f"dt = {dt!r} must divide dt_out = {dt_out!r} (got {dt_out / dt:.6g} steps per output)"
        )
    t_start = initial.t
    if t_end < t_start - 1e-12:
        raise ConstraintViolationError("t_end precedes the initial time")
    if isinstance(initial.geom, SphereGeometry) and evolve_metric:
        extinction = initial.geom.total_area() / (8.0 * np.pi)
        if t_end - t_start >= extinction:
            raise ConstraintViolationError(
                f"t_end = {t_end:.6g} reaches the extinction time {t_start + extinction:.6g}"
            )
    n_out = int(np.floor((t_end - t_start) / dt_out + 1e-9))
    states = [initial]
    phi = initial.geom.phi
    f = initial.f
    geom = initial.geom
    h = geom.background_spacing
    t_cur = t_start
    try:
        for k in range(1, n_out + 1):
            for _ in range(steps_per_out):
                phi, f = _advance(geom, h, phi, f, t_cur, dt, c, evolve_metric)
                t_cur += dt
            t_snap = t_start + k * dt_out
            states.append(FlowState(t_snap, geom.with_phi(phi), f))
    except HarnackFlowError as err:
        if getattr(err, "time", None) is None:
            err.time = t_cur  # attach the failing time for the caller
        raise
    return Trajectory(
        states,
        dt=dt,
        dt_out=dt_out,
        c=c,
        evolve_metric=evolve_metric,
        initial_id=initial_id,
    )


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
    TrajectoryFormatError naming the path.
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
    except (KeyError, TypeError, ValueError, GridMismatchError) as err:
        raise TrajectoryFormatError(f"{path}: bad header ({type(err).__name__}: {err})") from err
    if snapshots < 1:
        raise TrajectoryFormatError(f"{path}: header declares {snapshots} snapshots")
    count = base.node_count
    expected = offset + snapshots * (8 + 16 * count)
    if len(data) != expected:
        raise TrajectoryFormatError(
            f"{path}: {len(data)} bytes, but a header of {snapshots} snapshots "
            f"of {count} nodes implies {expected}"
        )
    states = []
    for _ in range(snapshots):
        (t,) = struct.unpack_from("<d", data, offset)
        fields = np.frombuffer(data, dtype="<f8", count=2 * count, offset=offset + 8)
        phi, f = fields.reshape((2, *base.field_shape))
        offset += 8 + 16 * count
        states.append(FlowState(t, base.with_phi(phi), f))
    return Trajectory(states, **params)
