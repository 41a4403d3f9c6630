"""Monitored quantities of the coupled flow.

Everything here is a pure function of a :class:`~harnackflow.flow.FlowState`
(or, for the time-differenced trace quantity, of a trajectory snapshot).
With ``u = -ln f`` and ``v = u - (n/2) ln(4 pi t)`` on surfaces (n = 2):

* ``quantity_H``  -- 2 lap(u) - |grad u|^2 - 3R - 2n/t, the quantity whose
  non-positivity holds under weakly positive curvature (on surfaces: R >= 0);
* ``quantity_P``  -- 2 lap(v) - |grad v|^2 - 3R + v/t - d n/t for a free
  constant ``d``; the grid maximum of ``t * P`` is non-increasing in time;
* ``trace_harnack`` -- dR/dt + R/t + 2 grad R . V + 2 Rc(V, V) for
  V in {0, grad u, grad v} (the latter two coincide: v - u is spatially
  constant);
* ``surface_lyh`` -- lap(ln R) + R + 1/t (needs R > 0) or lap(ln f) + R + 1/t;
* ``entropy_F`` / ``entropy_W`` -- integral of t^2 H e^(-u) dmu and of
  t P (4 pi t)^(-n/2) e^(-v) dmu; both reduce to integrals against f dmu;
* ``gradient_quantity`` -- |grad u|^2 - u/t for plain heat with 0 < f < 1,
  equivalently |grad f|^2 + f^2 ln f / t <= 0 after multiplying by f^2;
* ``mass`` -- integral of f dmu.

The module owns the parameter tuple ``HarnackParams`` (alpha, beta, a, b,
c, d, lambda) and its presets, and ``harnack_field``, the one formula
alpha lap(w) - beta |grad w|^2 + a R - b w/t - d n/t: H is it on u at
``COR_H_PRESET``, P on v at ``COR_P_PRESET``, |grad u|^2 - u/t on u at
``GRAD_PRESET`` and the surface quantity lap(u) - R at ``SURFACE_PRESET``.
The general identities evaluate the same formula, and ``log_curvature`` is
the one ln R with its R > 0 check.  All 1/t quantities demand t > 0;
monitors along a trajectory start at a configured t0 > 0 for that reason.
Grid extrema are taken over all nodes with no smoothing (the monotonicity
statements are pointwise).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConstraintViolationError,
    DegenerateParamsError,
    FOutOfRangeError,
    NonPositiveCurvatureError,
    NonPositiveFError,
    NonPositiveTimeError,
    TimesNotStoredError,
)
from .flow import replay, require_real, time_derivative

DIMENSION = 2

_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class HarnackParams:
    """Constant tuple (alpha, beta, a, b, c, d, lam) of a Harnack quantity and its identity.

    Each coefficient is a float, or, for a batch of tuples, a column that
    broadcasts against stacked fields, as ``identities`` builds them:
    ``harnack_field`` and the general identity then evaluate all the tuples
    in one pass, each entry by the float arithmetic of its tuple alone.
    """

    alpha: float
    beta: float
    a: float
    b: float
    c: float
    d: float
    lam: float

    def validate_h(self):
        if abs(self.alpha - self.beta) < _DEGENERACY_TOL:
            raise DegenerateParamsError(
                f"alpha = {self.alpha}, beta = {self.beta}: identity divides by 2(alpha - beta)"
            )
        if self.lam != 0.0 and abs(self.alpha) < _DEGENERACY_TOL:
            raise DegenerateParamsError("alpha = 0 with lambda != 0: identity divides lambda by alpha")

    def validate_p(self):
        """``validate_h`` with beta = 1, which the definition of P fixes."""
        replace(self, beta=1.0).validate_h()


# The paper's quantities as tuples; the presets also collapse the general
# identities to the dedicated ones.
COR_H_PRESET = HarnackParams(alpha=2.0, beta=1.0, a=-3.0, b=0.0, c=-1.0, d=2.0, lam=2.0)
COR_P_PRESET = HarnackParams(alpha=2.0, beta=1.0, a=-3.0, b=-1.0, c=-1.0, d=1.0, lam=1.0)
SURFACE_PRESET = HarnackParams(alpha=1.0, beta=0.0, a=-1.0, b=0.0, c=-1.0, d=0.0, lam=0.0)
GRAD_PRESET = HarnackParams(alpha=0.0, beta=-1.0, a=0.0, b=1.0, c=0.0, d=0.0, lam=0.0)

MONITOR_COLUMNS = (
    "sup_H",
    "sup_tP",
    "F",
    "W",
    "mass",
    "sup_grad",
    "min_traceH_V0",
    "min_traceH_Vu",
    "min_LYH_curv",
    "min_LYH_heat",
)

# Monitor name of the config's [monitors] enable list -> the columns it turns on.
MONITOR_GROUPS = {
    "H": ("sup_H",),
    "tP": ("sup_tP",),
    "F": ("F",),
    "W": ("W",),
    "mass": ("mass",),
    "trace_harnack": ("min_traceH_V0", "min_traceH_Vu"),
    "lyh_curvature": ("min_LYH_curv",),
    "lyh_heat": ("min_LYH_heat",),
    "gradient": ("sup_grad",),
}


def _require_positive_time(state):
    if state.t <= 0:
        raise NonPositiveTimeError(f"quantity with 1/t terms evaluated at t = {state.t}")


def u_field(state):
    """u = -ln f; raises if f is not strictly positive."""
    fmin = float(np.min(state.f))
    if fmin <= 0.0:
        raise NonPositiveFError(f"min f = {fmin:.6g} <= 0")
    return -np.log(state.f)


def v_field(state):
    """v = -ln f - (n/2) ln(4 pi t)."""
    _require_positive_time(state)
    return _v_of(state, u_field(state))


def _v_of(state, u):
    return u - (DIMENSION / 2.0) * np.log(4.0 * np.pi * state.t)


def harnack_field(state, w, p):
    """alpha lap(w) - beta |grad w|^2 + a R - b w/t - d n/t at ``state`` for the tuple ``p``.

    The one formula behind every preset's quantity, for the monitors and
    the general identities alike.  A term whose coefficient is zero (for a
    batch of tuples: zero in every tuple) is left
    out; the others are added as (coefficient * term), so - beta |grad w|^2
    is + (-beta) |grad w|^2, the same float.  A tuple with no term that
    varies over the grid (all zero, or d alone) gives a constant field.  A
    batch gives one field per tuple, stacked along the leading axis; each
    is the field of its tuple alone, bit for bit, but where a term left out
    for that tuple is kept for another: there it adds a zero, which can
    flip only the sign of an exactly-zero entry.
    """
    geom, t = state.geom, state.t
    terms = (
        (p.alpha, lambda: p.alpha * geom.laplace_beltrami(w)),
        (p.beta, lambda: -p.beta * geom.grad_norm_sq(w)),
        (p.a, lambda: p.a * state.R),
        (p.b, lambda: -p.b * w / t),
    )
    h = None  # the running sum: each term is built when it is added and dropped after
    for coef, term in terms:
        if _nonzero(coef):
            h = term() if h is None else h + term()
    d_term = -p.d * DIMENSION / t
    if h is None:
        return np.full(np.broadcast_shapes(np.shape(w), np.shape(p.d)), 0.0 + d_term if _nonzero(p.d) else 0.0)
    return h + d_term if _nonzero(p.d) else h


def _nonzero(coef):
    """Whether a coefficient, a float or a column of a batch, is nonzero in some tuple."""
    return coef.any() if isinstance(coef, np.ndarray) else coef != 0.0


def log_curvature(state):
    """ln R; raises if R is not strictly positive."""
    cmin = float(np.min(state.R))
    if cmin <= 0.0:
        raise NonPositiveCurvatureError(f"min R = {cmin:.6g} <= 0 at t = {state.t:.6g}")
    return np.log(state.R)


def quantity_H(state):
    _require_positive_time(state)
    return harnack_field(state, u_field(state), COR_H_PRESET)


def quantity_P(state, d=1.0):
    require_real(d, "d", finite=True)
    return harnack_field(state, v_field(state), replace(COR_P_PRESET, d=d))


def quantity_tP(state, d=1.0):
    return state.t * quantity_P(state, d)


def trace_harnack(traj, k, vector="zero"):
    """dR/dt + R/t + 2 grad R . V + 2 Rc(V,V) at snapshot k (interior).

    ``vector`` selects V: "zero", "grad_u" or "grad_v".  On surfaces
    Rc(V,V) = (R/2)|V|^2, and grad v = grad u exactly.
    """
    if vector not in ("zero", "grad_u", "grad_v"):
        raise ConstraintViolationError(f"unknown vector selector {vector!r}")
    drdt = _drdt(traj, k)  # refuses a k without two neighbours before traj[k] is read
    state = traj[k]
    _require_positive_time(state)
    return _trace_of(state, drdt, None if vector == "zero" else u_field(state))


def _drdt(traj, k):
    return time_derivative(traj, k, lambda s: s.R)


def _trace_of(state, drdt, u=None):
    """dR/dt + R/t, plus 2 grad R . grad u + R |grad u|^2 when u is given."""
    curv = state.R
    out = drdt + curv / state.t
    if u is None:
        return out
    return out + 2.0 * state.geom.grad_inner(curv, u) + curv * state.geom.grad_norm_sq(u)


def surface_lyh(state, which="curvature"):
    """lap(ln R) + R + 1/t (which="curvature", needs R > 0) or lap(ln f) + R + 1/t."""
    _require_positive_time(state)
    if which == "curvature":
        w = log_curvature(state)
    elif which == "heat":
        w = -u_field(state)
    else:
        raise ConstraintViolationError(f"unknown variant {which!r}")
    return _lyh_of(state, w)


def _lyh_of(state, w):
    return state.geom.laplace_beltrami(w) + state.R + 1.0 / state.t


def entropy_F(state):
    """F = integral of t^2 H e^(-u) dmu = t^2 * integral of H f dmu."""
    return state.t**2 * _f_integral(state, quantity_H(state))


def entropy_W(state, d=1.0):
    """W = integral of tP (4 pi t)^(-n/2) e^(-v) dmu = integral of tP f dmu."""
    return _f_integral(state, quantity_tP(state, d))


def _f_integral(state, field):
    return state.geom.integrate(field * state.f)


def mass(state):
    """Total heat content, integral of f dmu."""
    return state.geom.integrate(state.f)


def gradient_quantity(state):
    """|grad u|^2 - u/t; requires 0 < f < 1 so that u > 0."""
    fmax = float(np.max(state.f))
    fmin = float(np.min(state.f))
    if fmin <= 0.0 or fmax >= 1.0:
        raise FOutOfRangeError(f"f range [{fmin:.6g}, {fmax:.6g}] not inside (0, 1)")
    _require_positive_time(state)
    return harnack_field(state, u_field(state), GRAD_PRESET)


def gradient_quantity_f_form(state):
    """Equivalent bound form |grad f|^2 + f^2 ln f / t.

    Computed as the exact pointwise rescaling f^2 * (|grad u|^2 - u/t):
    with grad f = -f grad u the two forms are the same expression, and the
    rescaling keeps them equal to round-off (rediscretizing grad f
    independently would reintroduce an O(h^2) chain-rule mismatch).
    """
    return state.f**2 * gradient_quantity(state)


# ---------------------------------------------------------------------------
# monitor series along a trajectory


@dataclass
class MonitorSeries:
    """Per-output-time grid extrema and integral monitors.

    Columns follow :data:`MONITOR_COLUMNS`; entries that do not apply to
    the trajectory's variant (or whose hypotheses fail pointwise, like the
    curvature form of the log-Harnack bound when min R <= 0) hold NaN and
    are emitted as empty CSV cells.
    """

    times: np.ndarray
    columns: dict
    d: float


def _f_in_unit_interval(state):
    return 0.0 < float(np.min(state.f)) and float(np.max(state.f)) < 1.0


def monitor_series(traj, d=1.0, t0=0.0, enable=None):
    """Evaluate all applicable monitors at interior snapshots with t >= t0.

    ``MonitorRows`` fed from the stored trajectory.  ``enable`` restricts
    the reported columns (iterable of names from MONITOR_COLUMNS); the rest
    are NaN.  The last snapshot is skipped so the centered trace-quantity
    difference always exists.  Raises TimesNotStoredError when no snapshot
    is left to monitor.
    """
    return replay(MonitorRows(d, t0, enable), traj)


class MonitorRows:
    """``monitor_series`` one snapshot at a time, as a flow makes them.

    ``feed(traj, k)`` computes the row of snapshot k - 1 when it is
    monitored: it reads snapshots k - 2 .. k, the three a live window
    keeps.  Rows come in time order, so the first failing snapshot raises
    first.  ``finish(traj)`` returns the ``MonitorSeries``.
    """

    reads = 3

    def __init__(self, d=1.0, t0=0.0, enable=None):
        require_real(d, "d", finite=True)
        require_real(t0, "t0")
        self.wants = set(MONITOR_COLUMNS if enable is None else enable)
        unknown = self.wants - set(MONITOR_COLUMNS)
        if unknown:
            raise ConstraintViolationError(f"unknown monitor columns: {sorted(unknown)}")
        self.d, self.t0 = d, t0
        self.p_preset = replace(COR_P_PRESET, d=d)
        self.times = []
        self.rows = []

    def feed(self, traj, k):
        if k >= 2 and traj[k - 1].t >= self.t0 - 1e-12:
            self.times.append(traj[k - 1].t)
            self.rows.append(self._row(traj, k - 1))

    def _row(self, traj, k):
        wants = self.wants
        row = dict.fromkeys(MONITOR_COLUMNS, np.nan)
        plain_heat = traj.c == 0.0
        trace = traj.evolve_metric and bool(wants & {"min_traceH_V0", "min_traceH_Vu"})
        # columns that read u = -ln f; sup_grad reads it too where it applies
        u_columns = {"sup_H", "F", "sup_tP", "W", "min_LYH_heat"} | ({"min_traceH_Vu"} if trace else set())
        state = traj[k]
        _require_positive_time(state)  # every column but mass has 1/t terms
        gradient = "sup_grad" in wants and plain_heat and _f_in_unit_interval(state)
        # u and dR/dt are derived once per snapshot and shared by the columns;
        # H feeds sup_H and F, tP feeds sup_tP and W
        u = u_field(state) if gradient or wants & u_columns else None
        if wants & {"sup_H", "F"}:
            h = harnack_field(state, u, COR_H_PRESET)
            if "sup_H" in wants:
                row["sup_H"] = float(np.max(h))
            if "F" in wants:
                row["F"] = state.t**2 * _f_integral(state, h)
            del h
        if wants & {"sup_tP", "W"}:
            tp = state.t * harnack_field(state, _v_of(state, u), self.p_preset)
            if "sup_tP" in wants:
                row["sup_tP"] = float(np.max(tp))
            if "W" in wants:
                row["W"] = _f_integral(state, tp)
            del tp
        if "mass" in wants:
            row["mass"] = mass(state)
        if gradient:
            row["sup_grad"] = float(np.max(harnack_field(state, u, GRAD_PRESET)))
        if trace:
            drdt = _drdt(traj, k)
            if "min_traceH_V0" in wants:
                row["min_traceH_V0"] = float(np.min(_trace_of(state, drdt)))
            if "min_traceH_Vu" in wants:
                row["min_traceH_Vu"] = float(np.min(_trace_of(state, drdt, u)))
            del drdt
        if "min_LYH_curv" in wants and float(np.min(state.R)) > 0.0:
            row["min_LYH_curv"] = float(np.min(surface_lyh(state, "curvature")))
        if "min_LYH_heat" in wants:
            row["min_LYH_heat"] = float(np.min(_lyh_of(state, -u)))
        return row

    def finish(self, traj):
        if not self.rows:
            raise TimesNotStoredError(
                f"no output to monitor: none at t >= t0 = {self.t0:.6g} before the last, t = {traj[-1].t:.6g}"
            )
        cols = {name: np.array([row[name] for row in self.rows]) for name in MONITOR_COLUMNS}
        return MonitorSeries(times=np.array(self.times), columns=cols, d=self.d)


def write_monitor_csv(series, path):
    """CSV with the fixed header; NaN entries become empty cells."""
    lines = ["time," + ",".join(MONITOR_COLUMNS)]
    for row, t in enumerate(series.times):
        cells = [repr(float(t))]
        for name in MONITOR_COLUMNS:
            val = series.columns[name][row]
            cells.append("" if np.isnan(val) else repr(float(val)))
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
