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

H and P are two cases of one formula, ``harnack_field``, which the general
identities evaluate too, and ``gradient_field`` is the one body of
|grad u|^2 - u/t.  All 1/t quantities demand t > 0; monitors along a
trajectory start at a configured t0 > 0 for that reason.  Grid extrema
are taken over all nodes with no smoothing (the monotonicity statements
are pointwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FOutOfRangeError,
    NonPositiveCurvatureError,
    NonPositiveFError,
    NonPositiveTimeError,
    TimesNotStoredError,
)
from .flow import time_derivative

DIMENSION = 2

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


def harnack_field(state, w, alpha, beta, a, b, d):
    """alpha lap(w) - beta |grad w|^2 + a R - b w/t - d n/t at ``state``.

    The one formula behind H (w = u) and P (w = v), for the monitors and
    for the general identities alike.  The w/t and n/t terms are left out
    when their coefficient is zero.
    """
    geom = state.geom
    out = alpha * geom.laplace_beltrami(w) - beta * geom.grad_norm_sq(w)
    out = out + a * state.R
    if b != 0.0:
        out = out - b * w / state.t
    if d != 0.0:
        out = out - d * DIMENSION / state.t
    return out


def quantity_H(state):
    _require_positive_time(state)
    return _H_of(state, u_field(state))


def _H_of(state, u):
    return harnack_field(state, u, 2.0, 1.0, -3.0, 0.0, 2.0)


def quantity_P(state, d=1.0):
    return _P_of(state, v_field(state), d)


def _P_of(state, v, d):
    return harnack_field(state, v, 2.0, 1.0, -3.0, -1.0, d)


def quantity_tP(state, d=1.0):
    return state.t * quantity_P(state, d)


def trace_harnack(traj, k, vector="zero"):
    """dR/dt + R/t + 2 grad R . V + 2 Rc(V,V) at snapshot k (interior).

    ``vector`` selects V: "zero", "grad_u" or "grad_v".  On surfaces
    Rc(V,V) = (R/2)|V|^2, and grad v = grad u exactly.
    """
    state = traj[k]
    _require_positive_time(state)
    drdt = _drdt(traj, k)
    if vector == "zero":
        return _trace_of(state, drdt)
    if vector in ("grad_u", "grad_v"):
        return _trace_of(state, drdt, u_field(state))
    raise KeyError(f"unknown vector selector {vector!r}")


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
    curv = state.R
    if which == "curvature":
        cmin = float(np.min(curv))
        if cmin <= 0.0:
            raise NonPositiveCurvatureError(f"min R = {cmin:.6g} <= 0")
        w = np.log(curv)
    elif which == "heat":
        w = -u_field(state)
    else:
        raise KeyError(f"unknown variant {which!r}")
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


def gradient_field(state):
    """|grad u|^2 - u/t, without the range checks of ``gradient_quantity``."""
    return _gradient_of(state, u_field(state))


def _gradient_of(state, u):
    return state.geom.grad_norm_sq(u) - u / state.t


def gradient_quantity(state):
    """|grad u|^2 - u/t; requires 0 < f < 1 so that u > 0."""
    fmax = float(np.max(state.f))
    fmin = float(np.min(state.f))
    if fmin <= 0.0 or fmax >= 1.0:
        raise FOutOfRangeError(f"f range [{fmin:.6g}, {fmax:.6g}] not inside (0, 1)")
    _require_positive_time(state)
    return gradient_field(state)


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

    ``enable`` restricts the reported columns (iterable of names from
    MONITOR_COLUMNS); the rest are NaN.  The last snapshot is skipped so
    the centered trace-quantity difference always exists.  Raises
    TimesNotStoredError when no snapshot is left to monitor.
    """
    wants = set(MONITOR_COLUMNS if enable is None else enable)
    unknown = wants - set(MONITOR_COLUMNS)
    if unknown:
        raise KeyError(f"unknown monitor columns: {sorted(unknown)}")
    ks = [k for k in range(1, len(traj) - 1) if traj[k].t >= t0 - 1e-12]
    if not ks:
        raise TimesNotStoredError(f"no output to monitor: none at t >= t0 = {t0:.6g} before the last, t = {traj[-1].t:.6g}")
    times = np.array([traj[k].t for k in ks])
    cols = {name: np.full(len(ks), np.nan) for name in MONITOR_COLUMNS}
    plain_heat = traj.c == 0.0
    trace = traj.evolve_metric and bool(wants & {"min_traceH_V0", "min_traceH_Vu"})
    # columns that read u = -ln f; sup_grad reads it too where it applies
    u_columns = {"sup_H", "F", "sup_tP", "W", "min_LYH_heat"} | ({"min_traceH_Vu"} if trace else set())
    for row, k in enumerate(ks):
        state = traj[k]
        _require_positive_time(state)  # every column but mass has 1/t terms
        gradient = "sup_grad" in wants and plain_heat and _f_in_unit_interval(state)
        # u and dR/dt are derived once per snapshot and shared by the columns;
        # H feeds sup_H and F, tP feeds sup_tP and W
        u = u_field(state) if gradient or wants & u_columns else None
        if wants & {"sup_H", "F"}:
            h = _H_of(state, u)
            if "sup_H" in wants:
                cols["sup_H"][row] = float(np.max(h))
            if "F" in wants:
                cols["F"][row] = state.t**2 * _f_integral(state, h)
        if wants & {"sup_tP", "W"}:
            tp = state.t * _P_of(state, _v_of(state, u), d)
            if "sup_tP" in wants:
                cols["sup_tP"][row] = float(np.max(tp))
            if "W" in wants:
                cols["W"][row] = _f_integral(state, tp)
        if "mass" in wants:
            cols["mass"][row] = mass(state)
        if gradient:
            cols["sup_grad"][row] = float(np.max(_gradient_of(state, u)))
        if trace:
            drdt = _drdt(traj, k)
            if "min_traceH_V0" in wants:
                cols["min_traceH_V0"][row] = float(np.min(_trace_of(state, drdt)))
            if "min_traceH_Vu" in wants:
                cols["min_traceH_Vu"][row] = float(np.min(_trace_of(state, drdt, u)))
        if "min_LYH_curv" in wants and float(np.min(state.R)) > 0.0:
            cols["min_LYH_curv"][row] = float(np.min(surface_lyh(state, "curvature")))
        if "min_LYH_heat" in wants:
            cols["min_LYH_heat"][row] = float(np.min(_lyh_of(state, -u)))
    return MonitorSeries(times=times, columns=cols, d=d)


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
