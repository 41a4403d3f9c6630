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

All 1/t quantities demand t > 0; monitors along a trajectory start at a
configured t0 > 0 for that reason.  Grid extrema are taken over all nodes
with no smoothing (the monotonicity statements are pointwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    FOutOfRangeError,
    NonPositiveCurvatureError,
    NonPositiveFError,
    NonPositiveTimeError,
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
    return u_field(state) - (DIMENSION / 2.0) * np.log(4.0 * np.pi * state.t)


def quantity_H(state):
    _require_positive_time(state)
    geom = state.geom
    u = u_field(state)
    return (
        2.0 * geom.laplace_beltrami(u)
        - geom.grad_norm_sq(u)
        - 3.0 * state.R
        - 2.0 * DIMENSION / state.t
    )


def quantity_P(state, d=1.0):
    _require_positive_time(state)
    geom = state.geom
    v = v_field(state)
    return (
        2.0 * geom.laplace_beltrami(v)
        - geom.grad_norm_sq(v)
        - 3.0 * state.R
        + v / state.t
        - d * DIMENSION / state.t
    )


def quantity_tP(state, d=1.0):
    return state.t * quantity_P(state, d)


def trace_harnack(traj, k, vector="zero"):
    """dR/dt + R/t + 2 grad R . V + 2 Rc(V,V) at snapshot k (interior).

    ``vector`` selects V: "zero", "grad_u" or "grad_v".  On surfaces
    Rc(V,V) = (R/2)|V|^2, and grad v = grad u exactly.
    """
    state = traj[k]
    _require_positive_time(state)
    geom = state.geom
    drdt = time_derivative(traj, k, lambda s: s.R)
    curv = state.R
    out = drdt + curv / state.t
    if vector == "zero":
        return out
    if vector in ("grad_u", "grad_v"):
        u = u_field(state)
        return out + 2.0 * geom.grad_inner(curv, u) + curv * geom.grad_norm_sq(u)
    raise KeyError(f"unknown vector selector {vector!r}")


def surface_lyh(state, which="curvature"):
    """lap(ln R) + R + 1/t (which="curvature", needs R > 0) or lap(ln f) + R + 1/t."""
    _require_positive_time(state)
    geom = state.geom
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
    return geom.laplace_beltrami(w) + curv + 1.0 / state.t


def entropy_F(state):
    """F = integral of t^2 H e^(-u) dmu = t^2 * integral of H f dmu."""
    h = quantity_H(state)
    return state.t**2 * state.geom.integrate(h * state.f)


def entropy_W(state, d=1.0):
    """W = integral of tP (4 pi t)^(-n/2) e^(-v) dmu = integral of tP f dmu."""
    tp = quantity_tP(state, d)
    return state.geom.integrate(tp * state.f)


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
    u = u_field(state)
    return state.geom.grad_norm_sq(u) - u / state.t


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
    the centered trace-quantity difference always exists.
    """
    ks = [k for k in range(1, len(traj) - 1) if traj[k].t >= t0 - 1e-12]
    times = np.array([traj[k].t for k in ks])
    cols = {name: np.full(len(ks), np.nan) for name in MONITOR_COLUMNS}
    wants = set(MONITOR_COLUMNS if enable is None else enable)
    unknown = wants - set(MONITOR_COLUMNS)
    if unknown:
        raise KeyError(f"unknown monitor columns: {sorted(unknown)}")
    plain_heat = traj.c == 0.0
    for row, k in enumerate(ks):
        state = traj[k]
        curv_min = float(np.min(state.R))
        if "sup_H" in wants:
            cols["sup_H"][row] = float(np.max(quantity_H(state)))
        if "sup_tP" in wants:
            cols["sup_tP"][row] = float(np.max(quantity_tP(state, d)))
        if "F" in wants:
            cols["F"][row] = entropy_F(state)
        if "W" in wants:
            cols["W"][row] = entropy_W(state, d)
        if "mass" in wants:
            cols["mass"][row] = mass(state)
        if "sup_grad" in wants and plain_heat and _f_in_unit_interval(state):
            cols["sup_grad"][row] = float(np.max(gradient_quantity(state)))
        if traj.evolve_metric:
            if "min_traceH_V0" in wants:
                cols["min_traceH_V0"][row] = float(np.min(trace_harnack(traj, k, "zero")))
            if "min_traceH_Vu" in wants:
                cols["min_traceH_Vu"][row] = float(np.min(trace_harnack(traj, k, "grad_u")))
        if "min_LYH_curv" in wants and curv_min > 0.0:
            cols["min_LYH_curv"][row] = float(np.min(surface_lyh(state, "curvature")))
        if "min_LYH_heat" in wants:
            cols["min_LYH_heat"][row] = float(np.min(surface_lyh(state, "heat")))
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
