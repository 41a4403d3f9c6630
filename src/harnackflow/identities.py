"""Numerical verification of the evolution identities.

Each residual compares a centered time difference of a monitored quantity
(the left side, built from stored snapshots k-1 and k+1) against the
spatially assembled right side at snapshot k.  The left side is taken from
the actual discrete evolution rather than an analytic substitution, so a
residual is small only when the solver, the operators and the identity all
agree; it shrinks at second order under the refinement protocol (halving h
with dt_out scaled by h^2).

Families, with their parameter tuples (alpha, beta, a, b, c, d, lambda):

* ``residual_general_H`` -- evolution of
  H = alpha lap(u) - beta |grad u|^2 + a R - b u/t - d n/t
  for u = -ln f with f solving df/dt = lap f - c R f.  The displayed right
  side divides by 2 alpha - 2 beta, and by alpha whenever lambda != 0;
  tuples violating that are rejected as degenerate.
* ``residual_cor_H`` -- the dedicated assembly at the preset
  (2, 1, -3, 0, -1, 2, 2), which collapses the general form to the
  trace-Harnack-coupled identity for H = 2 lap(u) - |grad u|^2 - 3R - 2n/t.
* ``residual_general_P`` / ``residual_tP`` -- same construction for
  P = alpha lap(v) - |grad v|^2 + a R - b v/t - d n/t (beta is fixed to 1
  by the definition and ignored in the tuple) and for t*P at the preset
  (2, -, -3, -1, -1, d, 1).
* ``residual_surface`` -- the surface specialization with H = lap(u) - R:
  the general-f chain (requires R > 0 for its log-curvature terms) and the
  slaved f := R form, where u = -ln R is rebuilt from the curvature of
  each snapshot and the heat field is ignored.
* ``residual_grad`` -- plain-heat gradient identity for
  H = |grad u|^2 - u/t (preset alpha=0, beta=-1, a=c=0, b=1, d=0, lambda=0).

On surfaces every tensor term is scalar: Rc = (R/2) g, |Rc|^2 = R^2/2,
Rc(V,V) = (R/2)|V|^2, and the Hessian-square terms are pure-trace
deviations |hess - sigma g|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateParamsError,
    IndexAtBoundaryError,
    NonPositiveCurvatureError,
    VariantMismatchError,
)
from .flow import time_derivative
from .harnack import DIMENSION, u_field, v_field

_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class HarnackParams:
    """Constant tuple (alpha, beta, a, b, c, d, lam) of the general identities."""

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
        if abs(self.alpha - 1.0) < _DEGENERACY_TOL:
            raise DegenerateParamsError(
                f"alpha = {self.alpha}: identity divides by 2(alpha - 1)"
            )
        if self.lam != 0.0 and abs(self.alpha) < _DEGENERACY_TOL:
            raise DegenerateParamsError("alpha = 0 with lambda != 0: identity divides lambda by alpha")


# Presets that collapse the general forms to the dedicated ones.
COR_H_PRESET = HarnackParams(alpha=2.0, beta=1.0, a=-3.0, b=0.0, c=-1.0, d=2.0, lam=2.0)
COR_P_PRESET = HarnackParams(alpha=2.0, beta=1.0, a=-3.0, b=-1.0, c=-1.0, d=1.0, lam=1.0)
SURFACE_PRESET = HarnackParams(alpha=1.0, beta=0.0, a=-1.0, b=0.0, c=-1.0, d=0.0, lam=0.0)
GRAD_PRESET = HarnackParams(alpha=0.0, beta=-1.0, a=0.0, b=1.0, c=0.0, d=0.0, lam=0.0)


@dataclass(frozen=True)
class ResidualReport:
    """Norms of (LHS - RHS) for one identity at one snapshot."""

    identity: str
    params: HarnackParams
    t: float
    n: int
    kind: str
    max_norm: float
    l2_norm: float


def _norms(geom, res):
    max_norm = float(np.max(np.abs(res)))
    l2 = float(np.sqrt(geom.integrate(res * res) / geom.total_area()))
    return max_norm, l2


def _report(identity, params, state, res):
    max_norm, l2 = _norms(state.geom, res)
    return ResidualReport(
        identity=identity,
        params=params,
        t=state.t,
        n=state.geom.n,
        kind=state.geom.kind,
        max_norm=max_norm,
        l2_norm=l2,
    )


def _interior(traj, k):
    if k <= 0 or k >= len(traj) - 1:
        raise IndexAtBoundaryError(f"snapshot {k} is not interior (length {len(traj)})")
    return traj[k]


def _check_variant(traj, c):
    if traj.c != c:
        raise VariantMismatchError(
            f"trajectory evolved with c = {traj.c}, identity requires c = {c}"
        )


# ---------------------------------------------------------------------------
# general H family


def general_H_field(state, p):
    u = u_field(state)
    geom = state.geom
    out = p.alpha * geom.laplace_beltrami(u) - p.beta * geom.grad_norm_sq(u)
    out = out + p.a * state.R
    if p.b != 0.0:
        out = out - p.b * u / state.t
    if p.d != 0.0:
        out = out - p.d * DIMENSION / state.t
    return out


def _general_H_rhs(state, p):
    geom, t = state.geom, state.t
    n = DIMENSION
    u = u_field(state)
    curv = state.R
    h = general_H_field(state, p)
    q = 2.0 * p.alpha - 2.0 * p.beta
    loa = (q / p.alpha) * p.lam if p.lam != 0.0 else 0.0
    sigma = (p.alpha / q) * (curv / 2.0) + p.lam / (2.0 * t)
    grad_usq = geom.grad_norm_sq(u)
    rhs = geom.laplace_beltrami(h) - 2.0 * geom.grad_inner(h, u)
    rhs = rhs - q * geom.hessian_deviation_sq(u, sigma)
    rhs = rhs - loa / t * h
    rhs = rhs + q * (n * p.lam**2) / (4.0 * t * t)
    rhs = rhs - (p.b + loa * p.beta) * grad_usq / t
    rhs = rhs + (1.0 - loa) * p.b * u / (t * t)
    rhs = rhs + (1.0 - loa) * p.d * n / (t * t)
    rhs = rhs + p.alpha * p.c * geom.laplace_beltrami(curv)
    rhs = rhs + (2.0 * p.a + p.alpha**2 / q) * (curv * curv / 2.0)
    rhs = rhs + (p.alpha * p.lam + p.a * loa - p.b * p.c) * curv / t
    rhs = rhs - p.alpha * curv * grad_usq  # -2 alpha Rc(grad u, grad u)
    rhs = rhs + 2.0 * (p.a - p.beta * p.c) * geom.grad_inner(curv, u)
    return rhs


def residual_general_H(traj, k, params):
    params.validate_h()
    _check_variant(traj, params.c)
    state = _interior(traj, k)
    lhs = time_derivative(traj, k, lambda s: general_H_field(s, params))
    res = lhs - _general_H_rhs(state, params)
    return _report("general_H", params, state, res)


def _cor_H_rhs(state):
    """Right side of the collapsed H identity at the preset, assembled directly."""
    p = COR_H_PRESET
    geom, t = state.geom, state.t
    u = u_field(state)
    curv = state.R
    h = general_H_field(state, p)
    sigma = curv / 2.0 + 1.0 / t
    return (
        geom.laplace_beltrami(h)
        - 2.0 * geom.grad_inner(h, u)
        - 2.0 * geom.hessian_deviation_sq(u, sigma)
        - (2.0 / t) * h
        - (2.0 / t) * geom.grad_norm_sq(u)
        - 2.0 * geom.laplace_beltrami(curv)
        - 2.0 * curv * curv
        - 2.0 * curv / t
        - 4.0 * geom.grad_inner(curv, u)
        - 2.0 * curv * geom.grad_norm_sq(u)
    )


def residual_cor_H(traj, k):
    """Dedicated assembly at the H preset (same residual as the general form)."""
    p = COR_H_PRESET
    _check_variant(traj, p.c)
    state = _interior(traj, k)
    lhs = time_derivative(traj, k, lambda s: general_H_field(s, p))
    return _report("cor_H", p, state, lhs - _cor_H_rhs(state))


# ---------------------------------------------------------------------------
# general P family


def general_P_field(state, p):
    v = v_field(state)
    geom = state.geom
    out = p.alpha * geom.laplace_beltrami(v) - geom.grad_norm_sq(v)
    out = out + p.a * state.R
    if p.b != 0.0:
        out = out - p.b * v / state.t
    if p.d != 0.0:
        out = out - p.d * DIMENSION / state.t
    return out


def _general_P_rhs(state, p):
    geom, t = state.geom, state.t
    n = DIMENSION
    v = v_field(state)
    curv = state.R
    pfield = general_P_field(state, p)
    q = 2.0 * p.alpha - 2.0
    loa = (q / p.alpha) * p.lam if p.lam != 0.0 else 0.0
    sigma = (p.alpha / q) * (curv / 2.0) + p.lam / (2.0 * t)
    grad_vsq = geom.grad_norm_sq(v)
    rhs = geom.laplace_beltrami(pfield) - 2.0 * geom.grad_inner(pfield, v)
    rhs = rhs + 2.0 * (p.a - p.c) * geom.grad_inner(curv, v)
    rhs = rhs - q * geom.hessian_deviation_sq(v, sigma)
    rhs = rhs - loa / t * pfield
    rhs = rhs + (p.alpha * p.lam + p.a * loa - p.b * p.c) * curv / t
    rhs = rhs + (p.alpha - 1.0) * n * p.lam**2 / (2.0 * t * t)
    rhs = rhs + (2.0 * p.a + p.alpha**2 / q) * (curv * curv / 2.0)
    rhs = rhs - (p.b + loa) * grad_vsq / t
    rhs = rhs - p.alpha * curv * grad_vsq  # -2 alpha Rc(grad v, grad v)
    rhs = rhs + (1.0 - loa) * p.b * v / (t * t)
    rhs = rhs + p.b * n / (2.0 * t * t)
    rhs = rhs + (1.0 - loa) * p.d * n / (t * t)
    rhs = rhs + p.alpha * p.c * geom.laplace_beltrami(curv)
    return rhs


def residual_general_P(traj, k, params):
    params.validate_p()
    _check_variant(traj, params.c)
    state = _interior(traj, k)
    lhs = time_derivative(traj, k, lambda s: general_P_field(s, params))
    res = lhs - _general_P_rhs(state, params)
    return _report("general_P", params, state, res)


def _cor_P_rhs(state, d):
    """Right side of the collapsed P identity at the preset (before the t-weighting)."""
    p = replace(COR_P_PRESET, d=d)
    geom, t = state.geom, state.t
    v = v_field(state)
    curv = state.R
    pf = general_P_field(state, p)
    sigma = curv / 2.0 + 1.0 / (2.0 * t)
    return (
        geom.laplace_beltrami(pf)
        - 2.0 * geom.grad_inner(pf, v)
        - 2.0 * geom.hessian_deviation_sq(v, sigma)
        - pf / t
        - 2.0
        * (
            geom.laplace_beltrami(curv)
            + curv * curv
            + curv / t
            + 2.0 * geom.grad_inner(curv, v)
            + curv * geom.grad_norm_sq(v)
        )
    )


def residual_tP(traj, k, d=1.0):
    """Residual of the t-weighted identity at the preset (free d)."""
    p = replace(COR_P_PRESET, d=d)
    _check_variant(traj, p.c)
    state = _interior(traj, k)
    geom, t = state.geom, state.t

    def tp_field(s):
        return s.t * general_P_field(s, p)

    v = v_field(state)
    curv = state.R
    tp = tp_field(state)
    sigma = curv / 2.0 + 1.0 / (2.0 * t)
    rhs = (
        geom.laplace_beltrami(tp)
        - 2.0 * geom.grad_inner(tp, v)
        - 2.0 * t * geom.hessian_deviation_sq(v, sigma)
        - 2.0
        * t
        * (
            geom.laplace_beltrami(curv)
            + curv * curv
            + curv / t
            + 2.0 * geom.grad_inner(curv, v)
            + curv * geom.grad_norm_sq(v)
        )
    )
    lhs = time_derivative(traj, k, tp_field)
    return _report("cor_tP", p, state, lhs - rhs)


# ---------------------------------------------------------------------------
# surface specialization


def _log_curv(state):
    curv = state.R
    cmin = float(np.min(curv))
    if cmin <= 0.0:
        raise NonPositiveCurvatureError(f"min R = {cmin:.6g} <= 0 at t = {state.t:.6g}")
    return curv, np.log(curv)


def _surface_H_field(state):
    geom = state.geom
    u = u_field(state)
    return geom.laplace_beltrami(u) - state.R


def _surface_fR_field(state):
    geom = state.geom
    _, ln_r = _log_curv(state)
    return geom.laplace_beltrami(-ln_r) - state.R


def residual_surface(traj, k):
    """Surface identity residuals: (general-f report, f := R report).

    The general-f chain assembles, with H = lap(u) - R and
    H_ij = hess(u) - (R/2) g,

        dH/dt = lap H - 2|H_ij|^2 - 2 grad H . grad u - R H
                - R |grad u + grad ln R|^2 - R (d(ln R)/dt - |grad ln R|^2),

    using the measured centered d(ln R)/dt.  The slaved form replaces the
    heat field by the curvature itself (u = -ln R), for which

        dH/dt = lap H - 2|H_ij|^2 + 2 grad H . grad ln R.

    Both need R > 0 at the three snapshots involved.
    """
    _check_variant(traj, SURFACE_PRESET.c)
    state = _interior(traj, k)
    geom = state.geom
    for kk in (k - 1, k, k + 1):
        _log_curv(traj[kk])

    u = u_field(state)
    curv, ln_r = _log_curv(state)
    h = _surface_H_field(state)
    hess_sq = geom.hessian_deviation_sq(u, curv / 2.0)
    dlnr_dt = time_derivative(traj, k, lambda s: _log_curv(s)[1])
    rhs = (
        geom.laplace_beltrami(h)
        - 2.0 * hess_sq
        - 2.0 * geom.grad_inner(h, u)
        - curv * h
        - curv * geom.grad_norm_sq(u + ln_r)
        - curv * (dlnr_dt - geom.grad_norm_sq(ln_r))
    )
    lhs = time_derivative(traj, k, _surface_H_field)
    general_report = _report("surface_general", SURFACE_PRESET, state, lhs - rhs)

    u_r = -ln_r
    h_r = _surface_fR_field(state)
    rhs_r = (
        geom.laplace_beltrami(h_r)
        - 2.0 * geom.hessian_deviation_sq(u_r, curv / 2.0)
        + 2.0 * geom.grad_inner(h_r, ln_r)
    )
    lhs_r = time_derivative(traj, k, _surface_fR_field)
    fr_report = _report("surface_fR", SURFACE_PRESET, state, lhs_r - rhs_r)
    return general_report, fr_report


# ---------------------------------------------------------------------------
# gradient identity (plain heat)


def _grad_H_field(state):
    u = u_field(state)
    return state.geom.grad_norm_sq(u) - u / state.t


def _grad_rhs(state):
    geom, t = state.geom, state.t
    u = u_field(state)
    h = _grad_H_field(state)
    return (
        geom.laplace_beltrami(h)
        - 2.0 * geom.grad_inner(h, u)
        - h / t
        - 2.0 * geom.hessian_deviation_sq(u, 0.0)
    )


def residual_grad(traj, k):
    """Residual of dH/dt = lap H - 2 grad H . grad u - H/t - 2|hess u|^2."""
    _check_variant(traj, GRAD_PRESET.c)
    state = _interior(traj, k)
    lhs = time_derivative(traj, k, _grad_H_field)
    return _report("grad", GRAD_PRESET, state, lhs - _grad_rhs(state))


# ---------------------------------------------------------------------------
# preset-reduction agreement


def preset_agreement_H(traj, k):
    """Max pointwise gap between the general assembly at the H preset and
    the dedicated collapsed assembly (identical left sides, so this is the
    residual-field mismatch; nonzero only through float reassociation)."""
    _check_variant(traj, COR_H_PRESET.c)
    state = _interior(traj, k)
    gap = _general_H_rhs(state, COR_H_PRESET) - _cor_H_rhs(state)
    return float(np.max(np.abs(gap)))


def preset_agreement_P(traj, k, d=1.0):
    _check_variant(traj, COR_P_PRESET.c)
    state = _interior(traj, k)
    gap = _general_P_rhs(state, replace(COR_P_PRESET, d=d)) - _cor_P_rhs(state, d)
    return float(np.max(np.abs(gap)))


def preset_agreement_grad(traj, k):
    _check_variant(traj, GRAD_PRESET.c)
    state = _interior(traj, k)
    gap = _general_H_rhs(state, GRAD_PRESET) - _grad_rhs(state)
    return float(np.max(np.abs(gap)))


# ---------------------------------------------------------------------------
# preset registry


def _surface_reports(traj, k, d):
    # eligible only where the curvature is positive at the checked snapshot
    if float(np.min(traj[k].R)) > 0:
        return list(residual_surface(traj, k))
    return []


# Preset name -> (reaction coefficient c the identity requires,
# (traj, k, d) -> list of ResidualReport), in report order.  The entries
# look the residual functions up by their module-level names at call time,
# so wrappers installed on those names (bench/tracing.py) see every call.
PRESET_REGISTRY = {
    "general_H": (COR_H_PRESET.c, lambda traj, k, d: [residual_general_H(traj, k, COR_H_PRESET)]),
    "cor_H": (COR_H_PRESET.c, lambda traj, k, d: [residual_cor_H(traj, k)]),
    "general_P": (
        COR_P_PRESET.c,
        lambda traj, k, d: [residual_general_P(traj, k, replace(COR_P_PRESET, d=d))],
    ),
    "cor_tP": (COR_P_PRESET.c, lambda traj, k, d: [residual_tP(traj, k, d=d)]),
    "surface": (SURFACE_PRESET.c, _surface_reports),
    "grad": (GRAD_PRESET.c, lambda traj, k, d: [residual_grad(traj, k)]),
}


# ---------------------------------------------------------------------------
# randomized parameter fuzz


def random_params(rng, family, c):
    """Draw a non-degenerate tuple with coefficients in [-2, 2].

    ``c`` is pinned to the trajectory's reaction coefficient (the evolved
    field must satisfy the matching equation).  Denominator combinations
    are kept away from zero so coefficient amplification stays moderate.
    """
    while True:
        alpha, beta, a, b, d, lam = rng.uniform(-2.0, 2.0, size=6)
        p = HarnackParams(alpha=alpha, beta=beta, a=a, b=b, c=c, d=d, lam=lam)
        if family == "H":
            if abs(alpha - beta) < 0.75 or abs(alpha) < 0.5:
                continue
            return p
        if family == "P":
            if abs(alpha - 1.0) < 0.75 or abs(alpha) < 0.5:
                continue
            return p
        raise KeyError(f"unknown family {family!r}")


def fuzz_residuals(traj, k, count, rng, family="H"):
    """Residual reports for ``count`` random non-degenerate tuples."""
    out = []
    for _ in range(count):
        p = random_params(rng, family, traj.c)
        if family == "H":
            out.append(residual_general_H(traj, k, p))
        else:
            out.append(residual_general_P(traj, k, p))
    return out


# ---------------------------------------------------------------------------
# CSV report


def write_identity_csv(reports, path):
    header = "identity_id,alpha,beta,a,b,c,d,lambda,t,N,max_residual,l2_residual"
    lines = [header]
    for r in reports:
        p = r.params
        lines.append(
            ",".join(
                [
                    r.identity,
                    repr(float(p.alpha)),
                    repr(float(p.beta)),
                    repr(float(p.a)),
                    repr(float(p.b)),
                    repr(float(p.c)),
                    repr(float(p.d)),
                    repr(float(p.lam)),
                    repr(float(r.t)),
                    str(r.n),
                    repr(float(r.max_norm)),
                    repr(float(r.l2_norm)),
                ]
            )
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
