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
  each snapshot and the heat field is ignored.  The two forms may run on
  different trajectories: the refinement ladder runs the f := R form on a
  round companion.
* ``residual_grad`` -- plain-heat gradient identity for
  H = |grad u|^2 - u/t (preset alpha=0, beta=-1, a=c=0, b=1, d=0, lambda=0).

The H and P fields and |grad u|^2 - u/t are the monitors' own formulas
(``harnack.harnack_field`` and ``harnack.gradient_field``).  Every residual
goes through one helper: variant check, interior snapshot, centered left
side, report.  ``preset_reports`` evaluates the named presets of
``PRESET_REGISTRY`` at one snapshot; it is the one path by which both
``run`` and the refinement ladder report them.

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
    NonPositiveTimeError,
    VariantMismatchError,
)
from .flow import time_derivative
from .harnack import DIMENSION, gradient_field, harnack_field, u_field, v_field

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


def _interior(traj, k):
    """Snapshot k, which needs a neighbour on each side, the left one at t > 0:
    the centered time difference evaluates 1/t terms there."""
    if k <= 0 or k >= len(traj) - 1:
        raise IndexAtBoundaryError(f"snapshot {k} is not interior (length {len(traj)})")
    if traj[k - 1].t <= 0:
        raise NonPositiveTimeError(
            f"snapshot {k}'s left neighbour sits at t = {traj[k - 1].t:.6g}; residuals need it at t > 0"
        )
    return traj[k]


def _check_variant(traj, c):
    if traj.c != c:
        raise VariantMismatchError(
            f"trajectory evolved with c = {traj.c}, identity requires c = {c}"
        )


def _residual(identity, traj, k, p, field, rhs):
    """Report of d(field)/dt - rhs at interior snapshot k of ``traj``.

    ``field`` and ``rhs`` take (state, p).  The left side is the centered
    difference of ``field`` between snapshots k - 1 and k + 1; the right
    side is assembled at k.
    """
    _check_variant(traj, p.c)
    state = _interior(traj, k)
    res = time_derivative(traj, k, lambda s: field(s, p)) - rhs(state, p)
    geom = state.geom
    return ResidualReport(
        identity=identity,
        params=p,
        t=state.t,
        n=geom.n,
        kind=geom.kind,
        max_norm=float(np.max(np.abs(res))),
        l2_norm=float(np.sqrt(geom.integrate(res * res) / geom.total_area())),
    )


# ---------------------------------------------------------------------------
# general H family


def general_H_field(state, p):
    return harnack_field(state, u_field(state), p.alpha, p.beta, p.a, p.b, p.d)


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
    return _residual("general_H", traj, k, params, general_H_field, _general_H_rhs)


def _cor_H_rhs(state, p):
    """Right side of the collapsed H identity at the preset ``p``, assembled directly."""
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
    return _residual("cor_H", traj, k, COR_H_PRESET, general_H_field, _cor_H_rhs)


# ---------------------------------------------------------------------------
# general P family


def general_P_field(state, p):
    # beta is 1 by the definition of P
    return harnack_field(state, v_field(state), p.alpha, 1.0, p.a, p.b, p.d)


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
    return _residual("general_P", traj, k, params, general_P_field, _general_P_rhs)


def _curvature_bracket(state, v):
    """lap R + R^2 + R/t + 2 grad R . grad v + R |grad v|^2, the curvature
    terms of the collapsed P identity and of its t-weighted form."""
    geom, curv = state.geom, state.R
    return (
        geom.laplace_beltrami(curv)
        + curv * curv
        + curv / state.t
        + 2.0 * geom.grad_inner(curv, v)
        + curv * geom.grad_norm_sq(v)
    )


def _cor_P_rhs(state, p):
    """Right side of the collapsed P identity at the preset ``p`` (before the t-weighting)."""
    geom, t = state.geom, state.t
    v = v_field(state)
    pf = general_P_field(state, p)
    sigma = state.R / 2.0 + 1.0 / (2.0 * t)
    return (
        geom.laplace_beltrami(pf)
        - 2.0 * geom.grad_inner(pf, v)
        - 2.0 * geom.hessian_deviation_sq(v, sigma)
        - pf / t
        - 2.0 * _curvature_bracket(state, v)
    )


def _tP_field(state, p):
    return state.t * general_P_field(state, p)


def _tP_rhs(state, p):
    geom, t = state.geom, state.t
    v = v_field(state)
    tp = _tP_field(state, p)
    sigma = state.R / 2.0 + 1.0 / (2.0 * t)
    return (
        geom.laplace_beltrami(tp)
        - 2.0 * geom.grad_inner(tp, v)
        - 2.0 * t * geom.hessian_deviation_sq(v, sigma)
        - 2.0 * t * _curvature_bracket(state, v)
    )


def residual_tP(traj, k, d=1.0):
    """Residual of the t-weighted identity at the preset (free d)."""
    return _residual("cor_tP", traj, k, replace(COR_P_PRESET, d=d), _tP_field, _tP_rhs)


# ---------------------------------------------------------------------------
# surface specialization


def _log_curv(state):
    curv = state.R
    cmin = float(np.min(curv))
    if cmin <= 0.0:
        raise NonPositiveCurvatureError(f"min R = {cmin:.6g} <= 0 at t = {state.t:.6g}")
    return curv, np.log(curv)


def _surface_H_field(state):
    return state.geom.laplace_beltrami(u_field(state)) - state.R


def _surface_fR_field(state):
    _, ln_r = _log_curv(state)
    return state.geom.laplace_beltrami(-ln_r) - state.R


def residual_surface(traj, k, fr_traj=None):
    """Surface identity residuals: (general-f report, f := R report).

    The general-f chain runs on ``traj`` and assembles, with H = lap(u) - R
    and H_ij = hess(u) - (R/2) g,

        dH/dt = lap H - 2|H_ij|^2 - 2 grad H . grad u - R H
                - R |grad u + grad ln R|^2 - R (d(ln R)/dt - |grad ln R|^2),

    using the measured centered d(ln R)/dt.  The slaved form runs on
    ``fr_traj`` (default ``traj``) and replaces the heat field by the
    curvature itself (u = -ln R), for which

        dH/dt = lap H - 2|H_ij|^2 + 2 grad H . grad ln R.

    Each form needs R > 0 at the three snapshots it reads.
    """
    fr_traj = traj if fr_traj is None else fr_traj

    def general_rhs(state, p):
        geom = state.geom
        dlnr_dt = time_derivative(traj, k, lambda s: _log_curv(s)[1])
        curv, ln_r = _log_curv(state)
        u = u_field(state)
        h = _surface_H_field(state)
        return (
            geom.laplace_beltrami(h)
            - 2.0 * geom.hessian_deviation_sq(u, curv / 2.0)
            - 2.0 * geom.grad_inner(h, u)
            - curv * h
            - curv * geom.grad_norm_sq(u + ln_r)
            - curv * (dlnr_dt - geom.grad_norm_sq(ln_r))
        )

    def fr_rhs(state, p):
        geom = state.geom
        curv, ln_r = _log_curv(state)
        h = _surface_fR_field(state)
        return (
            geom.laplace_beltrami(h)
            - 2.0 * geom.hessian_deviation_sq(-ln_r, curv / 2.0)
            + 2.0 * geom.grad_inner(h, ln_r)
        )

    return (
        _residual("surface_general", traj, k, SURFACE_PRESET, lambda s, p: _surface_H_field(s), general_rhs),
        _residual("surface_fR", fr_traj, k, SURFACE_PRESET, lambda s, p: _surface_fR_field(s), fr_rhs),
    )


# ---------------------------------------------------------------------------
# gradient identity (plain heat)


def _grad_rhs(state, p):
    geom, t = state.geom, state.t
    u = u_field(state)
    h = gradient_field(state)
    return (
        geom.laplace_beltrami(h)
        - 2.0 * geom.grad_inner(h, u)
        - h / t
        - 2.0 * geom.hessian_deviation_sq(u, 0.0)
    )


def residual_grad(traj, k):
    """Residual of dH/dt = lap H - 2 grad H . grad u - H/t - 2|hess u|^2."""
    return _residual("grad", traj, k, GRAD_PRESET, lambda s, p: gradient_field(s), _grad_rhs)


# ---------------------------------------------------------------------------
# preset-reduction agreement


def _agreement(traj, k, p, general_rhs, dedicated_rhs):
    """Max pointwise gap between the general assembly at the preset ``p`` and
    the dedicated collapsed assembly (identical left sides, so this is the
    residual-field mismatch; nonzero only through float reassociation)."""
    _check_variant(traj, p.c)
    state = _interior(traj, k)
    return float(np.max(np.abs(general_rhs(state, p) - dedicated_rhs(state, p))))


def preset_agreement_H(traj, k):
    return _agreement(traj, k, COR_H_PRESET, _general_H_rhs, _cor_H_rhs)


def preset_agreement_P(traj, k, d=1.0):
    return _agreement(traj, k, replace(COR_P_PRESET, d=d), _general_P_rhs, _cor_P_rhs)


def preset_agreement_grad(traj, k):
    return _agreement(traj, k, GRAD_PRESET, _general_H_rhs, _grad_rhs)


# ---------------------------------------------------------------------------
# preset registry


# Preset name -> (reaction coefficient c the identity requires,
# (traj, k, d, fr_traj) -> list of ResidualReport), in report order; only
# ``surface`` reads fr_traj, the trajectory of its f := R form.
# ``preset_reports`` is the one path that evaluates them.  The entries look
# the residual functions up by their module-level names at call time, so
# wrappers installed on those names (bench/tracing.py) see every call.
PRESET_REGISTRY = {
    "general_H": (COR_H_PRESET.c, lambda traj, k, d, fr: [residual_general_H(traj, k, COR_H_PRESET)]),
    "cor_H": (COR_H_PRESET.c, lambda traj, k, d, fr: [residual_cor_H(traj, k)]),
    "general_P": (
        COR_P_PRESET.c,
        lambda traj, k, d, fr: [residual_general_P(traj, k, replace(COR_P_PRESET, d=d))],
    ),
    "cor_tP": (COR_P_PRESET.c, lambda traj, k, d, fr: [residual_tP(traj, k, d=d)]),
    "surface": (SURFACE_PRESET.c, lambda traj, k, d, fr: list(residual_surface(traj, k, fr))),
    "grad": (GRAD_PRESET.c, lambda traj, k, d, fr: [residual_grad(traj, k)]),
}


def preset_reports(trajs, k, want, d=1.0, fr_traj=None):
    """Residual reports of the presets named in ``want`` at snapshot k, in registry order.

    ``trajs`` maps a reaction coefficient c to the trajectory evolved with
    it; a wanted preset whose c has none there is left out.  ``surface``
    needs R > 0 at the snapshots it reads, and its f := R form runs on
    ``fr_traj``, by default on the same trajectory as its general-f form.
    """
    out = []
    for name, (c, reports) in PRESET_REGISTRY.items():
        if name in want and c in trajs:
            out.extend(reports(trajs[c], k, d, fr_traj))
    return out


# ---------------------------------------------------------------------------
# randomized parameter fuzz


def random_params(rng, family, c):
    """Draw a non-degenerate tuple with coefficients uniform in [-2, 2).

    ``rng`` is any object whose ``random()`` returns a float uniform in
    [0, 1), such as ``random.Random`` or a numpy ``Generator``; each
    coefficient is -2 + 4u from one such draw u, in the order alpha, beta,
    a, b, d, lambda.  ``c`` is pinned to the trajectory's reaction
    coefficient (the evolved field must satisfy the matching equation).
    Denominator combinations are kept away from zero, by drawing a new
    tuple, so coefficient amplification stays moderate.
    """
    while True:
        alpha, beta, a, b, d, lam = (-2.0 + 4.0 * rng.random() for _ in range(6))
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
    """Residual reports for ``count`` random non-degenerate tuples, drawn from ``rng`` by ``random_params``."""
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
