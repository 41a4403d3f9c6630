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
  (2, -, -3, -1, -1, d, 1).  v = u - (n/2) ln(4 pi t) obeys u's equation
  plus the constant source -n/(2t), which reaches dP/dt only through
  -b v/t: the general P identity is the general H identity on v, with
  beta = 1, plus b n/(2t^2).
* ``residual_surface`` -- the surface specialization with H = lap(u) - R:
  the general-f chain (requires R > 0 for its log-curvature terms) and the
  slaved f := R form, where u = -ln R is rebuilt from the curvature of
  each snapshot and the heat field is ignored.  The two forms may run on
  different trajectories: the refinement ladder runs the f := R form on a
  round companion.
* ``residual_grad`` -- plain-heat gradient identity for
  H = |grad u|^2 - u/t (preset alpha=0, beta=-1, a=c=0, b=1, d=0, lambda=0).

Every field is the monitors' own formula, ``harnack.harnack_field`` at the
tuple, and the tuples and presets are ``harnack``'s.  Every residual
goes through one helper: variant check, interior snapshot, centered left
side, reports.  ``preset_reports`` evaluates the named presets of
``PRESET_REGISTRY`` at one snapshot; it is the one path by which both
``run`` and the refinement ladder report them.

``fuzz_residuals`` evaluates its random tuples in batches: a batch is one
``HarnackParams`` of columns (``_columns``), and one residual
over the stacked fields, since every operator works over leading axes and
every coefficient is combined elementwise.  So the parameter-free fields
of a snapshot (u or v, their derivatives, R and its derivatives) are
derived and validated once per batch, not once per tuple, and each
report equals, bit for bit, the one ``residual_general_H`` or
``residual_general_P`` gives for its tuple.  A batch holds at most
``FUZZ_BATCH_NODES`` nodes, so the fuzz's memory does not grow with its
count.

On surfaces every tensor term is scalar: Rc = (R/2) g, |Rc|^2 = R^2/2,
Rc(V,V) = (R/2)|V|^2, and the Hessian-square terms are pure-trace
deviations |hess - sigma g|^2.

Every right side computes its Hessian-square term first: its
temporaries are the largest of an assembly, and few other fields are
alive then.  The terms are still summed in the order written, and each
field is dropped once it is summed, so the bits are those of the
written expression and the residual stage, run's memory peak, holds as
few fields at once as it can.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConstraintViolationError,
    IndexAtBoundaryError,
    NonPositiveTimeError,
    VariantMismatchError,
)
from .flow import require_count, time_derivative
from .harnack import (
    COR_H_PRESET,
    COR_P_PRESET,
    DIMENSION,
    GRAD_PRESET,
    SURFACE_PRESET,
    HarnackParams,
    harnack_field,
    log_curvature,
    u_field,
    v_field,
)


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


# Nodes of one fuzz batch: its tuples times the nodes of a field.  A batch's
# temporaries are some tens of stacks of this many floats.
FUZZ_BATCH_NODES = 4096


def _interior(traj, k):
    """Snapshot k, which needs a neighbour on each side, the left one at t > 0:
    the centered time difference evaluates 1/t terms there."""
    require_count(k, "k", "a nonnegative snapshot index")
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


def _columns(params, ndim):
    """The tuples ``params`` as one, each coefficient a column of shape (len(params), 1, ...) with ``ndim`` ones."""
    cols = np.array([(p.alpha, p.beta, p.a, p.b, p.c, p.d, p.lam) for p in params], dtype=float).T
    return HarnackParams(*np.ascontiguousarray(cols).reshape((7, len(params)) + (1,) * ndim))


def _residual(identity, traj, k, p, field, rhs):
    """Report of d(field)/dt - rhs at interior snapshot k of ``traj`` for the tuple ``p``."""
    return _residuals(identity, traj, k, [p], field, rhs)[0]


def _residuals(identity, traj, k, params, field, rhs):
    """Reports of d(field)/dt - rhs at interior snapshot k of ``traj``, one per tuple of ``params``.

    ``field`` and ``rhs`` take (state, p).  The left side is the centered
    difference of ``field`` between snapshots k - 1 and k + 1; the right
    side is assembled at k.  Several tuples, all with the trajectory's c,
    are evaluated as one batch of columns (``_columns``).
    """
    _check_variant(traj, params[0].c)
    state = _interior(traj, k)
    geom = state.geom
    p = params[0] if len(params) == 1 else _columns(params, len(geom.field_shape))
    res = time_derivative(traj, k, lambda s: field(s, p)) - rhs(state, p)
    # one row per tuple: a row's norms are those of its field alone
    rows = len(params)
    max_norms = np.max(np.abs(res).reshape(rows, -1), axis=1)
    square = geom.check_fields(res * res)  # as ``integrate`` checks the field it integrates
    l2_norms = np.sqrt(np.sum(square.reshape(rows, -1) * geom.area_weights().reshape(-1), axis=1) / geom.total_area())
    return [
        ResidualReport(identity, pk, state.t, geom.n, geom.kind, float(max_norm), float(l2_norm))
        for pk, max_norm, l2_norm in zip(params, max_norms, l2_norms)
    ]


# ---------------------------------------------------------------------------
# the general identity, for the H and P families


def _squared(coef):
    """``coef ** 2`` by ``pow``, as Python squares a float, for a float or for each entry of a column.

    numpy squares a column by a product instead, which differs from ``pow``
    in the last bit for about one value in a thousand.
    """
    if np.ndim(coef) == 0:
        return coef**2
    return np.reshape([float(x) ** 2 for x in coef.flat], np.shape(coef))


def _general_rhs(state, w, p):
    """Right side of the evolution of h = harnack_field(state, w, p) for a w
    obeying dw/dt = lap w - |grad w|^2 + c R, as u = -ln f does.

    ``p`` may be a batch of tuples (``_columns``): w and R are
    then differentiated once for all of them.
    """
    geom, t = state.geom, state.t
    n = DIMENSION
    curv = state.R
    q = 2.0 * p.alpha - 2.0 * p.beta
    with np.errstate(divide="ignore", invalid="ignore"):  # alpha may be 0 where lambda is
        loa = np.where(p.lam != 0.0, np.divide(q, p.alpha) * p.lam, 0.0)
    hess = q * geom.hessian_deviation_sq(w, (p.alpha / q) * (curv / 2.0) + p.lam / (2.0 * t))
    h = harnack_field(state, w, p)
    rhs = geom.laplace_beltrami(h) - 2.0 * geom.grad_inner(h, w) - hess - loa / t * h
    del hess, h
    grad_wsq = geom.grad_norm_sq(w)
    rhs = rhs + q * (n * _squared(p.lam)) / (4.0 * t * t)
    rhs = rhs - (p.b + loa * p.beta) * grad_wsq / t
    rhs = rhs + (1.0 - loa) * p.b * w / (t * t)
    rhs = rhs + (1.0 - loa) * p.d * n / (t * t)
    rhs = rhs + p.alpha * p.c * geom.laplace_beltrami(curv)
    rhs = rhs + (2.0 * p.a + _squared(p.alpha) / q) * (curv * curv / 2.0)
    rhs = rhs + (p.alpha * p.lam + p.a * loa - p.b * p.c) * curv / t
    rhs = rhs - p.alpha * curv * grad_wsq  # -2 alpha Rc(grad w, grad w)
    del grad_wsq
    return rhs + 2.0 * (p.a - p.beta * p.c) * geom.grad_inner(curv, w)


# ---------------------------------------------------------------------------
# general H family


def general_H_field(state, p):
    return harnack_field(state, u_field(state), p)


def _general_H_rhs(state, p):
    return _general_rhs(state, u_field(state), p)


def residual_general_H(traj, k, params):
    params.validate_h()
    return _residual("general_H", traj, k, params, general_H_field, _general_H_rhs)


def _cor_H_rhs(state, p):
    """Right side of the collapsed H identity at the preset ``p``, assembled directly."""
    geom, t = state.geom, state.t
    u = u_field(state)
    curv = state.R
    hess = 2.0 * geom.hessian_deviation_sq(u, curv / 2.0 + 1.0 / t)
    h = general_H_field(state, p)
    rhs = geom.laplace_beltrami(h) - 2.0 * geom.grad_inner(h, u) - hess - (2.0 / t) * h
    del hess, h
    return (
        rhs
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
    return harnack_field(state, v_field(state), replace(p, beta=1.0))


def _general_P_rhs(state, p):
    # v's source -n/(2t) enters dP/dt through -b v/t alone
    t = state.t
    return _general_rhs(state, v_field(state), replace(p, beta=1.0)) + p.b * DIMENSION / (2.0 * t * t)


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
    hess = 2.0 * geom.hessian_deviation_sq(v, state.R / 2.0 + 1.0 / (2.0 * t))
    pf = general_P_field(state, p)
    rhs = geom.laplace_beltrami(pf) - 2.0 * geom.grad_inner(pf, v) - hess - pf / t
    del hess, pf
    return rhs - 2.0 * _curvature_bracket(state, v)


def _tP_field(state, p):
    return state.t * general_P_field(state, p)


def _tP_rhs(state, p):
    geom, t = state.geom, state.t
    v = v_field(state)
    hess = 2.0 * t * geom.hessian_deviation_sq(v, state.R / 2.0 + 1.0 / (2.0 * t))
    tp = _tP_field(state, p)
    rhs = geom.laplace_beltrami(tp) - 2.0 * geom.grad_inner(tp, v) - hess
    del hess, tp
    return rhs - 2.0 * t * _curvature_bracket(state, v)


def residual_tP(traj, k, d=1.0):
    """Residual of the t-weighted identity at the preset (free d)."""
    return _residual("cor_tP", traj, k, replace(COR_P_PRESET, d=d), _tP_field, _tP_rhs)


# ---------------------------------------------------------------------------
# surface specialization


def _surface_fR_field(state, p):
    return harnack_field(state, -log_curvature(state), p)


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
        dlnr_dt = time_derivative(traj, k, log_curvature)
        curv, ln_r = state.R, log_curvature(state)
        u = u_field(state)
        hess = 2.0 * geom.hessian_deviation_sq(u, curv / 2.0)
        h = general_H_field(state, p)
        return (
            geom.laplace_beltrami(h)
            - hess
            - 2.0 * geom.grad_inner(h, u)
            - curv * h
            - curv * geom.grad_norm_sq(u + ln_r)
            - curv * (dlnr_dt - geom.grad_norm_sq(ln_r))
        )

    def fr_rhs(state, p):
        geom = state.geom
        curv, ln_r = state.R, log_curvature(state)
        hess = 2.0 * geom.hessian_deviation_sq(-ln_r, curv / 2.0)
        h = _surface_fR_field(state, p)
        return (
            geom.laplace_beltrami(h)
            - hess
            + 2.0 * geom.grad_inner(h, ln_r)
        )

    return (
        _residual("surface_general", traj, k, SURFACE_PRESET, general_H_field, general_rhs),
        _residual("surface_fR", fr_traj, k, SURFACE_PRESET, _surface_fR_field, fr_rhs),
    )


# ---------------------------------------------------------------------------
# gradient identity (plain heat)


def _grad_rhs(state, p):
    geom, t = state.geom, state.t
    u = u_field(state)
    hess = 2.0 * geom.hessian_deviation_sq(u, 0.0)
    h = general_H_field(state, p)
    return geom.laplace_beltrami(h) - 2.0 * geom.grad_inner(h, u) - h / t - hess


def residual_grad(traj, k):
    """Residual of dH/dt = lap H - 2 grad H . grad u - H/t - 2|hess u|^2."""
    return _residual("grad", traj, k, GRAD_PRESET, general_H_field, _grad_rhs)


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
    A name that is not a preset is refused before any residual.
    """
    unknown = set(want) - PRESET_REGISTRY.keys()
    if unknown:
        raise ConstraintViolationError(f"unknown presets: {sorted(unknown)}")
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
    if family not in ("H", "P"):
        raise ConstraintViolationError(f"unknown family {family!r}")
    draw = rng.random
    while True:
        alpha, beta, a, b, d, lam = [-2.0 + 4.0 * draw() for _ in range(6)]
        gap = abs(alpha - beta) if family == "H" else abs(alpha - 1.0)
        if gap >= 0.75 and abs(alpha) >= 0.5:
            return HarnackParams(alpha=alpha, beta=beta, a=a, b=b, c=c, d=d, lam=lam)


def fuzz_residuals(traj, k, count, rng, family="H"):
    """Residual reports for ``count`` random non-degenerate tuples, drawn from ``rng`` by ``random_params``.

    The tuples are drawn in order and evaluated in batches of at most
    ``FUZZ_BATCH_NODES`` nodes; each report is the one
    ``residual_general_H`` (family "H") or ``residual_general_P`` ("P")
    gives for its tuple.  A ``count``, or with a count a ``k``, that is
    not a nonnegative int is refused before any draw.
    """
    require_count(count, "count")
    field, rhs = (general_H_field, _general_H_rhs) if family == "H" else (general_P_field, _general_P_rhs)
    if not count:
        return []
    batch = max(1, FUZZ_BATCH_NODES // _interior(traj, k).geom.node_count)
    out = []
    while len(out) < count:
        params = [random_params(rng, family, traj.c) for _ in range(min(batch, count - len(out)))]
        out.extend(_residuals(f"general_{family}", traj, k, params, field, rhs))
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
