"""Shared test oracles."""

import contextlib
import itertools
import os

import numpy as np

import harnackflow as hf


def enumerate_action(traj, point1, point2, window):
    """Brute-force minimum over all window-constrained node paths.

    Costs accumulate exactly like the DP does (depart + squared distance
    + arrival), using the shared layer distances, so the minimum must
    equal the DP value bit for bit.
    """
    (x1, t1), (x2, t2) = point1, point2
    times = traj.times
    k1 = int(np.argmin(np.abs(times - t1)))
    k2 = int(np.argmin(np.abs(times - t2)))
    n_nodes = traj.geom.node_count
    dt = traj.dt_out
    layers = []
    for k in range(k1, k2):
        dist = hf.layer_distance_fn(traj, k, window)
        r_a = traj[k].geom.scalar_curvature().ravel()
        r_b = traj[k + 1].geom.scalar_curvature().ravel()
        layers.append((dist, r_a, r_b))
    best = np.inf
    stack = [(x1, 0.0, 0)]
    while stack:
        node, cost, depth = stack.pop()
        if depth == len(layers):
            if node == x2 and cost < best:
                best = cost
            continue
        dist, r_a, r_b = layers[depth]
        for q in range(n_nodes):
            d = dist(node, q)
            if not np.isfinite(d):
                continue
            step_cost = ((cost + 0.5 * r_a[node] * dt) + d * d / dt) + 0.5 * r_b[q] * dt
            stack.append((q, step_cost, depth + 1))
    return best


def reference_layer_dp(traj, point1, point2, window):
    """Loop DP on either geometry: (gamma, nodes) with first-offset tie-breaking.

    Arrival nodes are visited in flat order and offsets a in row-major
    order from (-W, ..., -W); a later offset replaces the best only if
    strictly cheaper.  Sources q - a wrap around the torus and are skipped
    off the sphere's chain of rings.  Costs accumulate in the DP's order
    with the shared layer distances, so both the value and the path must
    match ``min_action``.
    """
    (x1, t1), (x2, t2) = point1, point2
    times = traj.times
    k1 = int(np.argmin(np.abs(times - t1)))
    k2 = int(np.argmin(np.abs(times - t2)))
    shape = traj.geom.field_shape
    periodic = traj.geom.kind == "torus"
    window = min(window, (shape[0] - 1) // 2 if periodic else shape[0] - 1)
    dt = traj.dt_out
    size = int(np.prod(shape))
    value = [np.inf] * size
    value[x1] = 0.0
    choices = []
    for k in range(k1, k2):
        dist = hf.layer_distance_fn(traj, k, window)
        r_a = traj[k].geom.scalar_curvature().ravel()
        r_b = traj[k + 1].geom.scalar_curvature().ravel()
        best = [np.inf] * size
        best_from = [-1] * size
        for q, q_idx in enumerate(itertools.product(*map(range, shape))):
            for a in itertools.product(range(-window, window + 1), repeat=len(shape)):
                p_idx = [qi - ai for qi, ai in zip(q_idx, a)]
                if periodic:
                    p_idx = [pi % n for pi, n in zip(p_idx, shape)]
                elif not all(0 <= pi < n for pi, n in zip(p_idx, shape)):
                    continue
                p = int(np.ravel_multi_index(p_idx, shape))
                d = dist(p, q)
                cost = ((value[p] + 0.5 * r_a[p] * dt) + d * d / dt) + 0.5 * r_b[q] * dt
                if cost < best[q]:
                    best[q], best_from[q] = cost, p
        value = best
        choices.append(best_from)
    nodes = [x2]
    for best_from in reversed(choices):
        nodes.append(best_from[nodes[-1]])
    nodes.reverse()
    return value[x2], nodes


def reference_torus_window_distances(geom, phi_mid, window):
    """Curved-torus window-distance table by plain in-place relaxation.

    Offsets are visited in row-major order, each plane lowered from its
    four box neighbours with edges from ``np.roll``, and passes repeat
    until one changes nothing.  The sums accumulate from the departure
    end like the builder's, so the fixed point, and with it every bit of
    the table, must match ``action._torus_window_distances``.  Returns the
    table indexed by the arrival node, ``table[a+W, b+W, i, j]``.
    """
    n, h = geom.n, geom.h
    size = 2 * window + 1
    offs = np.arange(-window, window + 1)
    # edge weights, indexed by the lower/left endpoint
    ex = np.exp(0.5 * (phi_mid + np.roll(phi_mid, -1, axis=0))) * h  # (i,j)-(i+1,j)
    ey = np.exp(0.5 * (phi_mid + np.roll(phi_mid, -1, axis=1))) * h  # (i,j)-(i,j+1)
    # relaxed by departure node: dist[a+W, b+W, i, j] is (i,j) -> (i+a, j+b)
    dist = np.full((size, size, n, n), np.inf)
    dist[window, window] = 0.0
    changed = True
    while changed:
        changed = False
        for ai, a in enumerate(offs):
            for bi, b in enumerate(offs):
                best = dist[ai, bi]
                # arrive at offset (a, b) from (a-1, b): edge x between them,
                # weight indexed at absolute row i + a - 1
                if ai > 0:
                    w = np.roll(ex, (-(a - 1), -b), axis=(0, 1))
                    best = np.minimum(best, dist[ai - 1, bi] + w)
                if ai < size - 1:
                    w = np.roll(ex, (-a, -b), axis=(0, 1))
                    best = np.minimum(best, dist[ai + 1, bi] + w)
                if bi > 0:
                    w = np.roll(ey, (-a, -(b - 1)), axis=(0, 1))
                    best = np.minimum(best, dist[ai, bi - 1] + w)
                if bi < size - 1:
                    w = np.roll(ey, (-a, -b), axis=(0, 1))
                    best = np.minimum(best, dist[ai, bi + 1] + w)
                if np.any(best < dist[ai, bi]):
                    dist[ai, bi] = best
                    changed = True
    for ai, a in enumerate(offs):
        for bi, b in enumerate(offs):
            dist[ai, bi] = np.roll(dist[ai, bi], (a, b), axis=(0, 1))
    return dist


def reference_torus_stencil(w):
    """Bare five-point torus stencil over the two trailing axes, from ``np.roll``.

    Sums in the order ((w[i+1,j] + w[i-1,j]) + w[i,j+1]) + w[i,j-1], then
    subtracts 4 w, and does not divide by h^2: this is h^2 times the
    Laplacian, in the unit of ``TorusGeometry._laplacian_plan``, which must
    match it bit for bit.
    """
    w = np.asarray(w, dtype=float)
    total = np.roll(w, -1, axis=-2) + np.roll(w, 1, axis=-2)
    total = total + np.roll(w, -1, axis=-1)
    total = total + np.roll(w, 1, axis=-1)
    return total - 4.0 * w


def reference_torus_laplacian(w, h):
    """Five-point torus Laplacian: the stencil divided by h^2, as the geometry operators take it."""
    return reference_torus_stencil(w) / (h * h)


def reference_torus_gradient(geom, w):
    """Centered (d/dx, d/dy) of torus fields from ``np.roll`` over the two trailing axes: (w[i+1] - w[i-1]) / (2h)."""
    two_h = 2.0 * geom.h
    dx = (np.roll(w, -1, axis=-2) - np.roll(w, 1, axis=-2)) / two_h
    dy = (np.roll(w, -1, axis=-1) - np.roll(w, 1, axis=-1)) / two_h
    return dx, dy


def reference_torus_hessian(geom, w):
    """Covariant Hessian of torus fields from ``np.roll`` over the two trailing axes, in the operand order of the geometry."""
    h2 = geom.h * geom.h
    roll = lambda a, shift, axis: np.roll(a, shift, axis=axis)  # noqa: E731
    wxx = (roll(w, -1, -2) - 2.0 * w + roll(w, 1, -2)) / h2
    wyy = (roll(w, -1, -1) - 2.0 * w + roll(w, 1, -1)) / h2
    both = (-2, -1)
    wxy = (roll(w, (-1, -1), both) - roll(w, (-1, 1), both) - roll(w, (1, -1), both) + roll(w, (1, 1), both)) / (4.0 * h2)
    (px, py), (wx, wy) = reference_torus_gradient(geom, geom.phi), reference_torus_gradient(geom, w)
    t = np.empty(w.shape + (2, 2))
    t[..., 0, 0] = wxx - px * wx + py * wy
    t[..., 1, 1] = wyy - py * wy + px * wx
    t[..., 0, 1] = t[..., 1, 0] = wxy - py * wx - px * wy
    return t


def reference_deviation_sq(geom, w, sigma, hessian=None):
    """|hess w - sigma g|^2 composed from a whole Hessian tensor, by default ``reference_torus_hessian``.

    The operand order is the geometry's:
    ((t11 - sigma g11) / g11)^2 + 2 t12^2 / (g11 g22) + ((t22 - sigma g22) / g22)^2.
    """
    t = reference_torus_hessian(geom, w) if hessian is None else hessian
    g1, g2 = geom._metric_diag()
    d11 = t[..., 0, 0] - sigma * g1
    d22 = t[..., 1, 1] - sigma * g2
    d12 = t[..., 0, 1]
    return (d11 / g1) ** 2 + 2.0 * d12**2 / (g1 * g2) + (d22 / g2) ** 2


def reference_sphere_laplacian(w):
    """Flux-form sphere Laplacian over the trailing axis, one row at a time.

    Each row gets its own flux array with exact-zero pole fluxes at both
    ends; the flux into node j is sin(j*dtheta) * (w[j] - w[j-1]), and the
    Laplacian is the flux difference times 1 / (sin(theta_j) * dtheta^2),
    so ``SphereGeometry._laplacian_plan`` must match it bit for bit.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[-1]
    dtheta = np.pi / n
    sin_half = np.sin(np.arange(n + 1) * dtheta)
    sin_half[0] = sin_half[n] = 0.0
    inv_sin_dt2 = 1.0 / (np.sin((np.arange(n) + 0.5) * dtheta) * dtheta * dtheta)
    out = np.empty_like(w)
    for idx in np.ndindex(w.shape[:-1]):
        flux = np.zeros(n + 1)
        flux[1:-1] = sin_half[1:-1] * (w[idx][1:] - w[idx][:-1])
        out[idx] = (flux[1:] - flux[:-1]) * inv_sin_dt2
    return out


def reference_rk4_run(state, t_end, dt, dt_out, c=-1.0, evolve_metric=True):
    """Fixed-step RK4 of one member, field by field, from the Laplacian oracles.

    ``dt`` is the step of every output interval, or a list of each
    interval's step.  Returns the (phi, f) of every snapshot.  Each rate,
    stage and update is written out on single fields in the operand order
    of the kernel, so ``run`` at the same steps must match it bit for bit.
    The phi rate is (lap phi - R_bg / 2) e^(-2 phi), which is -R/2, and the
    reaction term reads R as -2 times it: an exactly-zero phi rate is then
    +0 wherever lap phi - R_bg / 2 is +0.  The rates are in the unit of the
    Laplacian plans, h^2 on the torus and 1 on the sphere: the torus
    Laplacian is the bare stencil, and the unit divides the step instead,
    in the operands (dt / h^2) * 0.5, dt / h^2 and (dt / h^2) / 6.
    """
    geom = state.geom
    if geom.kind == "torus":
        lap, unit = reference_torus_stencil, geom.background_spacing * geom.background_spacing
    else:
        lap, unit = reference_sphere_laplacian, 1.0
    half_r_bg = (geom.background_curvature * 0.5) * unit
    n_out = int(np.floor((t_end - state.t) / dt_out + 1e-9))
    interval_steps = [dt] * n_out if np.isscalar(dt) else list(dt)

    def rates(phi, f):
        e2m = np.exp(phi * -2.0)
        k_phi = (lap(phi) - half_r_bg) * e2m
        k_f = lap(f) * e2m - ((c * -2.0) * k_phi) * f
        return k_phi if evolve_metric else np.zeros_like(phi), k_f

    phi, f = geom.phi.copy(), state.f.copy()
    out = [(phi.copy(), f.copy())]
    for dt in interval_steps:
        scale = dt / unit
        for _ in range(int(round(dt_out / dt))):
            k1 = rates(phi, f)
            k2 = rates(phi + k1[0] * (scale * 0.5), f + k1[1] * (scale * 0.5))
            k3 = rates(phi + k2[0] * (scale * 0.5), f + k2[1] * (scale * 0.5))
            k4 = rates(phi + k3[0] * scale, f + k3[1] * scale)
            inc = [((((a + b) * 2.0) + k) + d) * (scale / 6.0) for k, a, b, d in zip(k1, k2, k3, k4)]
            if evolve_metric:
                phi = phi + inc[0]
            f = f + inc[1]
        out.append((phi.copy(), f.copy()))
    return out


def record_kernel_steps(monkeypatch):
    """Patch the flow kernel so that every RK4 step appends its runs' (t, dt) to the returned list.

    One kernel step advances every run of its stack, so each entry is a
    tuple with one (t, dt) per run, in the stack's order.  A call whose
    check sends a CFL-rule run back to retake its interval advances no
    run, and is recorded too: the discarded try's entries are followed by
    one at the interval's start time.
    """
    steps = []
    kernel_step = hf.flow._RK4Kernel.step

    def recording_step(self):
        steps.append(tuple(zip(self.t.tolist(), self.dts.tolist())))
        return kernel_step(self)

    monkeypatch.setattr(hf.flow._RK4Kernel, "step", recording_step)
    return steps


@contextlib.contextmanager
def std_streams_guarded():
    """Point fds 0, 1 and 2 at /dev/null for the block, then restore them.

    A call that takes an int path as a file descriptor can then neither
    read the test's stdin, write into its stdout, nor close any of them.
    """
    saved = [os.dup(fd) for fd in (0, 1, 2)]
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in (0, 1, 2):
            os.dup2(null, fd)
        yield
    finally:
        for fd, copy in zip((0, 1, 2), saved):
            os.dup2(copy, fd)
            os.close(copy)
        os.close(null)
