"""Shared test oracles."""

import itertools

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


def reference_torus_laplacian(w, h):
    """Five-point torus Laplacian over the two trailing axes, from ``np.roll``.

    Sums in the order ((w[i+1,j] + w[i-1,j]) + w[i,j+1]) + w[i,j-1], then
    subtracts 4 w and divides by h^2, so ``TorusGeometry.laplacian_plan``
    must match it bit for bit.
    """
    w = np.asarray(w, dtype=float)
    total = np.roll(w, -1, axis=-2) + np.roll(w, 1, axis=-2)
    total = total + np.roll(w, -1, axis=-1)
    total = total + np.roll(w, 1, axis=-1)
    return (total - 4.0 * w) / (h * h)


def reference_sphere_laplacian(w):
    """Flux-form sphere Laplacian over the trailing axis, one row at a time.

    Each row gets its own flux array with exact-zero pole fluxes at both
    ends; the flux into node j is sin(j*dtheta) * (w[j] - w[j-1]), and the
    Laplacian is the flux difference times 1 / (sin(theta_j) * dtheta^2),
    so ``SphereGeometry.laplacian_plan`` must match it bit for bit.
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
