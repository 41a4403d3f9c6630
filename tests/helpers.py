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
