"""Space-time action minimization over stored trajectories.

The action of a discrete space-time path through snapshot layers is

    sum over steps of  d(p, q)^2 / dt_out  +  (R(p, t_k) + R(q, t_{k+1})) * dt_out / 2,

where d is the grid-graph distance under the mid-step metric (edge lengths
``e^(phi_mid)`` times the background edge length, ``phi_mid`` the average
of the two snapshots' conformal exponents).  Minimizing over all paths
whose per-step node displacement stays inside a window of ``W`` nodes
gives an upper bound of the continuum infimum; refining the window and
the output spacing decreases the value monotonically toward it.

On the rotationally symmetric sphere nodes are colatitude rings and the
optimal representative path runs along one meridian, so the layer graph
is the 1-D chain of rings with cumulative edge lengths.  On the torus the
within-window distances are shortest paths of the 4-neighbor weighted
grid graph, computed by min-plus relaxation restricted to the window box
(exact for uniform weights; an upper bound otherwise, which keeps the
overall value an upper bound).  The distance table of a layer is indexed
by the arrival node, ``table[a+W, b+W, q] = d(q - (a, b) -> q)``, so the
layer DP adds each offset plane to a shifted view of the wrap-padded
departure values and records, per arrival node, the index of the first
offset attaining the minimum; the path is backtracked from those indices.

``check_integrated_harnack`` turns the minimized action into a pointwise
certificate from one ``min_action`` call: with n = 2,

    margin = ln f(x2, t2) + n ln(t2 / t1) + gamma / 2 - ln f(x1, t1)

must be nonnegative up to discretization slack whenever the nonpositivity
of the H quantity holds on the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NodesOutOfRangeError,
    NonPositiveTimeError,
    TimesNotStoredError,
    WindowTooNarrowError,
)
from .geometry import SphereGeometry, TorusGeometry

DEFAULT_WINDOW = 5


@dataclass(frozen=True)
class SpaceTimePath:
    """Minimizing node index per snapshot between the two endpoints."""

    snapshots: tuple  # snapshot indices k1..k2
    nodes: tuple  # flat node index per snapshot
    action: float


def _locate_time(traj, t):
    times = traj.times
    hits = np.nonzero(np.abs(times - t) <= 1e-9 * max(1.0, abs(t)))[0]
    if hits.size == 0:
        raise TimesNotStoredError(f"t = {t!r} is not a stored snapshot time")
    return int(hits[0])


def _flat_node(geom, node):
    if isinstance(geom, SphereGeometry):
        idx = int(node)
        if not 0 <= idx < geom.n:
            raise NodesOutOfRangeError(f"node {node!r} outside grid of {geom.n} rings")
        return idx
    if isinstance(node, (tuple, list)):
        i, j = int(node[0]), int(node[1])
        if not (0 <= i < geom.n and 0 <= j < geom.n):
            raise NodesOutOfRangeError(f"node {node!r} outside {geom.n}x{geom.n} grid")
        return i * geom.n + j
    idx = int(node)
    if not 0 <= idx < geom.node_count:
        raise NodesOutOfRangeError(f"node {node!r} outside grid of {geom.node_count} nodes")
    return idx


# ---------------------------------------------------------------------------
# sphere: 1-D chain of rings


def _sphere_cumdist(geom, phi_mid):
    # edge between rings j and j+1 has background length dtheta
    edge = np.exp(0.5 * (phi_mid[:-1] + phi_mid[1:])) * geom.dtheta
    return np.concatenate(([0.0], np.cumsum(edge)))


def _sphere_dp(traj, k1, k2, x1, x2, window):
    n = traj.geom.n
    dt = traj.dt_out
    value = np.full(n, np.inf)
    value[x1] = 0.0
    choices = []
    for k in range(k1, k2):
        geom_a, geom_b = traj[k].geom, traj[k + 1].geom
        r_a = geom_a.scalar_curvature()
        r_b = geom_b.scalar_curvature()
        cum = _sphere_cumdist(geom_a, 0.5 * (geom_a.phi + geom_b.phi))
        depart = value + 0.5 * r_a * dt  # cost attached to leaving node p
        best = np.full(n, np.inf)
        best_from = np.full(n, -1, dtype=int)
        for delta in range(-window, window + 1):
            # transition p -> q with p = q - delta
            if delta >= 0:
                q = np.arange(delta, n)
            else:
                q = np.arange(0, n + delta)
            p = q - delta
            cand = depart[p] + (cum[q] - cum[p]) ** 2 / dt + 0.5 * r_b[q] * dt
            better = cand < best[q]
            best[q[better]] = cand[better]
            best_from[q[better]] = p[better]
        value = best
        choices.append(best_from)
    if not np.isfinite(value[x2]):
        raise WindowTooNarrowError(
            f"no path from node {x1} to node {x2} in {k2 - k1} steps with window {window}"
        )
    nodes = [x2]
    for back in reversed(choices):
        nodes.append(int(back[nodes[-1]]))
    nodes.reverse()
    return float(value[x2]), nodes


# ---------------------------------------------------------------------------
# torus: windowed shortest-path distances + layer DP


def _torus_window_distances(geom, phi_mid, window):
    """table[a+W, b+W, i, j]: shortest within-box path (i-a, j-b) -> (i, j).

    The table is indexed by the arrival node, so the DP adds each offset
    plane to the departure values read through a shifted view.  Min-plus
    relaxation over the (2W+1)^2 offset box; paths may wander anywhere
    inside the box of relative offsets.  With uniform weights the result
    is the exact graph distance h*e^phi*(|a| + |b|), the same at every
    node, and the table has shape (2W+1, 2W+1, 1, 1): one value per offset,
    broadcast over the grid.
    """
    n, h = geom.n, geom.h
    spread = float(np.ptp(phi_mid))
    size = 2 * window + 1
    offs = np.arange(-window, window + 1)
    if spread <= 1e-13:
        scale = h * float(np.exp(phi_mid.flat[0]))
        taxi = np.abs(offs)[:, None] + np.abs(offs)[None, :]
        return (scale * taxi)[:, :, None, None]

    # edge weights, indexed by the lower/left endpoint
    ex = np.exp(0.5 * (phi_mid + np.roll(phi_mid, -1, axis=0))) * h  # (i,j)-(i+1,j)
    ey = np.exp(0.5 * (phi_mid + np.roll(phi_mid, -1, axis=1))) * h  # (i,j)-(i,j+1)
    # relaxed by departure node: dist[a+W, b+W, i, j] is (i,j) -> (i+a, j+b)
    dist = np.full((size, size, n, n), np.inf)
    dist[window, window] = 0.0
    # Each relaxation pass extends optimal paths by one edge; within the
    # box no shortest path uses more than size^2 edges, but 2*size passes
    # with early exit converge in practice; iterate until stable.
    for _ in range(size * size):
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
        if not changed:
            break
    for ai, a in enumerate(offs):
        for bi, b in enumerate(offs):
            dist[ai, bi] = np.roll(dist[ai, bi], (a, b), axis=(0, 1))
    return dist


def _torus_dp(traj, k1, k2, x1, x2, window):
    n = traj.geom.n
    dt = traj.dt_out
    size = 2 * window + 1
    # depart values wrap-padded by the window: pad[W+i, W+j] = depart[i % n, j % n],
    # so pad[W-a:W-a+n, W-b:W-b+n] holds depart[q - (a, b)] at arrival q
    pad = np.empty((n + 2 * window, n + 2 * window))
    inner = pad[window:window + n, window:window + n]
    best = np.full((n, n), np.inf)
    best[x1 // n, x1 % n] = 0.0
    cand = np.empty((n, n))
    better = np.empty((n, n), dtype=bool)
    offset_type = np.min_scalar_type(size * size - 1)
    choices = []
    for k in range(k1, k2):
        geom_a, geom_b = traj[k].geom, traj[k + 1].geom
        r_a = geom_a.scalar_curvature()
        arrive = 0.5 * geom_b.scalar_curvature() * dt
        step = _torus_window_distances(geom_a, 0.5 * (geom_a.phi + geom_b.phi), window)
        step **= 2
        step /= dt
        np.add(best, 0.5 * r_a * dt, out=inner)
        pad[:window, window:window + n] = pad[n:n + window, window:window + n]
        pad[window + n:, window:window + n] = pad[window:2 * window, window:window + n]
        pad[:, :window] = pad[:, n:n + window]
        pad[:, window + n:] = pad[:, window:2 * window]
        best.fill(np.inf)
        best_off = np.zeros((n, n), dtype=offset_type)
        for o in range(size * size):
            ai, bi = divmod(o, size)
            i0, j0 = size - 1 - ai, size - 1 - bi  # W - a, W - b
            np.add(pad[i0:i0 + n, j0:j0 + n], step[ai, bi], out=cand)
            np.add(cand, arrive, out=cand)
            np.less(cand, best, out=better)
            np.minimum(best, cand, out=best)
            best_off[better] = o
        choices.append(best_off)
    if not np.isfinite(best[x2 // n, x2 % n]):
        raise WindowTooNarrowError(
            f"no path to node {x2} in {k2 - k1} steps with window {window}"
        )
    nodes = [x2]
    for best_off in reversed(choices):
        qi, qj = divmod(nodes[-1], n)
        ai, bi = divmod(int(best_off[qi, qj]), size)
        nodes.append((qi - ai + window) % n * n + (qj - bi + window) % n)
    nodes.reverse()
    return float(best[x2 // n, x2 % n]), nodes


def layer_distance_fn(traj, k, window=DEFAULT_WINDOW):
    """Distance function d(p, q) between layers k and k+1 at flat indices.

    Exposes exactly the mid-step grid distances the minimizer uses
    (including its window clamps), so an exhaustive path enumeration can
    reproduce DP costs bit for bit.  Returns inf outside the window.
    """
    geom_a, geom_b = traj[k].geom, traj[k + 1].geom
    phi_mid = 0.5 * (geom_a.phi + geom_b.phi)
    if isinstance(geom_a, SphereGeometry):
        window = min(window, geom_a.n - 1)
        cum = _sphere_cumdist(geom_a, phi_mid)

        def dist(p, q):
            if abs(q - p) > window:
                return np.inf
            return float(abs(cum[q] - cum[p]))

        return dist
    window = min(window, (geom_a.n - 1) // 2)
    n, size = geom_a.n, 2 * window + 1
    table = np.broadcast_to(_torus_window_distances(geom_a, phi_mid, window), (size, size, n, n))

    def dist(p, q):
        pi, pj = divmod(p, n)
        qi, qj = divmod(q, n)
        a = (qi - pi + n // 2) % n - n // 2
        b = (qj - pj + n // 2) % n - n // 2
        if abs(a) > window or abs(b) > window:
            return np.inf
        return float(table[a + window, b + window, qi, qj])

    return dist


def min_action(traj, point1, point2, window=DEFAULT_WINDOW):
    """Minimize the path action between (x1, t1) and (x2, t2).

    ``point``s are (node, time) with times at stored snapshots, t1 < t2,
    and nodes grid indices (sphere: ring index; torus: flat index or
    (i, j) pair).  Returns (gamma, SpaceTimePath).  The value is an upper
    bound of the continuum infimum, non-increasing in ``window``.
    """
    (x1, t1), (x2, t2) = point1, point2
    k1, k2 = _locate_time(traj, t1), _locate_time(traj, t2)
    if k1 >= k2:
        raise TimesNotStoredError(f"need t1 < t2 at stored snapshots, got {t1!r} >= {t2!r}")
    geom = traj.geom
    f1 = _flat_node(geom, x1)
    f2 = _flat_node(geom, x2)
    if isinstance(geom, SphereGeometry):
        gamma, nodes = _sphere_dp(traj, k1, k2, f1, f2, min(window, geom.n - 1))
    elif isinstance(geom, TorusGeometry):
        # beyond half the grid the periodic offsets alias; clamping loses
        # no reachable transitions
        gamma, nodes = _torus_dp(traj, k1, k2, f1, f2, min(window, (geom.n - 1) // 2))
    else:
        raise NodesOutOfRangeError(f"unsupported geometry kind {geom.kind!r}")
    path = SpaceTimePath(
        snapshots=tuple(range(k1, k2 + 1)), nodes=tuple(nodes), action=gamma
    )
    return gamma, path


def check_integrated_harnack(traj, point1, point2, window=DEFAULT_WINDOW):
    """Margin of the integrated inequality for one space-time pair.

    Returns (margin, gamma) from one ``min_action`` call, with
    margin = ln f(x2, t2) + n ln(t2/t1) + gamma/2 - ln f(x1, t1); the
    certified inequality is margin >= 0 up to discretization slack.
    Assumes the trajectory satisfies the pointwise bound sup H <= 0
    (weakly positive curvature scenarios).
    """
    (x1, t1), (x2, t2) = point1, point2
    if t1 <= 0:
        raise NonPositiveTimeError("integrated inequality needs t1 > 0")
    gamma, _ = min_action(traj, point1, point2, window)
    k1, k2 = _locate_time(traj, t1), _locate_time(traj, t2)
    geom = traj.geom
    i1, i2 = _flat_node(geom, x1), _flat_node(geom, x2)
    lnf1 = float(np.log(traj[k1].f.flat[i1]))
    lnf2 = float(np.log(traj[k2].f.flat[i2]))
    return lnf2 + 2.0 * np.log(t2 / t1) + 0.5 * gamma - lnf1, gamma


def random_pairs(traj, count, rng, t_min=0.0, window=DEFAULT_WINDOW):
    """Sample reachable random space-time pairs from stored snapshots."""
    times = traj.times
    eligible = np.nonzero(times >= max(t_min, times[0]) - 1e-12)[0]
    if eligible.size < 2:
        raise TimesNotStoredError("not enough stored snapshots above t_min")
    geom = traj.geom
    n_nodes = geom.node_count
    pairs = []
    for _ in range(count):
        k1, k2 = sorted(int(k) for k in rng.choice(eligible, size=2, replace=False))
        x1 = int(rng.integers(n_nodes))
        # keep the pair reachable inside the window
        steps = int(k2 - k1)
        if isinstance(geom, SphereGeometry):
            lo = max(0, x1 - window * steps)
            hi = min(n_nodes - 1, x1 + window * steps)
            x2 = int(rng.integers(lo, hi + 1))
        else:
            n = geom.n
            reach = min(window * steps, n // 2)
            di = int(rng.integers(-reach, reach + 1))
            dj = int(rng.integers(-reach, reach + 1))
            i = (x1 // n + di) % n
            j = (x1 % n + dj) % n
            x2 = i * n + j
        pairs.append(((x1, float(times[k1])), (x2, float(times[k2]))))
    return pairs


def write_action_csv(rows, path):
    """rows: iterables (x1, t1, x2, t2, gamma, margin)."""
    lines = ["x1,t1,x2,t2,gamma,margin"]
    for x1, t1, x2, t2, gamma, margin in rows:
        lines.append(
            ",".join(
                [str(int(x1)), repr(float(t1)), str(int(x2)), repr(float(t2)), repr(float(gamma)), repr(float(margin))]
            )
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
