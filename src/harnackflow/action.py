"""Space-time action minimization over stored trajectories.

The action of a discrete space-time path through snapshot layers is

    sum over steps of  d(p, q)^2 / dt_out  +  (R(p, t_k) + R(q, t_{k+1})) * dt_out / 2,

where d is the grid-graph distance under the mid-step metric (edge lengths
``e^(phi_mid)`` times the background edge length, ``phi_mid`` the average
of the two snapshots' conformal exponents).  Minimizing over all paths
whose per-step node displacement stays inside a window of ``W`` nodes
gives an upper bound of the continuum infimum; refining the window and
the output spacing decreases the value monotonically toward it.

One layer DP over the grid's ``field_shape`` serves both geometries, which
enter only through their ``_LAYER_GRAPHS`` entry: the window-distance table
builder, whether the grid is periodic, and the widest useful window.  A
table holds ``table[a+W, ..., q] = d(q - a -> q)`` for offsets a in [-W, W]
per axis and arrival nodes q.  On the sphere, nodes are colatitude rings
and the optimal representative path runs along one meridian, so the entry
is the ring-chain length ``|cum[q] - cum[q-a]|``, +inf where ring q - a is
off the grid, and W <= n - 1.  On the torus it is the within-window
shortest path of the 4-neighbor weighted grid graph, by min-plus
relaxation restricted to the window box (exact for uniform weights, an
upper bound otherwise, which keeps the value an upper bound), with offsets
modulo n and W <= (n - 1) // 2, beyond which they alias.  The DP pads the
departure values by W per axis (wrapped on the torus, +inf on the sphere),
adds each offset plane to a shifted view of them, keeps per arrival node
the index of the first offset attaining the minimum, and backtracks the
path from those indices.

``check_integrated_harnack`` turns the minimized action into a pointwise
certificate from one ``min_action`` call: with n = 2,

    margin = ln f(x2, t2) + n ln(t2 / t1) + gamma / 2 - ln f(x1, t1)

must be nonnegative up to discretization slack whenever the nonpositivity
of the H quantity holds on the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    NodesOutOfRangeError,
    NonPositiveTimeError,
    TimesNotStoredError,
    WindowTooNarrowError,
)

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
    """Flat index of a node given flat or as one index per grid axis."""
    shape = geom.field_shape if isinstance(node, (tuple, list)) else (geom.node_count,)
    idx = tuple(int(i) for i in np.atleast_1d(node))
    if len(idx) != len(shape) or not all(0 <= i < n for i, n in zip(idx, shape)):
        raise NodesOutOfRangeError(f"node {node!r} outside the grid of shape {geom.field_shape}")
    return int(np.ravel_multi_index(idx, shape))


# ---------------------------------------------------------------------------
# window-distance tables, indexed by the arrival node


def _sphere_window_distances(geom, phi_mid, window):
    """table[a+W, q] = |cum[q] - cum[q-a]|: the chain of rings, +inf off the grid."""
    n = geom.n
    # edge between rings j and j+1 has background length dtheta
    edge = np.exp(0.5 * (phi_mid[:-1] + phi_mid[1:])) * geom.dtheta
    cum = np.concatenate(([0.0], np.cumsum(edge)))
    src = np.arange(n) - np.arange(-window, window + 1)[:, None]
    on_grid = (src >= 0) & (src < n)
    return np.where(on_grid, np.abs(cum - cum[np.clip(src, 0, n - 1)]), np.inf)


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


@dataclass(frozen=True)
class _LayerGraph:
    """How one geometry kind enters the layer DP."""

    distances: Callable  # (geom, phi_mid, window) -> table indexed by arrival node
    periodic: bool  # offsets wrap around the grid
    max_window: Callable  # n -> widest window that still adds transitions


_LAYER_GRAPHS = {
    "rot_sphere": _LayerGraph(_sphere_window_distances, False, lambda n: n - 1),
    "torus": _LayerGraph(_torus_window_distances, True, lambda n: (n - 1) // 2),
}


def _layer_graph(geom, window):
    """The geometry's layer graph and ``window`` clamped to its widest useful value."""
    graph = _LAYER_GRAPHS.get(geom.kind)
    if graph is None:
        raise NodesOutOfRangeError(f"unsupported geometry kind {geom.kind!r}")
    return graph, min(window, graph.max_window(geom.n))


def _layer_dp(traj, k1, k2, x1, x2, window):
    graph, window = _layer_graph(traj.geom, window)
    shape = traj.geom.field_shape
    dt = traj.dt_out
    size = 2 * window + 1
    # depart values padded by the window on every axis: pad[W + i] = depart[i]
    # inside, wrapped on a periodic grid and +inf (never written) otherwise
    pad = np.full(tuple(n + 2 * window for n in shape), np.inf)
    inner = pad[tuple(slice(window, window + n) for n in shape)]
    wraps = []  # (destination, source) views, copied in order: later axes fill the corners
    for axis, n in enumerate(shape if graph.periodic else ()):
        lead = (slice(None),) * axis
        wraps.append((pad[lead + (slice(0, window),)], pad[lead + (slice(n, n + window),)]))
        wraps.append((pad[lead + (slice(window + n, None),)], pad[lead + (slice(window, 2 * window),)]))
    # sources[a + W] is the view of pad holding depart[q - a] at arrival q
    sources = sliding_window_view(pad, shape)[(slice(None, None, -1),) * len(shape)]
    # row-major from (-W, ..., -W); an offset's index is its list position
    offsets = list(np.ndindex(*(size,) * len(shape)))
    best = np.full(shape, np.inf)
    best.flat[x1] = 0.0
    cand = np.empty(shape)
    better = np.empty(shape, dtype=bool)
    offset_type = np.min_scalar_type(len(offsets) - 1)
    choices = []
    for k in range(k1, k2):
        geom_a, geom_b = traj[k].geom, traj[k + 1].geom
        r_a = geom_a.scalar_curvature()
        arrive = 0.5 * geom_b.scalar_curvature() * dt
        step = graph.distances(geom_a, 0.5 * (geom_a.phi + geom_b.phi), window)
        step **= 2
        step /= dt
        np.add(best, 0.5 * r_a * dt, out=inner)
        for dst, src in wraps:
            dst[...] = src
        best.fill(np.inf)
        best_off = np.zeros(shape, dtype=offset_type)
        for o, off in enumerate(offsets):
            np.add(sources[off], step[off], out=cand)
            np.add(cand, arrive, out=cand)
            np.less(cand, best, out=better)
            np.minimum(best, cand, out=best)
            best_off[better] = o
        choices.append(best_off)
    if not np.isfinite(best.flat[x2]):
        raise WindowTooNarrowError(
            f"no path from node {x1} to node {x2} in {k2 - k1} steps with window {window}"
        )
    nodes = [x2]
    mode = "wrap" if graph.periodic else "raise"
    for best_off in reversed(choices):
        q = np.unravel_index(nodes[-1], shape)
        source = [qi - ai + window for qi, ai in zip(q, offsets[best_off.flat[nodes[-1]]])]
        nodes.append(int(np.ravel_multi_index(source, shape, mode=mode)))
    nodes.reverse()
    return float(best.flat[x2]), nodes


def layer_distance_fn(traj, k, window=DEFAULT_WINDOW):
    """Distance function d(p, q) between layers k and k+1 at flat indices.

    Exposes exactly the mid-step grid distances the minimizer uses
    (including its window clamps), so an exhaustive path enumeration can
    reproduce DP costs bit for bit.  Returns inf outside the window.
    """
    geom_a, geom_b = traj[k].geom, traj[k + 1].geom
    graph, window = _layer_graph(geom_a, window)
    shape = geom_a.field_shape
    table = graph.distances(geom_a, 0.5 * (geom_a.phi + geom_b.phi), window)
    table = np.broadcast_to(table, (2 * window + 1,) * len(shape) + shape)

    def dist(p, q):
        p_idx, q_idx = np.unravel_index(p, shape), np.unravel_index(q, shape)
        offset = [qi - pi for pi, qi in zip(p_idx, q_idx)]
        if graph.periodic:
            offset = [(a + n // 2) % n - n // 2 for a, n in zip(offset, shape)]
        if any(abs(a) > window for a in offset):
            return np.inf
        return float(table[tuple(a + window for a in offset) + q_idx])

    return dist


def min_action(traj, point1, point2, window=DEFAULT_WINDOW):
    """Minimize the path action between (x1, t1) and (x2, t2).

    ``point``s are (node, time) with times at stored snapshots, t1 < t2,
    and nodes grid indices: a flat index, or a tuple of one index per grid
    axis (sphere: ``(ring,)``; torus: ``(i, j)``).  Returns
    (gamma, SpaceTimePath).  The value is an upper bound of the continuum
    infimum, non-increasing in ``window``.
    """
    (x1, t1), (x2, t2) = point1, point2
    k1, k2 = _locate_time(traj, t1), _locate_time(traj, t2)
    if k1 >= k2:
        raise TimesNotStoredError(f"need t1 < t2 at stored snapshots, got {t1!r} >= {t2!r}")
    geom = traj.geom
    gamma, nodes = _layer_dp(traj, k1, k2, _flat_node(geom, x1), _flat_node(geom, x2), window)
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
    (_, t1), (_, t2) = point1, point2
    if t1 <= 0:
        raise NonPositiveTimeError("integrated inequality needs t1 > 0")
    gamma, path = min_action(traj, point1, point2, window)
    lnf1 = float(np.log(traj[path.snapshots[0]].f.flat[path.nodes[0]]))
    lnf2 = float(np.log(traj[path.snapshots[-1]].f.flat[path.nodes[-1]]))
    return lnf2 + 2.0 * np.log(t2 / t1) + 0.5 * gamma - lnf1, gamma


def random_pairs(traj, count, rng, t_min=0.0, window=DEFAULT_WINDOW):
    """Sample reachable random space-time pairs from stored snapshots."""
    times = traj.times
    eligible = np.nonzero(times >= max(t_min, times[0]) - 1e-12)[0]
    if eligible.size < 2:
        raise TimesNotStoredError("not enough stored snapshots above t_min")
    geom = traj.geom
    periodic = _layer_graph(geom, window)[0].periodic
    shape = geom.field_shape
    pairs = []
    for _ in range(count):
        k1, k2 = sorted(int(k) for k in rng.choice(eligible, size=2, replace=False))
        x1 = int(rng.integers(geom.node_count))
        # keep the pair reachable inside the window, one grid axis at a time
        reach = window * int(k2 - k1)
        end = []
        for i, n in zip(np.unravel_index(x1, shape), shape):
            if periodic:
                r = min(reach, n // 2)
                end.append((i + int(rng.integers(-r, r + 1))) % n)
            else:
                end.append(int(rng.integers(max(0, i - reach), min(n - 1, i + reach) + 1)))
        x2 = int(np.ravel_multi_index(end, shape))
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
