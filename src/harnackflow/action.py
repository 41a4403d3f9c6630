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
per axis and the arrival nodes q of a box, one range of nodes per grid
axis.  On the sphere, nodes are colatitude rings
and the optimal representative path runs along one meridian, so the entry
is the ring-chain length ``|cum[q] - cum[q-a]|``, +inf where ring q - a is
off the grid, and W <= n - 1.  On the torus it is the within-window
shortest path of the 4-neighbor weighted grid graph, by min-plus
relaxation restricted to the window box (exact for uniform weights, an
upper bound otherwise, which keeps the value an upper bound), with offsets
modulo n and W <= (n - 1) // 2, beyond which they alias.  The relaxation
visits the offsets in rings of growing |a| + |b|, so one pass builds every
path that moves away from its start and a second pass, changing nothing,
confirms it; passes repeat until one changes nothing.  Path sums
accumulate from the departure end, so with positive weights the
relaxation has one fixed point and the order of the updates cannot move a
bit of the table; every departure node relaxes on its own, so a box's
table is the full grid's at the box's nodes.

Each layer works only on its reach box: per axis, the arrival nodes that
x1 reaches and that can still reach x2.  On a periodic axis that is the
shorter of the two arcs (the whole circle once an arc would wrap onto
itself), on the sphere the exact intersection of the two intervals.  A
departure that feeds an in-box arrival able to reach x2 can itself reach
x2, so it lies in the previous layer's box, and every value a path can
use is the full-grid DP's, bit for bit.  The DP values are indexed by
node: a layer's departure and arrival values are full-grid fields, +inf
off its box, so the box only bounds the work.  The layer gathers the
departure values on its box grown by W per axis (through ``_box_index``
on the torus, which wraps, and by one slice copy on the sphere, +inf off
the grid) and takes, at every arrival node, the minimum over offsets of
departure plus step cost.  The arrival term is added once, after the
minimum: rounding is monotone, so min_o fl(x_o + c) = fl(min_o x_o + c).
On a curved layer each offset plane of the table is added to a shifted
view of the departures, two numpy calls per offset.  On a uniform torus
layer, which the table builder reports by giving its distances per
taxicab radius, the cost of offset (a, b) depends on |a| + |b| alone, so
the same argument lets the layer take exact minima of the departures
shell by shell (first over the two columns at +-b, then over the rows at
+-a) and add each shell's cost once: 2W + 1 cost adds instead of
(2W + 1)^2, the same bits.

``min_action`` is the forward loop plus the backtrack.  For the backtrack
a layer keeps its full-grid departure values and its step-cost table on
its box (a uniform layer's one value per offset), for the pair's life.
At the one path node per layer the candidates are recomputed in the DP's
order, ((depart + d^2/dt) + arrive), from the departures gathered around
that node and its column of the table, and ``np.argmin`` takes the first
offset attaining the minimum.

``check_pairs`` turns the minimized action into pointwise certificates:
with n = 2,

    margin = ln f(x2, t2) + n ln(t2 / t1) + gamma / 2 - ln f(x1, t1)

must be nonnegative up to discretization slack whenever the nonpositivity
of the H quantity holds on the trajectory.  The margin reads f at x1 and
x2, the path's end nodes by construction (the first layer holds x1 alone
and the window never aliases), so it runs the forward loop without the
backtrack and keeps nothing per layer.  When every snapshot of a pair
shares one geometry on a periodic grid, the layer is uniform and R is
exactly constant, every layer reads one taxicab table and one constant
arrival term, so the DP from (x1, k1) is the DP from node 0 shifted by
x1, bit for bit, whatever k1: the pair reads gamma at the wrapped offset
x2 - x1 of one forward sweep from node 0 whose boxes are the arcs
reached from it (they hold every reachable node, so their values are the
full-grid DP's).  The sweep grows on demand to the longest span asked
and lives for one ``check_pairs`` call.  Every other pair runs its own
forward loop over its reach boxes.

A pair's times are located on the trajectory's ``OutputGrid``, which
names the snapshot of a time within 1e-9 dt_out; ``random_pairs`` draws
its snapshots from the same grid.

``PairChecks`` is ``check_pairs`` one snapshot at a time, so a flow can
feed it as it makes the snapshots: the pairs are located, in list order,
before any snapshot; a pair's own loop advances one layer per snapshot
made, reading the last two; and its margin is taken when its t2 arrives.
Whether the sweep may serve a pair, every snapshot k1 .. k2 sharing one
geometry object, is known before any step for a flow's member: a static
member's snapshots share one, an evolving member's never do.
``check_pairs`` feeds it a stored trajectory, which gives the same bits.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConstraintViolationError,
    HarnackFlowError,
    IndexAtBoundaryError,
    NodesOutOfRangeError,
    NonPositiveTimeError,
    TimesNotStoredError,
    WindowTooNarrowError,
    require_items,
    require_kind,
    require_rng,
)
from .flow import Trajectory, replay, require_count, require_path, require_real

DEFAULT_WINDOW = 5


@dataclass(frozen=True)
class SpaceTimePath:
    """Minimizing node index per snapshot between the two endpoints."""

    snapshots: tuple  # snapshot indices k1..k2
    nodes: tuple  # flat node index per snapshot
    action: float


def _flat_node(geom, node):
    """Flat index of a node given flat or as one index per grid axis."""
    shape = geom.field_shape if isinstance(node, (tuple, list)) else (geom.node_count,)
    idx = tuple(node) if isinstance(node, (tuple, list)) else (node,)
    if not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in idx):
        raise NodesOutOfRangeError(f"node {node!r} is not an integer grid index")
    if len(idx) != len(shape) or not all(0 <= i < n for i, n in zip(idx, shape)):
        raise NodesOutOfRangeError(f"node {node!r} outside the grid of shape {geom.field_shape}")
    return int(np.ravel_multi_index(idx, shape))


# ---------------------------------------------------------------------------
# window-distance tables, indexed by the arrival node
#
# A box is one range of node indices per grid axis, taken modulo n on a
# periodic grid; a builder returns the table for the arrival nodes of its box.


def _box_index(box, shape):
    """Index of a box's nodes into a full-grid field."""
    return np.ix_(*(np.arange(r.start, r.stop) % n for r, n in zip(box, shape)))


def _sphere_window_distances(geom, phi_mid, window, box):
    """table[a+W, q] = |cum[q] - cum[q-a]|: the chain of rings, +inf off the grid."""
    n = geom.n
    # edge between rings j and j+1 has background length dtheta
    edge = np.exp(0.5 * (phi_mid[:-1] + phi_mid[1:])) * geom.dtheta
    cum = np.concatenate(([0.0], np.cumsum(edge)))
    (rings,) = box
    src = np.arange(rings.start, rings.stop) - np.arange(-window, window + 1)[:, None]
    on_grid = (src >= 0) & (src < n)
    return np.where(on_grid, np.abs(cum[rings.start : rings.stop] - cum[np.clip(src, 0, n - 1)]), np.inf)


def _torus_taxicab_distances(geom, phi_mid, window):
    """d at taxicab radius m = |a| + |b| for m = 0..2W on a uniform metric, else None.

    With uniform weights the within-window distance of offset (a, b) is
    the exact graph distance h*e^phi*(|a| + |b|), the same at every node.
    """
    if float(np.ptp(phi_mid)) > 1e-13:
        return None
    return geom.h * float(np.exp(phi_mid.flat[0])) * np.arange(2 * window + 1)


def _taxicab_table(radial, window):
    """table[a+W, b+W, 0, 0] = radial[|a| + |b|]: one value per offset, broadcast over a box."""
    offs = np.abs(np.arange(-window, window + 1))
    return radial[offs[:, None] + offs][:, :, None, None]


def _torus_window_distances(geom, phi_mid, window, box):
    """table[a+W, b+W, v, w]: shortest within-box path (i-a, j-b) -> (i, j).

    (i, j) is the box's node at position (v, w).  The table is indexed by
    the arrival node, so the DP on a curved layer adds each offset plane to
    the departure values read through a shifted view.  With uniform weights
    the table has shape (2W+1, 2W+1, 1, 1), the taxicab distances of
    ``_torus_taxicab_distances``.  Otherwise it is the in-box fixed
    point of a min-plus relaxation over the (2W+1)^2 offset box; paths may
    wander anywhere inside the box of relative offsets.
    """
    radial = _torus_taxicab_distances(geom, phi_mid, window)
    if radial is not None:
        return _taxicab_table(radial, window)
    h = geom.h
    size = 2 * window + 1
    offs = np.arange(-window, window + 1)

    # The relaxation runs over the departure nodes of the box, the box grown
    # by W per axis, and the paths from them reach W further.  Departure
    # position s on an axis is node start - W + s.  Edge weights are indexed
    # by the lower/left endpoint: ex[s + W, t + W] is the edge from the
    # departure node at (s, t) to its +1 neighbour on axis 0, ey on axis 1.
    shape = tuple(len(r) + 2 * window for r in box)
    phi = phi_mid[_box_index([range(r.start - 2 * window, r.stop + 2 * window + 1) for r in box], phi_mid.shape)]
    ex = np.exp(0.5 * (phi[:-1, :-1] + phi[1:, :-1])) * h
    ey = np.exp(0.5 * (phi[:-1, :-1] + phi[:-1, 1:])) * h

    def edge(e, a, b):
        """Weight of edge e at node (s + a, t + b), for every departure position (s, t)."""
        return e[window + a : window + a + shape[0], window + b : window + b + shape[1]]

    # relaxed by departure node: dist[a+W, b+W, s, t] is (s,t) -> (s+a, t+b)
    dist = np.full((size, size) + shape, np.inf)
    dist[window, window] = 0.0
    planes = dist.reshape(size * size, *shape)
    # Each offset plane is lowered in place from its box neighbours, with
    # the sum accumulated from the departure end: dist[a, b] = dist[a-1, b]
    # + the edge entered last.  That fixes every path's float sum, and with
    # positive weights and monotone rounding the relaxation has one fixed
    # point, the least in-box path sum, whatever the order of the updates.
    # Every departure node relaxes on its own, so a box's entries equal the
    # full grid's.  Visiting the offsets in rings of growing |a| + |b|
    # builds every path that moves away from the origin in one pass; passes
    # repeat until one changes nothing, so a metric whose shortest paths
    # turn back still reaches the same fixed point, only later.
    into = {}  # plane -> [(neighbour plane, edge from it), ...]
    for a, b in sorted(itertools.product(offs, offs), key=lambda ab: abs(ab[0]) + abs(ab[1]))[1:]:
        p = (a + window) * size + b + window
        into[p] = [
            (q, w)
            for q, w, inside in (
                (p - size, edge(ex, a - 1, b), a > -window),
                (p + size, edge(ex, a, b), a < window),
                (p - 1, edge(ey, a, b - 1), b > -window),
                (p + 1, edge(ey, a, b), b < window),
            )
            if inside
        ]
    # A plane already holds the sums through every neighbour value it has
    # read, so only a neighbour lowered since its last read can lower it;
    # planes not yet reached are +inf and skipped the same way.
    lowered = [-1] * (size * size)  # clock of each plane's last decrease
    read = [-1] * (size * size)  # clock when each plane last read its neighbours
    lowered[window * size + window] = clock = 0
    best = np.empty(shape)
    cand = np.empty(shape)
    lower = np.empty(shape, dtype=bool)
    while True:
        start = clock
        for p, sources in into.items():
            fresh = [(q, w) for q, w in sources if lowered[q] > read[p]]
            if not fresh:
                continue
            read[p] = clock
            (q, w), *rest = fresh
            np.add(planes[q], w, out=best)
            for q, w in rest:
                np.add(planes[q], w, out=cand)
                np.minimum(best, cand, out=best)
            np.less(best, planes[p], out=lower)
            if lower.any():
                np.minimum(planes[p], best, out=planes[p])
                clock += 1
                lowered[p] = clock
        if clock == start:  # a pass that lowered nothing
            break
    # arrival plane (a, b) at box position (v, w) departs from (v + W - a, w + W - b)
    ends = sliding_window_view(dist, tuple(map(len, box)), axis=(2, 3))
    o = np.arange(size)
    return ends[o[:, None], o, 2 * window - o[:, None], 2 * window - o]


@dataclass(frozen=True)
class _LayerGraph:
    """How one geometry kind enters the layer DP."""

    distances: Callable  # (geom, phi_mid, window, box) -> table indexed by the box's arrival nodes
    taxicab: Callable  # (geom, phi_mid, window) -> d by |a| + |b| on a uniform 2-D layer, else None
    periodic: bool  # offsets wrap around the grid
    max_window: Callable  # n -> widest window that still adds transitions


_LAYER_GRAPHS = {
    "rot_sphere": _LayerGraph(_sphere_window_distances, lambda geom, phi_mid, window: None, False, lambda n: n - 1),
    "torus": _LayerGraph(_torus_window_distances, _torus_taxicab_distances, True, lambda n: (n - 1) // 2),
}


def _layer_graph(geom, window):
    """The geometry's layer graph and ``window`` clamped to its widest useful value."""
    require_count(window, "window")
    graph = _LAYER_GRAPHS.get(geom.kind)
    if graph is None:
        raise NodesOutOfRangeError(f"unsupported geometry kind {geom.kind!r}")
    return graph, int(min(window, graph.max_window(geom.n)))


def _reach_boxes(shape, periodic, x1, x2, steps, window):
    """Per layer, a box holding every arrival node reachable from x1 that still reaches x2.

    On a periodic axis it is the shorter of the arc reached from x1 and the
    arc that reaches x2 (the whole circle once an arc would wrap onto
    itself); both arcs hold every such node.  Off the periodic grid it is
    the exact intersection of the two intervals, clipped to the grid, and
    empty when the pair is out of reach.
    """
    boxes = []
    for j in range(steps):
        r1, r2 = window * (j + 1), window * (steps - j - 1)  # reach from x1, to x2
        box = []
        for c1, c2, n in zip(np.unravel_index(x1, shape), np.unravel_index(x2, shape), shape):
            c1, c2 = int(c1), int(c2)
            if periodic:
                arcs = [range(n) if 2 * r + 1 >= n else range(c - r, c + r + 1) for c, r in ((c2, r2), (c1, r1))]
                box.append(min(arcs, key=len))
            else:
                box.append(range(max(c1 - r1, c2 - r2, 0), min(c1 + r1, c2 + r2, n - 1) + 1))
        boxes.append(tuple(box))
    return boxes


def _departures(values, box, window, periodic):
    """Departure values for arrivals in ``box``: the box grown by W per axis.

    ``values`` is a full-grid field, +inf off the nodes a path can leave
    from.  On a periodic grid the grown box wraps and is gathered through
    ``_box_index``; off a non-periodic grid its positions hold +inf, and
    the part on the grid is copied in by one slice.
    """
    grown = [range(r.start - window, r.stop + window) for r in box]
    if periodic:
        return values[_box_index(grown, values.shape)]
    out = np.full(tuple(map(len, grown)), np.inf)
    on = [slice(max(g.start, 0), min(g.stop, n)) for g, n in zip(grown, values.shape)]
    out[tuple(slice(s.start - g.start, s.stop - g.start) for s, g in zip(on, grown))] = values[tuple(on)]
    return out


def _view(a, shape, steps):
    """View of the C-contiguous array ``a``: element [i, j, ...] at flat position i*steps[0] + j*steps[1] + ...."""
    return np.ndarray(shape, a.dtype, a, 0, tuple(step * a.itemsize for step in steps))


def _shell_minimum(grown, costs, window, box_shape):
    """min over offsets (a, b) of fl(grown[i + W - a, j + W - b] + costs[|a| + |b|]) at box position (i, j).

    ``grown`` holds the departure values on the box grown by W per axis.
    The cost depends on the offset only through its taxicab radius m, and
    rounding is monotone, so the minimum over a shell of fl(x + costs[m])
    is fl(min over the shell of x + costs[m]): each shell's departures are
    reduced first and its cost added once.  Min is exact, so the result is
    the per-offset minimum bit for bit.
    """
    w = window
    nx, ny = box_shape
    rows = nx + 2 * w
    # cols[b, s, j] = min(grown[s, j + W - b], grown[s, j + W + b]): the
    # departures |b| columns away, one block of rows per |b|
    cols = np.empty((w + 1, rows, ny))
    across = _view(grown, (rows, 2 * w + 1, ny), (ny + 2 * w, 1, 1))  # across[s, c, j] = grown[s, c + j]
    np.minimum(across[:, w::-1], across[:, w:], out=cols.transpose(1, 0, 2))
    # shifts[r] = the box-sized rows r .. r + nx - 1 of cols, r = |b| * rows + s.
    # Shell m reads |a| = a and |b| = m - a, at rows (m - a) * rows + W -/+ a:
    # as a runs down from its largest value, two arithmetic progressions of
    # step rows + 1 (departure row i + W - a) and rows - 1 (row i + W + a).
    shifts = _view(cols, ((w + 1) * rows - nx + 1, nx, ny), (ny, ny, 1))
    best = costs[0] + shifts[w]
    low = np.empty(box_shape)
    high = np.empty(box_shape)
    for m in range(1, 2 * w + 1):
        top = min(m, w)
        count = top - max(0, m - w) + 1
        start = (m - top) * rows + w
        np.minimum.reduce(shifts[start - top :: rows + 1][:count], axis=0, out=low)
        np.minimum.reduce(shifts[start + top :: rows - 1][:count], axis=0, out=high)
        np.minimum(low, high, out=low)
        low += costs[m]
        np.minimum(best, low, out=best)
    return best


def _forward(graph, window, dt, depart, layers):
    """The forward DP loop: per layer, the least action of reaching each node of its box.

    ``depart`` is the full-grid field of departure values (the value so
    far plus 0.5 R dt), +inf off the nodes a path can leave from;
    ``layers`` yields per layer the geometries at k and k + 1 and the
    layer's box, which bounds the work.  Yields per layer (depart, box,
    table, values): the departure values it read and ``_layer``'s table
    and values.  The next layer departs from ``values`` plus its arrival
    term.
    """
    for geom, after, box in layers:
        table, values, arrive = _layer(graph, window, dt, depart, geom, after, box)
        yield depart, box, table, values
        depart = values + arrive


def _layer(graph, window, dt, depart, geom, after, box):
    """One layer of the forward DP, from the geometries at k and k + 1: (table, values, arrive).

    ``table`` is the layer's step-cost table on ``box``, ``values`` the
    full-grid field of the action of reaching each node with the arrival
    term added once, +inf off the box, and ``arrive`` that term, 0.5 R dt
    at k + 1, which the next layer's departures add to ``values``.
    """
    shape = geom.field_shape
    box_shape = tuple(map(len, box))
    grown = _departures(depart, box, window, graph.periodic)
    mid = 0.5 * (geom.phi + after.phi)  # the mid-step conformal exponent
    radial = graph.taxicab(geom, mid, window)
    if radial is not None:
        # a uniform layer: one cost per taxicab shell
        costs = _cost(radial, dt)
        best = _shell_minimum(grown, costs, window, box_shape)
        table = _taxicab_table(costs, window)  # one value per offset
    else:
        # sources[a + W] holds depart[q - a] at arrival q; every in-box arrival
        # that can still reach x2 reads only departures that can, and those
        # lie in the previous box, so its value is the full-grid DP's
        sources = sliding_window_view(grown, box_shape)[(slice(None, None, -1),) * len(shape)]
        table = _cost(graph.distances(geom, mid, window, box), dt)
        first, *rest = np.ndindex(table.shape[: len(shape)])
        best = np.empty(box_shape)
        cand = np.empty(box_shape)
        np.add(sources[first], table[first], out=best)
        for off in rest:
            np.add(sources[off], table[off], out=cand)
            np.minimum(best, cand, out=best)
    # rounding is monotone, so min_o fl(x_o + c) = fl(min_o x_o + c): the
    # arrival term is added once, after the minimum
    arrive = 0.5 * after.R * dt
    at = _box_index(box, shape)
    values = np.full(shape, np.inf)
    values[at] = best + arrive[at]
    return table, values, arrive


def _cost(distances, dt):
    """d^2 / dt, in place."""
    distances **= 2
    distances /= dt
    return distances


def _start(geom, x1, dt):
    """The departure values of a path from x1: 0.5 R dt at x1, +inf elsewhere."""
    depart = np.full(geom.field_shape, np.inf)
    depart.flat[x1] = 0.0 + 0.5 * geom.R.flat[x1] * dt
    return depart


def _narrow(x1, x2, steps, window):
    """The error of a pair that no path joins."""
    return WindowTooNarrowError(f"no path from node {x1} to node {x2} in {steps} steps with window {window}")


def _pair_start(traj, k1, k2, x1, x2, graph, window):
    """(boxes, depart) of one pair's own forward loop: its reach boxes and its first departures.

    Reads snapshot k1 alone; a pair whose boxes are empty has no path.
    """
    boxes = _reach_boxes(traj[k1].geom.field_shape, graph.periodic, x1, x2, k2 - k1, window)
    if not all(len(r) for box in boxes for r in box):
        raise _narrow(x1, x2, k2 - k1, window)
    return boxes, _start(traj[k1].geom, x1, traj.dt_out)


def _gamma_at(values, x1, x2, steps, window):
    """Gamma at x2 from the last layer's values; +inf there means no path joins the pair."""
    gamma = float(values.flat[x2])
    if not np.isfinite(gamma):
        raise _narrow(x1, x2, steps, window)
    return gamma


def _backtrack(traj, kept, x2, graph, window):
    """The minimizing path's nodes, from x2 back through the kept layers.

    At the path node q of each layer, which lies in the layer's box,
    recompute its candidates in the DP's order, ((depart + d^2/dt) +
    arrive), from the layer's departures gathered around q and q's column
    of its table; ``np.argmin`` takes the first offset attaining the
    minimum.
    """
    shape = traj.geom.field_shape
    dt = traj.dt_out
    offsets = list(np.ndindex(*(2 * window + 1,) * len(shape)))  # row-major from (-W, ..., -W)
    flip = (slice(None, None, -1),) * len(shape)
    mode = "wrap" if graph.periodic else "raise"
    nodes = [x2]
    for k, depart, box, table in reversed(kept):
        q = np.unravel_index(nodes[-1], shape)
        node = tuple(range(i, i + 1) for i in q)
        cand = _departures(depart, node, window, graph.periodic)[flip]
        column = tuple((i - r.start) % n for i, r, n in zip(q, box, shape))  # q's position in the box
        cand += np.broadcast_to(table, table.shape[: len(shape)] + tuple(map(len, box)))[(...,) + column]
        cand += 0.5 * traj[k + 1].R.flat[nodes[-1]] * dt
        source = [r.start - ai + window for r, ai in zip(node, offsets[int(np.argmin(cand))])]
        nodes.append(int(np.ravel_multi_index(source, shape, mode=mode)))
    nodes.reverse()
    return nodes


def layer_distance_fn(traj, k, window=DEFAULT_WINDOW):
    """Distance function d(p, q) between layers k and k+1 at flat indices.

    Exposes exactly the mid-step grid distances the minimizer uses
    (including its window clamps), so an exhaustive path enumeration can
    reproduce DP costs bit for bit.  Returns inf outside the window.  A
    layer k outside 0 .. len(traj) - 2 raises ``IndexAtBoundaryError``, and
    a k that is not an int, or is a bool, ``ConstraintViolationError``.
    """
    require_kind(traj, Trajectory, "traj")
    if isinstance(k, numbers.Integral) and not 0 <= k < len(traj) - 1:
        raise IndexAtBoundaryError(f"layer {k} has no snapshot pair in a trajectory of length {len(traj)}")
    require_count(k, "k", "a layer index")
    geom_a, geom_b = traj[k].geom, traj[k + 1].geom
    graph, window = _layer_graph(geom_a, window)
    shape = geom_a.field_shape
    table = graph.distances(geom_a, 0.5 * (geom_a.phi + geom_b.phi), window, tuple(map(range, shape)))
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


def _points(pair, name):
    """The two (node, time) points of ``pair``, with real times; anything else is refused, naming ``name``."""
    try:
        (x1, t1), (x2, t2) = pair
    except (TypeError, ValueError):
        raise ConstraintViolationError(f"{name} = {pair!r} must be two (node, time) points") from None
    require_real(t1, f"{name}: t1")
    require_real(t2, f"{name}: t2")
    return (x1, t1), (x2, t2)


def _pair_nodes(traj, point1, point2):
    """(k1, k2, x1, x2): the snapshots of t1 < t2 on the trajectory's grid and the flat indices of the two nodes."""
    (x1, t1), (x2, t2) = point1, point2
    k1, k2 = (traj.grid.index(t) for t in (t1, t2))
    if None in (k1, k2) or k1 >= k2:
        raise TimesNotStoredError(f"need t1 < t2 at stored snapshot times, got t1 = {t1!r} and t2 = {t2!r}")
    geom = traj.geom
    return k1, k2, _flat_node(geom, x1), _flat_node(geom, x2)


def min_action(traj, point1, point2, window=DEFAULT_WINDOW):
    """Minimize the path action between (x1, t1) and (x2, t2).

    ``point``s are (node, time) with times at stored snapshots, t1 < t2,
    and nodes grid indices: a flat index, or a tuple of one index per grid
    axis (sphere: ``(ring,)``; torus: ``(i, j)``).  Returns
    (gamma, SpaceTimePath).  The value is an upper bound of the continuum
    infimum, non-increasing in ``window``.
    """
    require_kind(traj, Trajectory, "traj")
    k1, k2, x1, x2 = _pair_nodes(traj, *_points((point1, point2), "pair"))
    graph, window = _layer_graph(traj.geom, window)
    boxes, depart = _pair_start(traj, k1, k2, x1, x2, graph, window)
    layers = ((traj[k].geom, traj[k + 1].geom, box) for k, box in zip(range(k1, k2), boxes))
    kept = []
    for k, (depart, box, table, values) in zip(range(k1, k2), _forward(graph, window, traj.dt_out, depart, layers)):
        kept.append((k, depart, box, table))
    gamma = _gamma_at(values, x1, x2, k2 - k1, window)
    nodes = _backtrack(traj, kept, x2, graph, window)
    path = SpaceTimePath(snapshots=tuple(range(k1, k2 + 1)), nodes=tuple(nodes), action=gamma)
    return gamma, path


def _origin_sweep(geom, graph, window, dt):
    """Gamma of the pairs on a translation-invariant static geometry, or None.

    When every layer reads ``geom`` alone, the grid is periodic, the
    layer is uniform and R is exactly constant, the DP from x1 is the DP
    from node 0 shifted by x1, whatever the start snapshot.  Returns then
    gamma(x1, x2, steps), read at the wrapped offset x2 - x1 from one
    forward loop from node 0 whose boxes are the arcs reached from it; the
    loop grows on demand to the longest span asked.
    """
    R = geom.R
    if not graph.periodic or graph.taxicab(geom, 0.5 * (geom.phi + geom.phi), window) is None:
        return None
    if not (R == R.flat[0]).all():
        return None
    shape = geom.field_shape
    # layer j holds the nodes reached from node 0 in j + 1 steps: per axis
    # the arc of radius W(j + 1), or the whole circle
    radii = itertools.count(window, window)
    arcs = (tuple(range(n) if 2 * r + 1 >= n else range(-r, r + 1) for n in shape) for r in radii)
    layers = _forward(graph, window, dt, _start(geom, 0, dt), ((geom, geom, box) for box in arcs))
    reached = []  # per span, the values of its last layer

    def gamma(x1, x2, steps):
        while len(reached) < steps:
            reached.append(next(layers)[-1])
        offset = [(b - a) % n for a, b, n in zip(np.unravel_index(x1, shape), np.unravel_index(x2, shape), shape)]
        value = float(reached[steps - 1][tuple(offset)])
        if not np.isfinite(value):
            raise _narrow(x1, x2, steps, window)
        return value

    return gamma


def check_pairs(traj, pairs, window=DEFAULT_WINDOW):
    """Margins of the integrated inequality for space-time pairs: [(margin, gamma), ...] in order.

    ``PairChecks`` fed from the stored trajectory.  ``pairs`` holds
    (point1, point2) as for ``min_action``; each margin is
    ln f(x2, t2) + n ln(t2/t1) + gamma/2 - ln f(x1, t1), read at the two
    end nodes without a backtrack.  Pairs whose layers share one uniform
    periodic geometry with constant R read gamma from one origin sweep per
    geometry, kept for this call only; every other pair runs its own
    forward loop.  The first pair in list order that fails raises; a pair
    that is not two (node, time) points with real times fails with
    ConstraintViolationError.
    """
    require_kind(traj, Trajectory, "traj")
    return replay(PairChecks(traj, pairs, window), traj)


class PlannedSnapshots(NamedTuple):
    """What pairs are drawn and located from before a flow makes its snapshots.

    A Trajectory has the same fields: its ``OutputGrid`` and the geometry
    of its first snapshot.
    """

    grid: object
    geom: object


@dataclass
class _Pair:
    """One pair of ``PairChecks``: where it starts and ends, and its DP so far."""

    index: int
    t1: float
    t2: float
    k1: int
    k2: int
    x1: int
    x2: int
    sweep: Callable | None = None  # gamma from an origin sweep, or None for its own loop:
    boxes: list | None = None  # the loop's reach boxes
    depart: np.ndarray | None = None  # and its next layer's departures
    lnf1: float = 0.0


class PairChecks:
    """``check_pairs`` one snapshot at a time: each pair's DP advances a layer as its snapshot arrives.

    Every pair is located, in list order, before any snapshot, from
    ``planned`` (a Trajectory, or the ``PlannedSnapshots`` of one not made
    yet).  ``feed(traj, k)`` starts the pairs whose t1 is snapshot k,
    advances every own loop by layer k - 1 .. k, and finishes the pairs
    whose t2 is snapshot k; it reads snapshots k - 1 and k alone.
    ``finish(traj)`` returns [(margin, gamma), ...] in list order, or
    raises the error of the first failing pair in list order: once a pair
    fails, the pairs after it are dropped.

    The origin sweep serves a pair exactly when every snapshot k1 .. k2
    shares one geometry object.  ``static`` tells that before the
    snapshots exist: True when all of them share the first one's (a
    static member of a flow), False when none do (an evolving one).  None
    reads it, at snapshot k1, from the fed trajectory, which must then
    hold every snapshot up to the pair's t2.
    """

    reads = 2

    def __init__(self, planned, pairs, window=DEFAULT_WINDOW, static=None):
        require_kind(planned, (Trajectory, PlannedSnapshots), "planned")
        pairs = require_items(pairs, object, "pairs")
        self.dt = planned.grid.dt_out
        self.static = static
        self.sweeps = {}  # id of geometry -> (geometry, its origin sweep or None)
        self.results = [None] * len(pairs)
        self.failure = None  # the error of the first failing pair in list order so far
        self.pairs = []  # the pairs still fed, in list order
        for index, pair in enumerate(pairs):
            try:
                (_, t1), (_, t2) = point1, point2 = _points(pair, f"pair {index}")
                if t1 <= 0:
                    raise NonPositiveTimeError("integrated inequality needs t1 > 0")
                k1, k2, x1, x2 = _pair_nodes(planned, point1, point2)
                self.graph, self.window = _layer_graph(planned.geom, window)
            except HarnackFlowError as err:
                self.failure = err
                break
            self.pairs.append(_Pair(index, t1, t2, k1, k2, x1, x2))

    def feed(self, traj, k):
        for pair in list(self.pairs):
            try:
                if pair.k1 == k:
                    self._begin(traj, pair)
                elif pair.k1 < k <= pair.k2:
                    self._advance(traj, pair, k)
            except HarnackFlowError as err:
                self.failure = err
                self.pairs = [p for p in self.pairs if p.index < pair.index]
                break

    def _begin(self, traj, pair):
        geom = traj[pair.k1].geom
        if self.static is None:
            shared = all(traj[j].geom is geom for j in range(pair.k1 + 1, pair.k2 + 1))
        else:
            shared = self.static
        if shared and id(geom) not in self.sweeps:
            self.sweeps[id(geom)] = geom, _origin_sweep(geom, self.graph, self.window, self.dt)
        pair.sweep = self.sweeps[id(geom)][1] if shared else None
        if pair.sweep is None:
            pair.boxes, pair.depart = _pair_start(traj, pair.k1, pair.k2, pair.x1, pair.x2, self.graph, self.window)
        pair.lnf1 = float(np.log(traj[pair.k1].f.flat[pair.x1]))

    def _advance(self, traj, pair, k):
        """Layer k - 1 .. k of the pair's own loop, as ``_forward`` runs it, and at t2 its margin.

        Between snapshots a pair holds its next departures alone.
        """
        values = None
        if pair.sweep is None:
            box = pair.boxes[k - pair.k1 - 1]
            _, values, arrive = _layer(self.graph, self.window, self.dt, pair.depart, traj[k - 1].geom, traj[k].geom, box)
            pair.depart = values + arrive if k < pair.k2 else None
        if k < pair.k2:
            return
        steps = pair.k2 - pair.k1
        if pair.sweep is None:
            gamma = _gamma_at(values, pair.x1, pair.x2, steps, self.window)
        else:
            gamma = pair.sweep(pair.x1, pair.x2, steps)
        lnf2 = float(np.log(traj[pair.k2].f.flat[pair.x2]))
        self.results[pair.index] = (lnf2 + 2.0 * np.log(pair.t2 / pair.t1) + 0.5 * gamma - pair.lnf1, gamma)
        self.pairs.remove(pair)

    def finish(self, traj):
        if self.failure is not None:
            raise self.failure
        return self.results


def check_integrated_harnack(traj, point1, point2, window=DEFAULT_WINDOW):
    """Margin of the integrated inequality for one space-time pair.

    Returns (margin, gamma), ``check_pairs`` of the one pair, with
    margin = ln f(x2, t2) + n ln(t2/t1) + gamma/2 - ln f(x1, t1); the
    certified inequality is margin >= 0 up to discretization slack.
    Assumes the trajectory satisfies the pointwise bound sup H <= 0
    (weakly positive curvature scenarios).
    """
    ((margin, gamma),) = check_pairs(traj, [(point1, point2)], window)
    return margin, gamma


def random_pairs(traj, count, rng, t_min=0.0, window=DEFAULT_WINDOW):
    """Sample reachable random space-time pairs from stored snapshots.

    ``traj`` is a Trajectory, or the ``PlannedSnapshots`` of one not made
    yet: the draws read its output grid and geometry alone.

    ``rng`` is any object whose ``random()`` returns a float uniform in
    [0, 1), such as ``random.Random`` or a numpy ``Generator``, and every
    draw is one such u: an index below m is int(m * u).  Per pair: two
    distinct snapshots at or after ``t_min`` (an index below m, then one
    below m - 1 moved up past the first), the start node, then per grid
    axis the end node, within the reach of the clamped window.
    """
    require_count(count, "count")
    require_kind(traj, (Trajectory, PlannedSnapshots), "traj")
    require_rng(rng)
    require_real(t_min, "t_min")
    grid = traj.grid
    eligible = range(grid.first_at(t_min), grid.count + 1)
    if len(eligible) < 2:
        raise TimesNotStoredError("not enough stored snapshots above t_min")
    geom = traj.geom
    graph, window = _layer_graph(geom, window)
    shape = geom.field_shape

    def below(m):
        """An index uniform in 0 .. m - 1."""
        return int(m * rng.random())

    pairs = []
    for _ in range(count):
        first = below(len(eligible))
        second = below(len(eligible) - 1)
        if second >= first:
            second += 1
        k1, k2 = sorted((eligible[first], eligible[second]))
        x1 = below(geom.node_count)
        # keep the pair reachable inside the clamped window the DP uses, one
        # grid axis at a time
        reach = window * (k2 - k1)
        end = []
        for i, n in zip(np.unravel_index(x1, shape), shape):
            if graph.periodic:
                r = min(reach, n // 2)
                end.append((i - r + below(2 * r + 1)) % n)
            else:
                lo, hi = max(0, i - reach), min(n - 1, i + reach)
                end.append(lo + below(hi - lo + 1))
        x2 = int(np.ravel_multi_index(end, shape))
        pairs.append(((x1, float(grid.time(k1))), (x2, float(grid.time(k2)))))
    return pairs


def write_action_csv(rows, path):
    """rows: iterables (x1, t1, x2, t2, gamma, margin); ``path`` a str or os.PathLike."""
    require_path(path)
    lines = ["x1,t1,x2,t2,gamma,margin"]
    try:
        for x1, t1, x2, t2, gamma, margin in rows:
            lines.append(
                ",".join(
                    [str(int(x1)), repr(float(t1)), str(int(x2)), repr(float(t2)), repr(float(gamma)), repr(float(margin))]
                )
            )
    except (TypeError, ValueError, OverflowError):
        raise ConstraintViolationError(f"rows = {rows!r:.80} must be rows of (x1, t1, x2, t2, gamma, margin)") from None
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
