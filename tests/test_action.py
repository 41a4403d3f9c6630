import re

import numpy as np
import pytest

import harnackflow as hf
from harnackflow.errors import (
    ConstraintViolationError,
    NodesOutOfRangeError,
    TimesNotStoredError,
    WindowTooNarrowError,
)
from harnackflow.action import _torus_window_distances
from helpers import enumerate_action, reference_layer_dp, reference_torus_window_distances

R0, F0 = 1.0, 0.5


@pytest.fixture(scope="module")
def sphere_small_traj():
    n = 24
    geom = hf.SphereGeometry(n)
    state = hf.FlowState(0.0, geom.with_phi(0.1 * geom.cos_theta), 0.5 + 0.2 * geom.cos_theta)
    return hf.run(state, 0.04, 1e-3, 0.01, c=-1.0)  # 5 snapshots


@pytest.fixture(scope="module")
def torus_small_traj():
    n = 5
    geom = hf.TorusGeometry(n, 1.0)
    x, y = geom.coords()
    geom = geom.with_phi(0.1 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    f = 0.6 + 0.2 * np.sin(2 * np.pi * x) * np.ones((1, n))
    state = hf.FlowState(0.0, geom, f)
    return hf.run(state, 0.003, 1e-4, 1e-3, c=-1.0)  # 4 snapshots, curved weights


def test_sphere_constant_gamma_closed_form(sphere_constant_traj):
    # x1 = x2 on the round sphere: the constant path is optimal and
    # Gamma = integral of R dt = ln((r0^2 - 2 t1)/(r0^2 - 2 t2)).
    t1, t2 = 0.05, 0.2
    node = sphere_constant_traj.geom.n // 2
    gamma, path = hf.min_action(sphere_constant_traj, (node, t1), (node, t2))
    expected = np.log((R0**2 - 2 * t1) / (R0**2 - 2 * t2))
    assert abs(gamma - expected) <= 1e-2 * expected
    assert path.nodes[0] == node and path.nodes[-1] == node


def test_sphere_constant_margin_closed_form(sphere_constant_traj):
    # margin = 2 ln(t2/t1) + Gamma/2 + ln(f(t2)/f(t1)) = 2 ln(t2/t1) + (3/2) Gamma
    t1, t2 = 0.05, 0.2
    node = sphere_constant_traj.geom.n // 2
    margin, _ = hf.check_integrated_harnack(sphere_constant_traj, (node, t1), (node, t2))
    gamma_true = np.log((R0**2 - 2 * t1) / (R0**2 - 2 * t2))
    expected = 2 * np.log(t2 / t1) + 1.5 * gamma_true
    assert abs(margin - expected) <= 1e-2
    assert margin >= -1e-2


def test_flat_torus_straight_path(torus_plain_traj):
    # R = 0: Gamma = d(x1, x2)^2 / (t2 - t1) with the grid-graph distance,
    # attained when the per-step displacement divides evenly.
    traj = torus_plain_traj
    n = traj.geom.n
    h = traj.geom.h
    t1 = traj.times[4]
    t2 = traj.times[9]  # 5 transitions
    x1 = (3, 5)
    x2 = (3 + 6, 5 + 4)  # taxicab distance 10 = 2 per transition
    gamma, _ = hf.min_action(traj, (x1, t1), (x2, t2), window=2)
    expected = (10 * h) ** 2 / (t2 - t1)
    assert abs(gamma - expected) <= 1e-2 * expected


def test_dp_equals_enumeration_sphere(sphere_small_traj):
    traj = sphere_small_traj
    t1, t2 = traj.times[0], traj.times[4]
    for x1, x2 in ((3, 5), (10, 10), (20, 17)):
        gamma, _ = hf.min_action(traj, (x1, t1), (x2, t2), window=2)
        brute = enumerate_action(traj, (x1, t1), (x2, t2), window=2)
        assert gamma == brute


def test_dp_equals_enumeration_torus(torus_small_traj):
    traj = torus_small_traj
    t1, t2 = traj.times[0], traj.times[3]
    for x1, x2 in ((0, 7), (12, 12), (6, 18)):
        gamma, _ = hf.min_action(traj, (x1, t1), (x2, t2), window=1)
        brute = enumerate_action(traj, (x1, t1), (x2, t2), window=1)
        assert gamma == brute


def test_dp_equals_enumeration_torus_full_box(torus_small_traj):
    # window 2 on n = 5 is the whole 5x5 offset box, so every
    # arrival-indexed table plane is used
    traj = torus_small_traj
    t1, t2 = traj.times[0], traj.times[2]
    for x1, x2 in ((0, 7), (12, 12), (6, 18), (24, 1)):
        gamma, _ = hf.min_action(traj, (x1, t1), (x2, t2), window=2)
        brute = enumerate_action(traj, (x1, t1), (x2, t2), window=2)
        assert gamma == brute


def _path_action(traj, path, window):
    """The action along path.nodes, summed in the DP's own order."""
    dt = traj.dt_out
    cost = 0.0
    for k, p, q in zip(path.snapshots, path.nodes, path.nodes[1:]):
        d = hf.layer_distance_fn(traj, k, window)(p, q)
        r_a = traj[k].geom.scalar_curvature().ravel()
        r_b = traj[k + 1].geom.scalar_curvature().ravel()
        cost = ((cost + 0.5 * r_a[p] * dt) + d * d / dt) + 0.5 * r_b[q] * dt
    return cost


@pytest.mark.parametrize(
    "name, k1, k2, x1, x2, window",
    [
        ("torus_plain_traj", 4, 9, (3, 5), (9, 9), 2),
        ("torus_plain_traj", 10, 14, (62, 1), (3, 60), 5),
        ("torus_small_traj", 0, 3, (0, 0), (3, 2), 1),
        ("torus_small_traj", 0, 3, (4, 1), (1, 4), 2),
    ],
)
def test_torus_path_recomputes_gamma(request, name, k1, k2, x1, x2, window):
    # the backtracked nodes carry exactly the minimized action
    traj = request.getfixturevalue(name)
    gamma, path = hf.min_action(traj, (x1, traj.times[k1]), (x2, traj.times[k2]), window=window)
    n = traj.geom.n
    assert path.nodes[0] == x1[0] * n + x1[1] and path.nodes[-1] == x2[0] * n + x2[1]
    assert _path_action(traj, path, window) == gamma


def test_action_rows_one_dp_per_pair(monkeypatch, torus_plain_traj):
    from dataclasses import replace

    from harnackflow import action, runner

    traj = torus_plain_traj
    times = traj.times
    cfg = replace(
        hf.ScenarioConfig(),
        pairs=((0, times[4], 130, times[6]), (100, times[10], 100, times[13]), (2000, times[20], 2069, times[21])),
        pair_count=0,
        window=5,
    )
    min_action = action.min_action
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return min_action(*args, **kwargs)

    monkeypatch.setattr(action, "min_action", counted)
    rows = runner.action_rows(cfg, traj, np.random.default_rng(0))
    assert len(calls) == 3
    for x1, t1, x2, t2, gamma, _ in rows:
        assert gamma == min_action(traj, (x1, t1), (x2, t2), cfg.window)[0]


@pytest.fixture(scope="module")
def torus_small_flat_traj():
    # R = 0 and equal edge weights: many equal-cost paths, so the path
    # depends on the tie-breaking
    geom = hf.TorusGeometry(5, 1.0)
    x, _ = geom.coords()
    state = hf.FlowState(0.0, geom, 0.6 + 0.2 * np.sin(2 * np.pi * x) * np.ones((1, 5)))
    return hf.run(state, 0.003, 1e-4, 1e-3, c=0.0)


@pytest.fixture(scope="module")
def sphere_small_round_traj():
    # frozen unit sphere: constant R and equal ring spacing, so many paths
    # cost the same up to round-off and the path depends on the tie-breaking
    geom = hf.SphereGeometry(24)
    state = hf.FlowState(0.0, geom, 0.5 + 0.2 * geom.cos_theta)
    return hf.run(state, 0.04, 1e-3, 0.01, c=-1.0, evolve_metric=False)


LOOP_REFERENCE_CASES = {
    # (x1, x2, window) per trajectory; t1, t2 = times[0], times[3]
    "torus_small_traj": ((0, 7, 1), (12, 12, 2), (6, 18, 2), (24, 1, 2)),
    "torus_small_flat_traj": ((0, 7, 1), (12, 12, 2), (6, 18, 2), (24, 1, 2)),
    "sphere_small_traj": ((0, 2, 1), (3, 8, 2), (12, 12, 2), (23, 17, 3), (1, 22, 7)),
    "sphere_small_round_traj": ((0, 2, 1), (3, 8, 2), (12, 12, 2), (23, 17, 3), (5, 6, 2)),
}


@pytest.mark.parametrize("name", list(LOOP_REFERENCE_CASES))
def test_layer_dp_matches_loop_reference(request, name):
    # value and path, including first-offset tie-breaking, against a plain loop DP
    traj = request.getfixturevalue(name)
    t1, t2 = traj.times[0], traj.times[3]
    for x1, x2, window in LOOP_REFERENCE_CASES[name]:
        gamma, path = hf.min_action(traj, (x1, t1), (x2, t2), window=window)
        ref_gamma, ref_nodes = reference_layer_dp(traj, (x1, t1), (x2, t2), window)
        assert gamma == ref_gamma
        assert path.nodes == tuple(ref_nodes)


def _torus7(c, amp):
    geom = hf.TorusGeometry(7, 1.0)
    x, y = geom.coords()
    geom = geom.with_phi(amp * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    f = 0.6 + 0.2 * np.sin(2 * np.pi * x) * np.ones((1, 7))
    return hf.run(hf.FlowState(0.0, geom, f), 0.006, 1e-4, 1e-3, c=c)  # 7 snapshots


@pytest.fixture(scope="module")
def torus7_traj():
    return _torus7(-1.0, 0.1)


@pytest.fixture(scope="module")
def torus7_flat_traj():
    return _torus7(0.0, 0.0)


@pytest.fixture(scope="module")
def sphere_small_tight_traj():
    # frozen sphere of radius e^-2: R dt / 2 is large next to the candidates'
    # spread, so adding it merges candidates and moves the first minimum
    geom = hf.SphereGeometry(24)
    state = hf.FlowState(0.0, geom.with_phi(np.full(24, -2.0)), 0.5 + 0.2 * geom.cos_theta)
    return hf.run(state, 0.04, 0.01 / 546, 0.01, c=-1.0, evolve_metric=False)


REACH_BOX_CASES = [
    # (trajectory, k1, k2, x1, x2, window, reachable)
    # 7 x 7 torus, window 1, 6 layers: arcs around 0 and 6 cross the seam,
    # and the mid-span boxes become the whole circle
    ("torus7_traj", 0, 6, 0, 6 * 7 + 5, 1, True),
    ("torus7_flat_traj", 0, 6, 0, 6 * 7 + 5, 1, True),
    ("torus7_traj", 1, 5, 3 * 7 + 6, 5 * 7 + 1, 1, True),
    ("torus7_flat_traj", 1, 5, 3 * 7 + 6, 5 * 7 + 1, 1, True),
    ("torus7_traj", 0, 3, 8, 8, 1, True),  # x1 == x2
    ("torus7_flat_traj", 2, 6, 24, 24, 2, True),
    ("torus7_traj", 0, 2, 0, 3 * 7 + 3, 1, False),
    ("torus7_flat_traj", 0, 2, 0, 3 * 7 + 3, 1, False),
    # sphere rings next to both poles
    ("sphere_small_traj", 0, 4, 0, 1, 2, True),
    ("sphere_small_traj", 0, 4, 23, 22, 2, True),
    ("sphere_small_traj", 1, 4, 0, 0, 1, True),
    ("sphere_small_round_traj", 0, 4, 23, 23, 3, True),
    ("sphere_small_round_traj", 0, 4, 1, 9, 2, True),
    ("sphere_small_traj", 0, 4, 0, 12, 2, False),
    ("sphere_small_tight_traj", 0, 4, 0, 3, 2, True),
    ("sphere_small_tight_traj", 0, 4, 1, 4, 1, True),
]


@pytest.mark.parametrize("name, k1, k2, x1, x2, window, reachable", REACH_BOX_CASES)
def test_reach_box_dp_matches_loop_reference(request, name, k1, k2, x1, x2, window, reachable):
    # the DP over each layer's reach box gives the full-grid loop DP's value
    # and path, bit for bit, and an unreachable pair still raises
    traj = request.getfixturevalue(name)
    p1, p2 = (x1, traj.times[k1]), (x2, traj.times[k2])
    ref_gamma, ref_nodes = reference_layer_dp(traj, p1, p2, window)
    assert np.isfinite(ref_gamma) == reachable
    if not reachable:
        with pytest.raises(WindowTooNarrowError):
            hf.min_action(traj, p1, p2, window=window)
        return
    gamma, path = hf.min_action(traj, p1, p2, window=window)
    assert gamma == ref_gamma
    assert path.nodes == tuple(ref_nodes)


def test_min_action_curvature_once_per_snapshot(monkeypatch, torus_small_traj):
    traj = torus_small_traj
    geom_type = type(traj.geom)
    curvature = geom_type.scalar_curvature
    calls = []

    def counted(self):
        calls.append(self)
        return curvature(self)

    monkeypatch.setattr(geom_type, "scalar_curvature", counted)
    hf.min_action(traj, (0, traj.times[0]), (7, traj.times[3]), window=1)
    assert len(calls) == 4


def test_torus_window_distances_match_dijkstra(torus_small_traj):
    # Independent oracle: heap-based shortest path over the same weighted
    # 4-neighbor graph, with intermediate offsets confined to the window box.
    import heapq

    traj = torus_small_traj
    window = 2
    k = 1
    geom_a, geom_b = traj[k].geom, traj[k + 1].geom
    phi_mid = 0.5 * (geom_a.phi + geom_b.phi)
    n, h = geom_a.n, geom_a.h
    dist_fn = hf.layer_distance_fn(traj, k, window)

    def edge(p, q):
        return float(np.exp(0.5 * (phi_mid[p] + phi_mid[q])) * h)

    def dijkstra_box(src):
        si, sj = src
        best = {(0, 0): 0.0}
        heap = [(0.0, (0, 0))]
        while heap:
            d, (a, b) = heapq.heappop(heap)
            if d > best.get((a, b), np.inf):
                continue
            for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                na, nb = a + da, b + db
                if abs(na) > window or abs(nb) > window:
                    continue
                p = ((si + a) % n, (sj + b) % n)
                q = ((si + na) % n, (sj + nb) % n)
                nd = d + edge(p, q)
                if nd < best.get((na, nb), np.inf) - 1e-15:
                    best[(na, nb)] = nd
                    heapq.heappush(heap, (nd, (na, nb)))
        return best

    for src in ((0, 0), (2, 3), (4, 1)):
        best = dijkstra_box(src)
        flat_src = src[0] * n + src[1]
        for (a, b), expected in best.items():
            q = ((src[0] + a) % n, (src[1] + b) % n)
            got = dist_fn(flat_src, q[0] * n + q[1])
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize(
    "name, window",
    [
        ("torus_small_traj", 1),
        ("torus_small_traj", 2),
        ("torus_bump_static_traj", 3),
        ("torus_bump_static_traj", 5),
        ("torus_bump_ricci_traj", 3),
        ("torus_bump_ricci_traj", 5),
    ],
)
def test_torus_window_distances_match_relaxation_reference(request, name, window):
    # bit for bit: every update order iterated until nothing changes reaches
    # the one fixed point of the departure-end path sums
    traj = request.getfixturevalue(name)
    for k in (0, len(traj.times) - 2):
        geom_a, geom_b = traj[k].geom, traj[k + 1].geom
        phi_mid = 0.5 * (geom_a.phi + geom_b.phi)
        table = _torus_window_distances(geom_a, phi_mid, window, tuple(map(range, geom_a.field_shape)))
        assert np.array_equal(table, reference_torus_window_distances(geom_a, phi_mid, window))


@pytest.mark.parametrize("sigma", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("window", [3, 5, 7])  # 7 = (n - 1) // 2, the clamp at n = 16
def test_torus_window_distances_match_reference_on_rough_metrics(sigma, window):
    # seeded rough metrics whose shortest paths turn back toward the
    # origin, so the ring order needs more passes than its first sweep and
    # the pass that confirms it
    geom = hf.TorusGeometry(16, 1.0)
    phi_mid = np.random.default_rng(7).normal(0.0, sigma, geom.field_shape)
    table = _torus_window_distances(geom, phi_mid, window, tuple(map(range, geom.field_shape)))
    assert np.array_equal(table, reference_torus_window_distances(geom, phi_mid, window))


@pytest.mark.parametrize(
    "box",
    [
        (range(3, 4), range(15, 16)),  # one node, its departures across the seam
        (range(-4, 3), range(12, 20)),  # across the seam on both axes
        (range(16), range(16)),  # the full grid
    ],
)
def test_torus_box_table_matches_reference_slice(box):
    # a box's table is the full grid's at the box's arrival nodes, bit for bit
    geom = hf.TorusGeometry(16, 1.0)
    phi_mid = np.random.default_rng(7).normal(0.0, 2.0, geom.field_shape)
    rows, cols = (np.arange(r.start, r.stop) % 16 for r in box)
    table = _torus_window_distances(geom, phi_mid, 3, box)
    assert np.array_equal(table, reference_torus_window_distances(geom, phi_mid, 3)[:, :, rows[:, None], cols])


def test_gamma_monotone_in_window(sphere_small_traj):
    traj = sphere_small_traj
    t1, t2 = traj.times[0], traj.times[4]
    values = [hf.min_action(traj, (2, t1), (14, t2), window=w)[0] for w in (3, 4, 6)]
    assert values[0] >= values[1] >= values[2]


def test_path_metadata(sphere_small_traj):
    traj = sphere_small_traj
    gamma, path = hf.min_action(traj, (3, traj.times[1]), (6, traj.times[3]), window=3)
    assert path.snapshots == (1, 2, 3)
    assert len(path.nodes) == 3
    assert path.action == gamma
    assert np.isfinite(gamma)


def test_times_must_be_stored(sphere_small_traj):
    traj = sphere_small_traj
    with pytest.raises(TimesNotStoredError):
        hf.min_action(traj, (0, 0.005), (3, traj.times[3]))
    with pytest.raises(TimesNotStoredError):
        hf.min_action(traj, (0, traj.times[3]), (3, traj.times[1]))  # reversed


def test_nodes_out_of_range(sphere_small_traj, torus_small_traj):
    for traj, node in (
        (sphere_small_traj, 40),
        (sphere_small_traj, (40,)),
        (sphere_small_traj, (1, 2)),
        (torus_small_traj, 25),
        (torus_small_traj, (1, 5)),
        (torus_small_traj, (1,)),
        (torus_small_traj, (1, 2, 3)),  # one index too many, not read as (1, 2)
        (sphere_small_traj, 1.5),  # not truncated to ring 1
        (sphere_small_traj, (2.0,)),
        (torus_small_traj, (1, 2.5)),
        (torus_small_traj, "3"),
    ):
        with pytest.raises(NodesOutOfRangeError):
            hf.min_action(traj, (node, traj.times[0]), (3, traj.times[2]))


def test_numpy_integer_nodes_accepted(torus_small_traj):
    traj = torus_small_traj
    t1, t2 = traj.times[0], traj.times[2]
    assert hf.min_action(traj, (np.int64(7), t1), ((np.int32(3), np.uint8(4)), t2)) == hf.min_action(
        traj, (7, t1), (19, t2)
    )


@pytest.mark.parametrize("window", [-1, 2.5, "3", None, True])
def test_window_must_be_a_nonnegative_integer(torus_small_traj, window):
    traj = torus_small_traj
    p1, p2 = (0, traj.times[0]), (7, traj.times[2])
    calls = (
        lambda: hf.min_action(traj, p1, p2, window=window),
        lambda: hf.random_pairs(traj, 2, np.random.default_rng(0), window=window),
        lambda: hf.layer_distance_fn(traj, 0, window),
    )
    for call in calls:
        with pytest.raises(ConstraintViolationError, match=re.escape(repr(window))):
            call()


def test_window_zero_stays_put(torus_small_traj, sphere_small_traj):
    for traj, node in ((torus_small_traj, 7), (sphere_small_traj, 5)):
        gamma, path = hf.min_action(traj, (node, traj.times[0]), (node, traj.times[2]), window=0)
        assert np.isfinite(gamma) and path.nodes == (node,) * 3
        with pytest.raises(WindowTooNarrowError):
            hf.min_action(traj, (node, traj.times[0]), (node + 1, traj.times[2]), window=0)


def test_node_tuples_match_flat_indices(sphere_small_traj, torus_small_traj):
    # one index per grid axis on either geometry: (ring,) on the sphere
    t1, t2 = sphere_small_traj.times[0], sphere_small_traj.times[2]
    assert hf.min_action(sphere_small_traj, ((3,), t1), ((5,), t2)) == hf.min_action(
        sphere_small_traj, (3, t1), (5, t2)
    )
    t1, t2 = torus_small_traj.times[0], torus_small_traj.times[2]
    assert hf.min_action(torus_small_traj, ((1, 2), t1), ((3, 4), t2)) == hf.min_action(
        torus_small_traj, (7, t1), (19, t2)
    )


def test_window_too_narrow(sphere_small_traj):
    traj = sphere_small_traj
    with pytest.raises(WindowTooNarrowError):
        hf.min_action(traj, (0, traj.times[2]), (20, traj.times[3]), window=2)


def test_random_pairs_certify(sphere_cosine_traj):
    rng = np.random.default_rng(3)
    pairs = hf.random_pairs(sphere_cosine_traj, 5, rng, t_min=0.02)
    assert len(pairs) == 5
    for p1, p2 in pairs:
        margin, _ = hf.check_integrated_harnack(sphere_cosine_traj, p1, p2)
        assert margin >= -1e-2


def test_random_pairs_reachable_at_clamped_window():
    # n = 8: the DP clamps window 4 to 3, so a one-layer end offset of 4 per
    # axis would be out of reach
    geom = hf.TorusGeometry(8, 1.0)
    x, _ = geom.coords()
    state = hf.FlowState(0.0, geom, 0.6 + 0.2 * np.sin(2 * np.pi * x) * np.ones((1, 8)))
    traj = hf.run(state, 0.002, 1e-4, 1e-3, c=0.0)  # 3 snapshots
    pairs = hf.random_pairs(traj, 200, np.random.default_rng(0), window=4)
    for p1, p2 in pairs:
        gamma, _ = hf.min_action(traj, p1, p2, window=4)
        assert np.isfinite(gamma)


def test_action_csv(tmp_path):
    rows = [(0, 0.1, 3, 0.2, 1.5, 0.25)]
    path = tmp_path / "action.csv"
    hf.write_action_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,t1,x2,t2,gamma,margin"
    assert lines[1] == "0,0.1,3,0.2,1.5,0.25"
