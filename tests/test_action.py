import random
import re

import numpy as np
import pytest

import harnackflow as hf
from harnackflow.errors import (
    ConstraintViolationError,
    IndexAtBoundaryError,
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


def test_action_rows_one_dp_per_pair(monkeypatch, torus_plain_traj, torus_bump_static_traj):
    # at most one forward DP per pair, counted in layers swept: the pairs of
    # a flat static torus share one sweep as long as the longest span, the
    # pairs of a curved one sweep their own spans, and no margin runs a
    # second DP for its path
    from dataclasses import replace

    from harnackflow import action, runner

    departures = action._departures
    for traj, swept in ((torus_plain_traj, max), (torus_bump_static_traj, sum)):
        times = traj.times
        spans = (2, 3, 1)
        cfg = replace(
            hf.ScenarioConfig(),
            pairs=((0, times[4], 130, times[6]), (100, times[10], 100, times[13]), (2000, times[20], 2069, times[21])),
            pair_count=0,
            window=5,
        )
        layers = []

        def counted(*args):
            layers.append(args[1])
            return departures(*args)

        monkeypatch.setattr(action, "_departures", counted)
        rows = runner.action_rows(cfg, traj, np.random.default_rng(0))
        assert len(layers) == swept(spans)
        monkeypatch.setattr(action, "_departures", departures)
        for x1, t1, x2, t2, gamma, _ in rows:
            assert gamma == hf.min_action(traj, (x1, t1), (x2, t2), cfg.window)[0]


def _margin_of_path(traj, p1, p2, window):
    """(margin, gamma) from min_action's value and the ends of its path."""
    gamma, path = hf.min_action(traj, p1, p2, window)
    lnf1 = float(np.log(traj[path.snapshots[0]].f.flat[path.nodes[0]]))
    lnf2 = float(np.log(traj[path.snapshots[-1]].f.flat[path.nodes[-1]]))
    return lnf2 + 2.0 * np.log(p2[1] / p1[1]) + 0.5 * gamma - lnf1, gamma


def _check_pairs_cases(traj, window, seed, count):
    """Seeded reachable pairs after t = 0, then a seam crossing, x1 = x2 and span-1 pairs."""
    import random

    t, n = traj.times, traj.geom.n
    pairs = hf.random_pairs(traj, count, random.Random(seed), t_min=t[1], window=window)
    last = len(t) - 1
    return pairs + [
        (((0, 0), t[1]), ((n - 1, n - 1), t[2])),  # across both seams in one layer
        (((n - 1, 1), t[1]), ((1, n - 2), t[last])),  # the longest span: whole-circle boxes
        (((2, 3), t[1]), ((2, 3), t[last])),  # x1 = x2
        (((1, 1), t[last - 1]), ((1, 2), t[last])),  # span 1
    ]


@pytest.mark.parametrize(
    "name, window, seed",
    [("torus_plain_traj", 5, 1), ("torus_plain_traj", 2, 7), ("torus_plain_traj", 40, 13),
     ("torus_small_flat_traj", 1, 3), ("torus_small_flat_traj", 5, 5)],
    ids=["n64-W5", "n64-W2", "n64-clamped", "n5-W1", "n5-clamped"],
)
def test_check_pairs_sweep_matches_min_action(monkeypatch, request, name, window, seed):
    # on a flat static torus the pairs read one origin sweep, as long as the
    # longest span; each (margin, gamma) is the margin of min_action's value
    # and path, bit for bit
    from harnackflow import action

    traj = request.getfixturevalue(name)
    pairs = _check_pairs_cases(traj, window, seed, 8 if traj.geom.n > 5 else 20)
    departures = action._departures
    layers = []

    def counted(*args):
        layers.append(args[1])
        return departures(*args)

    monkeypatch.setattr(action, "_departures", counted)
    results = hf.check_pairs(traj, pairs, window)
    longest = max(traj.grid.index(t2) - traj.grid.index(t1) for (_, t1), (_, t2) in pairs)
    assert len(layers) == longest
    n, clamped = traj.geom.n, min(window, (traj.geom.n - 1) // 2)
    assert [len(r) for r in layers[0]] == [min(2 * clamped + 1, n)] * 2  # the arc reached from node 0
    if window > (traj.geom.n - 1) // 2:
        assert all(len(r) == traj.geom.n for r in layers[1])  # whole circles from the second layer on
    monkeypatch.setattr(action, "_departures", departures)
    assert results == [_margin_of_path(traj, p1, p2, window) for p1, p2 in pairs]


def _static_torus7(amp):
    geom = hf.TorusGeometry(7, 1.0)
    x, y = geom.coords()
    geom = geom.with_phi(amp * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    f = 0.6 + 0.2 * np.sin(2 * np.pi * x) * np.ones((1, 7))
    return hf.run(hf.FlowState(0.0, geom, f), 0.006, 1e-4, 1e-3, c=-1.0, evolve_metric=False)


def _uniform_jumps():
    # uniform layers of R = 0 whose metric changes between snapshots: each
    # snapshot has a geometry of its own
    geom = hf.TorusGeometry(7, 1.0)
    x, _ = geom.coords()
    f = 0.6 + 0.2 * np.sin(2 * np.pi * x) * np.ones((1, 7))
    states = [hf.FlowState(0.001 * k, geom.with_phi(np.full((7, 7), 0.2 * k)), f) for k in range(6)]
    return hf.Trajectory(states, dt=1e-4, dt_out=1e-3, c=0.0)


@pytest.mark.parametrize(
    "name",
    ["curved static", "near-flat static", "uniform jumps", "torus7_traj", "torus_small_traj", "sphere_small_traj",
     "loaded"],
)
def test_check_pairs_own_loop_matches_min_action(request, tmp_path, torus_plain_traj, name):
    # curved, evolving, spherical and loaded trajectories take one forward
    # loop per pair; so do a static torus whose layers are uniform but whose
    # R is not exactly constant (phi of amplitude 1e-14) and uniform layers
    # whose metric changes, where an origin sweep would move some of these
    # bits; a loaded copy of a flat torus gives the sweep's values
    import random

    if name.endswith("static"):
        traj = _static_torus7(0.1 if name == "curved static" else 1e-14)
    elif name == "uniform jumps":
        traj = _uniform_jumps()
    elif name == "loaded":
        torus_plain_traj.save(tmp_path / "trajectory.bin")
        traj = hf.load_trajectory(tmp_path / "trajectory.bin")
    else:
        traj = request.getfixturevalue(name)
    window = 2
    pairs = hf.random_pairs(traj, 6 if name == "loaded" else 30, random.Random(11), t_min=traj.times[1], window=window)
    results = hf.check_pairs(traj, pairs, window)
    assert results == [_margin_of_path(traj, p1, p2, window) for p1, p2 in pairs]
    if name == "loaded":
        assert results == hf.check_pairs(torus_plain_traj, pairs, window)


def test_check_pairs_raises_at_the_first_failing_pair(torus_plain_traj):
    # a valid pair, an unreachable one, then one at an unstored time: the
    # unreachable pair's error, with min_action's message
    traj = torus_plain_traj
    t = traj.times
    valid = ((0, t[1]), (65, t[3]))
    unreachable = ((0, t[1]), ((0, 5), t[2]))
    unstored = ((0, t[1]), (0, 0.5 * (t[2] + t[3])))
    with pytest.raises(WindowTooNarrowError) as expected:
        hf.min_action(traj, *unreachable, window=1)
    with pytest.raises(WindowTooNarrowError, match=f"^{re.escape(str(expected.value))}$"):
        hf.check_pairs(traj, [valid, unreachable, unstored], window=1)
    with pytest.raises(TimesNotStoredError):
        hf.check_pairs(traj, [valid, unstored, unreachable], window=1)


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


def _uniform_torus(n):
    # a flat torus with a uniform, nonzero conformal exponent: R = 0 and one
    # edge length e^0.3 * h, so every layer is uniform and costs depend on
    # |a| + |b| alone; many equal-cost paths test the tie-breaking
    geom = hf.TorusGeometry(n, 1.0)
    x, _ = geom.coords()
    geom = geom.with_phi(np.full(geom.field_shape, 0.3))
    f = 0.6 + 0.2 * np.sin(2 * np.pi * x) * np.ones((1, n))
    return hf.run(hf.FlowState(0.0, geom, f), 0.004, 1e-4, 1e-3, c=-1.0)  # 5 snapshots


@pytest.fixture(scope="module")
def uniform_tori():
    return {n: _uniform_torus(n) for n in (11, 13)}


UNIFORM_TORUS_CASES = [
    # (n, window, k1, k2, x1, x2, kind): "whole" has a mid-span box that is
    # the whole circle on both axes, "seam" arcs that cross the seam, "same"
    # x1 == x2, "unreachable" an end more than W nodes away in one layer
    (11, 3, 0, 4, (0, 0), (5, 10), "whole"),
    (11, 4, 1, 3, (1, 9), (9, 2), "seam"),
    (11, 5, 0, 3, (4, 7), (4, 7), "same"),
    (11, 4, 0, 1, (0, 0), (5, 5), "unreachable"),
    (13, 3, 0, 1, (2, 2), (6, 12), "unreachable"),
    (13, 4, 0, 4, (12, 0), (6, 6), "whole"),
    (13, 5, 2, 4, (11, 1), (2, 10), "seam"),
    (13, 5, 0, 2, (6, 0), (6, 0), "same"),
]


@pytest.mark.parametrize(
    "n, window, k1, k2, x1, x2, kind", UNIFORM_TORUS_CASES, ids=[f"n{c[0]}-W{c[1]}-{c[-1]}" for c in UNIFORM_TORUS_CASES]
)
def test_uniform_torus_shell_layers_match_loop_reference(uniform_tori, n, window, k1, k2, x1, x2, kind):
    # the shell-by-shell layer gives the plain loop DP's value and path, bit for bit
    from harnackflow import action

    traj = uniform_tori[n]
    flat1, flat2 = x1[0] * n + x1[1], x2[0] * n + x2[1]
    boxes = action._reach_boxes((n, n), True, flat1, flat2, k2 - k1, window)
    if kind == "whole":
        assert any(all(len(r) == n for r in box) for box in boxes)
    elif kind == "seam":
        assert any(r.start < 0 or r.stop > n for box in boxes for r in box)
    p1, p2 = (x1, traj.times[k1]), (x2, traj.times[k2])
    ref_gamma, ref_nodes = reference_layer_dp(traj, (flat1, p1[1]), (flat2, p2[1]), window)
    if kind == "unreachable":
        assert not np.isfinite(ref_gamma)
        with pytest.raises(WindowTooNarrowError):
            hf.min_action(traj, p1, p2, window=window)
        return
    gamma, path = hf.min_action(traj, p1, p2, window=window)
    assert gamma == ref_gamma
    assert path.nodes == tuple(ref_nodes)


def test_shell_layer_runs_on_uniform_layers_only(monkeypatch, uniform_tori, torus7_traj):
    # uniform layers take the shell path on boxes of many nodes, so a silent
    # fallback to the per-offset loop fails here; curved layers keep the
    # loop, including a last box of one node, whose table has the shape of
    # a uniform one
    from harnackflow import action

    shell_minimum = action._shell_minimum
    shapes = []

    def recorded(grown, costs, window, box_shape):
        shapes.append(box_shape)
        return shell_minimum(grown, costs, window, box_shape)

    monkeypatch.setattr(action, "_shell_minimum", recorded)
    traj = uniform_tori[13]
    hf.min_action(traj, (0, traj.times[0]), (40, traj.times[4]), window=3)
    assert len(shapes) == 4
    assert max(a * b for a, b in shapes) > 1
    shapes.clear()
    traj = torus7_traj
    for k2, window in ((1, 1), (3, 2)):
        p1, p2 = (9, traj.times[0]), (17, traj.times[k2])
        gamma, path = hf.min_action(traj, p1, p2, window=window)
        ref_gamma, ref_nodes = reference_layer_dp(traj, p1, p2, window)
        assert gamma == ref_gamma
        assert path.nodes == tuple(ref_nodes)
    assert shapes == []


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


def test_layer_distance_fn_refuses_a_layer_out_of_range(torus_small_traj):
    traj = torus_small_traj
    for k in (len(traj) - 1, len(traj), -1):
        with pytest.raises(IndexAtBoundaryError, match=f"layer {k} "):
            hf.layer_distance_fn(traj, k, 1)


def test_random_pairs_refuses_a_negative_count(sphere_small_traj):
    # it used to return no pair
    with pytest.raises(ConstraintViolationError, match="^count = -1 must be a nonnegative integer$"):
        hf.random_pairs(sphere_small_traj, -1, random.Random(0))


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


def test_seeded_draws_are_golden(torus_small_traj):
    # every draw is one random() of a random.Random, whose stream Python
    # keeps across versions: a change of stream or of draw order fails here
    import random

    p = hf.random_params(random.Random(0), "H", -1.0)  # the first tuple drawn is rejected
    assert (p.alpha, p.beta, p.a, p.b, p.c, p.d, p.lam) == (
        1.1351943561390905, -0.7867490956842902, -0.09361218339057675, 0.3335281578201248,
        -1.0, 1.6324515407813407, 0.018747423269561025,
    )
    t = torus_small_traj.times
    # the second pair's later snapshot is moved up past the first
    assert hf.random_pairs(torus_small_traj, 2, random.Random(0)) == [
        ((10, t[2]), (5, t[3])), ((7, t[1]), (7, t[3])),
    ]


@pytest.mark.parametrize("name, x1, x2", [("torus_small_traj", 3, 21), ("torus7_traj", 9, 40),
                                          ("sphere_small_traj", 4, 9)])
def test_curved_tables_built_once_per_layer(monkeypatch, request, name, x1, x2):
    # the backtrack reads each curved layer's table from the forward pass
    # instead of building a one-node table of its own
    from dataclasses import replace

    from harnackflow import action

    traj = request.getfixturevalue(name)
    kind = traj.geom.kind
    graph = action._LAYER_GRAPHS[kind]
    boxes = []

    def counted(geom, phi_mid, window, box):
        boxes.append(box)
        return graph.distances(geom, phi_mid, window, box)

    monkeypatch.setitem(action._LAYER_GRAPHS, kind, replace(graph, distances=counted))
    p1, p2 = (x1, traj.times[0]), (x2, traj.times[3])
    gamma, path = hf.min_action(traj, p1, p2, window=2)
    assert len(boxes) == 3
    assert max(np.prod([len(r) for r in box]) for box in boxes) > 1
    ref_gamma, ref_nodes = reference_layer_dp(traj, p1, p2, 2)
    assert gamma == ref_gamma
    assert path.nodes == tuple(ref_nodes)


def test_action_csv(tmp_path):
    rows = [(0, 0.1, 3, 0.2, 1.5, 0.25)]
    path = tmp_path / "action.csv"
    hf.write_action_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,t1,x2,t2,gamma,margin"
    assert lines[1] == "0,0.1,3,0.2,1.5,0.25"
