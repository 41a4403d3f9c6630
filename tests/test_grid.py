"""The output grid: one rule names the snapshot of a time everywhere.

A time t names snapshot k of a grid when |t - t_k| <= 1e-9 dt_out.  Each
place that turns a time into a snapshot asks ``flow.OutputGrid``: a
config's action pairs and explicit ``t_check``, ``min_action`` and
``check_pairs``, and ``load_trajectory``.  Half the tolerance away from a
snapshot names it in all four; twice the tolerance away is refused by
each with its own typed error.
"""

import struct

import numpy as np
import pytest

import harnackflow as hf
from harnackflow.cli import main
from harnackflow.errors import ConstraintViolationError, TimesNotStoredError, TrajectoryFormatError
from harnackflow.flow import OutputGrid

DT_OUT = 0.01
NEAR, FAR = 0.5e-9 * DT_OUT, 2e-9 * DT_OUT

# t_end = 0.1 and dt_out = 0.01 store snapshots at 0, 0.01, ..., 0.1
SPHERE = """
[geometry]
kind = rot_sphere
n = 16
phi_mode = cos_theta
phi_amp = 0.1

[initial]
id = cos_theta
f0 = 0.5
amp = 0.2

[flow]
t_end = 0.1
dt_out = 0.01
"""


def _off(k, by):
    return k * DT_OUT + by


def test_grid_names_a_time_within_its_tolerance():
    grid = OutputGrid(0.0, DT_OUT, 10)
    for k in (0, 3, 10):
        for by in (0.0, NEAR, -NEAR):
            assert grid.index(_off(k, by)) == k
        for by in (FAR, -FAR):
            assert grid.index(_off(k, by)) is None
    for t in (-DT_OUT, 11 * DT_OUT, float("nan"), float("inf"), -float("inf")):
        assert grid.index(t) is None
    assert [grid.time(k) for k in (0, 1, 10)] == [0.0, 0.01, 0.1]


def test_grid_first_snapshot_at_or_after_a_time():
    grid = OutputGrid(0.0, DT_OUT, 10)
    assert grid.first_at(-1.0) == 0
    assert grid.first_at(0.03) == grid.first_at(_off(3, NEAR)) == 3
    assert grid.first_at(_off(3, FAR)) == 4
    assert grid.first_at(0.035) == 4
    assert grid.first_at(0.1) == 10
    assert grid.first_at(0.2) == grid.first_at(float("nan")) == grid.first_at(float("inf")) == 11


def test_grid_spans_full_intervals_and_refuses_what_does_not_fit():
    assert OutputGrid.spanning(0.0, 0.1, DT_OUT).count == 10
    assert OutputGrid.spanning(0.0, 0.1 - NEAR, DT_OUT).count == 10  # t_end names t_10
    assert OutputGrid.spanning(0.0, 0.1 - FAR, DT_OUT).count == 9
    assert OutputGrid.spanning(0.5, 0.5, DT_OUT).count == 0
    with pytest.raises(ConstraintViolationError, match="precedes"):
        OutputGrid.spanning(0.5, 0.5 - FAR, DT_OUT)
    with pytest.raises(ConstraintViolationError, match="overflows a float"):
        OutputGrid.spanning(0.0, 1e308, 1e-10)
    for dt_out in (0.0, -DT_OUT, float("nan"), float("inf")):
        with pytest.raises(ConstraintViolationError, match="positive and finite"):
            OutputGrid.spanning(0.0, 0.1, dt_out)


@pytest.mark.parametrize("count, expected", [(1, 0), (2, 1), (3, 2), (10, 5)])
def test_grid_check_index_is_interior(count, expected):
    # the nearest interior snapshot, not snapshot 1 once a later one is interior
    grid = OutputGrid(0.0, DT_OUT, count)
    assert grid.check_index(0.5 * count * DT_OUT) == expected
    assert grid.check_index(0.0) == min(1 if count < 3 else 2, count - 1)
    assert grid.check_index(1.0) == count - 1


def test_config_pair_and_t_check_times_follow_the_rule(tmp_path, capsys):
    for by, accepted in ((NEAR, True), (-NEAR, True), (FAR, False), (-FAR, False)):
        pair = f"\n[action]\npairs = 3,{_off(3, 0.0)!r},5,{_off(7, by)!r}\n"
        check = f"\n[identities]\nt_check = {_off(4, by)!r}\n"
        for extra, what in ((pair, "action.pairs entry"), (check, "identities.t_check")):
            if accepted:
                hf.parse_config(SPHERE + extra)
                continue
            with pytest.raises(ConstraintViolationError, match=what):
                hf.parse_config(SPHERE + extra)
            path = tmp_path / "off.cfg"
            path.write_text(SPHERE + extra)
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert "ConstraintViolationError" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sphere_traj():
    return hf.run(hf.build_initial_state(hf.parse_config(SPHERE)), 0.1, None, DT_OUT)


def test_pair_times_follow_the_rule(sphere_traj):
    exact = hf.min_action(sphere_traj, (3, _off(3, 0.0)), (5, _off(7, 0.0)))
    checked = hf.check_pairs(sphere_traj, [((3, _off(3, 0.0)), (5, _off(7, 0.0)))])
    for by in (NEAR, -NEAR):
        assert hf.min_action(sphere_traj, (3, _off(3, by)), (5, _off(7, -by))) == exact
        assert hf.check_pairs(sphere_traj, [((3, _off(3, -by)), (5, _off(7, by)))])[0][1] == checked[0][1]
    for by in (FAR, -FAR):
        with pytest.raises(TimesNotStoredError):
            hf.min_action(sphere_traj, (3, _off(3, 0.0)), (5, _off(7, by)))
        with pytest.raises(TimesNotStoredError):
            hf.check_pairs(sphere_traj, [((3, _off(3, by)), (5, _off(7, 0.0)))])


def test_loaded_snapshot_times_follow_the_rule(sphere_traj, tmp_path):
    path = tmp_path / "traj.bin"
    sphere_traj.save(path)
    data = path.read_bytes()
    (hlen,) = struct.unpack_from("<I", data, 8)
    record = 8 + 16 * sphere_traj.geom.node_count
    at = 12 + hlen + 4 * record  # the time of snapshot 4
    for by, accepted in ((NEAR, True), (-NEAR, True), (FAR, False), (-FAR, False)):
        moved = bytearray(data)
        struct.pack_into("<d", moved, at, _off(4, by))
        path.write_bytes(bytes(moved))
        if accepted:
            assert hf.load_trajectory(path)[4].t == _off(4, by)
        else:
            with pytest.raises(TrajectoryFormatError, match="snapshot 4 at t"):
                hf.load_trajectory(path)


def test_runs_and_trajectories_expose_their_grid(sphere_traj):
    assert sphere_traj.grid == OutputGrid(0.0, DT_OUT, 10)
    member = hf.EnsembleMember(sphere_traj[0])
    assert hf.FlowRun([member], 0.1, None, DT_OUT).grid == sphere_traj.grid
    assert hf.FlowRun([member], 0.1, None, DT_OUT, last=4).grid == OutputGrid(0.0, DT_OUT, 4)
    window = hf.flow.SnapshotWindow(3, sphere_traj.grid)
    live = hf.Trajectory(window, sphere_traj.dt, DT_OUT, sphere_traj.c)
    assert live.grid == sphere_traj.grid
    assert np.array_equal(sphere_traj.times, [sphere_traj.grid.time(k) for k in range(11)])


def test_stored_times_name_their_snapshots_far_from_zero(tmp_path):
    # t_k = 1e4 + k 1e-4 is rounded to half an ulp of 1e4, which divided by
    # dt_out is above 1e-9: the rule must compare t with t_k itself
    state = hf.build_initial_state(hf.parse_config(SPHERE))
    grid = OutputGrid(1e4, 1e-4, 5)
    traj = hf.run(hf.FlowState(1e4, state.geom, state.f), grid.time(5), None, 1e-4)
    assert traj.grid == grid and [traj[k].t for k in range(6)] == [grid.time(k) for k in range(6)]
    assert [grid.first_at(grid.time(k)) for k in range(6)] == list(range(6))
    path = tmp_path / "traj.bin"
    traj.save(path)
    assert [s.t for s in hf.load_trajectory(path)] == [s.t for s in traj]
    pair = ((3, traj[1].t), (5, traj[4].t))
    assert hf.check_pairs(traj, [pair])[0][1] == hf.min_action(traj, *pair)[0]
    rows = hf.flow.replay(hf.harnack.MonitorRows(t0=traj[1].t), traj)
    assert rows.times[0] == traj[1].t
