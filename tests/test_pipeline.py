"""run_scenario's stages fed by the flow: which failure is reported, which files are left, what memory is held."""

import os
import tracemalloc

import numpy as np
import pytest

import harnackflow as hf
from harnackflow import flow, harnack, identities, runner
from harnackflow.errors import BlowupError

# t = 0 .. 0.1 in 10 outputs; identities at t = 0.05, and a valid pair
SPHERE = """
[geometry]
kind = rot_sphere
n = 24
phi_mode = cos_theta
phi_amp = 0.1

[initial]
id = cos_theta
f0 = 0.5
amp = 0.2

[flow]
t_end = 0.1
dt = 1e-3
dt_out = 0.01

[identities]
enable = true
t_check = 0.05

[action]
enable = true
pairs = 3,0.02,5,0.04
window = 1
"""

# with window 1, node 0 reaches nodes 0 and 1 in one step, node 1 nodes 0 .. 2
FAR_LATE = "0,0.06,23,0.07"  # fails at t = 0.07
FAR_EARLY = "1,0.02,22,0.03"  # fails at t = 0.03

MONITORS = {"trajectory.bin", "monitors.csv", "plots.gp"}


def _run(tmp_path, text=SPHERE):
    out = tmp_path / "out"
    report = runner.run_scenario(hf.parse_config(text, name="pipeline"), out_flag=str(out))
    summary = (out / "summary.txt").read_text().splitlines() if (out / "summary.txt").exists() else None
    return report, summary, set(os.listdir(out))


def _fail_at(times, error=BlowupError):
    """A stand-in for a per-snapshot function that raises ``error`` at each time in ``times``."""

    def check(t):
        for when in times:
            if abs(t - when) < 1e-12:
                raise error(f"injected at t = {when:g}", time=when)

    return check


def test_a_monitor_failure_mid_run_reports_its_first_snapshot(tmp_path, monkeypatch):
    # the later failure at t = 0.07 and the identity stage's are not reported
    check, mass = _fail_at([0.04, 0.07]), harnack.mass
    monkeypatch.setattr(harnack, "mass", lambda state: (check(state.t), mass(state))[1])
    monkeypatch.setattr(identities, "residual_tP", lambda traj, k, d=1.0: check(0.07))
    report, summary, files = _run(tmp_path)
    assert summary == ["FAIL monitors: BlowupError at t = 0.04: injected at t = 0.04"]
    assert report.failure == summary[0] and not report.passed
    assert files == {"trajectory.bin", "summary.txt"}


def test_an_identity_failure_leaves_the_monitor_reports(tmp_path, monkeypatch):
    # the action stage would fail too, later in the pipeline
    check = _fail_at([0.05])
    monkeypatch.setattr(identities, "residual_tP", lambda traj, k, d=1.0: check(traj[k].t))
    report, summary, files = _run(tmp_path, SPHERE.replace("pairs = ", f"pairs = {FAR_EARLY}; "))
    assert summary == ["FAIL identities: BlowupError at t = 0.05: injected at t = 0.05"]
    assert files == MONITORS | {"summary.txt"}


def test_an_action_failure_is_the_first_failing_pair_in_list_order(tmp_path):
    # FAR_EARLY fails first in time, FAR_LATE first in the list
    text = SPHERE.replace("pairs = 3,0.02,5,0.04", f"pairs = 3,0.02,5,0.04; {FAR_LATE}; {FAR_EARLY}")
    report, summary, files = _run(tmp_path, text)
    assert summary == ["FAIL action: WindowTooNarrowError: no path from node 0 to node 23 in 1 steps with window 1"]
    assert files == MONITORS | {"identities.csv", "summary.txt"}


def _blow_up_at(monkeypatch, t_fail, error):
    step = flow._RK4Kernel.step

    def failing(self):
        if self.t[0] >= t_fail - 1e-12:
            raise error
        step(self)

    monkeypatch.setattr(flow._RK4Kernel, "step", failing)


def test_a_flow_failure_after_a_monitor_failure_reports_the_flow(tmp_path, monkeypatch):
    check, mass = _fail_at([0.02]), harnack.mass
    monkeypatch.setattr(harnack, "mass", lambda state: (check(state.t), mass(state))[1])
    _blow_up_at(monkeypatch, 0.05, BlowupError("injected blow-up", time=0.05))
    report, summary, files = _run(tmp_path)
    assert summary == ["FAIL flow: BlowupError at t = 0.05: injected blow-up"]
    assert files == {"summary.txt"}  # no trajectory.bin, no temporary file


def test_an_untyped_error_mid_flow_leaves_no_partial_file(tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    for name in ("trajectory.bin", "summary.txt"):
        (out / name).write_text("stale report of an earlier run\n")
    _blow_up_at(monkeypatch, 0.05, RuntimeError("interrupted"))
    with pytest.raises(RuntimeError):
        runner.run_scenario(hf.parse_config(SPHERE, name="pipeline"), out_flag=str(out))
    assert os.listdir(out) == []


def test_a_stale_temporary_trajectory_is_removed_at_start(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "trajectory.bin.part").write_bytes(b"records of an interrupted run")
    report, _, files = _run(tmp_path)
    assert report.passed
    assert files == MONITORS | {"identities.csv", "action.csv", "summary.txt"}


# an evolving, non-flat torus: 48^2 nodes, phi and f of 36 KiB each per snapshot
TORUS = """
[geometry]
kind = torus
n = 48
phi_mode = sine_xy
phi_amp = 0.05

[initial]
id = sine_x
f0 = 0.5
amp = 0.25

[flow]
t_end = {t_end}
dt_out = 0.01
"""


def test_peak_memory_does_not_grow_with_the_snapshot_count(tmp_path):
    # a run keeps a window of snapshots, not all of them: twice the
    # snapshots raise the traced peak by less than one snapshot's phi + f
    snapshot = 2 * 48 * 48 * 8
    peaks = []
    for t_end in (0.1, 0.1, 0.2):  # the first run warms the caches up
        cfg = hf.parse_config(TORUS.format(t_end=t_end), name="torus")
        tracemalloc.start()
        try:
            report = runner.run_scenario(cfg, out_flag=str(tmp_path / "out"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.passed
    assert os.path.getsize(tmp_path / "out" / "trajectory.bin") > 20 * snapshot
    assert peaks[2] - peaks[1] < snapshot


def test_stored_and_streamed_stages_agree(tmp_path):
    # the consumers a run feeds snapshot by snapshot give, fed from the
    # stored trajectory, the same reports and bytes
    cfg = hf.parse_config(SPHERE.replace("pairs = ", "pair_count = 4\npairs = "), name="pipeline")
    report = runner.run_scenario(cfg, out_flag=str(tmp_path / "run"), seed=3)
    assert report.passed
    traj = runner.run_trajectory(cfg)
    hf.save_trajectory(traj, tmp_path / "stored.bin")
    assert (tmp_path / "stored.bin").read_bytes() == (tmp_path / "run" / "trajectory.bin").read_bytes()
    series = hf.monitor_series(traj, d=cfg.d, t0=cfg.t0)
    hf.write_monitor_csv(series, tmp_path / "monitors.csv")
    assert (tmp_path / "monitors.csv").read_bytes() == (tmp_path / "run" / "monitors.csv").read_bytes()
    rows = runner.action_rows(cfg, traj, runner._seeded_rng(cfg, 3))
    hf.write_action_csv(rows, tmp_path / "action.csv")
    assert (tmp_path / "action.csv").read_bytes() == (tmp_path / "run" / "action.csv").read_bytes()
    margins = np.array([row[5] for row in rows])
    assertions = runner.evaluate_assertions(cfg, traj, series, margins)
    assert [a.line() + "\n" for a in assertions] == (tmp_path / "run" / "summary.txt").read_text().splitlines(True)
