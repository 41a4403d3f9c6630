import json
import mmap
import re
import struct
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

import harnackflow as hf
from harnackflow.errors import (
    BlowupError,
    ConstraintViolationError,
    GridMismatchError,
    IndexAtBoundaryError,
    PositivityLostError,
    StepTooLargeError,
    TrajectoryFormatError,
)

from helpers import record_kernel_steps, reference_rk4_run

R0, F0 = 1.0, 0.5


def test_shrinking_sphere_closed_form(sphere_constant_traj):
    # r(t)^2 = r0^2 - 2t, R = 2/r^2, f = f0 r0^2 / r^2
    worst_r = worst_f = 0.0
    for s in sphere_constant_traj.states:
        rho = R0**2 - 2.0 * s.t
        worst_r = max(worst_r, np.max(np.abs(s.geom.scalar_curvature() - 2.0 / rho)) * rho / 2.0)
        worst_f = max(worst_f, np.max(np.abs(s.f - F0 * R0**2 / rho)) * rho / (F0 * R0**2))
    assert worst_r <= 1e-3
    assert worst_f <= 1e-3


def test_torus_plain_heat_fourier_decay(torus_plain_traj):
    length = 2 * np.pi
    geom = torus_plain_traj.geom
    x, _ = geom.coords()
    for s in (torus_plain_traj[10], torus_plain_traj[-1]):
        exact = 0.5 + 0.25 * np.sin(2 * np.pi * x / length) * np.exp(
            -4 * np.pi**2 * s.t / length**2
        ) * np.ones((1, geom.n))
        rel = np.max(np.abs(s.f - exact)) / np.max(np.abs(exact))
        assert rel <= 1e-3


def test_flat_torus_is_metric_fixed_point(torus_plain_traj):
    dev = max(np.max(np.abs(s.geom.phi)) for s in torus_plain_traj.states)
    assert dev <= 1e-10


def test_mass_conservation_with_potential(sphere_cosine_traj, torus_potential_traj):
    for traj in (sphere_cosine_traj, torus_potential_traj):
        m = np.array([hf.mass(s) for s in traj.states])
        span = traj.times[-1] - traj.times[0]
        assert (m.max() - m.min()) / m[0] / span <= 1e-8


def test_sphere_area_decreases_at_gauss_bonnet_rate(sphere_cosine_traj):
    a0 = sphere_cosine_traj[0].geom.total_area()
    for s in sphere_cosine_traj.states:
        expected = a0 - 8 * np.pi * s.t
        assert abs(s.geom.total_area() - expected) <= 1e-3 * expected


def test_zero_length_run_returns_initial_only():
    geom = hf.SphereGeometry(32)
    state = hf.FlowState(0.0, geom, np.full(32, F0))
    traj = hf.run(state, 0.0, 1e-4, 1e-2)
    assert len(traj) == 1
    assert traj[0] is state


def test_snapshot_count():
    geom = hf.SphereGeometry(32, np.full(32, 0.0))
    state = hf.FlowState(0.0, geom, np.full(32, F0))
    t_end, dt_out = 0.4, 0.0125  # 0.8 * extinction time of the unit sphere
    traj = hf.run(state, t_end, 1e-4, dt_out)
    assert len(traj) == int(np.floor(t_end / dt_out)) + 1
    times = traj.times
    assert np.allclose(np.diff(times), dt_out, rtol=0, atol=1e-12)


def test_step_too_large_rejected():
    geom = hf.SphereGeometry(32)
    state = hf.FlowState(0.0, geom, np.full(32, F0))
    dt = 2.0 * geom.cfl_bound()
    with pytest.raises(StepTooLargeError):
        hf.run(state, dt, dt, dt)


def test_initial_positivity_enforced():
    geom = hf.TorusGeometry(16, 2 * np.pi)
    x, _ = geom.coords()
    f = 0.2 + 0.5 * np.sin(x) * np.ones((1, 16))  # dips below zero
    with pytest.raises(PositivityLostError) as err:
        hf.FlowState(0.0, geom, f)
    assert err.value.time == 0.0


def test_blowup_guard_triggers():
    # frozen tiny sphere: R = 2/r0^2 = 200 drives exponential growth of f
    geom = hf.SphereGeometry(16, np.full(16, hf.SphereGeometry.round_phi(0.1)))
    state = hf.FlowState(0.0, geom, np.full(16, 1e10))
    with pytest.raises(BlowupError) as err:
        hf.run(state, 0.1, 2e-6, 1e-3, c=-1.0, evolve_metric=False)
    assert err.value.time is not None and err.value.time > 0


def test_extinction_guard():
    geom = hf.SphereGeometry(32)
    state = hf.FlowState(0.0, geom, np.full(32, F0))
    with pytest.raises(ConstraintViolationError):
        hf.run(state, 0.51, 1e-4, 1e-2)  # unit sphere extinction at 0.5


def test_dt_must_divide_dt_out():
    geom = hf.SphereGeometry(32)
    state = hf.FlowState(0.0, geom, np.full(32, F0))
    with pytest.raises(ConstraintViolationError):
        hf.run(state, 0.1, 3e-4, 1e-3)


def test_rk4_order_ratio():
    # Richardson comparison against a dt/4 reference on a reaction-dominated
    # sphere run; fourth order means err(dt)/err(dt/2) close to 16.
    n, r0 = 32, 0.8
    geom = hf.SphereGeometry(n, np.full(n, hf.SphereGeometry.round_phi(r0)))
    state = hf.FlowState(0.0, geom, np.full(n, F0))
    t_end = 0.7 * r0**2 / 2
    dt = 3.2e-4

    def final(dt_):
        return hf.run(state, t_end, dt_, t_end, c=-1.0)[-1].f

    ref = final(dt / 4)
    e1 = np.max(np.abs(final(dt) - ref))
    e2 = np.max(np.abs(final(dt / 2) - ref))
    assert e2 > 1e-15  # above round-off floor
    assert 10.0 < e1 / e2 < 24.0


def test_determinism_bitwise():
    geom = hf.SphereGeometry(48)
    state = hf.FlowState(0.0, geom.with_phi(0.1 * geom.cos_theta), 0.5 + 0.2 * geom.cos_theta)
    t1 = hf.run(state, 0.05, 5e-4, 0.01, c=-1.0)
    t2 = hf.run(state, 0.05, 5e-4, 0.01, c=-1.0)
    for a, b in zip(t1.states, t2.states):
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.geom.phi, b.geom.phi)


def test_trajectory_reserialization_is_byte_identical(tmp_path, torus_potential_traj):
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    torus_potential_traj.save(p1)
    hf.load_trajectory(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_trajectory_save_load_round_trip(tmp_path, torus_potential_traj):
    path = tmp_path / "traj.bin"
    torus_potential_traj.save(path)
    back = hf.load_trajectory(path)
    assert back.dt == torus_potential_traj.dt
    assert back.dt_out == torus_potential_traj.dt_out
    assert back.c == torus_potential_traj.c
    assert back.variant == torus_potential_traj.variant
    assert len(back) == len(torus_potential_traj)
    for a, b in zip(back.states, torus_potential_traj.states):
        assert a.t == b.t
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.geom.phi, b.geom.phi)


def _rewritten(data, header=None, times=None, nan_f_at=None):
    """A saved trajectory with header entries, snapshot times or one f value replaced."""
    hlen = int.from_bytes(data[8:12], "little")
    head = json.loads(data[12:12 + hlen])
    head.update(header or {})
    blob = json.dumps(head).encode("utf-8")
    body = bytearray(data[12 + hlen:])
    size = len(body) // head["snapshots"]
    for k, t in enumerate(times or ()):
        body[k * size:k * size + 8] = struct.pack("<d", t)
    if nan_f_at is not None:
        end = (nan_f_at + 1) * size  # the snapshot's last f value
        body[end - 8:end] = struct.pack("<d", float("nan"))
    return data[:8] + len(blob).to_bytes(4, "little") + blob + bytes(body)


LOADER_REJECTIONS = [
    ("negative dt_out", dict(header={"dt_out": -0.01}), "positive and finite"),
    ("zero dt_out", dict(header={"dt_out": 0.0}), "positive and finite"),
    ("NaN dt_out", dict(header={"dt_out": float("nan")}), "positive and finite"),
    ("negative dt", dict(header={"dt": -1.0}), "positive and finite"),
    ("dt not dividing dt_out", dict(header={"dt": 0.003}), "must divide"),
    ("times not uniform", dict(times=[0.0, 0.01, 0.0333, 0.03]), "snapshot 2 at t = 0.0333"),
    ("NaN in f", dict(nan_f_at=2), "snapshot 2: GridMismatchError"),
    ("infinite length", dict(header={"length": 1e999}), "bad header (GridMismatchError: torus side length inf"),
]


@pytest.mark.parametrize("label, changes, reason", LOADER_REJECTIONS, ids=[c[0] for c in LOADER_REJECTIONS])
def test_trajectory_without_a_run_layout_raises_format_error(tmp_path, label, changes, reason):
    # each used to load: a negative dt_out flipped time_derivative's sign,
    # a zero or NaN one made it inf or NaN, a NaN in f raised a bare
    # GridMismatchError, and an infinite side length gave h = inf and R = 0
    geom = hf.TorusGeometry(8, 2 * np.pi)
    x, _ = geom.coords()
    state = hf.FlowState(0.0, geom, 0.5 + 0.2 * np.sin(x) * np.ones((1, 8)))
    path = tmp_path / "trajectory.bin"
    hf.run(state, 0.03, 0.01 / 8, 0.01, c=0.0).save(path)
    assert len(hf.load_trajectory(path)) == 4
    damaged = tmp_path / f"{label.replace(' ', '_')}.bin"
    damaged.write_bytes(_rewritten(path.read_bytes(), **changes))
    with pytest.raises(TrajectoryFormatError, match=re.escape(str(damaged))) as err:
        hf.load_trajectory(damaged)
    assert reason in str(err.value)


def _damaged_trajectories(data):
    """(label, bytes) of a saved trajectory cut, padded or with a bad header."""
    hlen = int.from_bytes(data[8:12], "little")
    header = data[12:12 + hlen]
    body = data[12 + hlen:]
    snapshot = (len(body)) // 41  # torus_plain stores 41 snapshots

    def with_header(text):
        blob = text.encode("utf-8")
        return data[:8] + len(blob).to_bytes(4, "little") + blob + body

    cases = [
        ("cut in magic", data[:5]),
        ("cut in header length", data[:10]),
        ("cut in header", data[:12 + hlen // 2]),
        ("cut in first time", data[:12 + hlen + 4]),
        ("cut in first phi", data[:12 + hlen + 8 + 1000]),
        ("cut between snapshots", data[:12 + hlen + 3 * snapshot]),
        ("cut in last f", data[:-9]),
        ("one trailing byte", data + b"\0"),
        ("header not JSON", with_header(header.decode("utf-8").replace("{", "[", 1))),
        ("header not UTF-8", data[:12] + b"\xff" + data[13:]),
        ("header a list", with_header("[1, 2]")),
        ("header without dt", with_header(header.decode("utf-8").replace('"dt": ', '"dt_missing": '))),
        ("header n not a number", with_header(header.decode("utf-8").replace('"n": 64', '"n": "sixty-four"'))),
        ("header n too small", with_header(header.decode("utf-8").replace('"n": 64', '"n": 2'))),
        ("header n infinite", with_header(header.decode("utf-8").replace('"n": 64', '"n": Infinity'))),
        ("header unknown kind", with_header(header.decode("utf-8").replace('"torus"', '"cube"'))),
        ("header zero snapshots", with_header(header.decode("utf-8").replace('"snapshots": 41', '"snapshots": 0'))),
    ]
    assert all(bad != data for _, bad in cases)
    return cases


def test_damaged_trajectory_raises_format_error(tmp_path, torus_plain_traj):
    path = tmp_path / "trajectory.bin"
    torus_plain_traj.save(path)
    data = path.read_bytes()
    assert (len(data) - 12 - int.from_bytes(data[8:12], "little")) % 41 == 0
    for label, bad in _damaged_trajectories(data):
        damaged = tmp_path / f"{label.replace(' ', '_')}.bin"
        damaged.write_bytes(bad)
        with pytest.raises(TrajectoryFormatError, match=re.escape(str(damaged))):
            hf.load_trajectory(damaged)


@pytest.mark.parametrize("n", [3000, 10**9])
def test_trajectory_declaring_a_huge_grid_is_refused_before_any_allocation(tmp_path, n):
    # the size the header implies is checked before any geometry is built:
    # a short file whose header declares a torus of n = 3000 used to peak at
    # 137 MiB (its phi, twice) before it raised, and one of n = 10**9 would
    # let a raw MemoryError escape
    header = dict(kind="torus", n=n, length=6.0, dt=0.01, dt_out=0.01, variant="plain_heat", c=0.0,
                  evolve_metric=True, initial_id="", snapshots=1)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = tmp_path / "huge.bin"
    path.write_bytes(b"HFTRAJ01" + len(blob).to_bytes(4, "little") + blob + bytes(8 + 16 * 16))
    tracemalloc.start()
    try:
        with pytest.raises(TrajectoryFormatError, match=f"of {n * n} nodes implies"):
            hf.load_trajectory(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# -- time differencing -------------------------------------------------------


def _curvature(state):
    return state.geom.scalar_curvature()


def test_time_derivative_of_constant_is_zero(torus_potential_traj):
    d = hf.time_derivative(torus_potential_traj, 3, lambda s: np.ones(s.geom.field_shape))
    assert np.all(d == 0.0)


def test_time_derivative_curvature_evolution(sphere_constant_traj):
    # On surfaces dR/dt = lap R + R^2; spatially constant R makes it R^2.
    # The centered-difference truncation (dt_out^2/6) d3R/dt3 grows toward
    # extinction, so the 1e-3 check applies on the early-to-mid window.
    for k in (5, 15):
        s = sphere_constant_traj[k]
        drdt = hf.time_derivative(sphere_constant_traj, k, _curvature)
        r2 = s.geom.scalar_curvature() ** 2
        assert np.max(np.abs(drdt - r2)) <= 1e-3 * np.max(r2)


def test_time_derivative_log_heat(sphere_constant_traj):
    # u = -ln f, f = f0 r0^2/(r0^2 - 2t): du/dt = -2/(r0^2 - 2t)
    k = 10
    s = sphere_constant_traj[k]
    dudt = hf.time_derivative(sphere_constant_traj, k, hf.u_field)
    expected = -2.0 / (R0**2 - 2.0 * s.t)
    assert np.max(np.abs(dudt - expected)) <= 1e-3 * abs(expected)


def test_time_derivative_boundary_rejected(torus_potential_traj):
    with pytest.raises(IndexAtBoundaryError):
        hf.time_derivative(torus_potential_traj, 0, _curvature)
    with pytest.raises(IndexAtBoundaryError):
        hf.time_derivative(torus_potential_traj, len(torus_potential_traj) - 1, _curvature)


# -- ensembles ---------------------------------------------------------------


def _same_trajectory(a, b):
    assert (a.dt, a.dt_out, a.c, a.evolve_metric, a.variant, a.initial_id) == (
        b.dt, b.dt_out, b.c, b.evolve_metric, b.variant, b.initial_id
    )
    assert len(a) == len(b)
    for sa, sb in zip(a.states, b.states):
        assert sa.t == sb.t
        assert sa.geom.phi.tobytes() == sb.geom.phi.tobytes()
        assert sa.f.tobytes() == sb.f.tobytes()


def _ensemble(members, t_end, dt, dt_out):
    """The trajectories of one run of ``members``."""
    (trajs,) = hf.run_ensemble([hf.FlowRun(members, t_end, dt, dt_out)])
    return trajs


def _check_members_match_single_runs(members, t_end, dt, dt_out):
    trajs = _ensemble(members, t_end, dt, dt_out)
    assert len(trajs) == len(members)
    for member, traj in zip(members, trajs):
        alone = hf.run(member.initial, t_end, dt, dt_out, c=member.c,
                       evolve_metric=member.evolve_metric, initial_id=member.initial_id)
        _same_trajectory(traj, alone)
        assert traj[0] is member.initial


def _sphere_cos(n=32):
    geom = hf.SphereGeometry(n)
    return hf.FlowState(0.0, geom.with_phi(0.1 * geom.cos_theta), 0.5 + 0.2 * geom.cos_theta)


def test_ensemble_members_match_single_runs_sphere():
    # the identity ladder's level: potential run, plain-heat run, round companion
    state = _sphere_cos()
    geom = hf.SphereGeometry(32)
    companion = hf.FlowState(0.0, geom, np.full(32, F0))
    members = [
        hf.EnsembleMember(state, c=-1.0, initial_id="cos_theta"),
        hf.EnsembleMember(state, c=0.0, initial_id="cos_theta"),
        hf.EnsembleMember(companion, c=-1.0, initial_id="constant"),
    ]
    _check_members_match_single_runs(members, 0.05, 5e-4, 0.01)


def test_ensemble_members_match_single_runs_torus():
    def torus(phi_amp):
        geom = hf.TorusGeometry(16, 2 * np.pi)
        x, y = geom.coords()
        # phi holds signed zeros (sin(0) * negative), which a frozen member must keep
        geom = geom.with_phi(phi_amp * np.sin(x) * np.sin(y))
        return hf.FlowState(0.0, geom, 0.5 + 0.2 * np.sin(x) * np.sin(y))

    members = [
        hf.EnsembleMember(torus(0.0), c=0.0, initial_id="flat"),
        hf.EnsembleMember(torus(0.05), c=0.0, evolve_metric=False, initial_id="frozen"),
        hf.EnsembleMember(torus(0.05), c=-1.0, initial_id="sine_xy"),
    ]
    assert np.any(np.signbit(members[1].initial.geom.phi) & (members[1].initial.geom.phi == 0.0))
    _check_members_match_single_runs(members, 0.1, 0.0125 / 8, 0.0125)


def test_ensemble_frozen_and_general_members_match_single_runs_sphere():
    state = _sphere_cos()
    phi = 0.1 * state.geom.cos_theta
    phi[::5] = -0.0  # signed zeros, which the frozen member's phi must keep
    frozen = hf.FlowState(0.0, state.geom.with_phi(phi), state.f)
    members = [
        hf.EnsembleMember(state, c=-1.0, initial_id="cos_theta"),
        hf.EnsembleMember(frozen, c=0.5, evolve_metric=False, initial_id="frozen"),
        hf.EnsembleMember(state, c=0.5, initial_id="general"),
    ]
    _check_members_match_single_runs(members, 0.05, 5e-4, 0.01)
    for s in _ensemble(members, 0.05, 5e-4, 0.01)[1].states:
        assert s.geom.phi.tobytes() == phi.tobytes()


@pytest.mark.parametrize(
    "other",
    [
        hf.SphereGeometry(48),  # shape
        hf.TorusGeometry(32, 2 * np.pi),  # kind
    ],
)
def test_ensemble_rejects_mismatched_grid(other):
    member = hf.EnsembleMember(_sphere_cos())
    odd = hf.EnsembleMember(hf.FlowState(0.0, other, np.full(other.field_shape, F0)))
    with pytest.raises(GridMismatchError, match="member 1"):
        _ensemble([member, odd], 0.01, 1e-3, 0.01)


def test_ensemble_rejects_mismatched_spacing():
    a, b = hf.TorusGeometry(16, 2 * np.pi), hf.TorusGeometry(16, np.pi)
    members = [hf.EnsembleMember(hf.FlowState(0.0, g, np.full((16, 16), F0)), c=0.0) for g in (a, b)]
    with pytest.raises(GridMismatchError, match="spacing"):
        _ensemble(members, 0.01, 1e-3, 0.01)


def test_ensemble_member_breaking_cfl_is_named():
    # the half-radius sphere has a quarter of the unit sphere's CFL bound
    geom = hf.SphereGeometry(32)
    small = geom.with_phi(np.full(32, hf.SphereGeometry.round_phi(0.5)))
    dt = 0.5 * geom.cfl_bound()
    assert dt > small.cfl_bound()
    members = [
        hf.EnsembleMember(hf.FlowState(0.0, geom, np.full(32, F0))),
        hf.EnsembleMember(hf.FlowState(0.0, small, np.full(32, F0))),
    ]
    with pytest.raises(StepTooLargeError, match="member 1") as err:
        _ensemble(members, 10 * dt, dt, dt)
    assert err.value.member == 1
    assert err.value.time == 0.0
    assert err.value.bound == small.cfl_bound()


def test_ensemble_member_losing_positivity_is_named():
    # f at the smallest subnormal under strong decay (c R dt = 1.6) underflows to 0
    geom = hf.SphereGeometry(16)
    dt = 0.5 * geom.cfl_bound()
    healthy = hf.EnsembleMember(hf.FlowState(0.0, geom, np.full(16, F0)))
    tiny = hf.EnsembleMember(hf.FlowState(0.0, geom, np.full(16, 5e-324)), c=0.8 / dt)
    with pytest.raises(PositivityLostError, match="member 1") as err:
        _ensemble([healthy, tiny], 4 * dt, dt, dt)
    assert err.value.member == 1
    assert err.value.time == dt
    # alone, the member fails the same way without a member prefix
    with pytest.raises(PositivityLostError) as alone:
        hf.run(tiny.initial, 4 * dt, dt, dt, c=tiny.c)
    assert alone.value.member == 0
    assert str(alone.value).startswith("min f = 0 <= 0")


# -- the per-state curvature -------------------------------------------------


def test_state_curvature_is_the_geometry_kernel_read_only(sphere_cosine_traj, torus_potential_traj):
    for traj in (sphere_cosine_traj, torus_potential_traj):
        state = traj[3]
        assert state.R.tobytes() == state.geom.scalar_curvature().tobytes()
        assert state.R is state.R
        with pytest.raises(ValueError):
            state.R[0] = 0.0
        with pytest.raises(ValueError):
            state.R += 1.0


def test_curvature_computed_once_per_state_across_stages(tmp_path, monkeypatch):
    # A freshly loaded trajectory holds no curvature yet.  Monitors, every
    # identity preset of its variant, two action pairs and the assertions
    # then read each state's curvature, and the geometry computes it once
    # per state.
    from harnackflow import identities, runner

    geom = hf.SphereGeometry(48)
    state = hf.FlowState(0.0, geom.with_phi(0.1 * geom.cos_theta), 0.5 + 0.2 * geom.cos_theta)
    path = tmp_path / "trajectory.bin"
    hf.run(state, 0.06, 5e-4, 0.01, c=-1.0).save(path)
    traj = hf.load_trajectory(path)
    calls = Counter()
    kernel = hf.SphereGeometry.scalar_curvature

    def counted(self):
        calls[id(self)] += 1
        return kernel(self)

    monkeypatch.setattr(hf.SphereGeometry, "scalar_curvature", counted)
    series = hf.monitor_series(traj, t0=0.01)
    reports = identities.preset_reports({traj.c: traj}, 2, identities.PRESET_REGISTRY, 1.0)
    assert {r.identity for r in reports} >= {"cor_H", "cor_tP", "surface_general", "surface_fR"}
    margins = [
        hf.check_integrated_harnack(traj, (x1, traj.times[k1]), (x2, traj.times[k2]), window=5)[0]
        for x1, k1, x2, k2 in ((3, 1, 10, 4), (40, 2, 36, 6))
    ]
    assertions = runner.evaluate_assertions(None, traj, series, margins)
    assert any(a.ident == "action-margin" for a in assertions)
    assert calls == Counter({id(s.geom): 1 for s in traj.states})


# -- the CFL step rule -------------------------------------------------------


def test_explicit_dt_ensembles_match_the_fixed_step_reference():
    # an explicit dt keeps the fixed-step arithmetic, bit for bit, in every member
    state = _sphere_cos(16)
    frozen = hf.FlowState(0.0, state.geom, state.f)
    sphere = [
        hf.EnsembleMember(state, c=-1.0),
        hf.EnsembleMember(state, c=0.0),
        hf.EnsembleMember(frozen, c=0.5, evolve_metric=False),
    ]
    geom = hf.TorusGeometry(12, 2 * np.pi)
    x, y = geom.coords()
    torus = [hf.EnsembleMember(hf.FlowState(0.0, geom.with_phi(0.05 * np.sin(x) * np.sin(y)), 0.5 + 0.2 * np.sin(x) * np.cos(y)))]
    for members, t_end, dt, dt_out in ((sphere, 0.03, 1e-3, 0.01), (torus, 0.05, 0.0125 / 4, 0.0125)):
        for mem, traj in zip(members, _ensemble(members, t_end, dt, dt_out)):
            assert traj.dt == dt
            want = reference_rk4_run(mem.initial, t_end, dt, dt_out, c=mem.c, evolve_metric=mem.evolve_metric)
            assert len(traj) == len(want)
            for s, (phi, f) in zip(traj.states, want):
                assert s.geom.phi.tobytes() == phi.tobytes()
                assert s.f.tobytes() == f.tobytes()


def test_flat_torus_signed_zero_phi_matches_the_folded_reference():
    # the phi rate (lap phi - 0) e^(-2 phi) is +0 where lap phi is +0, so a
    # -0 phi with a +0 neighbour turns +0; as -R/2 that rate was -0 and
    # would keep it -0
    geom = hf.TorusGeometry(12, 2 * np.pi)
    x, y = geom.coords()
    phi = np.zeros(geom.field_shape)
    phi[::3, ::2] = -0.0
    state = hf.FlowState(0.0, geom.with_phi(phi), 0.5 + 0.2 * np.sin(x) * np.cos(y))
    for c in (-1.0, 0.0):
        traj = hf.run(state, 0.05, 0.0125 / 4, 0.0125, c=c)
        want = reference_rk4_run(state, 0.05, 0.0125 / 4, 0.0125, c=c)
        assert len(traj) == len(want)
        for s, (phi_k, f_k) in zip(traj.states, want):
            assert s.geom.phi.tobytes() == phi_k.tobytes()
            assert s.f.tobytes() == f_k.tobytes()
        assert np.signbit(phi).any() and not np.signbit(traj[-1].geom.phi).any()


# -- static members ------------------------------------------------------------


def _torus_state(n, phi_amp):
    geom = hf.TorusGeometry(n, 2 * np.pi)
    x, y = geom.coords()
    phi = phi_amp * np.sin(x) * np.sin(y) if phi_amp else np.zeros(geom.field_shape)
    return hf.FlowState(0.0, geom.with_phi(phi), 0.5 + 0.2 * np.sin(x) * np.cos(y))


def _matches_reference(traj, mem, t_end, dt, dt_out):
    want = reference_rk4_run(mem.initial, t_end, dt, dt_out, c=mem.c, evolve_metric=mem.evolve_metric)
    assert len(traj) == len(want)
    for s, (phi, f) in zip(traj.states, want):
        assert s.geom.phi.tobytes() == phi.tobytes()
        assert s.f.tobytes() == f.tobytes()


@pytest.mark.parametrize(
    "phi_amp, c, evolve_metric",
    [(0.0, -1.0, True), (0.0, 0.0, True), (0.05, -1.0, False), (0.05, 0.5, False)],
    ids=["flat c=-1", "flat c=0", "frozen c=-1", "frozen c=0.5"],
)
def test_static_torus_members_match_the_reference(phi_amp, c, evolve_metric):
    # a flat torus at +0 and a frozen curved one step f alone; the frozen
    # members' reaction factor (-2c) rate_phi is nonzero
    mem = hf.EnsembleMember(_torus_state(12, phi_amp), c=c, evolve_metric=evolve_metric)
    assert mem.static
    (traj,) = _ensemble([mem], 0.05, 0.0125 / 4, 0.0125)
    _matches_reference(traj, mem, 0.05, 0.0125 / 4, 0.0125)
    assert all(s.geom is traj[0].geom for s in traj.states)


def test_static_and_evolving_members_of_two_runs_share_a_stack(monkeypatch, tmp_path):
    # each run has static and evolving members, so each run sits in two
    # blocks of the stack; every member matches the reference and its run
    # alone, and only the static members' snapshots share their geometry
    # and its curvature
    flat, bump = _torus_state(12, 0.0), _torus_state(12, 0.05)
    runs = [
        hf.FlowRun([hf.EnsembleMember(bump, c=-1.0), hf.EnsembleMember(flat, c=0.0),
                    hf.EnsembleMember(bump, c=0.5, evolve_metric=False)], 0.05, 0.0125 / 4, 0.0125),
        hf.FlowRun([hf.EnsembleMember(flat, c=-1.0), hf.EnsembleMember(bump, c=0.0)], 0.025, 0.0125 / 8, 0.0125),
    ]
    record = record_kernel_steps(monkeypatch)
    together = hf.run_ensemble(runs)
    assert len(record[0]) == 2  # one stack
    for run, trajs in zip(runs, together):
        (alone,) = hf.run_ensemble([run])
        for mem, traj, solo in zip(run.members, trajs, alone):
            _same_trajectory(traj, solo)
            _matches_reference(traj, mem, run.t_end, run.dt, run.dt_out)
            shared = [s.geom is traj[0].geom for s in traj.states[1:]]
            assert shared == [mem.static] * (len(traj) - 1)
            # the curvature is cached on the geometry, so a shared geometry shares it
            assert [s.R is traj[0].R for s in traj.states[1:]] == shared
            assert all(s.R.tobytes() == s.geom.scalar_curvature().tobytes() for s in traj.states)
    # the shared geometry writes the bytes of one geometry per snapshot
    mem, traj = runs[0].members[1], together[0][1]
    want = reference_rk4_run(mem.initial, 0.05, 0.0125 / 4, 0.0125, c=0.0)
    fresh = hf.Trajectory([hf.FlowState(s.t, flat.geom.with_phi(phi), f) for s, (phi, f) in zip(traj.states, want)],
                          dt=traj.dt, dt_out=traj.dt_out, c=traj.c)
    traj.save(tmp_path / "shared.bin")
    fresh.save(tmp_path / "fresh.bin")
    assert (tmp_path / "shared.bin").read_bytes() == (tmp_path / "fresh.bin").read_bytes()


@pytest.mark.parametrize("failing", ["static", "evolving"])
def test_step_too_large_in_a_mixed_stack_names_run_and_member(failing):
    # the member on phi - 1 has e^-2 times the CFL bound of the others; it
    # is member 1 of run 1, static (frozen) or evolving
    flat, bump = _torus_state(12, 0.0), _torus_state(12, 0.05)
    small = hf.FlowState(0.0, bump.geom.with_phi(bump.geom.phi - 1.0), bump.f)
    dt = 0.5 * bump.geom.cfl_bound()
    assert dt > small.geom.cfl_bound()
    odd = hf.EnsembleMember(small, c=-1.0, evolve_metric=failing == "evolving")
    runs = [
        hf.FlowRun([hf.EnsembleMember(bump, c=-1.0), hf.EnsembleMember(flat, c=0.0)], 4 * dt, dt, dt),
        hf.FlowRun([hf.EnsembleMember(flat, c=-1.0), odd], 4 * dt, dt, dt),
    ]
    with pytest.raises(StepTooLargeError, match="member 1") as err:
        hf.run_ensemble(runs)
    assert (err.value.run, err.value.member, err.value.time) == (1, 1, 0.0)
    assert err.value.bound == small.geom.cfl_bound()
    # each member is held to its own run's step: at an eighth of it, its run passes
    assert dt / 8 < small.geom.cfl_bound()
    hf.run_ensemble([runs[1]._replace(dt=dt / 8), runs[0]])


def test_static_members_are_frozen_or_flat_tori_at_plus_zero():
    flat, bump = _torus_state(8, 0.0), _torus_state(8, 0.05)
    minus = hf.FlowState(0.0, flat.geom.with_phi(np.full((8, 8), -0.0)), flat.f)
    sphere = hf.FlowState(0.0, hf.SphereGeometry(16), np.full(16, F0))
    static = [hf.EnsembleMember(state, evolve_metric=evolve).static
              for state in (flat, bump, minus, sphere) for evolve in (True, False)]
    assert static == [True, True, False, True, False, True, False, True]


def test_step_rule_runs_round_sphere_to_nine_tenths_of_extinction(monkeypatch):
    # the CFL rule shrinks each interval's step with the sphere: no step is
    # refused, and the closed form of criterion 1 still holds at every snapshot
    steps = record_kernel_steps(monkeypatch)
    n = 64
    geom = hf.SphereGeometry(n, np.full(n, hf.SphereGeometry.round_phi(R0)))
    state = hf.FlowState(0.0, geom, np.full(n, F0))
    t_end = 0.9 * geom.total_area() / (8 * np.pi)
    traj = hf.run(state, t_end, None, 0.01, c=-1.0)
    assert traj[-1].t > 0.8 * R0**2 / 2
    assert traj.dt == min(dt for ((_, dt),) in steps)
    worst_r = worst_f = 0.0
    for s in traj.states:
        rho = R0**2 - 2.0 * s.t
        worst_r = max(worst_r, float(np.max(np.abs(s.R - 2 / rho)) * rho / 2))
        worst_f = max(worst_f, float(np.max(np.abs(s.f - F0 * R0**2 / rho)) * rho / (F0 * R0**2)))
    assert worst_r <= 1e-3 and worst_f <= 1e-3


def test_step_rule_retakes_an_interval_whose_step_breaks_the_exact_rule(monkeypatch):
    # without a margin the area law can underestimate how fast the bound of
    # a non-round sphere falls near extinction; a step that breaks the exact
    # rule is not taken, and its interval is taken again with more steps
    record = record_kernel_steps(monkeypatch)
    geom = hf.SphereGeometry(16)
    state = hf.FlowState(0.0, geom.with_phi(hf.SphereGeometry.round_phi(1.0) + 0.5 * geom.cos_theta), np.ones(16))
    t_end = 0.98 * state.geom.extinction_time()
    traj = hf.run(state, t_end, None, t_end / 20)
    steps = _interval_steps(record, traj.dt_out)
    assert len(traj) == 21 and traj.dt == min(steps)
    want = reference_rk4_run(state, t_end, steps, traj.dt_out)
    for s, (phi, f) in zip(traj.states, want, strict=True):
        assert s.geom.phi.tobytes() == phi.tobytes() and s.f.tobytes() == f.tobytes()
    # the kernel steps each interval made, the steps of a discarded try included
    tries = [sum(a.t - 1e-12 <= t < b.t - 1e-12 for ((t, _),) in record) for a, b in zip(traj.states, traj.states[1:])]
    assert sum(tries) == len(record) > sum(round(traj.dt_out / dt) for dt in steps)
    retaken = 0
    for k, (dt, made) in enumerate(zip(steps, tries), 1):
        count = round(traj.dt_out / dt)
        # each of its steps passes the exact rule: the interval alone, at its
        # step as an explicit dt, raises no StepTooLargeError
        alone = hf.run(traj[k - 1], traj[k].t, dt, traj.dt_out)[1]
        assert alone.geom.phi.tobytes() == traj[k].geom.phi.tobytes() and alone.f.tobytes() == traj[k].f.tobytes()
        if made > count:
            # a retaken interval plans under its bound extrapolated to its
            # end, which may take a few more steps than the fewest that pass,
            # but not 1 % more
            retaken += 1
            with pytest.raises(StepTooLargeError):
                hf.run(traj[k - 1], traj[k].t, traj.dt_out / (count - count // 100 - 1), traj.dt_out)
    assert retaken
    # in one stack with another run, which keeps stepping through the
    # retakes, and with a second member, each run is the one stepped alone
    big = hf.SphereGeometry(32).with_phi(np.full(32, hf.SphereGeometry.round_phi(2.0)))
    other = hf.FlowRun([hf.EnsembleMember(hf.FlowState(0.0, big, np.full(32, F0)))], 0.6, 1e-3, 0.01)
    pair = hf.FlowRun([hf.EnsembleMember(state), hf.EnsembleMember(state, c=0.0)], t_end, None, traj.dt_out)
    (other_alone,), pair_alone = hf.run_ensemble([other])[0], hf.run_ensemble([pair])[0]
    (other_together,), pair_together = hf.run_ensemble([other, pair])
    _same_trajectory(pair_alone[0], traj)
    for a, b in zip([other_alone, *pair_alone], [other_together, *pair_together], strict=True):
        _same_trajectory(a, b)
    # a run that builds no state before its last snapshot retakes from a copy of its rows
    ((late,),) = hf.run_ensemble([hf.FlowRun([hf.EnsembleMember(state)], t_end, None, traj.dt_out, first=20)])
    assert late.states[1:20] == [None] * 19 and late.dt == traj.dt
    assert late[20].geom.phi.tobytes() == traj[20].geom.phi.tobytes() and late[20].f.tobytes() == traj[20].f.tobytes()


@pytest.mark.parametrize("amp", [-1.5, 1.5])
def test_a_retake_plans_under_the_bound_extrapolated_to_the_interval_end(monkeypatch, amp):
    # near extinction the bound of a coarse non-round sphere keeps falling
    # after a failed check.  A retake planned under the bound at the check
    # failed again a few steps later, 23 times on this run, for 32,723
    # kernel steps where 3,525 pass; planned under the bound extrapolated
    # to the interval's end, an interval is taken at most twice more
    record = record_kernel_steps(monkeypatch)
    retakes, retake = Counter(), hf.flow._Run.retake

    def counted(run, err, bound):
        retakes[run.k] += 1
        return retake(run, err, bound)

    monkeypatch.setattr(hf.flow._Run, "retake", counted)
    geom = hf.SphereGeometry(16)
    state = hf.FlowState(0.0, geom.with_phi(hf.SphereGeometry.round_phi(1.0) + amp * geom.cos_theta), np.ones(16))
    t_end = 0.98 * state.geom.extinction_time()
    traj = hf.run(state, t_end, None, t_end / 20)
    steps = _interval_steps(record, traj.dt_out)
    passed = sum(round(traj.dt_out / dt) for dt in steps)
    assert retakes and max(retakes.values()) <= 2
    # what the discarded tries cost: less than the steps that pass
    assert passed < len(record) < 2 * passed
    want = reference_rk4_run(state, t_end, steps, traj.dt_out)
    for s, (phi, f) in zip(traj.states, want, strict=True):
        assert s.geom.phi.tobytes() == phi.tobytes() and s.f.tobytes() == f.tobytes()


def test_a_retake_whose_step_no_longer_advances_raises():
    # the try's error when the fewest steps under the bound no longer
    # advance the interval's end time, a typed error when no step passes
    run = hf.flow._Run(0, hf.FlowRun([hf.EnsembleMember(_sphere_cos(16))], 0.02, None, 0.01))
    run.begin_interval(run.fields)
    tried = StepTooLargeError(run.step, 1e-300)
    with pytest.raises(StepTooLargeError) as err:
        run.retake(tried, 1e-300)
    assert err.value is tried
    with pytest.raises(StepTooLargeError) as err:
        run.retake(tried, 0.0)
    assert (err.value.run, err.value.bound) == (0, 0.0)


@pytest.mark.parametrize("fallen, planned", [(0.8, 0.6), (0.3, 0.3)], ids=["extrapolated", "fall reaches 0"])
def test_a_retake_plans_under_the_bound_on_the_line_to_the_interval_end(fallen, planned):
    # a try that failed halfway through its interval, its bound fallen from
    # b0 to 0.8 b0, is planned again under 0.6 b0, the bound on the line
    # through both at the interval's end; a line that reaches 0 first is not
    # followed, and the bound at the check is kept
    run = hf.flow._Run(0, hf.FlowRun([hf.EnsembleMember(_sphere_cos(16))], 0.2, None, 0.1))
    run.begin_interval(run.fields)
    tried, b0 = run.steps, run.bound_begin
    run.t = run.t_begin + 0.05
    run.retake(StepTooLargeError(run.step, fallen * b0), fallen * b0)
    assert run.steps == hf.flow._interval_steps(planned * b0, 0.1) > tried + 1
    assert (run.t, run.left) == (run.t_begin, run.steps)


def test_step_rule_is_deterministic_and_divides_dt_out():
    state = _sphere_cos(24)
    a = hf.run(state, 0.1, None, 0.01, c=-1.0)
    b = hf.run(state, 0.1, None, 0.01, c=-1.0)
    _same_trajectory(a, b)
    steps = a.dt_out / a.dt
    assert abs(steps - round(steps)) < 1e-9
    assert np.allclose(a.times, 0.01 * np.arange(len(a)), rtol=0, atol=1e-15)
    # the members of an ensemble share the rule's steps
    members = [hf.EnsembleMember(state, c=-1.0), hf.EnsembleMember(state, c=0.0)]
    pot, heat = _ensemble(members, 0.1, None, 0.01)
    _same_trajectory(pot, a)
    assert heat.dt == a.dt


def test_step_rule_refuses_a_metric_without_a_positive_bound():
    geom = hf.SphereGeometry(16)
    state = hf.FlowState(0.0, geom.with_phi(np.full(16, -400.0)), np.full(16, F0))
    assert state.geom.cfl_bound() == 0.0
    with pytest.raises(StepTooLargeError) as err:
        hf.run(state, 0.01, None, 0.01, evolve_metric=False)
    assert err.value.time == 0.0


# -- lockstep runs -------------------------------------------------------------


def _interval_steps(record, dt_out):
    """Each output interval's step, from the kernel steps of a run stepped alone, a retake's discarded try left out."""
    kept = []
    for ((t, dt),) in record:
        # a retake starts its interval again, no later than any step of the try it discards
        while kept and kept[-1][0] >= t:
            kept.pop()
        kept.append((t, dt))
    out, i = [], 0
    while i < len(kept):
        out.append(kept[i][1])
        i += round(dt_out / out[-1])
    return out


def test_lockstep_sphere_runs_of_mixed_n_match_solo_runs_and_the_reference(monkeypatch):
    # runs at n, 2n and 4n with explicit steps, a frozen member with signed
    # zeros, and a CFL-rule run whose step changes between intervals, all in
    # one stack; each leaves it at its own t_end, the others mid-interval
    state16, state24, state32, state64 = (_sphere_cos(n) for n in (16, 24, 32, 64))
    phi = 0.1 * state16.geom.cos_theta
    phi[::5] = -0.0
    frozen = hf.FlowState(0.0, state16.geom.with_phi(phi), state16.f)
    runs = [
        hf.FlowRun([hf.EnsembleMember(state16, c=-1.0), hf.EnsembleMember(frozen, c=0.5, evolve_metric=False)],
                   0.03, 1e-3, 0.01),
        hf.FlowRun([hf.EnsembleMember(state32, c=-1.0, initial_id="n32")], 0.05, 2.5e-4, 0.01),
        hf.FlowRun([hf.EnsembleMember(state64, c=0.0)], 0.02, 1.25e-4, 0.005),
        hf.FlowRun([hf.EnsembleMember(state24, c=-1.0)], 0.1, None, 0.01),
    ]
    record = record_kernel_steps(monkeypatch)
    alone, steps, counts = [], [], []
    for run in runs:
        alone.append(hf.run_ensemble([run])[0])
        steps.append(run.dt if run.dt is not None else _interval_steps(record, run.dt_out))
        counts.append(len(record))
        del record[:]
    assert len(set(steps[-1])) > 1  # the rule changed the step between intervals
    together = hf.run_ensemble(runs)
    # one kernel step per step of the longest run, and each run leaves in turn
    assert len(record) == max(counts)
    assert [len(step) for step in record] == sorted((len(step) for step in record), reverse=True)
    assert len(record[0]) == 4 and len(record[-1]) == 1
    for run, trajs, solo, dt in zip(runs, together, alone, steps):
        assert len(trajs) == len(run.members)
        for mem, traj, solo_traj in zip(run.members, trajs, solo):
            _same_trajectory(traj, solo_traj)
            want = reference_rk4_run(mem.initial, run.t_end, dt, run.dt_out, c=mem.c, evolve_metric=mem.evolve_metric)
            assert len(traj) == len(want)
            for s, (phi, f) in zip(traj.states, want):
                assert s.geom.phi.tobytes() == phi.tobytes()
                assert s.f.tobytes() == f.tobytes()


def _torus_run(n, t_end, c=0.0):
    return hf.FlowRun([hf.EnsembleMember(_torus_state(n, 0.05), c=c)], t_end, 0.0125 / 4, 0.0125)


@pytest.mark.parametrize(
    "n, per_step", [(12, [1] * (16 + 8)), (8, [2] * 8 + [1] * 8)], ids=["separate stacks", "one stack"]
)
def test_lockstep_torus_runs_share_a_stack_only_on_one_grid(monkeypatch, n, per_step):
    # runs of different n step one stack after the other, so every kernel
    # step advances one run; runs on one grid step together
    runs = [_torus_run(8, 0.05), _torus_run(n, 0.025, c=-1.0)]
    record = record_kernel_steps(monkeypatch)
    together = hf.run_ensemble(runs)
    assert [len(step) for step in record] == per_step
    for run, trajs in zip(runs, together):
        (alone,) = hf.run_ensemble([run])
        _same_trajectory(trajs[0], alone[0])


def _kernel(runs, dt):
    """The flow kernel over one stack of ``runs``, every run stepping by ``dt``."""
    plans = [hf.flow._Run(index, run) for index, run in enumerate(runs)]
    kernel = hf.flow._RK4Kernel(plans)
    kernel.set_steps([dt] * len(plans))
    return kernel


def test_rk4_step_allocates_no_array():
    # every buffer of a step is made with its kernel; numpy's iterator
    # buffers for strided and broadcast operands are not arrays, and a
    # 16-element buffer size keeps them far below the limit.  Stacks with
    # static members (frozen, or a flat torus at +0) are stepped too: a
    # mixed torus stack, an all-static one, and a sphere stack with a frozen member
    run = _torus_run(32, 0.05)
    frozen = hf.EnsembleMember(run.members[0].initial, c=0.5, evolve_metric=False)
    torus = [_torus_run(32, 0.05, c=-1.0), run._replace(members=[*run.members, frozen])]
    flat = hf.EnsembleMember(_torus_state(32, 0.0), c=-1.0)
    static = [run._replace(members=[flat]), run._replace(members=[frozen, flat])]
    sphere = [hf.FlowRun([hf.EnsembleMember(_sphere_cos(n)), hf.EnsembleMember(_sphere_cos(n), c=0.0)], 0.1, None, 0.01)
              for n in (64, 128, 256)]
    sphere_frozen = hf.EnsembleMember(_sphere_cos(128), c=-1.0, evolve_metric=False)
    mixed_sphere = [sphere[2], sphere[1]._replace(members=[*sphere[1].members, sphere_frozen])]
    limit = 4096
    bufsize = np.setbufsize(16)
    try:
        for runs in (torus, static, sphere, mixed_sphere):
            kernel = _kernel(runs, 1e-6)
            assert kernel.phi.nbytes > limit
            kernel.step()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(20):
                    kernel.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - before < limit
    finally:
        np.setbufsize(bufsize)


def _mapping(a):
    """The mapping an array's memory lies in, or None for an array that owns its memory."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def _recorded_stack_buffers(monkeypatch):
    """Patch the kernel's buffer maker so that each call appends the buffers it made to the returned list."""
    made, make = [], hf.flow._stack_buffers

    def recording(shape, count):
        made.append(make(shape, count))
        return made[-1]

    monkeypatch.setattr(hf.flow, "_stack_buffers", recording)
    return made


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="no MADV_HUGEPAGE on this platform")
def test_a_stack_of_a_mebibyte_or_more_lies_in_one_huge_page_mapping(monkeypatch):
    # an n = 128 torus member: six buffers of 256 KiB, consecutive in one
    # private mapping from a 2-MiB boundary on
    made = _recorded_stack_buffers(monkeypatch)
    kernel = _kernel([hf.FlowRun([hf.EnsembleMember(_torus_state(128, 0.05))], 2e-3, 2.5e-4, 1e-3)], 2.5e-4)
    ((x, *rest),) = made
    assert kernel.x is x and x.shape == (2, 1, 128, 128)
    block = _mapping(x)
    assert isinstance(block, mmap.mmap)
    assert x.ctypes.data % 2**21 == 0
    for i, buffer in enumerate([x, *rest]):
        assert buffer.flags.c_contiguous and buffer.shape == x.shape and _mapping(buffer) is block
        assert buffer.ctypes.data == x.ctypes.data + i * x.nbytes


def test_smaller_stacks_keep_plain_arrays(monkeypatch, tmp_path, identity_cfg):
    # an n = 64 torus member (384 KiB in all) and every stack of the sphere ladder
    made = _recorded_stack_buffers(monkeypatch)
    _kernel([hf.FlowRun([hf.EnsembleMember(_torus_state(64, 0.05))], 2e-3, 2.5e-4, 1e-3)], 2.5e-4)
    hf.verify_identities(identity_cfg, 3, str(tmp_path / "ladder"), 1)
    assert len(made) > 1
    for buffers in made:
        assert len(buffers) == 6 and all(_mapping(b) is None and b.flags.c_contiguous for b in buffers)


@pytest.mark.parametrize("advice", ["huge pages", "without advice"])
def test_torus_member_at_n128_matches_the_reference(monkeypatch, advice):
    # the arena, and np.empty where the platform has no huge-page advice,
    # step bit for bit as the field-by-field reference
    made = _recorded_stack_buffers(monkeypatch)
    if advice == "without advice":
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
    mem = hf.EnsembleMember(_torus_state(128, 0.05), c=-1.0)
    (traj,) = hf.run_ensemble([hf.FlowRun([mem], 2e-3, 2.5e-4, 1e-3)])[0]
    _matches_reference(traj, mem, 2e-3, 2.5e-4, 1e-3)
    (buffers,) = made
    assert (_mapping(buffers[0]) is None) == (advice == "without advice" or not hasattr(mmap, "MADV_HUGEPAGE"))


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="no MADV_HUGEPAGE on this platform")
def test_a_stack_rebuilt_when_a_run_leaves_releases_its_old_mapping(monkeypatch):
    # two n = 128 torus runs share a stack; when the first ends, the other
    # moves to a stack of its own, and the first stack's mapping is gone
    blocks, make = [], hf.flow._stack_buffers

    def recording(shape, count):
        buffers = make(shape, count)
        blocks.append(weakref.ref(_mapping(buffers[0])))
        return buffers

    monkeypatch.setattr(hf.flow, "_stack_buffers", recording)
    runs = [hf.FlowRun([hf.EnsembleMember(_torus_state(128, 0.05), c=c)], t_end, 2.5e-4, 1e-3)
            for c, t_end in ((-1.0, 1e-3), (0.0, 2e-3))]
    for snap in hf.flow.snapshots(runs):
        if (snap.run, snap.k) == (1, 2):
            assert len(blocks) == 2 and blocks[0]() is None and blocks[1]() is not None
    assert len(blocks) == 2 and blocks[0]() is None and blocks[1]() is None


def test_lockstep_step_too_large_names_run_member_and_cfl_bound():
    # run 1 has a healthy member and one on the half-radius sphere, whose
    # CFL bound is a quarter of the unit sphere's; run 0 is healthy
    geom = hf.SphereGeometry(32)
    small = geom.with_phi(np.full(32, hf.SphereGeometry.round_phi(0.5)))
    dt = 0.5 * geom.cfl_bound()
    members = [hf.EnsembleMember(hf.FlowState(0.0, g, np.full(32, F0))) for g in (geom, small)]
    runs = [hf.FlowRun([hf.EnsembleMember(_sphere_cos(16))], 0.01, 1e-3, 0.01), hf.FlowRun(members, 10 * dt, dt, dt)]
    with pytest.raises(StepTooLargeError, match="member 1") as err:
        hf.run_ensemble(runs)
    assert (err.value.run, err.value.member, err.value.time) == (1, 1, 0.0)
    assert err.value.bound == hf.geometry.cfl_limit(geom.background_spacing, small.phi) == small.cfl_bound()


def test_step_too_large_names_the_lowest_failing_member():
    # both members of run 0 are on the half-radius sphere and fail the CFL
    # check at once; the error names the lower member index, the frozen one
    geom = hf.SphereGeometry(32)
    small = hf.FlowState(0.0, geom.with_phi(np.full(32, hf.SphereGeometry.round_phi(0.5))), np.full(32, F0))
    dt = 0.5 * geom.cfl_bound()
    members = [hf.EnsembleMember(small, evolve_metric=False), hf.EnsembleMember(small)]
    runs = [hf.FlowRun(members, 10 * dt, dt, dt), hf.FlowRun([hf.EnsembleMember(_sphere_cos(16))], 0.01, 1e-3, 0.01)]
    with pytest.raises(StepTooLargeError, match="member 0") as err:
        hf.run_ensemble(runs)
    assert (err.value.run, err.value.member, err.value.time) == (0, 0, 0.0)


@pytest.mark.parametrize(
    "make", [lambda: _sphere_cos(16), lambda: _torus_state(16, 0.05)], ids=["sphere", "torus"]
)
def test_cfl_boundary_is_the_exact_rule(make):
    # the kernel's per-member floor is a hair conservative; the exact rule
    # decides: a step at the threshold passes, the next float above it fails
    state = make()
    geom = state.geom
    bound = hf.geometry.cfl_limit(geom.background_spacing, geom.phi)
    at = bound * (1 + 1e-12)
    ((traj,),) = hf.run_ensemble([hf.FlowRun([hf.EnsembleMember(state)], at, at, at)])
    assert len(traj) == 2 and traj.dt == at
    above = np.nextafter(at, np.inf)
    with pytest.raises(StepTooLargeError) as err:
        hf.run_ensemble([hf.FlowRun([hf.EnsembleMember(state)], above, above, above)])
    assert (err.value.bound, err.value.time, err.value.member, err.value.dt) == (bound, 0.0, 0, above)


def test_snapshots_before_first_are_not_built():
    # the snapshots from `first` on are those of the full run, bit for bit;
    # the ones before it are stepped to and handed on with no state
    members = [hf.EnsembleMember(_sphere_cos(16)), hf.EnsembleMember(_sphere_cos(16), c=0.0)]
    (full,) = hf.run_ensemble([hf.FlowRun(members, 0.05, None, 0.01)])
    (cut,) = hf.run_ensemble([hf.FlowRun(members, 0.05, None, 0.01, first=3)])
    for whole, part in zip(full, cut):
        assert part.states[1:3] == [None, None]
        assert len(part) == len(whole) and part.dt == whole.dt
        for k in (0, 3, 4, 5):
            assert part[k].t == whole[k].t
            assert np.array_equal(part[k].f, whole[k].f) and np.array_equal(part[k].geom.phi, whole[k].geom.phi)
    for first in (-1, 1.5, True, "3"):
        with pytest.raises(ConstraintViolationError, match="first"):
            hf.run_ensemble([hf.FlowRun(members, 0.05, None, 0.01, first=first)])


def test_step_op_counts():
    # the numpy calls of one step, pinned per stack: static members step f
    # alone, and a stack of several runs scales the whole tail by its
    # stack-shaped step operands in one multiply
    members = [hf.EnsembleMember(_sphere_cos(32)), hf.EnsembleMember(_sphere_cos(32), c=0.0)]
    sphere = hf.FlowRun(members, 0.05, None, 0.01)
    frozen = hf.EnsembleMember(_sphere_cos(64), evolve_metric=False)
    stacks = {
        "flat torus": [_torus_run(16, 0.05)._replace(members=[hf.EnsembleMember(_torus_state(16, 0.0))])],
        "torus": [_torus_run(16, 0.05)],
        "sphere": [sphere],
        "sphere ladder": [sphere, sphere._replace(members=[hf.EnsembleMember(_sphere_cos(64))])],
        "sphere with a frozen member": [sphere, sphere._replace(members=[hf.EnsembleMember(_sphere_cos(64)), frozen])],
    }
    counts = {name: len(_kernel(runs, 1e-6).ops) for name, runs in stacks.items()}
    assert counts == {"flat torus": 16, "torus": 40, "sphere": 44, "sphere ladder": 44,
                      "sphere with a frozen member": 52}


def test_lockstep_checks_every_run_before_any_step(monkeypatch):
    record = record_kernel_steps(monkeypatch)
    geom = hf.SphereGeometry(32)
    late = hf.FlowRun([hf.EnsembleMember(hf.FlowState(0.0, geom, np.full(32, F0)))], 0.51, 1e-4, 1e-2)
    with pytest.raises(ConstraintViolationError, match="extinction") as err:
        hf.run_ensemble([hf.FlowRun([hf.EnsembleMember(_sphere_cos(16))], 0.01, 1e-3, 0.01), late])
    assert err.value.run == 1
    assert record == []


@pytest.mark.parametrize("t_end", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("state", [_sphere_cos(16), _torus_state(8, 0.05)], ids=["sphere", "torus"])
def test_non_finite_t_end_is_refused_before_any_step(monkeypatch, state, t_end):
    # a NaN t_end used to raise a raw ValueError from the output count, and
    # an infinite one on a torus a raw OverflowError
    record = record_kernel_steps(monkeypatch)
    with pytest.raises(ConstraintViolationError, match="t_end = .* must be finite"):
        hf.run(state, t_end, None, 0.01)
    good = hf.FlowRun([hf.EnsembleMember(state)], 0.01, None, 0.01)
    with pytest.raises(ConstraintViolationError, match="t_end = .* must be finite") as err:
        hf.run_ensemble([good, good._replace(t_end=t_end)])
    assert err.value.run == 1
    assert record == []


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_flow_state_refuses_a_non_finite_time(t):
    # a NaN time used to be accepted, and a run from it failed its member
    # check with "member 0 starts at t = nan, member 0 at t = nan"
    with pytest.raises(ConstraintViolationError, match="finite and nonnegative"):
        hf.FlowState(t, hf.SphereGeometry(16), np.full(16, F0))


def test_run_stops_at_its_last_snapshot_but_checks_t_end(monkeypatch):
    # the stopped run is the full one cut after snapshot `last`, bit for
    # bit; t_end is still checked against the extinction time
    member = hf.EnsembleMember(_sphere_cos(16))
    for dt in (1e-3, None):
        (full,), (cut,) = hf.run_ensemble([hf.FlowRun([member], 0.1, dt, 0.01), hf.FlowRun([member], 0.1, dt, 0.01, 3)])
        assert len(full) == 11 and len(cut) == 4
        for a, b in zip(full.states, cut.states):
            assert (a.t, a.geom.phi.tobytes(), a.f.tobytes()) == (b.t, b.geom.phi.tobytes(), b.f.tobytes())
    ((past,),) = hf.run_ensemble([hf.FlowRun([member], 0.05, 1e-3, 0.01, 9)])
    assert len(past) == 6
    record = record_kernel_steps(monkeypatch)
    round_state = hf.FlowState(0.0, hf.SphereGeometry(16), np.full(16, F0))
    with pytest.raises(ConstraintViolationError, match="extinction time 0.5"):
        hf.run_ensemble([hf.FlowRun([hf.EnsembleMember(round_state)], 0.51, 1e-3, 0.01, 2)])
    with pytest.raises(ConstraintViolationError, match="nonnegative"):
        hf.run_ensemble([hf.FlowRun([member], 0.1, 1e-3, 0.01, -1)])
    assert record == []


@pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("state", [_sphere_cos(16), _torus_state(8, 0.05)], ids=["sphere", "torus"])
def test_non_finite_c_is_refused_before_any_step(monkeypatch, state, c):
    # a NaN or infinite c used to take a step, then fail it with
    # PositivityLostError "min f = nan <= 0"
    record = record_kernel_steps(monkeypatch)
    with pytest.raises(ConstraintViolationError, match=r"^member 0: c = .* must be finite$"):
        hf.run(state, 0.02, 1e-3, 0.01, c=c)
    good = hf.EnsembleMember(state)
    with pytest.raises(ConstraintViolationError, match=r"^member 1: c = .* must be finite$") as err:
        hf.run_ensemble([hf.FlowRun([good], 0.02, 1e-3, 0.01),
                         hf.FlowRun([good, good._replace(c=c)], 0.02, 1e-3, 0.01)])
    assert err.value.run == 1
    assert record == []


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda state: hf.run(state, "0.02", 1e-3, 0.01), "t_end"),
        (lambda state: hf.run(state, 0.02, "1e-3", 0.01), "dt"),
        (lambda state: hf.run(state, 0.02, None, "0.01"), "dt_out"),
        (lambda state: hf.run(state, 0.02, 1e-3, 0.01, c=None), "member 0: c"),
        (lambda state: hf.run(state, 0.02, 1e-3, 0.01, c=True), "member 0: c"),
        (lambda state: hf.FlowState("0.1", state.geom, state.f), "time t"),
        (lambda state: hf.FlowState(True, state.geom, state.f), "time t"),
    ],
    ids=["string-t_end", "string-dt", "string-dt_out", "c-none", "c-bool", "string-time", "bool-time"],
)
@pytest.mark.parametrize("state", [_sphere_cos(16), _torus_state(8, 0.05)], ids=["sphere", "torus"])
def test_the_flow_refuses_an_argument_of_the_wrong_kind(monkeypatch, state, call, name):
    # the strings and None used to raise a raw TypeError, and c = True ran
    # as c = 1, with Trajectory.c = True and variant "general"
    record = record_kernel_steps(monkeypatch)
    with pytest.raises(ConstraintViolationError, match=f"^{name} = .* must be a real number$"):
        call(state)
    assert record == []


@pytest.mark.parametrize("last", [2.5, True, float("nan")], ids=["float", "bool", "nan"])
def test_last_must_be_a_nonnegative_int(monkeypatch, last):
    # 2.5 used to stop after snapshot 3, True after snapshot 1, and NaN was
    # ignored, returning every snapshot
    record = record_kernel_steps(monkeypatch)
    member = hf.EnsembleMember(_sphere_cos(16))
    with pytest.raises(ConstraintViolationError, match="must be a nonnegative snapshot index"):
        hf.run_ensemble([hf.FlowRun([member], 0.1, 1e-3, 0.01, last)])
    assert record == []
    ((cut,),) = hf.run_ensemble([hf.FlowRun([member], 0.1, 1e-3, 0.01, np.int64(2))])
    assert len(cut) == 3


def test_snapshots_hand_on_each_run_as_it_is_made():
    # every run's initial states first, then each snapshot in step order;
    # run_ensemble is this stream with every snapshot kept
    member = hf.EnsembleMember(_sphere_cos(16))
    runs = [hf.FlowRun([member], 0.03, 1e-3, 0.01), hf.FlowRun([member, member._replace(c=0.0)], 0.02, 5e-4, 0.01)]
    made = [(snap.run, snap.k, len(snap.states)) for snap in hf.flow.snapshots(runs)]
    assert made[:2] == [(0, 0, 1), (1, 0, 2)]
    assert sorted(made) == [(0, k, 1) for k in range(4)] + [(1, k, 2) for k in range(3)]
    assert [k for run, k, _ in made if run == 0] == [0, 1, 2, 3]
    grid = runs[0].grid
    assert [grid.time(k) for k in range(grid.count + 1)] == [0.0, 0.01, 0.02, 0.03]
    together = hf.run_ensemble(runs)
    for snap in hf.flow.snapshots(runs):
        for state, traj in zip(snap.states, together[snap.run]):
            assert (state.t, state.f.tobytes()) == (traj[snap.k].t, traj[snap.k].f.tobytes())
        assert snap.dt == together[snap.run][0].dt


def test_snapshot_window_reads_kept_snapshots_by_their_index():
    window = hf.flow.SnapshotWindow(3, hf.flow.OutputGrid(0.0, 0.01, 4))
    for k in range(5):
        window.append(k)
    assert len(window) == 5 and [window[k] for k in (2, 3, 4, -1, -3)] == [2, 3, 4, 4, 2]
    for k in (0, 1, 5, -4):
        with pytest.raises(LookupError):
            window[k]
    with pytest.raises(LookupError):
        list(window)


def test_trajectory_refuses_an_empty_list_of_states():
    # its grid and geom used to raise a raw IndexError; a window, which
    # starts empty, carries its run's grid and stays accepted
    with pytest.raises(ConstraintViolationError, match="at least one snapshot"):
        hf.Trajectory([], 1e-3, 1e-2, -1.0)
    grid = hf.flow.OutputGrid(0.0, 0.01, 4)
    assert hf.Trajectory(hf.flow.SnapshotWindow(3, grid), 1e-3, 1e-2, -1.0).grid == grid


def _flat_torus8():
    geom = hf.TorusGeometry(8, 2 * np.pi)
    x, _ = geom.coords()
    return hf.FlowState(0.0, geom, 0.5 + 0.2 * np.sin(x) * np.ones((1, 8)))


@pytest.mark.parametrize("dt", [None, 1e-3])
def test_run_whose_output_count_overflows_is_refused(dt):
    # int(floor(1e310)) used to escape as a raw OverflowError
    with pytest.raises(ConstraintViolationError, match="overflows a float"):
        hf.run(_flat_torus8(), 1e308, dt, 0.01)


def test_run_ensemble_refuses_a_plan_above_the_snapshot_limit_before_any_step(monkeypatch):
    # dt_out = 1e-300 used to plan 5e298 snapshots and run until killed
    def no_kernel(*args):
        raise AssertionError("a flow was stepped")

    monkeypatch.setattr(hf.flow, "_RK4Kernel", no_kernel)
    with pytest.raises(ConstraintViolationError, match="above the limit of 17179869184 bytes"):
        hf.run(_flat_torus8(), 0.05, None, 1e-300)
    # 2^24 snapshots of 2 fields of 64 nodes: 2^34 bytes, the limit itself
    member = hf.EnsembleMember(_flat_torus8())
    with pytest.raises(ConstraintViolationError, match="above the limit"):
        hf.run_ensemble([hf.FlowRun([member], 2**24 * 0.01, None, 0.01)])


def test_snapshot_limit_lives_in_flow():
    from harnackflow import config, geometry

    assert config.MAX_SNAPSHOT_BYTES is hf.flow.MAX_SNAPSHOT_BYTES == 2**34
    assert 16 * geometry.MAX_NODES == hf.flow.MAX_SNAPSHOT_BYTES  # one snapshot of the largest grid


def test_step_that_does_not_advance_the_time_is_refused(monkeypatch):
    # dt = 1e-300 divides dt_out into 1e298 steps, and 0.02 + 1e-300 is 0.02
    monkeypatch.setattr(hf.flow, "_RK4Kernel", None)
    with pytest.raises(ConstraintViolationError, match="does not advance"):
        hf.run(_flat_torus8(), 0.02, 1e-300, 0.01)
