import re

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


def _check_members_match_single_runs(members, t_end, dt, dt_out):
    trajs = hf.run_ensemble(members, t_end, dt, dt_out)
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
        hf.run_ensemble([member, odd], 0.01, 1e-3, 0.01)


def test_ensemble_rejects_mismatched_spacing():
    a, b = hf.TorusGeometry(16, 2 * np.pi), hf.TorusGeometry(16, np.pi)
    members = [hf.EnsembleMember(hf.FlowState(0.0, g, np.full((16, 16), F0)), c=0.0) for g in (a, b)]
    with pytest.raises(GridMismatchError, match="spacing"):
        hf.run_ensemble(members, 0.01, 1e-3, 0.01)


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
        hf.run_ensemble(members, 10 * dt, dt, dt)
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
        hf.run_ensemble([healthy, tiny], 4 * dt, dt, dt)
    assert err.value.member == 1
    assert err.value.time == dt
    # alone, the member fails the same way without a member prefix
    with pytest.raises(PositivityLostError) as alone:
        hf.run(tiny.initial, 4 * dt, dt, dt, c=tiny.c)
    assert alone.value.member == 0
    assert str(alone.value).startswith("min f = 0 <= 0")
