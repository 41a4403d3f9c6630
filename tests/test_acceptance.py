"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are fixed here and match the assertion constants the scenario
runner uses.  Run with ``pytest tests/test_acceptance.py -v`` (add ``-s``
to see the per-criterion lines inline).
"""

import numpy as np
import pytest

import harnackflow as hf
from conftest import SCENARIO_DIR
from helpers import enumerate_action

R0, F0 = 1.0, 0.5


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def _interior_ks(traj, t0):
    return [k for k in range(1, len(traj) - 1) if traj[k].t >= t0 - 1e-12]


def _t0(traj):
    t_end = traj.times[-1]
    return traj.dt_out * (int(0.05 * t_end / traj.dt_out) + 1)


# -- 1. closed-form shrinking sphere ------------------------------------------


def test_criterion_01_closed_form_sphere(sphere_constant_traj):
    traj = sphere_constant_traj
    worst_r = worst_f = 0.0
    for s in traj.states:
        rho = R0**2 - 2.0 * s.t
        worst_r = max(worst_r, float(np.max(np.abs(s.geom.scalar_curvature() - 2 / rho)) * rho / 2))
        worst_f = max(worst_f, float(np.max(np.abs(s.f - F0 * R0**2 / rho)) * rho / (F0 * R0**2)))
    assert worst_r <= 1e-3 and worst_f <= 1e-3
    assert traj.elapsed < 5.0
    report(
        "criterion-01 closed-form sphere",
        f"rel err R = {worst_r:.2e}, rel err f = {worst_f:.2e}, runtime = {traj.elapsed:.2f} s",
    )


# -- 2. nonpositivity of the H quantity ---------------------------------------


def test_criterion_02_H_nonpositive(sphere_constant_traj, sphere_cosine_traj):
    worst = -np.inf
    for traj in (sphere_constant_traj, sphere_cosine_traj):
        assert float(np.min(traj[0].geom.scalar_curvature())) >= 0.0
        t0 = _t0(traj)
        for k in _interior_ks(traj, t0):
            worst = max(worst, float(np.max(hf.quantity_H(traj[k]))))
    assert worst <= 1e-3
    report("criterion-02 sup H <= 0", f"worst sup H = {worst:.4g}")


# -- 3. monotonicity of max tP -------------------------------------------------


def test_criterion_03_tP_monotone(sphere_constant_traj, sphere_cosine_traj):
    worst = -np.inf
    for traj in (sphere_constant_traj, sphere_cosine_traj):
        t0 = _t0(traj)
        for d in (0.0, 1.0, 2.0):
            sups = [float(np.max(hf.quantity_tP(traj[k], d))) for k in _interior_ks(traj, t0)]
            worst = max(worst, float(np.max(np.diff(sups))))
    assert worst <= 1e-3
    report("criterion-03 max tP non-increasing", f"worst per-step increase = {worst:.4g}")


# -- 4. trace quantity ----------------------------------------------------------


def test_criterion_04_trace_harnack(sphere_constant_traj, sphere_cosine_traj):
    worst = np.inf
    for traj in (sphere_constant_traj, sphere_cosine_traj):
        t0 = _t0(traj)
        for k in _interior_ks(traj, t0):
            for vec in ("zero", "grad_u", "grad_v"):
                worst = min(worst, float(np.min(hf.trace_harnack(traj, k, vec))))
    assert worst >= -1e-3
    report("criterion-04 trace quantity >= 0", f"worst grid min = {worst:.4g}")


# -- 5. surface log-Harnack bounds ----------------------------------------------


def test_criterion_05_surface_lyh(sphere_constant_traj, sphere_cosine_traj):
    worst_curv = worst_heat = np.inf
    for traj in (sphere_constant_traj, sphere_cosine_traj):
        t0 = _t0(traj)
        for k in _interior_ks(traj, t0):
            state = traj[k]
            assert float(np.min(state.geom.scalar_curvature())) > 0.0
            worst_curv = min(worst_curv, float(np.min(hf.surface_lyh(state, "curvature"))))
            worst_heat = min(worst_heat, float(np.min(hf.surface_lyh(state, "heat"))))
    assert worst_curv >= -1e-3 and worst_heat >= -1e-3
    report(
        "criterion-05 surface log-Harnack",
        f"min curvature form = {worst_curv:.4g}, min heat form = {worst_heat:.4g}",
    )


# -- 6. entropies ----------------------------------------------------------------


def test_criterion_06_entropies(sphere_constant_traj, sphere_cosine_traj, torus_potential_traj):
    worst_sign = -np.inf
    worst_slope = -np.inf
    for traj in (sphere_constant_traj, sphere_cosine_traj, torus_potential_traj):
        t0 = _t0(traj)
        ks = _interior_ks(traj, t0)
        times = np.array([traj[k].t for k in ks])
        f_vals = np.array([hf.entropy_F(traj[k]) for k in ks])
        w_vals = np.array([hf.entropy_W(traj[k], 1.0) for k in ks])
        worst_sign = max(worst_sign, float(np.max(f_vals / np.max(np.abs(f_vals)))))
        worst_slope = max(worst_slope, float(np.max(np.diff(f_vals) / np.diff(times))))
        worst_slope = max(worst_slope, float(np.max(np.diff(w_vals) / np.diff(times))))
    assert worst_sign <= 1e-6
    assert worst_slope <= 1e-3
    report(
        "criterion-06 entropies",
        f"max F/|F| = {worst_sign:.2e}, worst slope = {worst_slope:.4g}",
    )


# -- 7. mass conservation ---------------------------------------------------------


def test_criterion_07_mass(sphere_constant_traj, sphere_cosine_traj, torus_potential_traj):
    worst = 0.0
    for traj in (sphere_constant_traj, sphere_cosine_traj, torus_potential_traj):
        m = np.array([hf.mass(s) for s in traj.states])
        span = traj.times[-1] - traj.times[0]
        worst = max(worst, float((m.max() - m.min()) / abs(m[0]) / span))
    assert worst <= 1e-8
    report("criterion-07 mass conservation", f"worst relative drift rate = {worst:.2e}")


# -- 8. gradient bound -------------------------------------------------------------


def test_criterion_08_gradient_bound(
    torus_plain_traj, torus_bump_static_traj, torus_bump_ricci_traj
):
    worst = -np.inf
    for traj in (torus_plain_traj, torus_bump_static_traj, torus_bump_ricci_traj):
        t0 = _t0(traj)
        for k in _interior_ks(traj, t0):
            state = traj[k]
            worst = max(worst, float(np.max(hf.gradient_quantity_f_form(state))))
            worst = max(worst, float(np.max(hf.gradient_quantity(state))))
    assert worst <= 1e-3
    report("criterion-08 gradient bound", f"worst sup over flat/static/coupled = {worst:.4g}")


# -- 9. identity residuals ----------------------------------------------------------


def test_criterion_09_identities(identity_study):
    study = identity_study
    assert [lvl.n for lvl in study.levels] == [64, 128, 256]
    failures = [a.line() for a in study.assertions if not a.ok]
    assert not failures, "\n".join(failures)
    worst_ratio = min(min(r) for r in study.ratios.values())
    worst_agree = max(study.agreement.values())
    assert worst_ratio >= 3.0
    assert worst_agree <= 1e-12
    for family in ("H", "P"):
        assert study.fuzz_max[family] <= study.fuzz_bound[family]
    assert study.elapsed <= 60.0
    report(
        "criterion-09 identity residuals",
        f"worst ratio = {worst_ratio:.2f}, preset agreement = {worst_agree:.2e}, "
        f"fuzz H {study.fuzz_max['H']:.3g} <= {study.fuzz_bound['H']:.3g}, "
        f"fuzz P {study.fuzz_max['P']:.3g} <= {study.fuzz_bound['P']:.3g}, "
        f"runtime = {study.elapsed:.1f} s",
    )


# -- 10. integrated inequality --------------------------------------------------------


def test_criterion_10_integrated_inequality(
    sphere_constant_traj, sphere_cosine_traj, torus_plain_traj
):
    rng = np.random.default_rng(2024)
    worst = np.inf
    for traj in (sphere_constant_traj, sphere_cosine_traj, torus_plain_traj):
        pairs = hf.random_pairs(traj, 20, rng, t_min=_t0(traj))
        for p1, p2 in pairs:
            worst = min(worst, hf.check_integrated_harnack(traj, p1, p2)[0])
    assert worst >= -1e-2

    # DP equals exhaustive enumeration on small instances
    geom = hf.SphereGeometry(24)
    state = hf.FlowState(0.0, geom.with_phi(0.1 * geom.cos_theta), 0.5 + 0.2 * geom.cos_theta)
    small = hf.run(state, 0.04, 1e-3, 0.01, c=-1.0)  # 5 snapshots x 24 nodes
    for x1, x2 in ((3, 6), (12, 12)):
        gamma, _ = hf.min_action(small, (x1, small.times[0]), (x2, small.times[4]), window=2)
        assert gamma == enumerate_action(small, (x1, small.times[0]), (x2, small.times[4]), 2)

    # constant-f sphere value against the log closed form
    t1, t2 = 0.05, 0.2
    node = sphere_constant_traj.geom.n // 2
    gamma, _ = hf.min_action(sphere_constant_traj, (node, t1), (node, t2))
    expected = np.log((R0**2 - 2 * t1) / (R0**2 - 2 * t2))
    assert abs(gamma - expected) <= 1e-2 * expected
    report(
        "criterion-10 integrated inequality",
        f"worst margin = {worst:.4g}, DP = enumeration, gamma rel err = "
        f"{abs(gamma - expected) / expected:.2e}",
    )


# -- 11. determinism and integrator order ----------------------------------------------


def test_criterion_11_determinism_and_order(tmp_path):
    text = (SCENARIO_DIR / "torus_plain.cfg").read_text(encoding="utf-8")
    cfg = hf.parse_config(text, name="torus_plain")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = hf.run_scenario(cfg, out_flag=str(out1))
    r2 = hf.run_scenario(cfg, out_flag=str(out2))
    assert r1.passed and r2.passed
    for name in ("monitors.csv", "action.csv", "trajectory.bin", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    n, r0 = 32, 0.8
    geom = hf.SphereGeometry(n, np.full(n, hf.SphereGeometry.round_phi(r0)))
    state = hf.FlowState(0.0, geom, np.full(n, F0))
    t_end = 0.7 * r0**2 / 2
    dt = 3.2e-4

    def final(dt_):
        return hf.run(state, t_end, dt_, t_end, c=-1.0)[-1].f

    ref = final(dt / 4)
    e1 = float(np.max(np.abs(final(dt) - ref)))
    e2 = float(np.max(np.abs(final(dt / 2) - ref)))
    ratio = e1 / e2
    assert 10.0 < ratio < 24.0
    report(
        "criterion-11 determinism and order",
        f"byte-identical outputs, step-halving error ratio = {ratio:.1f}",
    )
