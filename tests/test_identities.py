import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import harnackflow as hf
from harnackflow import identities as idn
from harnackflow.errors import (
    BlowupError,
    ConstraintViolationError,
    DegenerateParamsError,
    IndexAtBoundaryError,
    NonPositiveCurvatureError,
    NonPositiveTimeError,
    VariantMismatchError,
)
from helpers import record_kernel_steps

R0, F0 = 1.0, 0.5


@pytest.fixture(scope="module")
def constant_sphere_fine():
    """Constant-f sphere trajectory with small output spacing (N = 128)."""
    n = 128
    geom = hf.SphereGeometry(n, np.full(n, hf.SphereGeometry.round_phi(R0)))
    state = hf.FlowState(0.0, geom, np.full(n, F0))
    return hf.run(state, 0.21, 2e-5, 5e-4, c=-1.0)


def closed_forms(t, r0=R0, f0=F0):
    rho = r0**2 - 2.0 * t
    return 2.0 / rho, -np.log(f0 * r0**2 / rho)  # R(t), u(t)


def closed_forms_v(t):
    r, u = closed_forms(t)
    return r, u - np.log(4.0 * np.pi * t)  # v = u - (n/2) ln(4 pi t)


def hand_general_H(t, p, forms=closed_forms):
    """Closed-form H(t) on the constant-f shrinking sphere (n = 2), on u or, with closed_forms_v, on v."""
    r, u = forms(t)
    return p.a * r - p.b * u / t - p.d * 2.0 / t


def hand_general_H_rhs(t, p, forms=closed_forms):
    """Right side of the general identity with all gradients zero."""
    r, u = forms(t)
    q = 2.0 * p.alpha - 2.0 * p.beta
    loa = (q / p.alpha) * p.lam if p.lam != 0.0 else 0.0
    sigma = (p.alpha / q) * (r / 2.0) + p.lam / (2.0 * t)
    h = hand_general_H(t, p, forms)
    return (
        -q * 2.0 * sigma**2
        - loa / t * h
        + q * 2.0 * p.lam**2 / (4.0 * t * t)
        + (1.0 - loa) * p.b * u / (t * t)
        + (1.0 - loa) * p.d * 2.0 / (t * t)
        + (2.0 * p.a + p.alpha**2 / q) * (r * r / 2.0)
        + (p.alpha * p.lam + p.a * loa - p.b * p.c) * r / t
    )


def hand_general_P_rhs(t, p):
    """The H right side on v with beta := 1, plus b n/(2t^2) from v's source -n/(2t)."""
    return hand_general_H_rhs(t, replace(p, beta=1.0), closed_forms_v) + p.b * 2.0 / (2.0 * t * t)


def test_general_H_matches_hand_assembly(constant_sphere_fine):
    # Independent oracle: every term evaluated from the scalar closed forms.
    traj = constant_sphere_fine
    k = int(round(0.2 / traj.dt_out))
    t = traj[k].t
    dt = traj.dt_out
    for p in (idn.COR_H_PRESET, hf.HarnackParams(1.5, -0.5, 1.0, 0.7, -1.0, -0.4, 0.9)):
        lhs = (hand_general_H(t + dt, p) - hand_general_H(t - dt, p)) / (2 * dt)
        hand_residual = abs(lhs - hand_general_H_rhs(t, p))
        report = idn.residual_general_H(traj, k, p)
        assert abs(report.max_norm - hand_residual) <= 1e-7 * (1.0 + hand_residual)


def test_general_P_matches_hand_assembly(constant_sphere_fine):
    # the same oracle on v; the second tuple's beta = -0.5 must be ignored
    traj = constant_sphere_fine
    k = int(round(0.2 / traj.dt_out))
    t = traj[k].t
    dt = traj.dt_out
    for p in (idn.COR_P_PRESET, hf.HarnackParams(1.5, -0.5, 1.0, 0.7, -1.0, -0.4, 0.9)):
        lhs = (hand_general_H(t + dt, p, closed_forms_v) - hand_general_H(t - dt, p, closed_forms_v)) / (2 * dt)
        hand_residual = abs(lhs - hand_general_P_rhs(t, p))
        report = idn.residual_general_P(traj, k, p)
        assert abs(report.max_norm - hand_residual) <= 1e-7 * (1.0 + hand_residual)


def test_constant_sphere_preset_residual_small(constant_sphere_fine):
    traj = constant_sphere_fine
    k = int(round(0.2 / traj.dt_out))
    assert idn.residual_general_H(traj, k, idn.COR_H_PRESET).max_norm <= 1e-3
    assert idn.residual_general_P(traj, k, idn.COR_P_PRESET).max_norm <= 1e-3
    assert idn.residual_tP(traj, k).max_norm <= 1e-3


def test_surface_fR_hand_closed_form(constant_sphere_fine):
    # f := R on the round sphere: the quantity is -R and the right side is
    # -R^2, so the residual is R^2 minus the centered difference of R.
    traj = constant_sphere_fine
    k = int(round(0.2 / traj.dt_out))
    t, dt = traj[k].t, traj.dt_out
    r_plus, _ = closed_forms(t + dt)
    r_minus, _ = closed_forms(t - dt)
    r, _ = closed_forms(t)
    hand_residual = abs(-(r_plus - r_minus) / (2 * dt) + r * r)
    _, fr = idn.residual_surface(traj, k)
    assert abs(fr.max_norm - hand_residual) <= 1e-7 * (1.0 + hand_residual)


def test_grad_residual_constant_field_closed_form():
    # Constant f on the static flat torus: u is constant, the quantity is
    # -u/t, and the only residual source is the centered difference of 1/t:
    # residual = u * dt_out^2 / (t^2 (t^2 - dt_out^2)), vanishing as
    # dt_out -> 0.
    geom = hf.TorusGeometry(16, 2 * np.pi)
    c = 0.4
    state = hf.FlowState(0.0, geom, np.full((16, 16), c))
    traj = hf.run(state, 0.3, 0.0025, 0.05, c=0.0, evolve_metric=False)
    k = 3
    t, dt = traj[k].t, traj.dt_out
    u = -np.log(c)
    expected = u * dt**2 / (t**2 * (t**2 - dt**2))
    rep = idn.residual_grad(traj, k)
    assert abs(rep.max_norm - expected) <= 1e-10 * (1.0 + expected)


def test_constant_curvature_hessian_square():
    # On the round sphere with constant u, the Hessian-square term reduces
    # to |(R/2) g|^2 = R^2/2.
    n = 64
    geom = hf.SphereGeometry(n, np.full(n, 0.5 * np.log(0.8)))
    r = geom.scalar_curvature()
    dev = geom.hessian_deviation_sq(np.zeros(n), r / 2.0)
    assert np.allclose(dev, r**2 / 2.0, rtol=1e-12, atol=0)


# -- preset agreement ---------------------------------------------------------


def test_preset_agreement(coarse_sphere_pair):
    pot, heat = coarse_sphere_pair
    k = 5
    assert idn.preset_agreement_H(pot, k) <= 1e-12
    assert idn.preset_agreement_P(pot, k) <= 1e-12
    assert idn.preset_agreement_grad(heat, k) <= 1e-12


def test_cor_H_report_equals_general_at_preset(coarse_sphere_pair):
    pot, _ = coarse_sphere_pair
    k = 5
    a = idn.residual_general_H(pot, k, idn.COR_H_PRESET)
    b = idn.residual_cor_H(pot, k)
    assert abs(a.max_norm - b.max_norm) <= 1e-12


def test_preset_reports_refuse_unknown_names_before_any_residual(coarse_sphere_pair):
    pot, _ = coarse_sphere_pair
    # snapshot 0 is not interior: any residual evaluated would raise IndexAtBoundaryError
    for want, names in (({"general_h", "cor_H"}, "'general_h'"), ({"nonsense"}, "'nonsense'")):
        with pytest.raises(ConstraintViolationError, match=names):
            idn.preset_reports({pot.c: pot}, 0, want)
    # a known preset whose c has no trajectory is still left out
    assert idn.preset_reports({pot.c: pot}, 5, {"grad"}) == []


def test_tP_residual_independent_of_d(coarse_sphere_pair):
    pot, _ = coarse_sphere_pair
    k = 5
    norms = [idn.residual_tP(pot, k, d=d).max_norm for d in (0.0, 1.0, 2.0)]
    assert max(norms) - min(norms) <= 1e-9 * (1.0 + max(norms))


# -- one field formula and one report path --------------------------------------


@pytest.mark.parametrize("name", ["sphere_cosine_traj", "torus_bump_ricci_traj", "torus_potential_traj"])
def test_monitored_quantities_are_the_general_fields_at_their_presets(name, request):
    # the monitors and the identities evaluate one formula, bit for bit
    traj = request.getfixturevalue(name)
    in_unit_interval = 0
    for state in traj.states[1:]:
        assert hf.quantity_H(state).tobytes() == idn.general_H_field(state, idn.COR_H_PRESET).tobytes()
        for d in (0.0, 1.0, 2.0):
            preset = replace(idn.COR_P_PRESET, d=d)
            assert hf.quantity_P(state, d).tobytes() == idn.general_P_field(state, preset).tobytes()
        if 0.0 < np.min(state.f) and np.max(state.f) < 1.0:  # the range gradient_quantity accepts
            in_unit_interval += 1
            assert hf.gradient_quantity(state).tobytes() == idn.general_H_field(state, idn.GRAD_PRESET).tobytes()
    assert in_unit_interval >= 10


SMALL_LADDER = """
[geometry]
kind = rot_sphere
n = 32
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
"""


def _recorded_drive(drive, runs, kept):
    """``runner._drive`` recording the runs it is given, and by run each stage it makes."""

    def recorded(flow_runs, flow_names, stages):
        def recording(stage):
            return stage._replace(make=lambda run: kept.setdefault(stage.run, stage.make(run)))

        runs.extend(flow_runs)
        return drive(flow_runs, flow_names, [recording(stage) for stage in stages])

    return recorded


def test_ladder_runs_each_surface_form_once_on_its_own_trajectory(tmp_path, monkeypatch):
    # one residual_surface call per level: the general-f form on the
    # scenario's trajectory, the f := R form on the round companion
    from harnackflow import runner

    runs, kept, calls = [], {}, []
    drive, residual_surface = runner._drive, idn.residual_surface

    def counted(*args, **kwargs):
        calls.append(args)
        return residual_surface(*args, **kwargs)

    monkeypatch.setattr(runner, "_drive", _recorded_drive(drive, runs, kept))
    monkeypatch.setattr(idn, "residual_surface", counted)
    cfg = hf.parse_config(SMALL_LADDER, name="ladder")
    study = hf.verify_identities(cfg, levels=2, out_flag=str(tmp_path))
    flows = [kept[run].trajs for run in sorted(kept)]
    assert study.passed
    assert len(calls) == 2
    assert len(flows) == len(study.levels)
    for level, run, level_flows in zip(study.levels, runs, flows):
        scenario, companion = level_flows[0], level_flows[-1]
        assert scenario.c == -1.0 and scenario.initial_id == "cos_theta"
        first = run.members[-1].initial  # the companion's initial state
        assert np.ptp(first.f) == 0.0 and np.ptp(first.geom.phi) == 0.0  # round, constant heat
        k = int(np.flatnonzero(scenario.times == level.t_check)[0])
        rows = {r.identity: r for r in level.reports}
        assert rows["surface_general"] == residual_surface(scenario, k)[0]
        assert rows["surface_fR"] == residual_surface(companion, k)[1]


# -- where the ladder's flows stop ---------------------------------------------

STOP_SPHERE = SMALL_LADDER.replace("n = 32", "n = 16") + "fuzz_count = 3\n"


def _stop_torus():
    from conftest import SCENARIO_DIR

    text = (SCENARIO_DIR / "torus_bump_ricci.cfg").read_text(encoding="utf-8")
    return text.replace("n = 64", "n = 16") + "\n[identities]\nfuzz_count = 3\n"


@pytest.mark.parametrize(
    "text",
    [STOP_SPHERE, STOP_SPHERE.replace("dt = 1e-3", "dt = auto"), _stop_torus()],
    ids=["sphere", "sphere-dt-auto", "torus"],
)
def test_ladder_flows_stop_after_the_last_snapshot_they_read(text, tmp_path, monkeypatch):
    # each level's flows end at snapshot k + 1 of its check index k, the
    # calibration at kf + 1, and keep snapshots k - 1, k and k + 1 alone;
    # longer flows leave every report byte for byte
    from harnackflow import runner

    snapshots, drive = runner.snapshots, runner._drive
    stops, stages = {}, {}

    def recorded(snap):
        stops[snap.run] = snap.k
        return snap

    def recorded_snapshots(runs):
        # planned at the call, as snapshots plans them: the driver then empties runs
        return map(recorded, snapshots(runs))

    def longer(runs):
        # the level runs to t_end; the calibration, which has no configured
        # t_end, two snapshots further
        return snapshots([
            run._replace(last=None) if run.last is not None else run._replace(t_end=run.t_end + 2 * run.dt_out)
            for run in runs
        ])

    cfg = hf.parse_config(text, name="ladder")
    monkeypatch.setattr(runner, "snapshots", recorded_snapshots)
    monkeypatch.setattr(runner, "_drive", _recorded_drive(drive, [], stages))
    hf.verify_identities(cfg, levels=2, out_flag=str(tmp_path / "short"), seed=7)
    kept = [{tuple(traj.times) for traj in stages[run].trajs} for run in sorted(stages)]
    monkeypatch.setattr(runner, "snapshots", longer)
    monkeypatch.setattr(runner, "_drive", drive)
    study = hf.verify_identities(cfg, levels=2, out_flag=str(tmp_path / "long"), seed=7)

    *level_kept, fuzz_kept = kept
    assert len(level_kept) == len(study.levels) == 2
    for run, (level, times) in enumerate(zip(study.levels, level_kept)):
        k = int(round(level.t_check / level.dt_out))
        assert stops[run] == k + 1
        assert times == {tuple((k + j) * level.dt_out for j in (-1, 0, 1))}
    kf = runner._FUZZ_CHECK
    assert stops[len(level_kept)] == kf + 1
    assert fuzz_kept == {tuple((kf + j) * runner._FUZZ_DT_OUT for j in (-1, 0, 1))}
    for name in ("identities.csv", "identity_summary.txt"):
        assert (tmp_path / "short" / name).read_bytes() == (tmp_path / "long" / name).read_bytes()


# -- which failure the ladder reports -------------------------------------------
# levels N = 16 and 32, then the fuzz calibration; the residuals are evaluated
# in the order level 0, fuzz, level 1, after every flow


def _failing_ladder(tmp_path, monkeypatch, residuals_at=(), fuzz=False, flow_of_run=None):
    """The FAIL line of the ladder on STOP_SPHERE, and the levels whose residuals and the fuzz it evaluated."""
    from harnackflow import runner

    evaluated = []
    preset_reports, fuzz_residuals, step = idn.preset_reports, idn.fuzz_residuals, hf.flow._RK4Kernel.step

    def reports(trajs, k, *args, **kwargs):
        n = trajs[-1.0][k].geom.n
        evaluated.append(n)
        if n in residuals_at:
            raise NonPositiveCurvatureError(f"injected at N = {n}")
        return preset_reports(trajs, k, *args, **kwargs)

    def fuzzed(*args, **kwargs):
        evaluated.append("fuzz")
        if fuzz:
            raise BlowupError("injected in the fuzz")
        return fuzz_residuals(*args, **kwargs)

    def stepped(self):
        for pos, run in enumerate(self.runs):
            if run.index == flow_of_run and self.t[pos] >= 0.02:
                raise run.tag(BlowupError("injected in the flow"), float(self.t[pos]))
        step(self)

    monkeypatch.setattr(idn, "preset_reports", reports)
    monkeypatch.setattr(idn, "fuzz_residuals", fuzzed)
    monkeypatch.setattr(hf.flow._RK4Kernel, "step", stepped)
    study = runner.verify_identities(hf.parse_config(STOP_SPHERE, name="ladder"), levels=2, out_flag=str(tmp_path))
    assert (tmp_path / "identity_summary.txt").read_text() == study.failure + "\n"
    assert not (tmp_path / "identities.csv").exists()
    return study.failure, evaluated


def test_a_flow_failure_beats_an_earlier_residual_failure(tmp_path, monkeypatch):
    failure, evaluated = _failing_ladder(tmp_path, monkeypatch, residuals_at=(16,), flow_of_run=1)
    assert failure.startswith("FAIL flow (level 1, N = 32): BlowupError at t = 0.02")
    assert failure.endswith(": injected in the flow")
    assert evaluated == []


def test_the_fuzz_fails_before_the_next_level(tmp_path, monkeypatch):
    failure, evaluated = _failing_ladder(tmp_path, monkeypatch, residuals_at=(32,), fuzz=True)
    assert failure == "FAIL fuzz (level 0, N = 16): BlowupError: injected in the fuzz"
    assert evaluated == [16, "fuzz"]


def test_a_level_0_failure_evaluates_no_later_level(tmp_path, monkeypatch):
    failure, evaluated = _failing_ladder(tmp_path, monkeypatch, residuals_at=(16, 32), fuzz=True)
    assert failure == "FAIL residuals (level 0, N = 16): NonPositiveCurvatureError: injected at N = 16"
    assert evaluated == [16]


# -- degenerate tuples and variant checks -------------------------------------


def test_degenerate_params_rejected():
    with pytest.raises(DegenerateParamsError):
        hf.HarnackParams(1.0, 1.0, 0.0, 0.0, -1.0, 0.0, 0.5).validate_h()
    with pytest.raises(DegenerateParamsError):
        hf.HarnackParams(0.0, -1.0, 0.0, 0.0, -1.0, 0.0, 1.0).validate_h()
    with pytest.raises(DegenerateParamsError):
        hf.HarnackParams(1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0).validate_p()
    # the gradient preset (alpha = 0 with lambda = 0) is fine
    idn.GRAD_PRESET.validate_h()


def test_variant_mismatch(coarse_sphere_pair):
    pot, heat = coarse_sphere_pair
    with pytest.raises(VariantMismatchError):
        idn.residual_grad(pot, 5)
    with pytest.raises(VariantMismatchError):
        idn.residual_general_H(heat, 5, idn.COR_H_PRESET)


def test_boundary_snapshot_rejected(coarse_sphere_pair):
    pot, heat = coarse_sphere_pair
    with pytest.raises(IndexAtBoundaryError):
        idn.residual_cor_H(pot, 0)
    with pytest.raises(IndexAtBoundaryError):
        idn.residual_cor_H(pot, len(pot) - 1)
    # snapshot 1 differences snapshot 0 at t = 0, where the 1/t terms divide by zero
    assert pot[0].t == 0.0
    for residual, traj in ((idn.residual_cor_H, pot), (idn.residual_surface, pot), (idn.residual_grad, heat)):
        with pytest.raises(NonPositiveTimeError):
            residual(traj, 1)


def test_surface_requires_positive_curvature(torus_potential_traj):
    # flat torus: R = 0 everywhere, the log-curvature chain is undefined
    with pytest.raises(NonPositiveCurvatureError):
        idn.residual_surface(torus_potential_traj, 5)


# -- fuzz ----------------------------------------------------------------------


def test_random_params_respect_constraints():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = idn.random_params(rng, "H", -1.0)
        p.validate_h()
        assert p.c == -1.0
        q = idn.random_params(rng, "P", -1.0)
        q.validate_p()


def test_random_params_refuse_an_unknown_family_before_drawing():
    class NoDraws:
        def random(self):
            raise AssertionError("a tuple was drawn")

    with pytest.raises(ConstraintViolationError, match="'Q'"):
        idn.random_params(NoDraws(), "Q", -1.0)


def test_fuzz_residuals_bounded_on_coarse_sphere(coarse_sphere_pair):
    pot, _ = coarse_sphere_pair
    rng = np.random.default_rng(42)
    reports = idn.fuzz_residuals(pot, 5, 10, rng, "H")
    assert len(reports) == 10
    assert all(np.isfinite(r.max_norm) for r in reports)


def _fuzz_flow():
    """The fuzz calibration flow of the ladder's level 0, N = 64, and its check index."""
    from harnackflow import runner

    ((traj,),) = hf.run_ensemble([runner._fuzz_run(64)])
    return traj, runner._FUZZ_CHECK


def _small_torus():
    """A curved 16 x 16 torus under the potential flow, five snapshots."""
    geom = hf.TorusGeometry(16, 2 * np.pi)
    x, y = geom.coords()
    state = hf.FlowState(0.0, geom.with_phi(0.05 * np.sin(x) * np.sin(y)), 0.5 + 0.2 * np.sin(x) * np.cos(y))
    return hf.run(state, 0.05, 0.0125 / 4, 0.0125, c=-1.0), 2


@pytest.mark.parametrize("make, count", [(_fuzz_flow, 150), (_small_torus, 40)], ids=["sphere-64", "torus-16"])
@pytest.mark.parametrize("family", ["H", "P"])
def test_fuzz_batches_equal_one_residual_per_tuple(make, count, family):
    # the count spans three batches on either grid; every report, its
    # tuple and both norms, is the one residual of its tuple alone
    traj, k = make()
    assert count > 2 * idn.FUZZ_BATCH_NODES // traj[k].geom.node_count
    rng = np.random.default_rng(11)
    single = idn.residual_general_H if family == "H" else idn.residual_general_P
    want = [single(traj, k, idn.random_params(rng, family, traj.c)) for _ in range(count)]
    got = idn.fuzz_residuals(traj, k, count, np.random.default_rng(11), family)
    assert got == want  # each report's tuple, time, grid and both norms


def test_fuzz_memory_stays_flat_in_count():
    # batches are capped by nodes: 1,000 tuples at n = 64 peak at the
    # reports plus one batch's temporaries
    traj, k = _fuzz_flow()
    idn.fuzz_residuals(traj, k, 2, np.random.default_rng(0), "H")  # caches made once
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reports = idn.fuzz_residuals(traj, k, 1000, np.random.default_rng(0), "H")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(reports) == 1000
    assert peak < 2**20


@pytest.fixture(scope="module")
def ring16_traj():
    geom = hf.SphereGeometry(16)
    state = hf.FlowState(0.0, geom.with_phi(0.1 * geom.cos_theta), 0.5 + 0.2 * geom.cos_theta)
    return hf.run(state, 0.04, 1e-3, 0.01)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda traj: idn.fuzz_residuals(traj, 2, -1, np.random.default_rng(0)), "count"),
        (lambda traj: idn.fuzz_residuals(traj, 2, 2.5, np.random.default_rng(0)), "count"),
        (lambda traj: idn.fuzz_residuals(traj, 2, "3", np.random.default_rng(0)), "count"),
        (lambda traj: idn.fuzz_residuals(traj, "2", 2, np.random.default_rng(0)), "k"),
        (lambda traj: idn.residual_general_H(traj, 2.5, idn.COR_H_PRESET), "k"),
        (lambda traj: hf.time_derivative(traj, 2.0, lambda s: s.f), "k"),
        (lambda traj: hf.trace_harnack(traj, "2"), "k"),
        (lambda traj: hf.trace_harnack(traj, True), "k"),
        (lambda traj: hf.check_pairs(traj, [((3,), (5, 0.03))]), "pair 0"),
        (lambda traj: hf.check_pairs(traj, [((3, 0.01), (5, 0.03), (6, 0.04))]), "pair 0"),
    ],
    ids=["negative-count", "float-count", "string-count", "string-k", "float-k-residual", "float-k-derivative",
         "string-k-trace", "bool-k-trace", "point-without-time", "three-point-pair"],
)
def test_identity_entry_points_refuse_bad_arguments(ring16_traj, call, name):
    # each used to raise a raw TypeError or ValueError, or, for a negative
    # count or a bool k, to return a result
    with pytest.raises(ConstraintViolationError, match=f"^{name} = "):
        call(ring16_traj)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_fuzz_calibration_step_keeps_cfl_headroom(n, monkeypatch):
    from harnackflow import flow, runner

    record = record_kernel_steps(monkeypatch)
    ((traj,),) = flow.run_ensemble([runner._fuzz_run(n)])
    steps = [step for (step,) in record]  # one run: one (t, dt) per kernel step
    times, bounds = traj.times, [s.geom.cfl_bound() for s in traj.states]
    used = []  # the one step of each output interval
    for k in range(1, len(traj)):
        interval = {dt for t, dt in steps if times[k - 1] - 1e-12 <= t < times[k] - 1e-12}
        assert len(interval) == 1
        (dt,) = interval
        # the step stays CFL_SAFETY below the bound at both ends of its interval
        assert dt * flow.CFL_SAFETY <= min(bounds[k - 1], bounds[k])
        used.append(dt)
    assert sum(round(traj.dt_out / dt) for dt in used) == len(steps)
    # the sphere shrinks, and so does the step: it never grows
    assert all(b <= a for a, b in zip(used, used[1:]))
    assert traj.dt == min(used)


# -- CSV ------------------------------------------------------------------------


def test_identity_csv_header(tmp_path, coarse_sphere_pair):
    pot, _ = coarse_sphere_pair
    rep = idn.residual_cor_H(pot, 5)
    path = tmp_path / "identities.csv"
    idn.write_identity_csv([rep], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "identity_id,alpha,beta,a,b,c,d,lambda,t,N,max_residual,l2_residual"
    assert lines[1].startswith("cor_H,2.0,1.0,-3.0,0.0,-1.0,2.0,2.0,")
