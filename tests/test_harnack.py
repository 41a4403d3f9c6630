from collections import Counter

import numpy as np
import pytest

import harnackflow as hf
from harnackflow.errors import (
    ConstraintViolationError,
    FOutOfRangeError,
    GridMismatchError,
    IndexAtBoundaryError,
    NonPositiveCurvatureError,
    NonPositiveFError,
    NonPositiveTimeError,
    TimesNotStoredError,
)
from harnackflow.harnack import MONITOR_COLUMNS


def constant_sphere_state(t, r0=1.0, f0=0.5, n=128):
    """Exact time slice of the shrinking round sphere (no solver involved)."""
    rho = r0**2 - 2.0 * t
    geom = hf.SphereGeometry(n, np.full(n, 0.5 * np.log(rho)))
    return hf.FlowState(t, geom, np.full(n, f0 * r0**2 / rho))


# -- closed forms on the constant-f shrinking sphere -------------------------


def test_quantity_H_closed_form():
    t, r0, f0 = 0.1, 1.0, 0.5
    state = constant_sphere_state(t, r0, f0)
    expected = -6.0 / (r0**2 - 2 * t) - 4.0 / t
    h = hf.quantity_H(state)
    assert np.max(np.abs(h - expected)) <= 1e-6 * abs(expected)
    assert np.all(h < 0)


def test_quantity_P_closed_form():
    t, r0, f0, d = 0.1, 1.0, 0.5, 1.0
    state = constant_sphere_state(t, r0, f0)
    rho = r0**2 - 2 * t
    v = -np.log(f0 * r0**2 / rho) - np.log(4 * np.pi * t)
    expected = -3.0 * 2.0 / rho + v / t - 2.0 * d / t
    p = hf.quantity_P(state, d)
    assert np.max(np.abs(p - expected)) <= 1e-6 * abs(expected)
    assert np.allclose(hf.quantity_tP(state, d), t * p, rtol=0, atol=1e-12)


def test_quantity_P_difference_in_d():
    state = constant_sphere_state(0.07)
    p0 = hf.quantity_P(state, 0.0)
    p2 = hf.quantity_P(state, 2.0)
    expected = (2.0 - 0.0) * 2.0 / state.t
    assert np.allclose(p0 - p2, expected, rtol=0, atol=1e-10)


def test_entropy_F_closed_form():
    t, r0, f0 = 0.12, 1.0, 0.5
    state = constant_sphere_state(t, r0, f0)
    rho = r0**2 - 2 * t
    expected = 4 * np.pi * f0 * r0**2 * (-6 * t**2 / rho - 4 * t)
    assert abs(hf.entropy_F(state) - expected) <= 1e-6 * abs(expected)


def test_entropy_W_closed_form():
    t, r0, f0, d = 0.12, 1.0, 0.5, 1.0
    state = constant_sphere_state(t, r0, f0)
    rho = r0**2 - 2 * t
    v = -np.log(f0 * r0**2 / rho) - np.log(4 * np.pi * t)
    tp = t * (-6.0 / rho + v / t - 2 * d / t)
    expected = tp * 4 * np.pi * f0 * r0**2
    assert abs(hf.entropy_W(state, d) - expected) <= 1e-6 * abs(expected)


def test_mass_closed_form():
    state = constant_sphere_state(0.2, 1.0, 0.5)
    assert abs(hf.mass(state) - 4 * np.pi * 0.5) <= 1e-6 * 4 * np.pi * 0.5


def test_mass_torus_initial_value(torus_plain_traj):
    # mean(f) * L^2 at t = 0: the sine mode integrates to zero
    length = 2 * np.pi
    assert abs(hf.mass(torus_plain_traj[0]) - 0.5 * length**2) <= 1e-10


def test_surface_lyh_closed_forms():
    t, r0 = 0.1, 1.0
    state = constant_sphere_state(t, r0)
    rho = r0**2 - 2 * t
    expected = 2.0 / rho + 1.0 / t
    for which in ("curvature", "heat"):
        q = hf.surface_lyh(state, which)
        assert np.max(np.abs(q - expected)) <= 1e-6 * expected
        assert np.all(q > 0)


def test_trace_harnack_round_sphere(sphere_constant_traj):
    k = 10
    s = sphere_constant_traj[k]
    r = s.geom.scalar_curvature()
    expected = r**2 + r / s.t
    for vec in ("zero", "grad_u", "grad_v"):
        q = hf.trace_harnack(sphere_constant_traj, k, vec)
        assert np.max(np.abs(q - expected)) <= 2e-3 * np.max(expected)
        assert np.all(q > 0)


def test_trace_harnack_flat_torus_vanishes(torus_potential_traj):
    q = hf.trace_harnack(torus_potential_traj, 5, "zero")
    assert np.max(np.abs(q)) <= 1e-12


# -- invariance identities ----------------------------------------------------


def test_H_invariant_under_constant_rescaling():
    state = constant_sphere_state(0.1)
    scaled = hf.FlowState(state.t, state.geom, 3.0 * state.f)
    h1 = hf.quantity_H(state)
    h2 = hf.quantity_H(scaled)
    assert np.allclose(h1, h2, rtol=0, atol=1e-10)


def test_P_shifts_under_constant_rescaling():
    geom = hf.SphereGeometry(64)
    state = hf.FlowState(0.1, geom.with_phi(0.1 * geom.cos_theta), 0.5 + 0.2 * geom.cos_theta)
    c = 2.5
    scaled = hf.FlowState(state.t, state.geom, c * state.f)
    p1 = hf.quantity_P(state, 1.0)
    p2 = hf.quantity_P(scaled, 1.0)
    assert np.allclose(p2 - p1, -np.log(c) / state.t, rtol=0, atol=1e-10)


# -- gradient quantity --------------------------------------------------------


def test_gradient_quantity_constant_field():
    geom = hf.TorusGeometry(16, 2 * np.pi)
    c = 0.3
    state = hf.FlowState(0.2, geom, np.full((16, 16), c))
    q = hf.gradient_quantity(state)
    assert np.allclose(q, np.log(c) / 0.2, rtol=1e-12, atol=0)
    assert np.all(q < 0)


def test_gradient_quantity_two_forms_agree(torus_plain_traj):
    s = torus_plain_traj[10]
    u_form = hf.gradient_quantity(s)
    f_form = hf.gradient_quantity_f_form(s)
    assert np.array_equal(f_form, s.f**2 * u_form)


def test_gradient_quantity_range_check():
    geom = hf.TorusGeometry(16, 2 * np.pi)
    state = hf.FlowState(0.1, geom, np.full((16, 16), 1.5))
    with pytest.raises(FOutOfRangeError):
        hf.gradient_quantity(state)
    with pytest.raises(FOutOfRangeError):
        hf.gradient_quantity_f_form(state)


def test_flat_torus_plain_heat_H_nonpositive(torus_plain_traj):
    # Ricci-flat fixed metric: the H bound reduces to the classical one.
    sup_h = max(np.max(hf.quantity_H(s)) for s in torus_plain_traj.states[2:])
    assert sup_h <= 1e-3


# -- errors -------------------------------------------------------------------


def test_quantities_require_positive_time():
    state = constant_sphere_state(0.1)
    zero_t = hf.FlowState(0.0, state.geom, state.f)
    for fn in (hf.quantity_H, lambda s: hf.quantity_P(s, 1.0), hf.entropy_F):
        with pytest.raises(NonPositiveTimeError):
            fn(zero_t)


def test_u_field_requires_positive_f():
    state = constant_sphere_state(0.1)
    bad = object.__new__(hf.FlowState)
    object.__setattr__(bad, "t", 0.1)
    object.__setattr__(bad, "geom", state.geom)
    object.__setattr__(bad, "f", np.full(state.geom.field_shape, -1.0))
    with pytest.raises(NonPositiveFError):
        hf.u_field(bad)


def test_lyh_curvature_requires_positive_curvature(torus_bump_static_traj):
    state = torus_bump_static_traj[3]
    assert np.min(state.geom.scalar_curvature()) < 0
    with pytest.raises(NonPositiveCurvatureError):
        hf.surface_lyh(state, "curvature")


# -- monitor series and CSV ---------------------------------------------------


def test_monitor_header_and_empty_cells(tmp_path, torus_plain_traj):
    series = hf.monitor_series(torus_plain_traj, d=1.0, t0=0.05)
    path = tmp_path / "monitors.csv"
    hf.write_monitor_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time," + ",".join(MONITOR_COLUMNS)
    row = lines[1].split(",")
    cols = dict(zip(["time"] + list(MONITOR_COLUMNS), row))
    # plain heat on a flat torus: gradient applies, curvature-form bound empty
    assert cols["sup_grad"] != ""
    assert cols["min_LYH_curv"] == ""
    assert cols["mass"] != ""


def test_monitor_series_respects_t0(sphere_cosine_traj):
    series = hf.monitor_series(sphere_cosine_traj, t0=0.05)
    assert series.times[0] >= 0.05 - 1e-12


def test_monitor_enable_subset(torus_potential_traj):
    series = hf.monitor_series(torus_potential_traj, enable=("mass",))
    assert not np.any(np.isnan(series.columns["mass"]))
    assert np.all(np.isnan(series.columns["sup_H"]))


def test_monitor_series_refuses_a_non_finite_d(torus_potential_traj):
    # it used to raise GridMismatchError "field contains non-finite entries"
    # at the first monitored snapshot
    with pytest.raises(ConstraintViolationError, match="^d = nan must be finite$"):
        hf.harnack.MonitorRows(d=float("nan"))
    with pytest.raises(ConstraintViolationError, match="^d = nan must be finite$"):
        hf.monitor_series(torus_potential_traj, d=float("nan"))


def test_monitor_unknown_column_rejected(torus_potential_traj):
    with pytest.raises(ConstraintViolationError, match="not_a_monitor"):
        hf.monitor_series(torus_potential_traj, enable=("not_a_monitor",))


def test_unknown_harnack_selectors_rejected(torus_potential_traj):
    with pytest.raises(ConstraintViolationError, match="grad_w"):
        hf.trace_harnack(torus_potential_traj, 5, "grad_w")
    with pytest.raises(ConstraintViolationError, match="mass"):
        hf.surface_lyh(torus_potential_traj[5], "mass")


def test_trace_harnack_refuses_a_snapshot_past_the_end(torus_potential_traj):
    traj = torus_potential_traj
    for k in (len(traj), len(traj) + 3):
        with pytest.raises(IndexAtBoundaryError, match=f"snapshot {k} "):
            hf.trace_harnack(traj, k)


def test_monitor_trace_columns_require_evolving_metric(torus_bump_static_traj):
    series = hf.monitor_series(torus_bump_static_traj, t0=0.05)
    assert np.all(np.isnan(series.columns["min_traceH_V0"]))
    assert np.all(np.isnan(series.columns["min_traceH_Vu"]))
    # the gradient column still applies (plain heat, 0 < f < 1)
    assert not np.any(np.isnan(series.columns["sup_grad"]))


def _count_calls(monkeypatch, module, names):
    """Counter of calls to ``module``'s functions ``names``, patched in place."""
    calls = Counter()

    def counted(name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def test_monitor_series_evaluates_H_and_tP_once_per_snapshot(torus_potential_traj, monkeypatch):
    # sup_H and F share one H per snapshot, sup_tP and W one tP: one
    # harnack_field call each
    from harnackflow import harnack

    traj = torus_potential_traj
    expected = hf.monitor_series(traj, d=1.0, t0=0.1)
    calls = _count_calls(monkeypatch, harnack, ("harnack_field",))
    series = hf.monitor_series(traj, d=1.0, t0=0.1)
    rows = len(series.times)
    assert rows > 2
    assert calls == Counter({"harnack_field": 2 * rows})
    monkeypatch.undo()
    for row, t in enumerate(series.times):
        state = next(s for s in traj.states if s.t == t)
        assert series.columns["sup_H"][row] == float(np.max(hf.quantity_H(state)))
        assert series.columns["F"][row] == hf.entropy_F(state)
        assert series.columns["sup_tP"][row] == float(np.max(hf.quantity_tP(state, 1.0)))
        assert series.columns["W"][row] == hf.entropy_W(state, 1.0)
    for name in ("sup_H", "F", "sup_tP", "W"):
        assert series.columns[name].tobytes() == expected.columns[name].tobytes()


def test_monitor_series_derives_u_and_drdt_once_per_snapshot(torus_bump_ricci_traj, monkeypatch):
    # u = -ln f feeds H, tP, the V = grad u trace column, the heat
    # log-Harnack column and the gradient column; dR/dt feeds both trace
    # columns.  Each is derived once per snapshot, and every column equals
    # its public function's value bit for bit.
    from harnackflow import harnack

    traj = torus_bump_ricci_traj
    calls = _count_calls(monkeypatch, harnack, ("u_field", "time_derivative"))
    series = hf.monitor_series(traj, d=1.0, t0=0.05)
    rows = len(series.times)
    assert rows > 2
    assert calls == Counter({"u_field": rows, "time_derivative": rows})
    monkeypatch.undo()
    for row, t in enumerate(series.times):
        k = next(k for k, s in enumerate(traj.states) if s.t == t)
        state = traj[k]
        assert series.columns["sup_H"][row] == float(np.max(hf.quantity_H(state)))
        assert series.columns["sup_tP"][row] == float(np.max(hf.quantity_tP(state, 1.0)))
        assert series.columns["sup_grad"][row] == float(np.max(hf.gradient_quantity(state)))
        assert series.columns["min_traceH_V0"][row] == float(np.min(hf.trace_harnack(traj, k, "zero")))
        assert series.columns["min_traceH_Vu"][row] == float(np.min(hf.trace_harnack(traj, k, "grad_u")))
        assert series.columns["min_LYH_heat"][row] == float(np.min(hf.surface_lyh(state, "heat")))


def test_monitor_series_refuses_an_empty_range(torus_potential_traj):
    # the last output has no right neighbour, so t0 there leaves nothing
    traj = torus_potential_traj
    with pytest.raises(TimesNotStoredError, match="no output to monitor"):
        hf.monitor_series(traj, t0=traj.times[-1])


def _curved_torus_state(t, n=8):
    geom = hf.TorusGeometry(n, 2 * np.pi)
    x, y = geom.coords()
    return hf.FlowState(t, geom.with_phi(0.05 * np.sin(x) * np.sin(y)), 0.5 + 0.2 * np.sin(x) * np.cos(y))


@pytest.mark.parametrize("state", [constant_sphere_state(0.1, n=16), _curved_torus_state(0.3)], ids=["sphere", "torus"])
def test_harnack_field_is_a_field_for_every_tuple(state):
    # an all-zero tuple used to raise a raw IndexError, and a tuple of d
    # alone returned a Python float; every other tuple keeps its bits
    from harnackflow import harnack

    w = harnack.u_field(state)
    zero = hf.HarnackParams(0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0)
    field = harnack.harnack_field(state, w, zero)
    assert isinstance(field, np.ndarray) and field.shape == state.geom.field_shape
    assert np.array_equal(field, np.zeros(state.geom.field_shape))
    field = harnack.harnack_field(state, w, hf.HarnackParams(0.0, 0.0, 0.0, 0.0, -1.0, 0.7, 0.0))
    assert isinstance(field, np.ndarray) and field.shape == state.geom.field_shape
    assert np.all(field == -0.7 * 2 / state.t)
    for p in (harnack.COR_H_PRESET, hf.HarnackParams(1.5, -0.5, 1.0, 0.7, -1.0, -0.4, 0.9),
              hf.HarnackParams(0.0, 0.0, 0.0, 0.7, -1.0, 0.4, 0.0), hf.HarnackParams(0.0, 0.0, 2.0, 0.0, -1.0, 0.0, 0.0)):
        assert harnack.harnack_field(state, w, p).tobytes() == _summed_terms(state, w, p).tobytes()


def _summed_terms(state, w, p):
    """The nonzero terms of the Harnack formula, summed in order from the first."""
    geom, t = state.geom, state.t
    terms = []
    if p.alpha:
        terms.append(p.alpha * geom.laplace_beltrami(w))
    if p.beta:
        terms.append(-p.beta * geom.grad_norm_sq(w))
    if p.a:
        terms.append(p.a * state.R)
    if p.b:
        terms.append(-p.b * w / t)
    if p.d:
        terms.append(-p.d * 2 / t)
    return sum(terms[1:], terms[0])


# -- typed refusals -------------------------------------------------------------


@pytest.fixture(scope="module")
def ring16_run():
    geom = hf.SphereGeometry(16)
    state = hf.FlowState(0.0, geom.with_phi(0.1 * geom.cos_theta), 0.5 + 0.2 * geom.cos_theta)
    return hf.run(state, 0.04, 1e-3, 0.01)


@pytest.mark.parametrize(
    "call, error, name",
    [
        (lambda traj: hf.TorusGeometry(8, "3"), ConstraintViolationError, "length = "),
        (lambda traj: hf.TorusGeometry(8, None), ConstraintViolationError, "length = "),
        (lambda traj: hf.TorusGeometry(8, True), ConstraintViolationError, "length = "),
        (lambda traj: hf.SphereGeometry(16, phi="x"), GridMismatchError, "phi "),
        (lambda traj: hf.monitor_series(traj, t0="x"), ConstraintViolationError, "t0 = "),
        (lambda traj: hf.monitor_series(traj, t0=False), ConstraintViolationError, "t0 = "),
        (lambda traj: hf.quantity_P(traj[2], d="x"), ConstraintViolationError, "d = "),
        (lambda traj: hf.quantity_P(traj[2], d=True), ConstraintViolationError, "d = "),
        (lambda traj: hf.entropy_W(traj[2], d=None), ConstraintViolationError, "d = "),
        (lambda traj: hf.layer_distance_fn(traj, 1.5), ConstraintViolationError, "k = "),
        (lambda traj: hf.layer_distance_fn(traj, True), ConstraintViolationError, "k = "),
    ],
    ids=["string-length", "none-length", "bool-length", "string-phi", "string-t0", "bool-t0", "string-d",
         "bool-d", "none-d-entropy", "float-layer", "bool-layer"],
)
def test_geometry_monitor_and_layer_entry_points_refuse_bad_arguments(ring16_run, call, error, name):
    # each used to raise a raw TypeError or ValueError, or to go on with the
    # argument read as a number: a string or bool length as a side length, a
    # bool d or layer as 0 or 1, a bool t0 as time 0
    with pytest.raises(error, match=f"^{name}"):
        call(ring16_run)
