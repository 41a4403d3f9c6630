"""Seeded API fuzz: every callable the package exports refuses bad arguments with typed errors.

Each callable ``harnackflow`` exports (but the exception classes, which
the package raises rather than takes data from) is called with small
valid arguments, then once per argument position and value of
``VALUES`` with that one argument replaced: the replacement values of
``tests/test_fuzz.py``, as text and as the numbers and booleans a config
reads from them, and None.  A call may return or raise a
``HarnackFlowError``; anything else escapes, and the test lists every
escape.  No call may take more than ``STEP_BUDGET`` flow steps or
allocate more than ``ALLOC_BUDGET`` bytes, since a value that sizes a run
or an array must be refused before either.  The std streams are swapped
for /dev/null around every call, so a path taken as a file descriptor
cannot close or fill them.

The path entry points also get their own test: a path that is not a str
or os.PathLike is refused before anything is opened.
"""

import dataclasses
import inspect
import random
import tracemalloc
import warnings

import pytest

import harnackflow as hf
from harnackflow import flow
from harnackflow.errors import ConstraintViolationError, HarnackFlowError

from helpers import std_streams_guarded
from test_fuzz import REPLACEMENTS


def _parsed(text):
    """What a config could read from ``text``: an int, a float and a bool, where they parse."""
    out = []
    for parse in (int, float):
        try:
            out.append(parse(text))
        except ValueError:
            pass
    return out + [{"true": True, "false": False}[text]] if text in ("true", "false") else out


VALUES = [*REPLACEMENTS, *(v for text in REPLACEMENTS for v in _parsed(text)), None]
STEP_BUDGET = 400  # flow steps per call
ALLOC_BUDGET = 8 * 2**20  # bytes traced per call

TINY = """
[geometry]
kind = rot_sphere
n = 8
phi_mode = cos_theta
phi_amp = 0.1

[initial]
id = cos_theta
f0 = 0.5
amp = 0.2

[flow]
t_end = 0.04
dt_out = 0.01

[identities]
enable = true
fuzz_count = 2

[action]
enable = true
pair_count = 1
window = 2
"""


class _Runaway(Exception):
    """A call stepped a flow past STEP_BUDGET."""


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """Per exported callable, small valid arguments for every parameter of its signature."""
    cfg = hf.parse_config(TINY, name="tiny")
    state0 = hf.build_initial_state(cfg)
    traj = hf.run(state0, 0.04, None, 0.01)
    heat = hf.run(state0, 0.04, None, 0.01, c=0.0)
    state = traj[2]
    series = hf.monitor_series(traj)
    report = hf.residual_cor_H(traj, 2)
    saved = tmp_path_factory.mktemp("saved") / "traj.bin"
    traj.save(saved)
    geom = state.geom
    pair = ((1, 0.01), (3, 0.03))
    rng = random.Random(0)
    member = hf.EnsembleMember(state0)
    return {
        "AssertionResult": ("x", True, 0.0, 1.0, "d"),
        "EnsembleMember": (state0, -1.0, True, "x"),
        "FlowRun": ([member], 0.02, None, 0.01, None, 0),
        "FlowState": (0.01, geom, state.f),
        "HarnackParams": (0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0),
        "MonitorSeries": (series.times, series.columns, 1.0),
        "ResidualReport": ("x", hf.COR_H_PRESET, 0.01, 8, "rot_sphere", 0.0, 0.0),
        "ScenarioConfig": tuple(getattr(cfg, field.name) for field in dataclasses.fields(cfg)),
        "ScenarioReport": ("x", [], "d", ""),
        "SpaceTimePath": ((1, 2), (0, 0), 0.0),
        "SphereGeometry": (8, geom.phi),
        "SurfaceGeometry": (8, None),
        "TorusGeometry": (8, 1.0, None),
        "Trajectory": (list(traj.states), traj.dt, 0.01, -1.0, True, "", "x"),
        "build_geometry": (cfg,),
        "build_initial_state": (cfg,),
        "check_integrated_harnack": (traj, *pair, 2),
        "check_pairs": (traj, [pair], 2),
        "entropy_F": (state,),
        "entropy_W": (state, 1.0),
        "evaluate_assertions": (cfg, traj, series, [0.1]),
        "fuzz_residuals": (traj, 2, 2, rng, "H"),
        "gradient_quantity": (heat[2],),
        "gradient_quantity_f_form": (heat[2],),
        "layer_distance_fn": (traj, 1, 2),
        "load_trajectory": (saved,),
        "mass": (state,),
        "min_action": (traj, *pair, 2),
        "monitor_series": (traj, 1.0, 0.0, None),
        "parse_config": (TINY, "x"),
        "preset_agreement_H": (traj, 2),
        "preset_agreement_P": (traj, 2, 1.0),
        "preset_agreement_grad": (heat, 2),
        "quantity_H": (state,),
        "quantity_P": (state, 1.0),
        "quantity_tP": (state, 1.0),
        "random_pairs": (traj, 2, rng, 0.0, 2),
        "random_params": (rng, "H", -1.0),
        "require_count": (1, "x", "a count"),
        "require_real": (1.0, "x", False),
        "residual_cor_H": (traj, 2),
        "residual_general_H": (traj, 2, hf.COR_H_PRESET),
        "residual_general_P": (traj, 2, hf.COR_P_PRESET),
        "residual_grad": (heat, 2),
        "residual_surface": (traj, 2, None),
        "residual_tP": (traj, 2, 1.0),
        "run": (state0, 0.02, None, 0.01, -1.0, True, "x"),
        "run_ensemble": ([hf.FlowRun([member], 0.02, None, 0.01)],),
        "run_scenario": (cfg, "out", 1),
        "save_trajectory": (traj, "saved.bin"),
        "surface_lyh": (state, "curvature"),
        "time_derivative": (traj, 2, hf.mass),
        "trace_harnack": (traj, 2, "zero"),
        "u_field": (state,),
        "v_field": (state,),
        "verify_identities": (cfg, 2, "out", 1),
        "write_action_csv": ([(1, 0.01, 3, 0.03, 0.5, 0.1)], "action.csv"),
        "write_identity_csv": ([report], "identities.csv"),
        "write_monitor_csv": (series, "monitors.csv"),
    }


def _exported():
    """Every callable the package exports, but the exception classes."""
    names = []
    for name in sorted(vars(hf)):
        obj = getattr(hf, name)
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        names.append(name)
    return names


def test_every_export_has_fuzz_arguments(bases):
    assert sorted(bases) == _exported()
    for name, args in bases.items():
        assert len(args) == len(inspect.signature(getattr(hf, name)).parameters), name


def _call(fn, args):
    """``fn(*args)``: None when it returns or raises a HarnackFlowError, else the escape, as text."""
    tracemalloc.reset_peak()
    try:
        with std_streams_guarded():
            fn(*args)
    except HarnackFlowError:
        pass
    except Exception as err:  # noqa: BLE001 - every other escape is reported
        return f"{type(err).__name__}: {err}"
    peak = tracemalloc.get_traced_memory()[1]
    return f"allocated {peak} bytes" if peak > ALLOC_BUDGET else None


@pytest.mark.parametrize("name", _exported())
def test_exported_callable_refuses_bad_arguments_typed(name, bases, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # what the calls write goes here
    steps = [0]
    step = flow._RK4Kernel.step

    def counted(kernel):
        steps[0] += 1
        if steps[0] > STEP_BUDGET:
            raise _Runaway(f"more than {STEP_BUDGET} steps")
        step(kernel)

    monkeypatch.setattr(flow._RK4Kernel, "step", counted)
    fn, args = getattr(hf, name), bases[name]
    if name != "SurfaceGeometry":  # the abstract base refuses every call
        with std_streams_guarded():
            fn(*args)  # the arguments are valid, so each replacement reaches its own check
    escapes = []
    tracemalloc.start()
    try:
        for pos in range(len(args)):
            for value in VALUES:
                steps[0] = 0
                escape = _call(fn, (*args[:pos], value, *args[pos + 1 :]))
                if escape:
                    escapes.append(f"{name} argument {pos} = {value!r}: {escape}")
    finally:
        tracemalloc.stop()
    assert not escapes, "\n".join(escapes)


def _methods(traj):
    """Per method or property of a class the exports hand out, a callable and small valid arguments.

    The output grid is reached through ``Trajectory.grid`` and
    ``FlowRun.grid``; ``FlowRun.grid`` is called on a run built from its
    arguments.
    """
    run = hf.FlowRun([hf.EnsembleMember(traj[0])], 0.04, None, 0.01)
    methods = {
        "FlowRun.grid": (lambda *fields: hf.FlowRun(*fields).grid, tuple(run)),
        "OutputGrid.spanning": (flow.OutputGrid.spanning, (0.0, 0.04, 0.01)),
        "SphereGeometry.round_phi": (hf.SphereGeometry.round_phi, (1.0,)),
    }
    for owner, grid in (("Trajectory.grid", traj.grid), ("FlowRun.grid", run.grid)):
        for method, arg in GRID_METHODS.items():
            methods[f"{owner}.{method}"] = (getattr(grid, method), (arg,))
    return methods


GRID_METHODS = {"time": 1, "index": 0.01, "first_at": 0.01, "check_index": 0.02}  # each with a valid argument
METHODS = ["FlowRun.grid", "OutputGrid.spanning", "SphereGeometry.round_phi",
           *(f"{owner}.{method}" for owner in ("Trajectory.grid", "FlowRun.grid") for method in GRID_METHODS)]


@pytest.mark.parametrize("name", METHODS)
def test_method_refuses_bad_arguments_typed(name, small_traj):
    # the replacement values and an int beyond the float range, with numpy's
    # RuntimeWarnings (the log of a radius <= 0) raised as errors
    methods = _methods(small_traj)
    assert sorted(methods) == sorted(METHODS)
    fn, args = methods[name]
    fn(*args)
    escapes = []
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for pos in range(len(args)):
                for value in [*VALUES, 10**400]:
                    escape = _call(fn, (*args[:pos], value, *args[pos + 1 :]))
                    if escape:
                        escapes.append(f"{name} argument {pos} = {value!r:.40}: {escape}")
    finally:
        tracemalloc.stop()
    assert not escapes, "\n".join(escapes)


PATH_ENTRY_POINTS = {
    "load_trajectory": lambda path, traj: hf.load_trajectory(path),
    "save_trajectory": lambda path, traj: hf.save_trajectory(traj, path),
    "TrajectoryWriter": lambda path, traj: flow.TrajectoryWriter(path),
    "write_action_csv": lambda path, traj: hf.write_action_csv([(1, 0.01, 3, 0.03, 0.5, 0.1)], path),
    "write_monitor_csv": lambda path, traj: hf.write_monitor_csv(hf.monitor_series(traj), path),
    "write_identity_csv": lambda path, traj: hf.write_identity_csv([hf.residual_cor_H(traj, 2)], path),
}


@pytest.fixture(scope="module")
def small_traj():
    return hf.run(hf.build_initial_state(hf.parse_config(TINY)), 0.04, None, 0.01)


@pytest.mark.parametrize("entry", sorted(PATH_ENTRY_POINTS))
def test_path_that_open_takes_as_a_descriptor_is_refused(entry, small_traj, tmp_path, monkeypatch):
    # open() takes an int as a file descriptor: load_trajectory(1) used to
    # read stdout and close it, and write_action_csv(rows, 1) wrote the CSV
    # into it; the streams are swapped out, so a regression cannot harm them
    monkeypatch.chdir(tmp_path)
    for path in (0, 1, 2, -1, True, 1.0, None, b"traj.bin", ""):
        with std_streams_guarded(), pytest.raises(ConstraintViolationError, match="path = "):
            PATH_ENTRY_POINTS[entry](path, small_traj)
    assert not list(tmp_path.iterdir())

