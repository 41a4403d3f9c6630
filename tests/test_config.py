import numpy as np
import pytest

import harnackflow as hf
from harnackflow.errors import (
    ConfigSyntaxError,
    ConstraintViolationError,
    UnknownKeyError,
)
from harnackflow.runner import run_trajectory

MINIMAL_SPHERE = """
[geometry]
kind = rot_sphere

[flow]
t_end = 0.2
"""


def test_minimal_sphere_config_defaults():
    cfg = hf.parse_config(MINIMAL_SPHERE, name="mini")
    assert cfg.kind == "rot_sphere"
    assert cfg.n == 128
    assert cfg.radius == 1.0
    assert cfg.variant == "with_potential" and cfg.c == -1.0
    assert cfg.dt_out == pytest.approx(0.2 / 40)
    # dt = auto stays auto: the flow picks each output interval's step
    assert cfg.dt is None
    # default t0 is the first output after 0.05 * t_end
    assert cfg.t0 == pytest.approx(cfg.dt_out * (int(0.05 * cfg.t_end / cfg.dt_out) + 1))
    assert cfg.seed == 0
    # the run records its smallest step, which divides dt_out exactly
    traj = run_trajectory(cfg)
    steps = cfg.dt_out / traj.dt
    assert steps >= 1 and abs(steps - round(steps)) < 1e-9


def test_unknown_key_rejected():
    text = MINIMAL_SPHERE + "\n[flow]\ndtt = 1e-4\n"
    with pytest.raises(UnknownKeyError) as err:
        hf.parse_config(text)
    assert "dtt" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(UnknownKeyError):
        hf.parse_config(MINIMAL_SPHERE + "\n[misc]\nx = 1\n")


def test_syntax_error_reports_line():
    text = "[geometry]\nkind rot_sphere\n"
    with pytest.raises(ConfigSyntaxError) as err:
        hf.parse_config(text)
    assert err.value.line == 2


def test_key_outside_section_rejected():
    with pytest.raises(ConfigSyntaxError):
        hf.parse_config("kind = rot_sphere\n")


def test_cfl_violation_names_bound():
    text = """
[geometry]
kind = torus
n = 32
length = 6.283185307179586

[flow]
t_end = 0.1
dt = 0.5
"""
    with pytest.raises(ConstraintViolationError) as err:
        hf.parse_config(text)
    assert "CFL" in str(err.value)


def test_variant_c_contradiction():
    text = MINIMAL_SPHERE + "\n[flow]\nc = 0.5\n"
    with pytest.raises(ConstraintViolationError):
        hf.parse_config(text)


def test_general_variant_requires_c():
    text = MINIMAL_SPHERE + "\n[flow]\nvariant = general\n"
    with pytest.raises(ConstraintViolationError):
        hf.parse_config(text)
    cfg = hf.parse_config(text + "c = 0.5\n")
    assert cfg.c == 0.5


def test_gradient_monitor_requires_plain_heat():
    text = MINIMAL_SPHERE + "\n[monitors]\nenable = gradient\n"
    with pytest.raises(ConstraintViolationError):
        hf.parse_config(text)


def test_gradient_monitor_requires_unit_range():
    text = """
[geometry]
kind = torus

[initial]
id = sine_x
f0 = 0.9
amp = 0.3

[flow]
variant = plain_heat
t_end = 0.1

[monitors]
enable = gradient
"""
    with pytest.raises(ConstraintViolationError):
        hf.parse_config(text)


def test_extinction_time_guard():
    text = """
[geometry]
kind = rot_sphere
n = 64
radius = 1.0

[flow]
t_end = 0.6
"""
    with pytest.raises(ConstraintViolationError) as err:
        hf.parse_config(text)
    assert "extinction" in str(err.value)


def test_sphere_only_modes_rejected_on_torus():
    text = """
[geometry]
kind = torus
phi_mode = cos_theta

[flow]
t_end = 0.1
"""
    with pytest.raises(ConstraintViolationError):
        hf.parse_config(text)


@pytest.mark.parametrize(
    "flow",
    [
        "t_end = 1e300\ndt_out = 1e-10",  # t_end / dt_out
        "t_end = 1.0\ndt_out = 0.5\ndt = 1e-320",  # dt_out / dt
    ],
)
def test_output_and_step_counts_that_overflow_rejected(flow, tmp_path, capsys):
    # both used to escape as a raw OverflowError from int(inf)
    text = f"[geometry]\nkind = torus\nn = 8\n\n[flow]\n{flow}\n"
    with pytest.raises(ConstraintViolationError, match="overflows a float"):
        hf.parse_config(text)
    from harnackflow.cli import main

    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "ConstraintViolationError" in capsys.readouterr().err


def test_action_pairs_parsing():
    text = MINIMAL_SPHERE + "\n[action]\nenable = true\npairs = 3,0.05,7,0.1; 1,0.1,1,0.15\n"
    cfg = hf.parse_config(text)
    assert cfg.pairs == ((3, 0.05, 7, 0.1), (1, 0.1, 1, 0.15))


@pytest.mark.parametrize("pair", ["1,x,2,0.03", "1.5,0.05,2,0.1", "1,0.05,two,0.1"])
def test_malformed_action_pair_rejected(pair):
    text = MINIMAL_SPHERE + f"\n[action]\nenable = true\npairs = {pair}\n"
    with pytest.raises(ConfigSyntaxError) as err:
        hf.parse_config(text)
    assert err.value.line == 10


@pytest.mark.parametrize(
    "pair, accepted",
    [
        ("127,0.05,0,0.2", True),  # the last ring of n = 128, the last output
        ("128,0.05,0,0.2", False),
        ("-1,0.05,0,0.2", False),
        ("0,0.05,0,0.1000000000001", True),  # a stored time within its tolerance
        ("0,0.05,0,0.1001", False),
        ("0,0.05,0,0.205", False),  # past the last output
        ("0,0.05,0,0.05", False),
        ("0,0,0,0.05", False),
    ],
)
def test_action_pairs_checked_against_the_output_grid(pair, accepted):
    # whether or not the action stage is on: the action command turns it on
    text = MINIMAL_SPHERE + f"\n[action]\npairs = {pair}\n"
    if accepted:
        assert hf.parse_config(text).pairs
    else:
        with pytest.raises(ConstraintViolationError, match="action.pairs entry"):
            hf.parse_config(text)


def test_t_check_resolved_without_identities():
    cfg = hf.parse_config(MINIMAL_SPHERE)
    assert not cfg.identities_enable
    assert cfg.t_check == pytest.approx(20 * cfg.dt_out)


# t_end = 0.2 and dt_out = 0.02 store snapshots at 0, 0.02, ..., 0.2
T_CHECK_SPHERE = MINIMAL_SPHERE + "dt_out = 0.02\n\n[identities]\nenable = true\n"


@pytest.mark.parametrize(
    "t_check, reason",
    [
        ("0.05", "multiple"),  # between two snapshots
        ("0.0", "each side"),  # the first snapshot
        ("0.2", "each side"),  # the last snapshot
        ("5.0", "each side"),  # past t_end, was clamped to the last interior snapshot
        ("-0.02", "each side"),
        ("0.02", "left one at t > 0"),  # its left neighbour is the snapshot at t = 0
    ],
)
def test_t_check_must_be_interior_snapshot(t_check, reason):
    with pytest.raises(ConstraintViolationError, match=reason):
        hf.parse_config(T_CHECK_SPHERE + f"t_check = {t_check}\n")


@pytest.mark.parametrize("t_check, k", [("0.04", 2), ("0.1", 5), ("0.18", 9)])
def test_t_check_on_interior_snapshot_accepted(t_check, k):
    cfg = hf.parse_config(T_CHECK_SPHERE + f"t_check = {t_check}\n")
    assert round(cfg.t_check / cfg.dt_out) == k


def test_comments_and_blank_lines():
    text = """
# leading comment
[geometry]
kind = rot_sphere   # trailing comment
n = 64

[flow]
t_end = 0.1
"""
    cfg = hf.parse_config(text)
    assert cfg.n == 64


def test_initial_state_construction():
    cfg = hf.parse_config(MINIMAL_SPHERE)
    state = hf.build_initial_state(cfg)
    assert state.t == 0.0
    assert np.all(state.f == 0.5)
    assert state.geom.kind == "rot_sphere"


@pytest.mark.parametrize(
    "kind, n, outputs, accepted",
    [
        # 2^18 snapshots x 2 fields x 64^2 nodes x 8 bytes = 2^34, the limit itself
        ("torus", 64, 2**18 - 1, True),
        ("torus", 64, 2**18, False),
        # 2^24 snapshots x 2 fields x 64 rings x 8 bytes = 2^34
        ("rot_sphere", 64, 2**24 - 1, True),
        ("rot_sphere", 64, 2**24, False),
        # one snapshot of a 2^15 x 2^15 torus plans 2^34 bytes, before any field is built
        ("torus", 2**15, 1, False),
    ],
)
def test_snapshot_plan_limit(monkeypatch, kind, n, outputs, accepted):
    from harnackflow import config
    from harnackflow.config import MAX_SNAPSHOT_BYTES

    dt_out = 2.0**-30  # exact, so t_end / dt_out is exactly the output count
    text = f"[geometry]\nkind = {kind}\nn = {n}\n[flow]\nt_end = {outputs * dt_out!r}\ndt_out = {dt_out!r}\n"
    assert MAX_SNAPSHOT_BYTES == 2**34
    if accepted:
        assert hf.parse_config(text).t_end == outputs * dt_out
        return

    def no_field(cfg):
        raise AssertionError("a field was built")

    monkeypatch.setattr(config, "build_geometry", no_field)
    with pytest.raises(ConstraintViolationError, match="above the limit of 17179869184 bytes"):
        hf.parse_config(text)


@pytest.mark.parametrize("text", [1.0, None, b"[geometry]\nkind = torus\n"])
def test_config_text_that_is_not_a_str_is_refused(text):
    # parse_config(1.0) used to raise a raw AttributeError ('float' object has no attribute 'splitlines')
    with pytest.raises(ConstraintViolationError, match="text = "):
        hf.parse_config(text)
