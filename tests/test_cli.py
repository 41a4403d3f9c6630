import re

import pytest

from harnackflow.errors import BlowupError, ConstraintViolationError

from harnackflow.cli import main

SMALL_SPHERE = """
[geometry]
kind = rot_sphere
n = 48
radius = 1.0
phi_mode = cos_theta
phi_amp = 0.1

[initial]
id = cos_theta
f0 = 0.5
amp = 0.2

[flow]
t_end = 0.1
dt = 5e-4
dt_out = 0.01

[action]
enable = true
pair_count = 5
window = 5

[output]
seed = 1
"""

SMALL_TORUS = """
[geometry]
kind = torus
n = 24
length = 6.283185307179586

[initial]
id = sine_x
f0 = 0.5
amp = 0.25

[flow]
variant = plain_heat
t_end = 0.2
dt = 5e-3
dt_out = 0.02

[output]
seed = 2
"""

# one pair whose end ring lies beyond the window's reach over two layers
UNREACHABLE_PAIR = SMALL_SPHERE.replace(
    "pair_count = 5\nwindow = 5", "pairs = 0,0.02,47,0.04\nwindow = 1"
)

IDENTITIES_OFF = """
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
"""

BAD_INITIAL = """
[geometry]
kind = torus
n = 16

[initial]
id = sine_x
f0 = 0.2
amp = 0.5

[flow]
variant = plain_heat
t_end = 0.1
"""


@pytest.fixture()
def cfg_file(tmp_path):
    def write(text, name):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_run_small_sphere(cfg_file, tmp_path, capsys):
    cfg = cfg_file(SMALL_SPHERE, "small_sphere.cfg")
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 0
    for name in ("trajectory.bin", "monitors.csv", "action.csv", "summary.txt", "plots.gp"):
        assert (out / name).exists()
    summary = (out / "summary.txt").read_text()
    assert "PASS" in summary and "FAIL" not in summary
    shown = capsys.readouterr().out
    assert "PASS scenario small_sphere" in shown


def test_run_deterministic_outputs(cfg_file, tmp_path):
    cfg = cfg_file(SMALL_SPHERE, "det.cfg")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1), "--seed", "9"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
    for name in ("monitors.csv", "action.csv", "trajectory.bin", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_failure_reports_positivity(cfg_file, tmp_path, capsys):
    cfg = cfg_file(BAD_INITIAL, "bad.cfg")
    out = tmp_path / "bad_out"
    code = main(["run", "--config", cfg, "--out", str(out)])
    assert code == 1
    summary = (out / "summary.txt").read_text()
    assert "PositivityLost" in summary
    assert "t =" in summary


def test_unknown_key_exits_with_error(cfg_file, tmp_path, capsys):
    cfg = cfg_file(SMALL_SPHERE + "\n[flow]\ndtt = 1\n", "typo.cfg")
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "dtt" in capsys.readouterr().err


def test_verify_identities_command(cfg_file, tmp_path, capsys):
    base = """
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
    cfg = cfg_file(base, "ids.cfg")
    out = tmp_path / "ids"
    code = main(["verify-identities", "--config", cfg, "--levels", "2", "--out", str(out)])
    assert code == 0
    assert (out / "identities.csv").exists()
    assert (out / "identity_summary.txt").exists()
    shown = capsys.readouterr().out
    assert "residual-convergence" in shown


def test_verify_identities_on_torus_leaves_surface_out(cfg_file, tmp_path, capsys):
    # the round companion of surface_fR used to join the torus ensemble
    # and fail with GridMismatchError (exit 2); a torus never has R > 0
    # everywhere, so the surface preset does not apply
    cfg = cfg_file(SMALL_TORUS, "torus_ids.cfg")
    code = main(["verify-identities", "--config", cfg, "--levels", "2", "--out", str(tmp_path / "ids")])
    assert code != 2
    table = capsys.readouterr().out
    assert "residual-convergence-general_H" in table
    assert "surface" not in table
    assert "surface" not in (tmp_path / "ids" / "identities.csv").read_text()


def test_stale_ladder_reports_removed_when_ladder_fails(cfg_file, tmp_path, capsys):
    out = tmp_path / "ladder"
    args = ["--levels", "2", "--out", str(out)]
    assert main(["verify-identities", "--config", cfg_file(SMALL_TORUS, "ok.cfg"), *args]) == 0
    assert (out / "identity_summary.txt").exists() and (out / "identities.csv").exists()
    assert main(["verify-identities", "--config", cfg_file(BAD_INITIAL, "bad.cfg"), *args]) == 2
    assert "PositivityLostError" in capsys.readouterr().err
    assert not (out / "identity_summary.txt").exists()
    assert not (out / "identities.csv").exists()


@pytest.mark.parametrize(
    "name, content, reason",
    [
        ("missing.cfg", None, "cannot read config"),
        ("utf16.cfg", b"\xff\xfe[\x00g\x00", "is not UTF-8 text"),
    ],
    ids=["missing", "utf16"],
)
def test_unreadable_config_exits_with_error(tmp_path, capsys, name, content, reason):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "ConfigFileError" in err and reason in err and str(path) in err


@pytest.mark.parametrize("levels", ["0", "-1", "1"])
def test_verify_identities_rejects_fewer_than_two_levels(cfg_file, tmp_path, capsys, monkeypatch, levels):
    # one level used to pass its convergence checks with observed = inf,
    # and zero or fewer crashed with a raw IndexError
    import harnackflow.runner as runner

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(runner, "run_ensemble", no_flow)
    monkeypatch.setattr(runner, "snapshots", no_flow)
    out = tmp_path / "ladder"
    out.mkdir()
    (out / "identity_summary.txt").write_text("PASS stale summary of an earlier ladder\n")
    cfg = cfg_file(SMALL_TORUS, "few.cfg")
    code = main(["verify-identities", "--config", cfg, "--levels", levels, "--out", str(out)])
    assert code == 2
    assert "ConstraintViolationError" in capsys.readouterr().err
    assert not (out / "identity_summary.txt").exists()


def test_verify_identities_checks_the_configured_t_end(cfg_file, tmp_path, capsys, monkeypatch):
    # the flows stop at t_check + dt_out = 0.302 on level 0, but the round
    # companion's extinction time, 0.5, is still checked against t_end
    import harnackflow.flow as flow

    def no_step(self):
        raise AssertionError("a flow stepped")

    monkeypatch.setattr(flow._RK4Kernel, "step", no_step)
    text = """
[geometry]
kind = rot_sphere
n = 16
phi_mode = cos_theta
phi_amp = 0.1

[initial]
id = cos_theta

[flow]
t_end = 0.50335
dt = auto
dt_out = 0.050335

[identities]
fuzz_count = 0
"""
    out = tmp_path / "late"
    code = main(["verify-identities", "--config", cfg_file(text, "late.cfg"), "--levels", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "ConstraintViolationError: member 2:" in err and "extinction time 0.5" in err
    assert list(out.iterdir()) == []


def test_verify_identities_rejects_t_check_past_t_end(tmp_path, capsys):
    # was clamped per level: N=64 evaluated t = 0.09 and N=128 t = 0.0975
    from conftest import SCENARIO_DIR

    text = (SCENARIO_DIR / "sphere_identities.cfg").read_text().replace("t_check = 0.05", "t_check = 5.0")
    cfg = tmp_path / "late.cfg"
    cfg.write_text(text)
    code = main(["verify-identities", "--config", str(cfg), "--levels", "2", "--out", str(tmp_path / "late")])
    assert code == 2
    assert "ConstraintViolationError" in capsys.readouterr().err
    assert not (tmp_path / "late").exists()


def test_verify_identities_refuses_a_frozen_metric_before_any_flow(tmp_path, capsys, monkeypatch):
    # the identities assume dg/dt = -R g: on a frozen metric every
    # residual-convergence check used to fail, after the whole ladder's flows
    import harnackflow.flow as flow
    from conftest import SCENARIO_DIR

    def no_step(self):
        raise AssertionError("a flow stepped")

    monkeypatch.setattr(flow._RK4Kernel, "step", no_step)
    out = tmp_path / "static"
    cfg = str(SCENARIO_DIR / "torus_bump_static.cfg")
    assert main(["verify-identities", "--config", cfg, "--levels", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConstraintViolationError" in err and "evolve_metric" in err
    assert list(out.iterdir()) == []


def test_identities_on_a_frozen_metric_are_refused_at_parse_time(tmp_path, capsys):
    from conftest import SCENARIO_DIR

    cfg = tmp_path / "static.cfg"
    cfg.write_text((SCENARIO_DIR / "torus_bump_static.cfg").read_text() + "\n[identities]\nenable = true\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "static")]) == 2
    err = capsys.readouterr().err
    assert "ConstraintViolationError" in err and "evolve_metric" in err
    assert not (tmp_path / "static").exists()


def test_verify_identities_dt_auto_steps_every_level_by_the_cfl_rule(cfg_file, tmp_path, capsys):
    # the ladder used to divide the auto dt (None) by 4**level: a raw TypeError
    text = SMALL_SPHERE.replace("n = 48", "n = 16").replace("dt = 5e-4", "dt = auto")
    text = text.replace("[action]\nenable = true", "[identities]\nenable = true\nfuzz_count = 3\n\n[action]\nenable = false")
    out = tmp_path / "auto"
    assert main(["verify-identities", "--config", cfg_file(text, "auto.cfg"), "--levels", "2", "--out", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "PASS residual-convergence-general_H" in shown and "FAIL" not in shown
    assert (out / "identities.csv").exists()


def _sphere_identities(tmp_path, **changes):
    from conftest import SCENARIO_DIR

    text = (SCENARIO_DIR / "sphere_identities.cfg").read_text()
    for key, value in changes.items():
        old = next(line for line in text.splitlines() if line.startswith(f"{key} = "))
        text = text.replace(old, f"{key} = {value}")
    path = tmp_path / "ids.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command", ["run", "verify-identities"])
def test_t_check_at_the_first_output_is_refused(tmp_path, capsys, command):
    # its left neighbour sits at t = 0, where the residuals divide by t: this
    # used to crash with a raw ZeroDivisionError and no summary
    cfg = _sphere_identities(tmp_path, t_check="0.01")
    out = tmp_path / "first"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConstraintViolationError" in err and "t > 0" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, summary, line",
    [
        ("run", "summary.txt", "FAIL identities: NonPositiveTimeError: "),
        ("verify-identities", "identity_summary.txt", "FAIL residuals (level 0, N = 64): NonPositiveTimeError: "),
    ],
)
def test_auto_t_check_with_one_interior_output_fails_typed(tmp_path, capsys, command, summary, line):
    # t_end = 2 dt_out leaves only snapshot 1 between the ends, and its left
    # neighbour sits at t = 0: the identity stage fails with one FAIL line
    cfg = _sphere_identities(tmp_path, t_end="0.02", t_check="auto")
    out = tmp_path / "two"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    text = (out / summary).read_text()
    assert text.startswith(line) and len(text.splitlines()) == 1
    assert not (out / "identities.csv").exists()
    # stdout prints the summary's whole line, error type and message included
    assert capsys.readouterr().out.splitlines()[0] == text.rstrip("\n")


def test_verify_identities_stage_failure_fails_ladder(tmp_path, capsys):
    # level 0 breaks its CFL bound at t = 0.00624; the error used to escape
    # with exit 2, no time and no identity_summary.txt
    from conftest import SCENARIO_DIR

    text = (SCENARIO_DIR / "sphere_identities.cfg").read_text()
    for old, new in (("dt = 2.5e-4", "dt = 3.9e-4"), ("dt_out = 0.01", "dt_out = 0.0078"), ("t_check = 0.05", "t_check = 0.0468")):
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "cfl.cfg"
    cfg.write_text(text)
    out = tmp_path / "cfl"
    out.mkdir()
    (out / "identities.csv").write_text("stale residuals of an earlier ladder\n")
    code = main(["verify-identities", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    summary = (out / "identity_summary.txt").read_text()
    assert summary.startswith("FAIL flow (level 0, N = 64): StepTooLargeError at t = 0.00624: member 0: ")
    assert len(summary.splitlines()) == 1
    assert not (out / "identities.csv").exists()
    assert capsys.readouterr().out == summary


def test_verify_identities_flow_failure_names_its_level(tmp_path, capsys, monkeypatch):
    # level 1 starts with f just under the overflow guard and crosses it in
    # its first step, while level 0, stepped in the same stack, stays healthy
    from conftest import SCENARIO_DIR

    import harnackflow.runner as runner

    build = runner.build_initial_state

    def level_1_near_overflow(lcfg):
        state = build(lcfg)
        if lcfg.n == 32:
            state = runner.FlowState(state.t, state.geom, state.f * (0.999999 * 1e12 / state.f.max()))
        return state

    monkeypatch.setattr(runner, "build_initial_state", level_1_near_overflow)
    text = (SCENARIO_DIR / "sphere_identities.cfg").read_text().replace("n = 64", "n = 16")
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text(text)
    out = tmp_path / "blowup"
    assert main(["verify-identities", "--config", str(cfg), "--levels", "2", "--out", str(out)]) == 1
    summary = (out / "identity_summary.txt").read_text()
    assert summary == (
        "FAIL flow (level 1, N = 32): BlowupError at t = 6.25e-05: member 0: "
        "|field| = 1e+12 exceeds overflow guard at t = 6.25e-05\n"
    )
    assert capsys.readouterr().out == summary
    assert not (out / "identities.csv").exists()


@pytest.mark.parametrize(
    "run, error, code, line",
    [
        (-1, BlowupError("|field| too large", time=0.25), 1, "FAIL fuzz (level 0, N = 16): BlowupError at t = 0.25: "),
        (0, ConstraintViolationError("t_end reaches extinction"), 2, None),
    ],
    ids=["fuzz", "config"],
)
def test_verify_identities_stage_errors(cfg_file, tmp_path, capsys, monkeypatch, run, error, code, line):
    # every flow of the ladder, the fuzz calibration last, is one run of a
    # single snapshots call, whose error names the run that failed
    import harnackflow.runner as runner

    def fail(runs):
        error.run = range(len(runs))[run]
        raise error

    monkeypatch.setattr(runner, "snapshots", fail)
    out = tmp_path / "ladder"
    cfg = cfg_file(SMALL_TORUS.replace("n = 24", "n = 16") + "\n[identities]\nfuzz_count = 3\n", "fail.cfg")
    assert main(["verify-identities", "--config", cfg, "--levels", "2", "--out", str(out)]) == code
    assert not (out / "identities.csv").exists()
    if line is None:  # a config error exits 2 and leaves no summary
        assert type(error).__name__ in capsys.readouterr().err
        assert not (out / "identity_summary.txt").exists()
    else:
        assert (out / "identity_summary.txt").read_text().startswith(line)


def test_action_command(cfg_file, tmp_path, capsys):
    cfg = cfg_file(SMALL_SPHERE, "act.cfg")
    out = tmp_path / "act"
    code = main(["action", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "action.csv").read_text().splitlines()
    assert lines[0] == "x1,t1,x2,t2,gamma,margin"
    assert len(lines) == 6  # five random pairs
    assert "PASS action-margin" in (out / "summary.txt").read_text()
    run_out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(run_out)]) == 0
    assert (out / "action.csv").read_bytes() == (run_out / "action.csv").read_bytes()


@pytest.mark.parametrize("command", ["run", "action"])
def test_unreachable_pair_fails_action_stage(cfg_file, tmp_path, capsys, command):
    cfg = cfg_file(UNREACHABLE_PAIR, "far.cfg")
    out = tmp_path / "far"
    out.mkdir()
    (out / "summary.txt").write_text("PASS stale summary of an earlier run\n")
    code = main([command, "--config", cfg, "--out", str(out)])
    assert code == 1
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("FAIL action: WindowTooNarrowError")
    assert len(summary.splitlines()) == 1
    assert "FAIL scenario far" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "action"])
@pytest.mark.parametrize(
    "pair, reason",
    [
        ("0,0.04,576,0.08", "node 576 outside"),  # n = 24: nodes 0 .. 575
        ("0,0.0,30,0.08", "needs 0 < t1 < t2"),
        ("0,0.08,30,0.08", "needs 0 < t1 < t2"),
        ("0,0.04,30,0.05", "not an output time"),
    ],
    ids=["node-off-grid", "t1-zero", "t1-not-before-t2", "time-off-grid"],
)
def test_impossible_action_pair_exits_before_any_flow(cfg_file, tmp_path, capsys, command, pair, reason):
    # the config leaves the action stage off; the action command turns it on
    # after parsing, and both commands refuse the pair before the flow
    cfg = cfg_file(SMALL_TORUS + f"\n[action]\npairs = {pair}\nwindow = 3\n", "pair.cfg")
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConstraintViolationError" in err and reason in err
    assert not (out / "trajectory.bin").exists()


def test_stale_summary_removed_when_run_stops_early(cfg_file, tmp_path, monkeypatch):
    import harnackflow.runner as runner

    def crash(*args, **kwargs):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(runner._ActionStage, "feed", crash)
    cfg = cfg_file(SMALL_SPHERE, "stale.cfg")
    out = tmp_path / "stale"
    out.mkdir()
    (out / "summary.txt").write_text("PASS stale summary of an earlier run\n")
    with pytest.raises(RuntimeError):
        main(["run", "--config", cfg, "--out", str(out)])
    assert not (out / "summary.txt").exists()


RUN_FILES = ("trajectory.bin", "monitors.csv", "plots.gp", "identities.csv", "action.csv", "summary.txt")
EVERY_STAGE = SMALL_SPHERE.replace("[output]", "[identities]\nenable = true\nt_check = 0.05\n\n[output]")


def test_rerun_with_stages_off_leaves_no_report_of_theirs(cfg_file, tmp_path):
    out = tmp_path / "rerun"
    assert main(["run", "--config", cfg_file(EVERY_STAGE, "every.cfg"), "--out", str(out)]) == 0
    assert all((out / name).exists() for name in RUN_FILES)
    stages_off = EVERY_STAGE.replace("enable = true", "enable = false")
    assert main(["run", "--config", cfg_file(stages_off, "off.cfg"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["monitors.csv", "plots.gp", "summary.txt", "trajectory.bin"]
    assert "action-margin" not in (out / "summary.txt").read_text()


def test_rerun_failing_in_the_flow_leaves_only_its_summary(cfg_file, tmp_path):
    out = tmp_path / "rerun"
    assert main(["run", "--config", cfg_file(EVERY_STAGE, "every.cfg"), "--out", str(out)]) == 0
    assert main(["run", "--config", cfg_file(BAD_INITIAL, "bad.cfg"), "--out", str(out)]) == 1
    assert [p.name for p in out.iterdir()] == ["summary.txt"]
    assert (out / "summary.txt").read_text().startswith("FAIL flow: PositivityLostError")


def test_verify_identities_without_identities_section(cfg_file, tmp_path, capsys):
    cfg = cfg_file(IDENTITIES_OFF, "ids_off.cfg")
    out = tmp_path / "ids_off"
    code = main(["verify-identities", "--config", cfg, "--levels", "2", "--out", str(out)])
    assert code == 0
    assert (out / "identities.csv").exists()
    assert "residual-convergence" in capsys.readouterr().out


def test_sweep_command(cfg_file, tmp_path, capsys):
    c1 = cfg_file(SMALL_SPHERE, "s1.cfg")
    c2 = cfg_file(SMALL_TORUS, "s2.cfg")
    out = tmp_path / "sweep"
    code = main(["sweep", c1, c2, "--out", str(out)])
    assert code == 0
    assert (out / "s1" / "summary.txt").exists()
    assert (out / "s2" / "summary.txt").exists()
    # the configs run in the order given
    assert [line.split()[1] for line in capsys.readouterr().out.splitlines()] == ["s1", "s2"]


def test_env_var_overrides_out(cfg_file, tmp_path, monkeypatch):
    cfg = cfg_file(SMALL_TORUS, "env.cfg")
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("HARNACKFLOW_OUT", str(env_dir))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "ignored")])
    assert code == 0
    assert (env_dir / "summary.txt").exists()
    assert not (tmp_path / "ignored").exists()


def test_env_var_sweep_keeps_members_apart(cfg_file, tmp_path, monkeypatch):
    c1 = cfg_file(SMALL_TORUS, "m1.cfg")
    c2 = cfg_file(SMALL_TORUS, "m2.cfg")
    env_dir = tmp_path / "env_sweep"
    monkeypatch.setenv("HARNACKFLOW_OUT", str(env_dir))
    code = main(["sweep", c1, c2, "--out", str(tmp_path / "ignored")])
    assert code == 0
    assert sorted(p.name for p in env_dir.iterdir()) == ["m1", "m2"]
    assert (env_dir / "m1" / "summary.txt").exists()
    assert (env_dir / "m2" / "summary.txt").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("shared", ["file name", "directory"])
def test_sweep_refuses_two_configs_with_one_output_directory(tmp_path, capsys, monkeypatch, shared):
    # the second run used to overwrite the first
    import harnackflow.runner as runner

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(runner, "snapshots", no_flow)
    out = tmp_path / "out"
    paths = []
    for sub, name in (("a", "tiny.cfg"), ("b", "tiny.cfg" if shared == "file name" else "other.cfg")):
        text = SMALL_TORUS
        if shared == "directory":
            text = SMALL_TORUS.replace("seed = 2", f"seed = 2\ndirectory = {out / 'shared'}")
        (tmp_path / sub).mkdir()
        (tmp_path / sub / name).write_text(text)
        paths.append(str(tmp_path / sub / name))
    flags = ["--out", str(out)] if shared == "file name" else []
    assert main(["sweep", *paths, *flags]) == 2
    err = capsys.readouterr().err
    assert "ConstraintViolationError" in err
    assert paths[0] in err and paths[1] in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, stale",
    [
        (["run", "--seed", "-1"], "summary.txt"),
        (["verify-identities"], "identity_summary.txt"),
        (["sweep", "--seed", "-1"], "neg/summary.txt"),
    ],
    ids=["run", "verify-identities", "sweep"],
)
def test_negative_seed_exits_before_any_flow(cfg_file, tmp_path, capsys, monkeypatch, command, stale):
    # numpy's generator used to reject the seed with a raw ValueError; the
    # verify-identities case takes its seed from the config
    import harnackflow.runner as runner

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(runner, "run_ensemble", no_flow)
    monkeypatch.setattr(runner, "snapshots", no_flow)
    out = tmp_path / "out"
    (out / stale).parent.mkdir(parents=True)
    (out / stale).write_text("PASS stale summary of an earlier run\n")
    cfg = cfg_file(SMALL_TORUS.replace("seed = 2", "seed = -4"), "neg.cfg")
    name, *flags = command
    where = [cfg] if name == "sweep" else ["--config", cfg]
    assert main([name, *where, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "ConstraintViolationError" in err and "seed" in err
    assert not (out / stale).exists()


@pytest.mark.parametrize(
    "command", [["run"], ["action"], ["verify-identities", "--levels", "2"], ["sweep"]],
    ids=["run", "action", "verify-identities", "sweep"],
)
def test_output_directory_that_cannot_be_made_exits_2(cfg_file, tmp_path, capsys, command):
    # os.makedirs under a regular file used to let a raw NotADirectoryError
    # out of the command, which then exited 1 with a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"
    cfg = cfg_file(SMALL_TORUS, "blocked.cfg")
    name, *flags = command
    where = [cfg] if name == "sweep" else ["--config", cfg]
    assert main([name, *where, *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "OutputDirError" in err and str(blocker) in err


# an n = 16 sphere ladder whose fuzz draws parameter tuples
FUZZ_LADDER = SMALL_SPHERE.replace("n = 48", "n = 16").replace(
    "[action]\nenable = true\npair_count = 5\nwindow = 5\n", "[identities]\nfuzz_count = 4\n"
)


@pytest.mark.parametrize(
    "text, command, drawn",
    [
        (SMALL_TORUS + "\n[action]\nenable = true\npairs = 0,0.04,30,0.08\nwindow = 3\n", ["run"], None),
        (SMALL_TORUS + "\n[action]\nenable = true\npair_count = 2\nwindow = 3\n", ["run"], "action.csv"),
        (FUZZ_LADDER, ["verify-identities", "--levels", "2"], "identity_summary.txt"),
    ],
    ids=["explicit", "drawn", "fuzz-ladder"],
)
def test_no_command_imports_numpy_random(cfg_file, tmp_path, text, command, drawn):
    # importing numpy.random costs every command ~6 MiB of peak RSS and
    # ~15 ms; the seeded draws come from the standard library's random
    import os
    import subprocess
    import sys

    from conftest import REPO_ROOT

    out = tmp_path / "out"
    cfg = cfg_file(text, "draws.cfg")
    script = (
        "import sys\nfrom harnackflow.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *command, "--config", cfg, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "0 False"
    # the command did draw: two sampled pairs, or fuzz tuples of both families
    if drawn == "action.csv":
        assert len((out / drawn).read_text().splitlines()) == 3
    elif drawn:
        assert re.findall(r"^PASS (fuzz-bounded-[HP])", (out / drawn).read_text(), re.M) == [
            "fuzz-bounded-H", "fuzz-bounded-P"]


# 10^18 output intervals on an 8 x 8 torus: 1.0e21 bytes of snapshots
HUGE_PLAN = """
[geometry]
kind = torus
n = 8

[flow]
t_end = 1e12
dt_out = 1e-6
"""


def test_plan_above_snapshot_limit_exits_before_any_flow(cfg_file, tmp_path, capsys, monkeypatch):
    import harnackflow.runner as runner

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")

    monkeypatch.setattr(runner, "run_ensemble", no_flow)
    monkeypatch.setattr(runner, "snapshots", no_flow)
    out = tmp_path / "out"
    for command in ("run", "verify-identities"):
        assert main([command, "--config", cfg_file(HUGE_PLAN, "huge.cfg"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "ConstraintViolationError" in err and "above the limit of 17179869184 bytes" in err
        assert not out.exists()


@pytest.mark.parametrize("levels", ["8", "600"])
def test_verify_identities_refuses_a_level_above_snapshot_limit(tmp_path, capsys, monkeypatch, levels):
    # the shipped ladder's level 7 (N = 8192, 81,922 snapshots of 3 runs)
    # plans 32 GB; levels 0 .. 6 stay below the limit.  No later level is
    # made: at level 512 the scaled dt_out would overflow a float
    import harnackflow.runner as runner
    from conftest import SCENARIO_DIR

    def no_state(*args, **kwargs):
        raise AssertionError("a state was built")

    monkeypatch.setattr(runner, "build_initial_state", no_state)
    cfg = str(SCENARIO_DIR / "sphere_identities.cfg")
    assert main(["verify-identities", "--config", cfg, "--levels", levels, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "ladder level 7 (N = 8192) plans 81922 snapshots x 3 run(s)" in err
    assert list(tmp_path.iterdir()) == []
