"""Seeded input fuzz: damaged configs and trajectory files fail with typed errors.

Every shipped scenario's text gets random value deletions and replacements
and goes through ``parse_config`` and ``build_initial_state``; a small
saved trajectory gets truncations and bit flips and goes through
``load_trajectory``.  Only ``HarnackFlowError`` subclasses may escape, and
``cli.main`` exits 2 on every config that ``parse_config`` rejects.  A
boundary-value fuzz puts the times, the window and the pairs of small
valid-looking configs on the edges of the output grid and runs each
through ``run_scenario`` and ``verify_identities``.
"""

import numpy as np
import pytest

import harnackflow as hf
from harnackflow.cli import main
from harnackflow.errors import HarnackFlowError

from conftest import SCENARIO_DIR

SCENARIOS = sorted(SCENARIO_DIR.glob("*.cfg"))

# replacement values: wrong types, signs, magnitudes and non-finite numbers
REPLACEMENTS = (
    "", "0", "-1", "1", "2", "3.5", "-0.5", "1e-300", "1e300", "1e400", "nan", "inf", "-inf",
    "abc", "true", "false", "auto", "torus", "rot_sphere", "1,2", "1,0.1,2,0.2", ";", "=", "#",
)
CONFIG_MUTANTS = 150  # per scenario
TRAJECTORY_MUTANTS = 60


def _mutate_config(text, rng):
    """The text with 1-3 values deleted, replaced or cut."""
    lines = text.splitlines()
    slots = [i for i, line in enumerate(lines) if "=" in line.split("#", 1)[0]]
    for i in rng.choice(slots, size=int(rng.integers(1, 4)), replace=False):
        key, value = lines[i].split("#", 1)[0].split("=", 1)
        value = value.strip()
        op = rng.integers(3)
        if op == 0:
            value = ""
        elif op == 1:
            value = REPLACEMENTS[rng.integers(len(REPLACEMENTS))]
        elif value:
            cut = int(rng.integers(len(value)))
            value = value[:cut] + value[cut + 1:]
        lines[i] = f"{key}= {value}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_damaged_config_fails_typed(path, tmp_path, capsys):
    rng = np.random.default_rng(sum(path.stem.encode()))
    text = path.read_text()
    rejected = []
    for _ in range(CONFIG_MUTANTS):
        bad = _mutate_config(text, rng)
        try:
            cfg = hf.parse_config(bad, name=path.stem)
        except HarnackFlowError:
            rejected.append(bad)
            continue
        try:
            hf.build_initial_state(cfg)
        except HarnackFlowError:
            pass
    assert rejected, "the mutations should break some configs"
    # the CLI turns a rejected config into exit status 2 before any flow runs
    for k, bad in enumerate(rejected[:5]):
        cfg_path = tmp_path / f"bad{k}.cfg"
        cfg_path.write_text(bad)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_damaged_trajectory_fails_typed(tmp_path):
    geom = hf.TorusGeometry(8, 2 * np.pi)
    x, y = geom.coords()
    state = hf.FlowState(0.0, geom.with_phi(0.05 * np.sin(x) * np.sin(y)), 0.5 + 0.2 * np.sin(x) + 0 * y)
    path = tmp_path / "trajectory.bin"
    hf.run(state, 0.05, 0.00625, 0.0125, c=-1.0, initial_id="sine_x").save(path)
    data = path.read_bytes()
    rng = np.random.default_rng(2024)
    loaded = 0
    for k in range(TRAJECTORY_MUTANTS):
        if k % 3 == 0:
            bad = data[: int(rng.integers(len(data)))]
        else:
            flipped = bytearray(data)
            for pos in rng.integers(len(data), size=int(rng.integers(1, 4))):
                flipped[pos] ^= 1 << int(rng.integers(8))
            bad = bytes(flipped)
        damaged = tmp_path / f"damaged{k}.bin"
        damaged.write_bytes(bad)
        try:
            hf.load_trajectory(damaged)
            loaded += 1  # a flipped mantissa bit can leave a valid file
        except HarnackFlowError:
            pass
    assert loaded < TRAJECTORY_MUTANTS


BOUNDARY_CONFIGS = 60  # accepted by parse_config, each run through both stages
DT_OUT = 0.01


def _boundary_config(rng):
    """A small config whose times, window and pairs sit on the output grid's edges."""
    kind = ("rot_sphere", "torus")[rng.integers(2)]
    n_out = int(rng.choice([1, 2, 3, 4, 6]))
    t_end = n_out * DT_OUT + float(rng.choice([0.0, 0.0, 1e-13, -1e-13, 0.5 * DT_OUT]))
    last = n_out * DT_OUT
    times = ["0", repr(DT_OUT), repr(2 * DT_OUT), repr(last - DT_OUT), repr(last), repr(0.5 * DT_OUT)]
    t_check = rng.choice(["auto", "auto", *times])
    t0 = rng.choice(["auto", "auto", *times])
    nodes = [0, 1, 7, 8]
    pairs = ";".join(
        f"{rng.choice(nodes)},{rng.choice(times)},{rng.choice(nodes)},{rng.choice(times)}"
        for _ in range(int(rng.integers(3)))
    )
    geometry = "kind = rot_sphere\nphi_mode = cos_theta\nphi_amp = 0.1" if kind == "rot_sphere" else "kind = torus"
    initial = "id = cos_theta" if kind == "rot_sphere" else "id = sine_x"
    return f"""
[geometry]
{geometry}
n = 8

[initial]
{initial}
f0 = 0.5
amp = 0.2

[flow]
t_end = {t_end!r}
dt = {rng.choice(["auto", repr(DT_OUT / 8)])}
dt_out = {DT_OUT!r}
t0 = {t0}

[identities]
enable = true
t_check = {t_check}
fuzz_count = {rng.choice([0, 2])}

[action]
enable = true
pairs = {pairs}
pair_count = {rng.integers(3)}
window = {rng.choice([1, 2, 8])}
"""


def test_boundary_values_fail_typed(tmp_path):
    # configs on the grid edges used to reach a raw ZeroDivisionError at t = 0
    rng = np.random.default_rng(11)
    ran = 0
    for k in range(10 * BOUNDARY_CONFIGS):
        if ran == BOUNDARY_CONFIGS:
            break
        text = _boundary_config(rng)
        try:
            cfg = hf.parse_config(text, name=f"edge{k}")
        except HarnackFlowError:
            continue  # refused before any flow: typed
        ran += 1
        out = tmp_path / f"edge{k}"
        for stage, summary in ((hf.run_scenario, "summary.txt"), (hf.verify_identities, "identity_summary.txt")):
            kwargs = {"levels": 2} if stage is hf.verify_identities else {}
            try:
                report = stage(cfg, out_flag=str(out), **kwargs)
            except HarnackFlowError:
                continue
            except Exception as err:  # noqa: BLE001 - the failure names the config
                pytest.fail(f"{stage.__name__} raised {type(err).__name__}: {err}\n{text}")
            lines = (out / summary).read_text().splitlines()
            assert lines, text
            if not report.passed:
                assert any(line.startswith("FAIL") for line in lines), text
    assert ran == BOUNDARY_CONFIGS
