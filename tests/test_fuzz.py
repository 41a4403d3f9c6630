"""Seeded input fuzz: damaged configs and trajectory files fail with typed errors.

Every shipped scenario's text gets random value deletions and replacements
and goes through ``parse_config`` and ``build_initial_state``; a small
saved trajectory gets truncations and bit flips and goes through
``load_trajectory``.  Only ``HarnackFlowError`` subclasses may escape, and
``cli.main`` exits 2 on every config that ``parse_config`` rejects.
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
