"""Scenario configuration: a strict line-oriented ``key = value`` grammar.

The format is deliberately dependency-free and bit-exactly documented:
``[section]`` headers, ``key = value`` lines, ``#`` comments (whole-line
or trailing), blank lines ignored.  Unknown sections or keys are errors;
there are no silent defaults for misspellings.

Sections and keys (defaults in parentheses):

    [geometry]
      kind        rot_sphere | torus                (required)
      n           grid resolution                   (128)
      length      torus side L                      (2*pi)
      radius      sphere initial round radius r0    (1.0)
      phi_mode    round | cos_theta | sine_xy       (round)
      phi_amp     perturbation amplitude            (0.0)

    [initial]
      id          constant | cos_theta | sine_x | sine_xy   (constant)
      f0          constant part of f                (0.5)
      amp         perturbation amplitude            (0.0)

    [flow]
      variant     with_potential | plain_heat | general     (with_potential)
      c           reaction coefficient, df/dt = lap f - c R f
                  (from variant; required for general)
      t_end       final time                        (required)
      dt          time step, or auto                (auto)
      dt_out      output spacing                    (t_end / 40)
      t0          monitor start time, or auto       (auto: first output
                                                     after 0.05 * t_end)
      evolve_metric   true | false                  (true)

    [monitors]
      d           constant in the P and W quantities  (1.0)
      enable      auto | comma list of monitor columns (auto)

    [identities]
      enable      true | false                      (false; true needs
                                                     flow.evolve_metric)
      presets     comma list of general_H, cor_H, general_P,
                  cor_tP, surface, grad             (all)
      fuzz_count  random tuples at the coarsest level (0)
      t_check     snapshot time for residuals, or auto (auto: output
                                                     nearest t_end / 2, and
                                                     not the first output when
                                                     there are three or more;
                                                     an explicit value must be
                                                     a stored snapshot time
                                                     other than the first two
                                                     and the last)

    [action]
      enable      true | false                      (false)
      pair_count  random space-time pairs           (0)
      pairs       semicolon list of "x1,t1,x2,t2"   (empty)
      window      per-step node window              (5)

    [output]
      directory   output directory                  (out/<scenario name>)
      seed        RNG seed                          (0)

``dt = auto`` leaves ``dt`` as None: the flow then gives each output
interval the fewest equal steps that pass its CFL rule (first estimated
from the bound at the interval's start, shrunk by the area law on an
evolving sphere, then verified before every step, and the interval taken
again with more steps when one breaks the rule).  An
explicit dt, used in every interval, must meet the CFL bound of the initial
state and is trimmed down so an integer number of steps lands exactly on
each output.  Every time is read on the flow's output grid
(``output_grid``, a ``flow.OutputGrid`` from t = 0): ``t0 = auto`` is
the first output after 0.05 t_end that 0.05 t_end does not name,
``t_check = auto`` the grid's check index nearest t_end / 2, and an
explicit ``t_check`` or action-pair time must name an output, within
1e-9 dt_out.  An explicit ``t_check`` whose left neighbour is the snapshot
at t = 0 is rejected, since the residuals divide by t there.  A run
writes every snapshot (phi and f, float64 at every node) to
``trajectory.bin``, though it keeps only a window of them in memory, and a
ladder level plans its snapshots up to the one after its check time; a
plan of more than ``MAX_SNAPSHOT_BYTES`` of them (defined in ``flow``)
is rejected before any field is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigSyntaxError,
    ConstraintViolationError,
    UnknownKeyError,
    require_kind,
)
from .flow import MAX_SNAPSHOT_BYTES, VARIANT_C, FlowState, OutputGrid
from .geometry import SphereGeometry, TorusGeometry
from .harnack import MONITOR_GROUPS
from .identities import PRESET_REGISTRY

MONITOR_NAMES = tuple(MONITOR_GROUPS)

IDENTITY_PRESETS = tuple(PRESET_REGISTRY)


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    # geometry
    kind: str = ""
    n: int = 128
    length: float = 2.0 * np.pi
    radius: float = 1.0
    phi_mode: str = "round"
    phi_amp: float = 0.0
    # initial data
    initial_id: str = "constant"
    f0: float = 0.5
    amp: float = 0.0
    # flow
    variant: str = "with_potential"
    c: float | None = None
    t_end: float | None = None
    dt: float | None = None  # None = auto
    dt_out: float | None = None
    t0: float | None = None
    evolve_metric: bool = True
    # monitors
    d: float = 1.0
    monitors: tuple = ("auto",)
    # identities
    identities_enable: bool = False
    identity_presets: tuple = IDENTITY_PRESETS
    fuzz_count: int = 0
    t_check: float | None = None
    # action
    action_enable: bool = False
    pair_count: int = 0
    pairs: tuple = ()
    window: int = 5
    # output
    directory: str | None = None
    seed: int = 0


def _parse_bool(raw, line):
    if raw in ("true", "True", "1", "yes"):
        return True
    if raw in ("false", "False", "0", "no"):
        return False
    raise ConfigSyntaxError(f"expected a boolean, got {raw!r}", line)


def _parse_float(raw, line):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigSyntaxError(f"expected a number, got {raw!r}", line) from None
    if not np.isfinite(value):
        raise ConfigSyntaxError(f"expected a finite number, got {raw!r}", line)
    return value


def _parse_int(raw, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigSyntaxError(f"expected an integer, got {raw!r}", line) from None


def _parse_pairs(raw, line):
    pairs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        bits = [b.strip() for b in chunk.split(",")]
        if len(bits) != 4:
            raise ConfigSyntaxError(f"pair {chunk!r} needs x1,t1,x2,t2", line)
        parsers = (_parse_int, _parse_float, _parse_int, _parse_float)
        pairs.append(tuple(parse(bit, line) for parse, bit in zip(parsers, bits)))
    return tuple(pairs)


def parse_config(text, name="scenario"):
    """Parse and validate a scenario config; unknown keys are errors."""
    require_kind(text, str, "text")
    cfg = ScenarioConfig(name=name)
    section = None
    setters = _setters()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigSyntaxError(f"malformed section header {raw.strip()!r}", lineno)
            section = line[1:-1].strip()
            if section not in setters:
                raise UnknownKeyError(section, lineno)
            continue
        if "=" not in line:
            raise ConfigSyntaxError(f"expected key = value, got {raw.strip()!r}", lineno)
        if section is None:
            raise ConfigSyntaxError("key outside of any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        table = setters[section]
        if key not in table:
            raise UnknownKeyError(f"{section}.{key}", lineno)
        table[key](cfg, value, lineno)
    _validate(cfg)
    return cfg


def _setters():
    def set_attr(attr, parser=None):
        def setter(cfg, value, line):
            setattr(cfg, attr, parser(value, line) if parser else value)

        return setter

    def set_choice(attr, choices):
        def setter(cfg, value, line):
            if value not in choices:
                raise ConstraintViolationError(
                    f"line {line}: {attr} must be one of {', '.join(choices)}; got {value!r}"
                )
            setattr(cfg, attr, value)

        return setter

    def set_monitors(cfg, value, line):
        items = tuple(s.strip() for s in value.split(",") if s.strip())
        for item in items:
            if item != "auto" and item not in MONITOR_NAMES:
                raise ConstraintViolationError(
                    f"line {line}: unknown monitor {item!r} (choose from {', '.join(MONITOR_NAMES)})"
                )
        cfg.monitors = items

    def set_presets(cfg, value, line):
        items = tuple(s.strip() for s in value.split(",") if s.strip())
        for item in items:
            if item not in IDENTITY_PRESETS:
                raise ConstraintViolationError(
                    f"line {line}: unknown identity preset {item!r}"
                )
        cfg.identity_presets = items

    def set_auto_float(attr):
        def setter(cfg, value, line):
            setattr(cfg, attr, None if value == "auto" else _parse_float(value, line))

        return setter

    return {
        "geometry": {
            "kind": set_choice("kind", ("rot_sphere", "torus")),
            "n": set_attr("n", _parse_int),
            "length": set_attr("length", _parse_float),
            "radius": set_attr("radius", _parse_float),
            "phi_mode": set_choice("phi_mode", ("round", "cos_theta", "sine_xy")),
            "phi_amp": set_attr("phi_amp", _parse_float),
        },
        "initial": {
            "id": set_choice("initial_id", ("constant", "cos_theta", "sine_x", "sine_xy")),
            "f0": set_attr("f0", _parse_float),
            "amp": set_attr("amp", _parse_float),
        },
        "flow": {
            "variant": set_choice("variant", ("with_potential", "plain_heat", "general")),
            "c": set_attr("c", _parse_float),
            "t_end": set_attr("t_end", _parse_float),
            "dt": set_auto_float("dt"),
            "dt_out": set_auto_float("dt_out"),
            "t0": set_auto_float("t0"),
            "evolve_metric": set_attr("evolve_metric", _parse_bool),
        },
        "monitors": {
            "d": set_attr("d", _parse_float),
            "enable": set_monitors,
        },
        "identities": {
            "enable": set_attr("identities_enable", _parse_bool),
            "presets": set_presets,
            "fuzz_count": set_attr("fuzz_count", _parse_int),
            "t_check": set_auto_float("t_check"),
        },
        "action": {
            "enable": set_attr("action_enable", _parse_bool),
            "pair_count": set_attr("pair_count", _parse_int),
            "pairs": set_attr("pairs", _parse_pairs),
            "window": set_attr("window", _parse_int),
        },
        "output": {
            "directory": set_attr("directory"),
            "seed": set_attr("seed", _parse_int),
        },
    }


# ---------------------------------------------------------------------------
# validation and state construction


def _validate(cfg):
    if not cfg.kind:
        raise ConstraintViolationError("geometry.kind is required")
    if cfg.t_end is None:
        raise ConstraintViolationError("flow.t_end is required")
    if cfg.t_end <= 0:
        raise ConstraintViolationError("flow.t_end must be positive")
    if cfg.n < 4:
        raise ConstraintViolationError("geometry.n must be at least 4")
    if cfg.kind == "torus" and cfg.length <= 0:
        raise ConstraintViolationError("geometry.length must be positive")
    if cfg.kind == "rot_sphere" and cfg.radius <= 0:
        raise ConstraintViolationError("geometry.radius must be positive")
    if cfg.window < 1:
        raise ConstraintViolationError("action.window must be at least 1")
    if cfg.pair_count < 0 or cfg.fuzz_count < 0:
        raise ConstraintViolationError("counts must be nonnegative")

    if cfg.phi_mode == "cos_theta" and cfg.kind != "rot_sphere":
        raise ConstraintViolationError("phi_mode cos_theta is sphere-only")
    if cfg.phi_mode == "sine_xy" and cfg.kind != "torus":
        raise ConstraintViolationError("phi_mode sine_xy is torus-only")
    if cfg.initial_id == "cos_theta" and cfg.kind != "rot_sphere":
        raise ConstraintViolationError("initial id cos_theta is sphere-only")
    if cfg.initial_id in ("sine_x", "sine_xy") and cfg.kind != "torus":
        raise ConstraintViolationError(f"initial id {cfg.initial_id} is torus-only")

    if cfg.variant == "general":
        if cfg.c is None:
            raise ConstraintViolationError("flow.c is required for the general variant")
    else:
        preset_c = VARIANT_C[cfg.variant]
        if cfg.c is None:
            cfg.c = preset_c
        elif cfg.c != preset_c:
            raise ConstraintViolationError(
                f"flow.c = {cfg.c} contradicts variant {cfg.variant} (c = {preset_c})"
            )

    if cfg.identities_enable and not cfg.evolve_metric:
        raise ConstraintViolationError("identities.enable needs flow.evolve_metric: the identities assume dg/dt = -R g")

    if "gradient" in cfg.monitors:
        if cfg.c != 0.0:
            raise ConstraintViolationError("gradient monitor requires the plain_heat variant")
        lo, hi = cfg.f0 - abs(cfg.amp), cfg.f0 + abs(cfg.amp)
        if not (0.0 < lo and hi < 1.0):
            raise ConstraintViolationError(
                f"gradient monitor requires 0 < f < 1; initial range is [{lo:.6g}, {hi:.6g}]"
            )

    if cfg.dt_out is None:
        cfg.dt_out = cfg.t_end / 40.0
    if cfg.dt_out <= 0 or cfg.dt_out > cfg.t_end:
        raise ConstraintViolationError("flow.dt_out must lie in (0, t_end]")
    grid = output_grid(cfg)
    check_snapshot_plan(cfg, grid.count + 1)

    geom0 = build_geometry(cfg)
    bound0 = geom0.cfl_bound()
    if cfg.kind == "rot_sphere" and cfg.evolve_metric:
        extinction = geom0.extinction_time()
        if cfg.t_end >= extinction:
            raise ConstraintViolationError(
                f"t_end = {cfg.t_end:.6g} reaches the sphere extinction time {extinction:.6g}"
            )

    if cfg.dt is None:
        if not 0 < bound0 < np.inf:  # a huge metric overflows the bound
            raise ConstraintViolationError(
                f"flow.dt = auto needs a positive, finite CFL bound 0.2*h^2*min(e^(2*phi)); got {bound0:.6g}"
            )
    else:
        if not 0 < cfg.dt < np.inf:
            raise ConstraintViolationError(f"flow.dt = {cfg.dt:.6g} must be positive and finite")
        if cfg.dt > bound0 * (1.0 + 1e-12):
            raise ConstraintViolationError(
                f"flow.dt = {cfg.dt:.6g} violates the CFL rule dt <= 0.2*h^2*min(e^(2*phi)) = {bound0:.6g}"
            )
        if not cfg.dt_out / cfg.dt < np.inf:
            raise ConstraintViolationError(
                f"flow.dt_out / flow.dt = {cfg.dt_out:.6g} / {cfg.dt:.6g} overflows a float"
            )
        # trim dt so that an integer number of steps lands on each output
        steps = max(1, int(np.ceil(cfg.dt_out / cfg.dt - 1e-12)))
        cfg.dt = cfg.dt_out / steps

    if cfg.t0 is None:
        # the first output after 0.05 t_end, not one that 0.05 t_end names
        cfg.t0 = grid.time(grid.first_at(0.05 * cfg.t_end) + (grid.index(0.05 * cfg.t_end) is not None))
    if cfg.t0 <= 0 or cfg.t0 >= cfg.t_end:
        raise ConstraintViolationError("flow.t0 must lie in (0, t_end)")

    # the residuals at snapshot k divide by the time of snapshot k - 1, so k
    # = 1 (left neighbour at t = 0) is refused, or left to fail typed in the
    # identity stage when auto has no other interior snapshot
    if cfg.t_check is None:
        cfg.t_check = grid.time(grid.check_index(0.5 * cfg.t_end))
    else:
        # an explicit check time must name the snapshot the grid checks at
        # it, one with a neighbour on each side and the left one at t > 0,
        # or each refinement level would land elsewhere
        if grid.count < 3 or grid.index(cfg.t_check) != grid.check_index(cfg.t_check):
            raise ConstraintViolationError(
                f"identities.t_check = {cfg.t_check:.6g} must be a multiple of flow.dt_out = {cfg.dt_out:.6g} with a "
                f"snapshot on each side, the left one at t > 0: in [{grid.time(2):.6g}, "
                f"{grid.time(grid.count - 1):.6g}]"
            )

    # explicit action pairs, checked whether or not the action stage is on
    # (the action subcommand turns it on after parsing): each needs nodes on
    # the grid and 0 < t1 < t2 at stored snapshot times
    nodes = _node_count(cfg)
    for x1, t1, x2, t2 in cfg.pairs:
        pair = f"action.pairs entry {x1},{t1!r},{x2},{t2!r}"
        for x in (x1, x2):
            if not 0 <= x < nodes:
                raise ConstraintViolationError(f"{pair}: node {x} outside the grid's nodes 0 .. {nodes - 1}")
        if not 0 < t1 < t2:
            raise ConstraintViolationError(f"{pair}: needs 0 < t1 < t2")
        for t in (t1, t2):
            if grid.index(t) is None:
                raise ConstraintViolationError(
                    f"{pair}: t = {t!r} is not an output time k * {cfg.dt_out!r}, k = 0 .. {grid.count}"
                )


def output_grid(cfg):
    """The output grid of cfg's flow, which starts at t = 0 as ``build_initial_state``'s state does."""
    return OutputGrid.spanning(0.0, cfg.t_end, cfg.dt_out)


def _node_count(cfg):
    return cfg.n * cfg.n if cfg.kind == "torus" else cfg.n


def check_snapshot_plan(cfg, snapshots, members=1, what="the run"):
    """Refuse ``snapshots`` snapshots of ``members`` runs on cfg's grid above MAX_SNAPSHOT_BYTES.

    Each snapshot holds phi and f, float64 at every node.  Raises
    ConstraintViolationError (exit 2), before anything is allocated.
    """
    nodes = _node_count(cfg)
    planned = snapshots * members * 2 * nodes * 8
    if planned > MAX_SNAPSHOT_BYTES:
        raise ConstraintViolationError(
            f"{what} plans {snapshots} snapshots x {members} run(s) x 2 fields x {nodes} nodes x 8 bytes "
            f"= {planned:.4g} bytes, above the limit of {MAX_SNAPSHOT_BYTES} bytes (2^34)"
        )


def build_geometry(cfg):
    require_kind(cfg, ScenarioConfig, "cfg")
    if cfg.kind == "rot_sphere":
        geom = SphereGeometry(cfg.n)
        phi = np.full(geom.field_shape, SphereGeometry.round_phi(cfg.radius))
        if cfg.phi_mode == "cos_theta":
            phi = phi + cfg.phi_amp * geom.cos_theta
        return geom.with_phi(phi)
    geom = TorusGeometry(cfg.n, cfg.length)
    phi = np.zeros(geom.field_shape)
    if cfg.phi_mode == "sine_xy":
        x, y = geom.coords()
        w = 2.0 * np.pi / cfg.length
        phi = cfg.phi_amp * np.sin(w * x) * np.sin(w * y)
    return geom.with_phi(phi)


def build_initial_state(cfg):
    """Initial FlowState at t = 0 from the configured geometry and data."""
    geom = build_geometry(cfg)
    if cfg.kind == "rot_sphere":
        if cfg.initial_id == "constant":
            f = np.full(geom.field_shape, cfg.f0)
        elif cfg.initial_id == "cos_theta":
            f = cfg.f0 + cfg.amp * geom.cos_theta
        else:
            raise ConstraintViolationError(f"initial id {cfg.initial_id!r} not valid on the sphere")
    else:
        x, y = geom.coords()
        w = 2.0 * np.pi / cfg.length
        if cfg.initial_id == "constant":
            f = np.full(geom.field_shape, cfg.f0)
        elif cfg.initial_id == "sine_x":
            f = cfg.f0 + cfg.amp * np.sin(w * x) * np.ones_like(y)
        elif cfg.initial_id == "sine_xy":
            f = cfg.f0 + cfg.amp * np.sin(w * x) * np.sin(w * y)
        else:
            raise ConstraintViolationError(f"initial id {cfg.initial_id!r} not valid on the torus")
    return FlowState(0.0, geom, f)
