"""Command-line front end.

Subcommands:

* ``run --config PATH [--out DIR] [--seed N]`` -- one scenario end to end:
  trajectory file, monitor/identity/action CSVs, assertion summary.
* ``verify-identities --config PATH [--levels K] [--out DIR] [--seed N]``
  -- identity residuals over K >= 2 refinement levels; prints the
  convergence table, or the ``FAIL`` line of a stage that failed.
* ``action --config PATH [--out DIR] [--seed N]`` -- ``run`` with the
  action stage forced on and the monitor and identity stages off: writes
  trajectory.bin, an empty-column monitors.csv, action.csv and
  summary.txt.
* ``sweep CONFIG [CONFIG ...] [--jobs J] [--out DIR]`` -- several scenarios,
  fanned out across min(J, number of configs) processes, each writing to
  its own subdirectory; J must be at least 1.  Every config is parsed
  first, and two that resolve to one output directory exit 2 before any
  scenario runs.

Exit status is 0 iff every enabled assertion of every scenario passed; a
stage that fails with a typed error fails its scenario (exit 1), while
any other typed error, such as an invalid config, exits 2.  The environment variable
``HARNACKFLOW_OUT`` overrides ``--out``; for ``sweep`` it is the base
directory of the per-scenario subdirectories.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import parse_config
from .errors import ConfigFileError, ConstraintViolationError, HarnackFlowError
from .runner import resolve_out_dir, run_scenario, verify_identities


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigFileError(f"cannot read config {path!r}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise ConfigFileError(f"config {path!r} is not UTF-8 text: {err.reason} at byte {err.start}") from err
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_config(text, name=name)


def _out_flag(args):
    return os.environ.get("HARNACKFLOW_OUT") or args.out


def _print_report(report):
    if report.failure:
        print(report.failure)
    for a in report.assertions:
        print(a.line())
    print(f"{'PASS' if report.passed else 'FAIL'} scenario {report.name} -> {report.out_dir}")
    return 0 if report.passed else 1


def _cmd_run(args):
    cfg = _load_config(args.config)
    return _print_report(run_scenario(cfg, out_flag=_out_flag(args), seed=args.seed))


def _cmd_verify_identities(args):
    cfg = _load_config(args.config)
    study = verify_identities(cfg, levels=args.levels, out_flag=_out_flag(args), seed=args.seed)
    print(study.failure or study.table())
    for a in study.assertions:
        print(a.line())
    return 0 if study.passed else 1


def _cmd_action(args):
    cfg = replace(_load_config(args.config), action_enable=True, identities_enable=False, monitors=())
    return _print_report(run_scenario(cfg, out_flag=_out_flag(args), seed=args.seed))


def _sweep_worker(item):
    cfg, out_dir, seed = item
    report = run_scenario(cfg, out_flag=out_dir, seed=seed)
    return cfg.name, report.passed, report.out_dir


def _cmd_sweep(args):
    if args.jobs < 1:
        raise ConstraintViolationError(f"--jobs must be at least 1, got {args.jobs}")
    out_base = _out_flag(args)
    # every config is parsed, and every output directory known, before any scenario runs
    items, owners = [], {}
    for path in args.configs:
        cfg = _load_config(path)
        out_dir = os.path.join(out_base, cfg.name) if out_base else None
        where = os.path.realpath(resolve_out_dir(cfg, out_dir))
        if where in owners:
            raise ConstraintViolationError(
                f"configs {owners[where]!r} and {path!r} both write to {where!r}"
            )
        owners[where] = path
        items.append((cfg, out_dir, args.seed))
    # the pool starts all its workers at once: no more than there are configs
    workers = min(args.jobs, len(items))
    if workers > 1:
        # imported here: the process pool costs every other command start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, items))
    else:
        results = [_sweep_worker(item) for item in items]
    ok = True
    for name, passed, out_dir in results:
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name} -> {out_dir}")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="harnackflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario end to end")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_vi = sub.add_parser("verify-identities", help="identity residual refinement study")
    p_vi.add_argument("--config", required=True)
    p_vi.add_argument("--levels", type=int, default=3)
    p_vi.add_argument("--out", default=None)
    p_vi.add_argument("--seed", type=int, default=None)
    p_vi.set_defaults(func=_cmd_verify_identities)

    p_act = sub.add_parser("action", help="run with only the flow and action stages")
    p_act.add_argument("--config", required=True)
    p_act.add_argument("--out", default=None)
    p_act.add_argument("--seed", type=int, default=None)
    p_act.set_defaults(func=_cmd_action)

    p_sweep = sub.add_parser("sweep", help="run several scenario configs")
    p_sweep.add_argument("configs", nargs="+")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HarnackFlowError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
