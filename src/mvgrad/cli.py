"""Command-line front end.

Subcommands:

* ``run --config FILE [--seed S] [--out DIR] [--parallel W]`` executes the
  declared check suite and writes results.csv plus manifest.json.
* ``list-scenarios`` prints the registry with parameters and checks.
* ``validate --config FILE`` parses and validates without running.

Exit codes: 0 success, 1 a declared check failed, 2 configuration error,
3 numerical failure.  ``validate`` and ``run`` check a config alike, and
``validate`` writes nothing; ``run`` then creates its output directory before
the first check, and a directory it cannot create, or an output it cannot
write there after the checks, exits 2 (the old manifest.json goes first and
the new one is written last, so a failed write leaves none).  An unknown
section or key, an unknown name, an unmet check need (``runner.CHECK_SPECS``),
noise that is not elliptic at the initial law's mean (such as sigma = 0) or an
MVGRAD_MEMORY_BUDGET_MB (the cap on retained trajectories: states plus
increments, two (N, d) slices per stream, and the path set a shared block
holds beside a stream) that is not a finite positive number all exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .config import load_config
from .errors import ConfigError
from .runner import resolve_bundle, run_experiment
from .scenarios import all_scenarios
from .simulate import MEMORY_BUDGET_ENV


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvgrad",
        description="particle-system derivative estimation and verification suites",
        epilog=f"memory budget: set {MEMORY_BUDGET_ENV} (MB) to cap retained "
               "trajectories (states plus increments, or increments and two slices per "
               "stream, as an estimate outside a shared block has, and held paths)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a configured check suite")
    run_p.add_argument("--config", required=True, help="INI config file")
    run_p.add_argument("--seed", type=int, default=None, help="override [experiment] seed")
    run_p.add_argument("--out", default=None, help="override output directory")
    run_p.add_argument("--parallel", type=int, default=None,
                       help="run checks concurrently on this many worker processes")

    sub.add_parser("list-scenarios", help="print the scenario registry")

    val_p = sub.add_parser("validate", help="parse and validate a config file")
    val_p.add_argument("--config", required=True)
    return parser


def _checked_config(path, **overrides):
    """(config, text) checked as ``run`` uses it, or None after a config error."""
    try:
        cfg, text = load_config(path)
        overrides = {key: val for key, val in overrides.items() if val is not None}
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
        resolve_bundle(cfg)  # surfaces name, needs, horizon and budget problems
    except ConfigError as exc:
        _config_error(str(exc))
        return None
    return cfg, text


def _config_error(message: str) -> None:
    print(json.dumps({"error": "config", "message": message}), file=sys.stderr)


def _cmd_run(args) -> int:
    checked = _checked_config(args.config, seed=args.seed, parallel=args.parallel,
                              out_dir=args.out)
    if checked is None:
        return 2
    cfg, text = checked
    try:
        # before the first check, so a bad directory costs no run time
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _config_error(f"cannot create output directory {cfg.out_dir}: {exc}")
        return 2
    try:
        result = run_experiment(cfg, text, cfg.out_dir)
    except ConfigError as exc:      # an output it could not write there
        _config_error(str(exc))
        return 2
    print(f"wrote {result.csv_path} ({len(result.rows)} rows), exit {result.exit_code}")
    if result.errors:
        print(json.dumps({"error": "numerical", "records": result.errors}),
              file=sys.stderr)
    return result.exit_code


def _cmd_list_scenarios() -> int:
    print(f"{'name':<16} {'d':>2}  {'family':<15} {'checks'}")
    print("-" * 78)
    for scen in all_scenarios():
        params = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in sorted(scen.params.items()))
        print(f"{scen.name:<16} {scen.build().d:>2}  {scen.family:<15} {', '.join(scen.checks)}")
        print(f"{'':<16} {'':>2}  {params:<15}")
        print(f"{'':<16} {'':>2}  {scen.description}")
    return 0


def _cmd_validate(args) -> int:
    checked = _checked_config(args.config)
    if checked is None:
        return 2
    cfg, _ = checked
    print(f"ok: scenario={cfg.scenario} N={cfg.n_particles} n_steps={cfg.n_steps} t={cfg.t}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list-scenarios":
        return _cmd_list_scenarios()
    if args.command == "validate":
        return _cmd_validate(args)
    parser.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
