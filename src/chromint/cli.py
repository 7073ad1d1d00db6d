"""Command line entry point.

    chromint run CONFIG --out DIR [--seed S] [--override key=value]...
    chromint selftest [--full]
    chromint scan --scenario NAME --param key=a:b:n --out DIR [--seed S]

Exit codes: 0 success, 2 configuration error, 3 selftest failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .scenarios import (
    ConfigError,
    apply_overrides,
    default_config,
    load_config,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SELFTEST = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chromint",
                                     description="chromatic intensity "
                                                 "interferometry simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="YAML scenario config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config field")

    p_self = sub.add_parser("selftest", help="run built-in consistency checks")
    p_self.add_argument("--full", action="store_true",
                        help="include Fock-oracle and statistical suites")

    p_scan = sub.add_parser("scan", help="sweep one parameter of a scenario")
    p_scan.add_argument("--scenario", required=True)
    p_scan.add_argument("--param", required=True, metavar="KEY=A:B:N",
                        help="parameter sweep, N values from A to B")
    p_scan.add_argument("--out", required=True, help="output directory")
    p_scan.add_argument("--seed", type=int, default=None)
    return parser


def _seed_override(args) -> list[str]:
    return [] if args.seed is None else [f"seed={args.seed}"]


def _cmd_run(args) -> int:
    cfg = apply_overrides(load_config(args.config), _seed_override(args) + args.override)
    manifest = run_scenario(cfg, args.out)
    print(f"wrote {len(manifest['data_files'])} data files to {args.out} "
          f"({manifest['wall_time_s']}s)")
    return EXIT_OK


def _cmd_scan(args) -> int:
    key, _, spec = args.param.partition("=")
    try:
        a_s, b_s, n_s = spec.split(":")
        lo, hi, num = float(a_s), float(b_s), int(n_s)
    except ValueError as exc:
        raise ConfigError(f"--param must look like key=a:b:n, got {args.param!r}") from exc
    if num < 1:
        raise ConfigError("sweep needs at least one point")
    cfg = default_config(args.scenario)
    if key not in {f.name for f in dataclasses.fields(type(cfg))}:
        raise ConfigError(f"unknown sweep parameter {key!r}")
    default = getattr(cfg, key)
    whole = type(default[0] if isinstance(default, list) else default) is int
    run_cfgs = []
    for value in np.linspace(lo, hi, num).tolist():
        if whole and value.is_integer():
            # an int field, or a list field of ints, takes whole sweep
            # values; any other value is left to the config type check
            value = int(value)
        run_cfgs.append((value, apply_overrides(cfg, _seed_override(args)
                                                + [f"{key}={value!r}"])))
    out = Path(args.out)
    # a previous sweep.json must not list runs replaced below
    (out / "sweep.json").unlink(missing_ok=True)
    runs = []
    for i, (value, run_cfg) in enumerate(run_cfgs):
        run_dir = out / f"run_{i:03d}_{key}_{value:g}"
        manifest = run_scenario(run_cfg, run_dir)
        runs.append({"value": float(value), "dir": run_dir.name,
                     "results": manifest["results"]})
    staged = out / ".sweep.json.partial"
    staged.write_text(json.dumps({"scenario": args.scenario, "param": key, "runs": runs},
                                 indent=2, sort_keys=True, default=str))
    os.replace(staged, out / "sweep.json")
    print(f"swept {key} over {num} values into {out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "selftest":
            from .selftest import run_selftest  # loads the exact layer
            return EXIT_OK if run_selftest(full=args.full) else EXIT_SELFTEST
        if args.command == "scan":
            return _cmd_scan(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
