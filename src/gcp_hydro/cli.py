"""Command-line entry point: one subcommand per named experiment.

    gcp-hydro <experiment> [--config <file>] [--set key=value ...] --out <dir>
    gcp-hydro <experiment> [--config <file>] [--set key=value ...] --validate-only

Exit codes: 0 on pass (or for experiments without thresholds), 1 when a
declared threshold fails, 2 on config errors.  GCP_HYDRO_WORKERS and
GCP_HYDRO_SEED override the worker count and master seed.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import DEFAULTS, ConfigError, load_config, run, validate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gcp-hydro",
                                     description="Contact-process simulation and "
                                                 "verification experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in DEFAULTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="YAML config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config entry")
        p.add_argument("--out", help="output directory; a run requires it")
        p.add_argument("--validate-only", action="store_true",
                       help="check the config and exit")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.out is None and not args.validate_only:
        parser.error(f"{args.experiment}: the following arguments are required: --out")
    try:
        cfg = load_config(args.experiment, args.config, args.overrides)
        if args.validate_only:
            violations = validate(cfg)
            if violations:
                raise ConfigError(violations)
            print("config ok")
            return 0
        result = run(cfg, args.out)  # validates before it writes anything
    except ConfigError as exc:
        for item in exc.violations:
            print(f"config error: {item}", file=sys.stderr)
        return 2
    print(f"{result.experiment}: {result.status}")
    for path in result.csv_paths:
        print(f"  wrote {path}")
    print(f"  wrote {result.sidecar_path}")
    return 1 if result.status == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
