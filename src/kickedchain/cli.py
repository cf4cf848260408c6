"""Command-line front end: scenario runner, feasibility calculator, validator."""

from __future__ import annotations

import argparse
import json
import sys

from .feasibility import DEFAULT_T0_SECONDS, feasibility
from .scenario import ConfigError, _checked, read_config, run_scenario, validate_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kickedchain",
        description="Pulse-kicked Heisenberg rings, their rotor images, and classical kicked maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config and write CSV/JSON outputs")
    run_p.add_argument("--config", required=True, help="path to a scenario JSON document")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the config output prefix")

    feas_p = sub.add_parser("feasibility", help="pulse-duration feasibility estimate")
    feas_p.add_argument("--b-range", type=float, required=True, help="edge field in atomic units")
    feas_p.add_argument("--sites", type=int, required=True, help="number of chain sites")
    feas_p.add_argument("--j-hz", type=float, required=True, help="exchange rate in Hz")
    feas_p.add_argument(
        "--t0-s", type=float, default=DEFAULT_T0_SECONDS, help="pulse repetition period in seconds"
    )

    val_p = sub.add_parser("validate", help="check a scenario config without running it")
    val_p.add_argument("--config", required=True, help="path to a scenario JSON document")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            result = run_scenario(args.config, seed=args.seed, out_prefix=args.out)
            for warning in result["warnings"]:
                print(f"warning: {warning}", file=sys.stderr)
            for path in result["files"]:
                print(path)
        elif args.command == "feasibility":
            # a broken rule is a config error, as in a feasibility config
            report = _checked("config", feasibility, args.b_range, args.sites, args.j_hz, args.t0_s)
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False))
        else:
            validate_config(read_config(args.config))
            print(f"OK: {args.config}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
