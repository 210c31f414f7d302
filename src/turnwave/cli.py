"""Command-line entry point.

    turnwave run <config-path> [--set section.key=value ...] [--out DIR]
    turnwave verify <trajectory-dir>
    turnwave render <trajectory-dir>

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure,
4 certificate failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, apply_assignment, load_config
from .scenarios import render_trajectory, run_scenario, verify_trajectory

EXIT_OK = 0
EXIT_CONFIG = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="turnwave",
        description="Contour-dynamics experiments for interface turning "
                    "and Rayleigh-Taylor breakdown.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario from a config file")
    p_run.add_argument("config", help="path to a section.key = value config file")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="section.key=value",
                       help="override a config entry (repeatable)")
    p_run.add_argument("--out", dest="out", default=None,
                       help="override the output directory")

    p_verify = sub.add_parser("verify", help="consistency-check a trajectory directory")
    p_verify.add_argument("trajectory", help="artifact directory written by 'run'")

    p_render = sub.add_parser("render", help="re-render SVG plots for a trajectory")
    p_render.add_argument("trajectory", help="artifact directory written by 'run'")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            cfg = load_config(args.config)
            for assignment in args.overrides:
                if "=" not in assignment:
                    raise ConfigError(
                        f"--set expects section.key=value, got {assignment!r}")
                key, value = assignment.split("=", 1)
                apply_assignment(cfg, key.strip(), value.strip())
            if args.out is not None:
                cfg.output_dir = args.out
            cfg.validate()
        except (ConfigError, OSError) as exc:
            print(f"turnwave: config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        result = run_scenario(cfg)
        stream = sys.stdout if result.exit_code == 0 else sys.stderr
        print(f"turnwave: {result.scenario}: {result.message} "
              f"(exit {result.exit_code})", file=stream)
        return result.exit_code

    try:
        if args.command == "verify":
            result = verify_trajectory(args.trajectory)
            print(f"turnwave: verify: {result.message}")
            return result.exit_code
        if args.command == "render":
            print(*render_trajectory(args.trajectory), sep="\n")
            return EXIT_OK
    except ConfigError as exc:
        print(f"turnwave: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"turnwave: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
