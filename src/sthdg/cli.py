"""Command-line driver for the batch experiments.

Every subcommand reads the built-in defaults, optionally overlaid with
an INI config file and a few common flags, runs one experiment, and
prints the paths of the files it wrote.  Exit codes: 0 on success, 2 on
configuration errors, 3 when the linear solver fails.
"""

import argparse
import sys

from .cases import CASES
from .experiments import (ConfigError, ExperimentConfig, defaults_text, run_amr,
                          run_converge, run_export, run_iterations,
                          run_ordercheck, run_relaxcompare, run_stagnation)
from .mesh import MODES
from .solving import SolverFailure

_RUNNERS = {
    "converge": run_converge,
    "iterations": run_iterations,
    "stagnation": run_stagnation,
    "amr": run_amr,
    "relaxcompare": run_relaxcompare,
    "ordercheck": run_ordercheck,
    "export": run_export,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sthdg",
        description="Space-time HDG experiment driver (CSV output).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _RUNNERS.items():
        cmd = sub.add_parser(name, help=fn.__doc__.splitlines()[0].lower())
        cmd.add_argument("--config", default=None, metavar="PATH",
                         help="INI config file overlaying the defaults")
        cmd.add_argument("--out", dest="outdir", default=None, metavar="DIR",
                         help="output directory")
        cmd.add_argument("--case", default=None, choices=CASES)
        cmd.add_argument("--p", type=int, default=None,
                         help="polynomial degree")
        cmd.add_argument("--nu", type=float, default=None,
                         help="viscosity (replaces the configured nu list)")
        cmd.add_argument("--mode", default=None, choices=MODES)
    sub.add_parser("defaults", help="print the built-in configuration")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "defaults":
        print(defaults_text(), end="")
        return 0
    # every flag but --config names its setting; --nu replaces the nus list
    flags = {key: val for key, val in vars(args).items()
             if val is not None and key not in ("command", "config")}
    if "nu" in flags:
        flags["nus"] = (flags.pop("nu"),)
    try:
        cfg = ExperimentConfig.from_ini(args.config, flags)
        paths = _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
