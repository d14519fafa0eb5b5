"""Command-line entry point.

Subcommands: ``audit``, ``propagate``, ``converge``, ``spectrum``.  Each
takes ``--config PATH`` and ``--out DIR``; ``--grid-refine k`` multiplies
audit/trajectory grids by ``2**k`` where applicable.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import parse_config
from .errors import ArgumentError, ConfigError, GridError, NumericalError
from .runs import run_audit, run_convergence, run_propagation, run_spectrum

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="formevol",
        description=(
            "Audits and unitary propagation for time-dependent Hamiltonians "
            "with a constant form domain."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, refinable in (
        ("audit", "run the comparability/derivative/smoothness audits", True),
        ("propagate", "propagate the configured initial state", True),
        ("converge", "regularization and step-count convergence sweeps", False),
        ("spectrum", "eigenvalue scan over the time span", True),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="configuration file path")
        cmd.add_argument("--out", required=True, help="output directory")
        if refinable:
            cmd.add_argument(
                "--grid-refine",
                type=int,
                default=0,
                metavar="K",
                help="multiply grids by 2**K",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for problem in exc.errors:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "audit":
            report, record = run_audit(cfg, args.out, grid_refine=args.grid_refine)
            verdicts = ", ".join(
                f"{k}={'pass' if v['pass'] else 'fail'}"
                for k, v in report.verdicts.items()
            )
            print(f"audit done: C={report.s1_constant:.6g} "
                  f"S2={report.s2_bound:.6g} [{verdicts}]")
        elif args.command == "propagate":
            report, record = run_propagation(cfg, args.out, grid_refine=args.grid_refine)
            print(
                f"propagation done: norm drift {report.norm_drift:.3e}, "
                f"weak residual {report.weak_residual:.3e}"
            )
        elif args.command == "converge":
            record = run_convergence(cfg, args.out)
            print("convergence sweep done")
        else:
            record = run_spectrum(cfg, args.out, grid_refine=args.grid_refine)
            print("spectrum scan done")
    except (ArgumentError, GridError, NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"outputs in {args.out}: {', '.join(record.outputs)}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
