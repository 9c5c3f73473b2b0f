"""Command-line entry point.

Usage::

    cavityswap <runner> --config <file> [--out <dir>] [--jobs 1]

Every runner works in one process; ``--jobs`` (config ``jobs``) accepts only 1.
``custom_sequence``, the one runner that writes a trace, also takes
``--lab-frame`` (config ``frame = lab``).

Exit codes: 0 on success, 2 for validation/config errors, 3 when a
numerical self-check (convergence, fit, calibration) fails.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import DegenerateFitError, NoOscillationError
from .core import ValidationError
from .dynamics import CalibrationError, ConvergenceError, IntegrationDivergedError
from .experiments import RUNNERS, parse_config_file, resolve_config
from .sequences import SequenceSemanticError, SequenceSyntaxError
from .units import UnitError

_VALIDATION_ERRORS = (ValidationError, UnitError, SequenceSyntaxError,
                      SequenceSemanticError, OSError)
_NUMERICAL_ERRORS = (ConvergenceError, IntegrationDivergedError,
                     CalibrationError, NoOscillationError, DegenerateFitError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityswap",
        description="Simulated frequency-conversion experiments between two "
                    "parametrically coupled cavity modes.")
    sub = parser.add_subparsers(dest="runner", required=True)
    for name, fn in RUNNERS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").splitlines()[0])
        p.add_argument("--config", help="key=value config file with unit suffixes")
        p.add_argument("--out", default=name + "_out",
                       help="output directory (default: %(default)s)")
        p.add_argument("--jobs", type=int, default=None,
                       help="accepted only as 1: every sweep runs in one process")
        if name == "custom_sequence":
            p.add_argument("--lab-frame", action="store_true",
                           help="write the trace in the lab frame (an exact "
                                "rotation of the rotating-frame result)")
    return parser


_parser = None  # built on the first ``main`` call; parse_args leaves it unchanged


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        overrides = parse_config_file(args.config) if args.config else {}
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
        if getattr(args, "lab_frame", False):
            overrides["frame"] = "lab"
        cfg = resolve_config(args.runner, overrides)
        results = RUNNERS[args.runner](cfg, args.out)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 3
    for key in sorted(results):
        print(f"{key} = {results[key]}")
    print(f"wrote {args.out}/report.txt")
    return 0


if __name__ == "__main__":
    sys.exit(main())
