"""Command-line entry point.

Verbs map one-to-one onto the batch analyses in :mod:`crbkit.scan`:

    crbkit error-curve     --config cfg.json [--seed N] [--out DIR]
    crbkit scatter-2d      --config cfg.json [--seed N] [--out DIR]
    crbkit resolution-scan --config cfg.json [--seed N] [--out DIR]
                           [--threads K]
    crbkit fim-report      --config cfg.json [--out DIR]
    crbkit ellipse         --config cfg.json [--out DIR]

``--seed`` overrides the config seed; ``--out`` selects the artifact
directory (default: current directory; not a file). Config schemas are
documented in README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, CrbkitError
from .scan import (run_ellipse, run_error_curve, run_fim_report,
                   run_resolution_scan, run_scatter_2d)


def _load_config(path: str) -> dict:
    """Parse a JSON config file; every failure is a :class:`ConfigError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: "
                          f"{exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must hold a JSON object, "
                          f"not {type(config).__name__}")
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crbkit",
        description="Error bounds for constrained Poisson-count imaging "
                    "models: compute, repair, and validate.")
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in ("error-curve", "scatter-2d", "resolution-scan",
                 "fim-report", "ellipse"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="parallel workers for grid points")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be at least 1, "
                              f"not {args.threads}")
        found = next(p for p in (out, *out.parents) if p.exists())
        if not found.is_dir():      # --out could never be made a directory
            raise ConfigError(f"--out {out}: {found} is not a directory")
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.command == "error-curve":
            run_error_curve(config, out)
        elif args.command == "scatter-2d":
            run_scatter_2d(config, out)
        elif args.command == "resolution-scan":
            run_resolution_scan(config, out, threads=args.threads)
        elif args.command == "fim-report":
            run_fim_report(config, out)
        elif args.command == "ellipse":
            run_ellipse(config, out)
    except (CrbkitError, OSError) as exc:   # OSError: writing the outputs
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
