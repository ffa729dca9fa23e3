"""Command-line entry point.

Subcommands: solve (one experiment), sweep (one row per hierarchy),
analyze-globs (interface classification report), export-vtk (solve and
write the solution field). Exit codes: 0 success, 1 non-convergence,
2 configuration error or unwritable output file, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    EXIT_CONFIG,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    NumericalError,
)
from .harness import (
    analyze_globs,
    export_solution_vtk,
    load_config,
    run_configs,
    run_experiment,
    run_sweep,
    write_report,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", default=None,
                   help="key=value configuration file")
    p.add_argument("--set", dest="overrides", metavar="KEY=VALUE",
                   action="append", default=[],
                   help="override one option (repeatable)")
    p.add_argument("--hierarchy", default=None,
                   help="subdomain counts, e.g. 64/8/1")


def _flag_overrides(args) -> list:
    overrides = list(args.overrides)
    if args.hierarchy is not None:
        overrides.append(f"hierarchy={args.hierarchy}")
    return overrides


def _config_from(args) -> "RunConfig":
    return load_config(args.config, _flag_overrides(args))


def _config_list_from(args) -> list:
    """One RunConfig per config file named in the list file; flag overrides
    apply on top of each."""
    try:
        with open(args.config_list) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config list {args.config_list!r}: {exc}")
    paths = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    paths = [p for p in paths if p]
    overrides = _flag_overrides(args)
    return [load_config(p, overrides) for p in paths]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlbddc",
        description="Multilevel BDDC-preconditioned solves on box meshes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one experiment and print its report row")
    _add_common(p)
    p.add_argument("--output", metavar="FILE", default=None,
                   help="also write the report to this file")

    p = sub.add_parser("sweep", help="run one experiment per hierarchy or config")
    _add_common(p)
    p.add_argument("--hierarchies", default=None,
                   help="comma-separated hierarchy strings, e.g. 64,64/8,64/8/2")
    p.add_argument("--config-list", metavar="FILE", default=None,
                   help="file naming one config file per line, run in order")
    p.add_argument("--output", metavar="FILE", default=None)

    p = sub.add_parser("analyze-globs", help="print the interface classification")
    _add_common(p)
    p.add_argument("--output", metavar="FILE", default=None)

    p = sub.add_parser("export-vtk", help="solve and write the solution field")
    _add_common(p)
    p.add_argument("--output", metavar="FILE", required=True,
                   help="VTK output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            result = run_experiment(_config_from(args))
            sys.stdout.write(write_report([result], args.output))
            return EXIT_OK if result.report.converged else EXIT_NO_CONVERGENCE

        if args.command == "sweep":
            if (args.hierarchies is None) == (args.config_list is None):
                raise ConfigError(
                    "sweep needs exactly one of --hierarchies or --config-list")
            if args.config_list is not None:
                results = run_configs(_config_list_from(args))
            else:
                hierarchies = [h.strip() for h in args.hierarchies.split(",")
                               if h.strip()]
                results = run_sweep(_config_from(args), hierarchies)
            sys.stdout.write(write_report(results, args.output))
            ok = all(r.report.converged for r in results)
            return EXIT_OK if ok else EXIT_NO_CONVERGENCE

        if args.command == "analyze-globs":
            text = analyze_globs(_config_from(args))
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(text)
            sys.stdout.write(text)
            return EXIT_OK

        if args.command == "export-vtk":
            result = export_solution_vtk(_config_from(args), args.output)
            sys.stdout.write(write_report([result]))
            return EXIT_OK if result.report.converged else EXIT_NO_CONVERGENCE

        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:      # inputs are read as ConfigError: this is --output
        print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
