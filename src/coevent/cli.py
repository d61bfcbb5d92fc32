"""Command-line interface.

Exit codes: 0 success, 2 validation failure, 3 enumeration cap exceeded,
4 bad input (unknown command, option or scenario, missing or malformed
parameters, unreadable or unwritable files).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from .errors import CoeventError, SpaceTooLargeError, ValidationFailedError
from .histories import build_df
from .scenarios import (
    analyze_df,
    emit_report,
    raw_df_from_json,
    report_header,
    run_scenario,
    schema_from_json,
    theta_sweep,
    TOOL_NAME,
    TOOL_VERSION,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_BAD_INPUT = 4


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error:`` line and exit EXIT_BAD_INPUT, since argparse's
    own 2 is EXIT_VALIDATION here.  Options are never abbreviated; only --help is help."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        # A token that starts like a number, such as -1e-3 or -inf, is an
        # option's value; argparse's default pattern reads both as options.
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        sys.stderr.write(f"error: {message}\n")
        self.exit(EXIT_BAD_INPUT)


def _write(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
        return
    try:
        with open(out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _scenario_run(args) -> int:
    """Run a named scenario and emit its report."""
    if args.theta is not None and args.theta_deg is not None:
        raise ValueError("--theta and --theta-deg are mutually exclusive")
    theta = args.theta if args.theta_deg is None else math.radians(args.theta_deg)
    doc = run_scenario(args.name, {} if theta is None else {"theta": theta})
    _write(emit_report(doc, args.format), args.out)
    return EXIT_OK


def _scenario_sweep(args) -> int:
    """Sweep appendix-theta over a grid of angles."""
    _write(emit_report(theta_sweep(args.start, args.end, args.steps), args.format), args.out)
    return EXIT_OK


def _scenario_validate(args) -> int:
    """Validate a schema file and report the DF axiom residuals."""
    doc = _load_json(args.file)
    report = {**report_header(), "file": args.file}
    try:
        df = build_df(schema_from_json(doc))
    except (ValidationFailedError, ValueError) as exc:
        report["passed"] = False
        report["error"] = str(exc)
        if getattr(exc, "report", None) is not None:
            report["validation"] = exc.report.as_dict()
        _write(emit_report(report, "json"), None)
        return EXIT_VALIDATION
    report.update(passed=True, validation=df.validation.as_dict(),
                  history_labels=list(df.space.labels))
    _write(emit_report(report, "json"), None)
    return EXIT_OK


def _df_analyze(args) -> int:
    """Validate and analyze a raw DF file: zero sets, co-events, partitions."""
    doc = _load_json(args.file)
    report = {**report_header(), "file": args.file}
    try:
        functional = raw_df_from_json(doc)
    except ValidationFailedError as exc:
        report["passed"] = False
        report["validation"] = exc.report.as_dict()
        _write(emit_report(report, args.format), args.out)
        return EXIT_VALIDATION
    section, _ = analyze_df(functional, label="df")
    report["passed"] = True
    report.update(section)
    _write(emit_report(report, args.format), args.out)
    return EXIT_OK


def _command(group, name: str, handler, output: bool = True):
    """A subcommand described by its handler's docstring, with --format and --out."""
    parser = group.add_parser(name, help=handler.__doc__, description=handler.__doc__)
    parser.set_defaults(handler=handler)
    if output:
        parser.add_argument("--format", choices=("json", "text"), default="json")
        parser.add_argument("--out")
    return parser


def _parser() -> _Parser:
    root = _Parser(prog=TOOL_NAME, description=(
        "Quantum measure and co-event analysis over finite history spaces."))
    root.add_argument("--version", action="version", help="Show the version and exit.",
                      version=f"{TOOL_NAME}, version {TOOL_VERSION}")
    groups = root.add_subparsers(metavar="COMMAND", required=True)

    scenario = groups.add_parser("scenario", help="Run, sweep, or validate scenarios.")
    commands = scenario.add_subparsers(metavar="COMMAND", required=True)
    run = _command(commands, "run", _scenario_run)
    run.add_argument("name")
    run.add_argument("--theta", type=float, help="Angle parameter in radians.")
    run.add_argument("--theta-deg", type=float, help="Angle parameter in degrees.")
    sweep = _command(commands, "sweep", _scenario_sweep)
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--end", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    _command(commands, "validate", _scenario_validate, output=False).add_argument(
        "--file", required=True)

    df = groups.add_parser("df", help="Analyze externally supplied decoherence matrices.")
    _command(df.add_subparsers(metavar="COMMAND", required=True), "analyze",
             _df_analyze).add_argument("--file", required=True)
    return root


def main(argv=None) -> int:
    """Entry point mapping domain errors onto the documented exit codes."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version or a usage error
        return exc.code
    try:
        return args.handler(args)
    except ValidationFailedError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SpaceTooLargeError as exc:
        print(f"enumeration cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (CoeventError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
