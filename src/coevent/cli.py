"""Command-line interface.

Exit codes: 0 success, 2 validation failure, 3 enumeration cap exceeded,
4 bad input (unknown scenario, missing or malformed parameters or files).
"""

from __future__ import annotations

import json
import math
import sys

import click

from .errors import CoeventError, SpaceTooLargeError, ValidationFailedError
from .histories import build_df
from .scenarios import (
    ScenarioSpec,
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


def _write(data: bytes, out: str | None):
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"{path} is not valid JSON: {exc}")


def _resolve_theta(theta: float | None, theta_deg: float | None) -> dict:
    if theta is not None and theta_deg is not None:
        raise click.UsageError("--theta and --theta-deg are mutually exclusive")
    if theta_deg is not None:
        return {"theta": math.radians(theta_deg)}
    if theta is not None:
        return {"theta": theta}
    return {}


@click.group()
@click.version_option(TOOL_VERSION, prog_name=TOOL_NAME)
def cli():
    """Quantum measure and co-event analysis over finite history spaces."""


@cli.group()
def scenario():
    """Run, sweep, or validate scenarios."""


@scenario.command("run")
@click.argument("name")
@click.option("--theta", type=float, default=None, help="Angle parameter in radians.")
@click.option("--theta-deg", type=float, default=None, help="Angle parameter in degrees.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def scenario_run(name, theta, theta_deg, fmt, out):
    """Run a named scenario and emit its report."""
    params = _resolve_theta(theta, theta_deg)
    doc = run_scenario(ScenarioSpec(name=name, parameters=params))
    _write(emit_report(doc, fmt), out)


@scenario.command("sweep")
@click.option("--start", type=float, required=True)
@click.option("--end", type=float, required=True)
@click.option("--steps", type=int, required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def scenario_sweep(start, end, steps, fmt, out):
    """Sweep appendix-theta over a grid of angles."""
    try:
        doc = theta_sweep(start, end, steps)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write(emit_report(doc, fmt), out)


@scenario.command("validate")
@click.option("--file", "path", type=click.Path(dir_okay=False), required=True)
def scenario_validate(path):
    """Validate a schema file and report the DF axiom residuals."""
    doc = _load_json(path)
    report = {**report_header(), "file": path}
    try:
        schema = schema_from_json(doc)
        df = build_df(schema)
    except (CoeventError, ValueError) as exc:
        report["passed"] = False
        report["error"] = str(exc)
        if getattr(exc, "report", None) is not None:
            report["validation"] = exc.report.as_dict()
        _write(emit_report(report, "json"), None)
        sys.exit(EXIT_VALIDATION)
    report["passed"] = bool(df.validation.passed)
    report["validation"] = df.validation.as_dict()
    report["history_labels"] = list(df.space.labels)
    _write(emit_report(report, "json"), None)
    sys.exit(EXIT_OK if report["passed"] else EXIT_VALIDATION)


@cli.group()
def df():
    """Analyze externally supplied decoherence matrices."""


@df.command("analyze")
@click.option("--file", "path", type=click.Path(dir_okay=False), required=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def df_analyze(path, fmt, out):
    """Validate and analyze a raw DF file: zero sets, co-events, partitions."""
    doc = _load_json(path)
    report = {**report_header(), "file": path}
    try:
        functional = raw_df_from_json(doc)
    except ValidationFailedError as exc:
        report["passed"] = False
        report["validation"] = exc.report.as_dict()
        _write(emit_report(report, fmt), out)
        sys.exit(EXIT_VALIDATION)
    section, _ = analyze_df(functional, label="df")
    report["passed"] = True
    report.update(section)
    _write(emit_report(report, fmt), out)


def main(argv=None) -> int:
    """Entry point mapping domain errors onto the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        return int(exc.code or 0)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_BAD_INPUT
    except click.ClickException as exc:
        exc.show()
        return EXIT_BAD_INPUT
    except ValidationFailedError as exc:
        click.echo(f"validation failed: {exc}", err=True)
        return EXIT_VALIDATION
    except SpaceTooLargeError as exc:
        click.echo(f"enumeration cap exceeded: {exc}", err=True)
        return EXIT_CAP
    except (CoeventError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_BAD_INPUT
    except click.Abort:
        return EXIT_BAD_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
