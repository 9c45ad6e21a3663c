"""Command-line interface.

Exit codes: 0 success, 2 case validation or parse failure, 3 solver
failure.  Every error line printed to stderr starts with the machine-
readable error code.

Output goes to the current ``sys.stdout``/``sys.stderr`` explicitly:
click's default-stream lookup caches a wrapper per stream object that
keeps the stream alive, so a caller that redirects the streams for each
command in one process would otherwise retain every output it captured.
"""

from __future__ import annotations

import sys

import click

from .caseio import load_case
from .errors import CaseValidationError, RectpfError, SolverError
from .report import (FORMATS, METHODS, emit_compare, emit_check, emit_report,
                     run_check, run_compare, run_pipeline)


def _fail(exc: RectpfError, exit_code: int) -> None:
    if isinstance(exc, CaseValidationError):
        for v in exc.violations:
            click.echo(f"{exc.code}: {v}", file=sys.stderr)
    else:
        click.echo(f"{exc.code}: {exc}", file=sys.stderr)
    sys.exit(exit_code)


def _load(case_path: str):
    try:
        return load_case(case_path)
    except CaseValidationError as exc:
        _fail(exc, 2)


@click.group()
@click.version_option(package_name="rectpf")
def main():
    """Linearized AC power flow in rectangular voltage coordinates."""


@main.command()
@click.argument("case_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(METHODS), default="auto",
              show_default=True, help="Linearization to run.")
@click.option("--oracle", is_flag=True,
              help="Also run the Newton reference solver and report the gap.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="table",
              show_default=True)
@click.option("--override-conditions", is_flag=True,
              help="Attempt the lossless flat solve even when its dominance "
                   "conditions fail (recorded in the diagnostics).")
def solve(case_path, method, oracle, fmt, override_conditions):
    """Solve CASE_PATH and print the per-bus report."""
    case = _load(case_path)
    try:
        report = run_pipeline(case, method=method, with_oracle=oracle,
                              override_conditions=override_conditions)
    except SolverError as exc:
        _fail(exc, 3)
    except CaseValidationError as exc:
        _fail(exc, 2)
    click.echo(emit_report(report, fmt), file=sys.stdout, nl=False)


@main.command()
@click.argument("case_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="table",
              show_default=True)
def check(case_path, fmt):
    """Print the structural diagnostics for CASE_PATH without solving."""
    case = _load(case_path)
    try:
        report = run_check(case)
    except SolverError as exc:
        _fail(exc, 3)
    except CaseValidationError as exc:
        _fail(exc, 2)
    click.echo(emit_check(report, fmt), file=sys.stdout, nl=False)


@main.command()
@click.argument("case_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha-list", required=True,
              help="Comma-separated loading factors, e.g. '1,0.5,0.25'.")
@click.option("--method", type=click.Choice(METHODS), default="auto",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="table",
              show_default=True)
@click.option("--override-conditions", is_flag=True)
def compare(case_path, alpha_list, method, fmt, override_conditions):
    """Sweep loading factors and compare the linear solve against Newton."""
    case = _load(case_path)
    try:
        alphas = [float(tok) for tok in alpha_list.split(",") if tok.strip()]
    except ValueError:
        click.echo(f"VALIDATION_ERROR: --alpha-list must be a comma-"
                   f"separated list of numbers, got {alpha_list!r}",
                   file=sys.stderr)
        sys.exit(2)
    if not alphas:
        click.echo("VALIDATION_ERROR: --alpha-list is empty", file=sys.stderr)
        sys.exit(2)
    try:
        report = run_compare(case, alphas, method=method,
                             override_conditions=override_conditions)
    except SolverError as exc:
        _fail(exc, 3)
    except CaseValidationError as exc:
        _fail(exc, 2)
    click.echo(emit_compare(report, fmt), file=sys.stdout, nl=False)


if __name__ == "__main__":
    main()
