"""Command-line interface.

Exit codes: 0 success, 2 case parse, case validation or flag failure, 3
solver failure or failed internal check.  Every stderr error line starts
with the machine-readable error code, and nothing is printed before it.

Output goes to the current ``sys.stdout``/``sys.stderr`` explicitly:
click's default-stream lookup caches a wrapper per stream object that
keeps the stream alive, so a caller that redirects the streams for each
command in one process would otherwise retain every output it captured.
"""

from __future__ import annotations

import sys

import click
import numpy as np

from . import __version__
from .caseio import load_case
from .errors import CaseValidationError, InternalCheckError, SolverError
from .report import (FORMATS, METHODS, emit_compare, emit_check, emit_report,
                     run_check, run_compare, run_pipeline)


def _run(case_path: str, command) -> None:
    """Print ``command(case)`` for the case at ``case_path``, or exit 2 for
    a case or flag problem and 3 for a solver failure or a failed internal
    check, with one coded stderr line per problem.  Floating-point warnings
    are silenced so that the coded line comes first: every factorization
    refuses a non-finite matrix."""
    try:
        with np.errstate(all="ignore"):
            out = command(load_case(case_path))
    except CaseValidationError as exc:
        for v in exc.violations:
            click.echo(f"{exc.code}: {v}", file=sys.stderr)
        sys.exit(2)
    except (SolverError, InternalCheckError) as exc:
        click.echo(f"{exc.code}: {exc}", file=sys.stderr)
        sys.exit(3)
    click.echo(out, file=sys.stdout, nl=False)


def _alphas(alpha_list: str) -> list[float]:
    """The loading factors of ``--alpha-list``: one or more finite numbers."""
    try:
        alphas = [float(tok) for tok in alpha_list.split(",") if tok.strip()]
    except ValueError:
        raise CaseValidationError(
            f"--alpha-list must be a comma-separated list of numbers, got "
            f"{alpha_list!r}") from None
    if not alphas:
        raise CaseValidationError("--alpha-list is empty")
    if not np.isfinite(alphas).all():
        raise CaseValidationError(
            f"--alpha-list must hold finite numbers, got {alpha_list!r}")
    return alphas


# The options that more than one command takes, with one help text each.
_method = click.option("--method", type=click.Choice(METHODS), default="auto",
                       show_default=True, help="Linearization to run.")
_format = click.option("--format", "fmt", type=click.Choice(FORMATS),
                       default="table", show_default=True)
_override = click.option(
    "--override-conditions", is_flag=True,
    help="Attempt the lossless flat solve even when its dominance "
         "conditions fail (reported by a flag).")


@click.group()
@click.version_option(__version__, prog_name="rectpf")
def main():
    """Linearized AC power flow in rectangular voltage coordinates."""


@main.command()
@click.argument("case_path", type=click.Path(exists=True, dir_okay=False))
@_method
@click.option("--oracle", is_flag=True,
              help="Also run the Newton reference solver and report the gap.")
@_format
@_override
def solve(case_path, method, oracle, fmt, override_conditions):
    """Solve CASE_PATH and print the per-bus report."""
    _run(case_path, lambda case: emit_report(run_pipeline(
        case, method=method, with_oracle=oracle,
        override_conditions=override_conditions), fmt))


@main.command()
@click.argument("case_path", type=click.Path(exists=True, dir_okay=False))
@_format
def check(case_path, fmt):
    """Print the structural diagnostics for CASE_PATH without solving."""
    _run(case_path, lambda case: emit_check(run_check(case), fmt))


@main.command()
@click.argument("case_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--alpha-list", required=True,
              help="Comma-separated loading factors, e.g. '1,0.5,0.25'.")
@_method
@_format
@_override
def compare(case_path, alpha_list, method, fmt, override_conditions):
    """Sweep loading factors and compare the linear solve against Newton."""
    _run(case_path, lambda case: emit_compare(run_compare(
        case, _alphas(alpha_list), method=method,
        override_conditions=override_conditions), fmt))


if __name__ == "__main__":
    main()
