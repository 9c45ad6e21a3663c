"""End-to-end pipeline: dispatch a case to a method and build reports.

Emission is strictly deterministic: identical case plus identical flags
produce byte-identical output, and all floats are rendered with 12
significant digits.  Per-bus and per-alpha output share one row model,
:class:`Rows`, which renders the same cells as CSV and as an aligned table
and the same values as JSON records.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import distribution as dist
from . import linearize as lin
from . import transmission as trans
from .errors import SolverError
from .netmodel import (NetworkCase, build_admittance, check_noload_structure,
                       scale_power_injections)
from .newton import NewtonSettings, solve_newton
from .residuals import BoundCheck, nonlinear_mismatch, quadratic_residual

METHODS = ("auto", "general", "noload", "lossless", "dc", "nocurrent",
           "decoupled")

FORMATS = ("table", "csv", "json")

BUS_COLUMNS = ("bus", "v_nom_re", "v_nom_im", "dv_re", "dv_im", "vmag",
               "theta_deg", "p_hot", "q_hot")
ORACLE_COLUMNS = ("v_oracle_re", "v_oracle_im", "abs_err")
COMPARE_COLUMNS = ("alpha", "voltage_error", "error_over_alpha_sq",
                   "s_hot_norm", "newton_iterations", "newton_converged")


def _fmt(x: float) -> str:
    """12-significant-digit rendering used by every emitter."""
    return f"{float(x):.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


# Renderers by the type of a column's values: text cells for CSV and the
# table, plain values for JSON.
_TEXT = {int: str, bool: lambda v: "true" if v else "false", float: _fmt}
_JSON = {int: int, bool: bool, float: _round12}

# ``json.dumps(indent=2)`` always runs the pure-Python encoder; the C
# encoder runs only without ``indent``.  A row is a flat object two levels
# down, so an item separator that carries the newline and the six-space
# indent of its keys gives the ``indent=2`` layout.
_ROW_KEY_INDENT = " " * 6
_encode_row = json.JSONEncoder(
    separators=(",\n" + _ROW_KEY_INDENT, ": ")).encode


@dataclass(frozen=True, eq=False)
class Rows:
    """Tabular output: column names and rows of plain values.

    All values in a column share one type, ``int``, ``bool`` or ``float``,
    and that type picks the column's renderer once for the whole column.
    """

    columns: tuple[str, ...]
    values: tuple[tuple, ...]

    def _rendered(self, by_type: dict) -> list[list]:
        return [list(map(by_type[type(col[0])], col))
                for col in zip(*self.values)]

    def cells(self) -> list[tuple[str, ...]]:
        """Text cells, row by row."""
        return list(zip(*self._rendered(_TEXT)))

    def records(self) -> list[dict]:
        """One JSON object per row."""
        return [dict(zip(self.columns, row))
                for row in zip(*self._rendered(_JSON))]

    def json_document(self, head: dict, key: str) -> str:
        """``json.dumps({**head, key: self.records()}, indent=2)``, byte for
        byte, with each row encoded by the C encoder.  ``head`` is not empty.
        """
        rows = ",\n".join(
            f"    {{\n{_ROW_KEY_INDENT}{_encode_row(r)[1:-1]}\n    }}"
            for r in self.records())
        array = "[\n" + rows + "\n  ]" if rows else "[]"
        return (json.dumps(head, indent=2)[:-2] + ",\n  " + json.dumps(key)
                + ": " + array + "\n}")

    def csv_lines(self) -> list[str]:
        return [",".join(self.columns), *map(",".join, self.cells())]

    def aligned_lines(self) -> list[str]:
        table = [self.columns, *self.cells()]
        widths = [max(map(len, col)) for col in zip(*table)]
        return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
                for row in table]


@dataclass(frozen=True)
class OracleSummary:
    converged: bool
    iterations: int
    final_mismatch: float
    voltage_error_norm: float


@dataclass(frozen=True, eq=False)
class RunReport:
    method: str
    rows: Rows
    norms: dict[str, float]
    bounds: tuple[BoundCheck, ...]
    flags: dict[str, bool]
    condition: float | None
    oracle: OracleSummary | None


def _resolve_method(partition, case, method: str) -> str:
    if method != "auto":
        return method
    if trans.lossless_gate(partition, case) is None:
        return "lossless"
    if not case.has_pv:
        structure = check_noload_structure(partition, case.i_load_vector(),
                                           case.v_slack)
        if structure.verdict:
            return "noload"
    return "general"


def _dispatch(partition, case, method: str, override_conditions: bool
              ) -> tuple[lin.LinearSolution, float | None]:
    """Solve with ``method``; also return the method's a-priori bound on
    the reactive quadratic term, which only the lossless solve has."""
    if method == "lossless":
        sys = trans.build_lossless_system(partition, case)
        conditions = trans.check_flat_conditions(
            sys, partition.slack_adjacent_ids())
        sol = trans.solve_lossless_flat(
            sys, conditions, override_conditions=override_conditions)
        return sol, trans.reactive_error_bound(sys, sol)
    if method == "general":
        sol = lin.solve_general(partition, case)
    elif method == "noload":
        sol = dist.solve_distribution(partition, case)
    elif method == "dc":
        theta = trans.solve_classical_dc(partition, case.p_vector())
        sol = lin.LinearSolution(
            lin.flat_nominal(partition.n), 1j * theta,
            lin.SolutionMethod.CLASSICAL_DC, lin.SolveDiagnostics())
    elif method == "nocurrent":
        if case.has_pv:
            raise SolverError(
                "this closed form requires every non-slack bus to be a ZIP "
                "bus", code="NON_ZIP_BUS_PRESENT")
        sol = dist.solve_no_current_closed_form(
            partition, case.v_slack, case.injection_targets()[0],
            i_load=case.i_load_vector())
    elif method == "decoupled":
        sol = dist.solve_decoupled(partition, case)
    else:
        raise ValueError(
            f"unknown method {method!r}; expected one of {METHODS}")
    return sol, None


def run_pipeline(case: NetworkCase, method: str = "auto",
                 with_oracle: bool = False,
                 override_conditions: bool = False) -> RunReport:
    """Solve a case and assemble the full report.

    ``method='auto'`` picks the lossless flat-profile path when the
    conductance gate and unity-slack check pass, the no-load closed form
    for all-ZIP cases whose structural conditions hold, and the general
    stacked solve otherwise.
    """
    partition = build_admittance(case)
    resolved = _resolve_method(partition, case, method)
    sol, reactive_bound = _dispatch(partition, case, resolved,
                                    override_conditions)

    residual = quadratic_residual(partition, sol.dv)
    v_approx = sol.approx_voltage()
    mismatch = nonlinear_mismatch(partition, v_approx, case)
    _, q_known = case.injection_targets()
    masked = np.where(q_known, mismatch, mismatch.real)

    norms = {
        "dv": float(np.linalg.norm(sol.dv)),
        "s_hot": residual.norm_s,
        "p_hot": residual.norm_p,
        "q_hot": residual.norm_q,
        "mismatch": float(np.linalg.norm(masked)),
        "mismatch_active": float(np.linalg.norm(mismatch.real)),
    }
    bounds = list(residual.bounds)
    if reactive_bound is not None:
        bounds.append(BoundCheck("reactive_quadratic",
                                 value=residual.norm_q, bound=reactive_bound))
    flags = dict(sol.diagnostics.flags)
    flags["lossless_gate"] = trans.lossless_gate(partition, case) is None

    oracle = v_oracle = None
    if with_oracle:
        result = solve_newton(partition, case)
        v_oracle = result.voltage
        oracle = OracleSummary(
            converged=result.converged, iterations=result.iterations,
            final_mismatch=result.final_mismatch,
            voltage_error_norm=float(np.linalg.norm(v_approx - v_oracle)))

    v_nom, dv = sol.nominal.V, sol.dv
    columns = [list(range(1, partition.n + 1)),
               v_nom.real.tolist(), v_nom.imag.tolist(),
               dv.real.tolist(), dv.imag.tolist(),
               np.abs(v_approx).tolist(),
               [math.degrees(math.atan2(v.imag, v.real))
                for v in v_approx.tolist()],
               residual.p_hot.tolist(), residual.q_hot.tolist()]
    names = BUS_COLUMNS
    if v_oracle is not None:
        columns += [v_oracle.real.tolist(), v_oracle.imag.tolist(),
                    np.abs(v_approx - v_oracle).tolist()]
        names += ORACLE_COLUMNS
    return RunReport(
        method=resolved, rows=Rows(names, tuple(zip(*columns))),
        norms=norms, bounds=tuple(bounds), flags=flags,
        condition=sol.diagnostics.condition, oracle=oracle)


# -- emission ---------------------------------------------------------------


def _emit_json(report: RunReport) -> str:
    doc = {
        "method": report.method,
        "condition": None if report.condition is None
        or not math.isfinite(report.condition)
        else _round12(report.condition),
        "flags": {k: bool(v) for k, v in sorted(report.flags.items())},
        "norms": {k: _round12(v) for k, v in sorted(report.norms.items())},
        "bounds": [{"name": b.name, "value": _round12(b.value),
                    "bound": _round12(b.bound),
                    "satisfied": bool(b.satisfied)}
                   for b in report.bounds],
        "oracle": None if report.oracle is None else {
            "converged": report.oracle.converged,
            "iterations": report.oracle.iterations,
            "final_mismatch": _round12(report.oracle.final_mismatch),
            "voltage_error_norm": _round12(
                report.oracle.voltage_error_norm),
        },
    }
    return report.rows.json_document(doc, "buses") + "\n"


def _emit_table(report: RunReport) -> str:
    out = [f"method: {report.method}"]
    if report.condition is not None:
        out.append(f"condition estimate: {_fmt(report.condition)}")
    for name, val in sorted(report.flags.items()):
        out.append(f"flag {name}: {'yes' if val else 'no'}")
    for name, val in sorted(report.norms.items()):
        out.append(f"norm {name}: {_fmt(val)}")
    for b in report.bounds:
        status = "holds" if b.satisfied else "VIOLATED"
        out.append(f"bound {b.name}: {_fmt(b.value)} <= {_fmt(b.bound)} "
                   f"({status})")
    if report.oracle is not None:
        o = report.oracle
        out.append(f"oracle: converged={'yes' if o.converged else 'no'} "
                   f"iterations={o.iterations} "
                   f"final_mismatch={_fmt(o.final_mismatch)} "
                   f"|v_lin - v_newton|={_fmt(o.voltage_error_norm)}")
    out.append("")
    out += report.rows.aligned_lines()
    return "\n".join(out) + "\n"


def emit_report(report: RunReport, fmt: str = "table") -> str:
    if fmt == "csv":
        return "\n".join(report.rows.csv_lines()) + "\n"
    if fmt == "json":
        return _emit_json(report)
    if fmt == "table":
        return _emit_table(report)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


# -- structural check report ------------------------------------------------


@dataclass(frozen=True, eq=False)
class CheckReport:
    noload: "object"          # StructureDiagnosis
    flat: "object | None"     # FlatSolveConditions, when the gate passes
    lossless_gate: bool
    slack_unity: bool


def run_check(case: NetworkCase) -> CheckReport:
    """Evaluate the structural diagnostics without solving anything."""
    partition = build_admittance(case)
    noload = check_noload_structure(partition, case.i_load_vector(),
                                    case.v_slack)
    gate = trans.lossless_gate(partition, case) is None
    flat = None
    if gate:
        sys = trans.build_lossless_system(partition, case)
        flat = trans.check_flat_conditions(sys,
                                           partition.slack_adjacent_ids())
    return CheckReport(noload=noload, flat=flat, lossless_gate=gate,
                       slack_unity=trans.slack_is_unity(case))


def emit_check(report: CheckReport, fmt: str = "table") -> str:
    items = [
        ("lossless_gate", report.lossless_gate),
        ("slack_unity", report.slack_unity),
        ("noload_connected", report.noload.connected),
        ("noload_weak_dominance", bool(report.noload.weak_rows.all())),
        ("noload_strict_at_slack_adjacent",
         report.noload.strict_at_slack_adjacent),
        ("noload_source_nonzero", report.noload.source_nonzero),
        ("noload_verdict", report.noload.verdict),
    ]
    if report.flat is not None:
        items += [
            ("flat_weak_dominance", bool(report.flat.weak.all())),
            ("flat_strict_at_slack_adjacent",
             report.flat.strict_at_slack_adjacent),
            ("flat_overall", report.flat.overall),
        ]
    reasons = ",".join(report.noload.reasons)
    if fmt == "json":
        doc = {k: bool(v) for k, v in items}
        doc["noload_reasons"] = list(report.noload.reasons)
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        lines = ["check,result"]
        lines += [f"{k},{'true' if v else 'false'}" for k, v in items]
        lines.append(f"noload_reasons,{reasons or '-'}")
        return "\n".join(lines) + "\n"
    if fmt == "table":
        lines = [f"{k}: {'yes' if v else 'no'}" for k, v in items]
        if reasons:
            lines.append(f"noload_reasons: {reasons}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


# -- linear vs oracle sweep ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompareReport:
    method: str
    rows: Rows


def run_compare(case: NetworkCase, alphas, method: str = "auto",
                override_conditions: bool = False,
                newton_settings: NewtonSettings | None = None
                ) -> CompareReport:
    """Sweep loading factors: scale constant-power injections by each alpha,
    solve linearly and with Newton, and tabulate the gap.

    The ratio ``voltage_error / alpha^2`` staying bounded as alpha shrinks
    is the observable signature that the linear model's error is quadratic
    in loading.  Every alpha shares one admittance partition, so Y is
    factored once for the whole sweep.
    """
    partition = build_admittance(case)
    resolved = _resolve_method(partition, case, method)
    values = []
    for alpha in map(float, alphas):
        scaled = scale_power_injections(case, alpha)
        sol, _ = _dispatch(partition, scaled, resolved, override_conditions)
        result = solve_newton(partition, scaled, newton_settings)
        residual = quadratic_residual(partition, sol.dv)
        err = float(np.linalg.norm(sol.approx_voltage() - result.voltage))
        values.append((alpha, err,
                       err / alpha ** 2 if alpha else float("nan"),
                       residual.norm_s, int(result.iterations),
                       bool(result.converged)))
    return CompareReport(method=resolved,
                         rows=Rows(COMPARE_COLUMNS, tuple(values)))


def emit_compare(report: CompareReport, fmt: str = "table") -> str:
    if fmt == "json":
        doc = {"method": report.method}
        return report.rows.json_document(doc, "sweep") + "\n"
    if fmt == "csv":
        lines = report.rows.csv_lines()
    elif fmt == "table":
        lines = [f"method: {report.method}", *report.rows.csv_lines()]
    else:
        raise ValueError(
            f"unknown format {fmt!r}; expected one of {FORMATS}")
    return "\n".join(lines) + "\n"
