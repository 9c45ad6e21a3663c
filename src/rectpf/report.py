"""End-to-end pipeline: dispatch a case to a method and build reports.

Emission is strictly deterministic: identical case plus identical flags
produce byte-identical output.  Wall-clock timings are collected on the
report object for programmatic use but never emitted, and all floats are
rendered with 12 significant digits.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import distribution as dist
from . import linearize as lin
from . import transmission as trans
from .errors import SolverError
from .netmodel import (AdmittancePartition, NetworkCase, build_admittance,
                       check_noload_structure, scale_power_injections)
from .newton import NewtonResult, NewtonSettings, solve_newton
from .residuals import BoundCheck, nonlinear_mismatch, quadratic_residual

METHODS = ("auto", "general", "noload", "lossless", "dc", "nocurrent",
           "decoupled")

FORMATS = ("table", "csv", "json")

CSV_HEADER = "bus,v_nom_re,v_nom_im,dv_re,dv_im,vmag,theta_deg,p_hot,q_hot"
CSV_ORACLE_EXTRA = ",v_oracle_re,v_oracle_im,abs_err"


def _fmt(x: float) -> str:
    """12-significant-digit rendering used by every emitter."""
    return f"{float(x):.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


@dataclass(frozen=True)
class BusRow:
    bus: int
    v_nom: complex
    dv: complex
    vmag: float
    theta_deg: float
    p_hot: float
    q_hot: float
    v_oracle: complex | None = None
    abs_err: float | None = None


@dataclass(frozen=True)
class OracleSummary:
    converged: bool
    iterations: int
    final_mismatch: float
    voltage_error_norm: float


@dataclass(frozen=True, eq=False)
class RunReport:
    method: str
    rows: tuple[BusRow, ...]
    norms: dict[str, float]
    bounds: tuple[BoundCheck, ...]
    flags: dict[str, bool]
    condition: float | None
    oracle: OracleSummary | None
    timings: dict[str, float] = field(default_factory=dict)  # never emitted


def _lossless_gate(partition: AdmittancePartition,
                   case: NetworkCase) -> bool:
    gmax = float(np.abs(partition.Y_csr.data.real).max(initial=0.0))
    return gmax <= trans.LOSSLESS_GMAX and abs(case.v_slack - 1.0) <= 1e-12


def _resolve_method(partition, case, method: str) -> str:
    if method != "auto":
        return method
    if _lossless_gate(partition, case):
        return "lossless"
    if not case.has_pv:
        structure = check_noload_structure(partition, case.i_load_vector(),
                                           case.v_slack)
        if structure.verdict:
            return "noload"
    return "general"


def _dispatch(partition, case, method: str,
              override_conditions: bool) -> lin.LinearSolution:
    s, _ = case.injection_targets()
    if method == "general":
        return lin.solve_general(partition, case)
    if method == "noload":
        return dist.solve_distribution(partition, case)
    if method == "lossless":
        sys = trans.build_lossless_system(partition, case)
        conditions = trans.check_flat_conditions(
            sys, partition.slack_adjacent_ids())
        return trans.solve_lossless_flat(
            sys, conditions, override_conditions=override_conditions)
    if method == "dc":
        theta = trans.solve_classical_dc(partition, case.p_vector())
        return lin.LinearSolution(
            lin.flat_nominal(partition.n), 1j * theta,
            lin.SolutionMethod.CLASSICAL_DC, lin.SolveDiagnostics())
    if method == "nocurrent":
        if case.has_pv:
            raise SolverError(
                "this closed form requires every non-slack bus to be a ZIP "
                "bus", code="NON_ZIP_BUS_PRESENT")
        return dist.solve_no_current_closed_form(
            partition, case.v_slack, s, i_load=case.i_load_vector())
    if method == "decoupled":
        if case.has_pv:
            raise SolverError(
                "the decoupled estimate requires every non-slack bus to be "
                "a ZIP bus", code="NON_ZIP_BUS_PRESENT")
        nominal = lin.compute_noload_voltage(
            partition, case.i_load_vector(), case.v_slack)
        est = dist.decoupled_estimate(partition, nominal, s)
        v_approx = est.v_mag * np.exp(1j * est.theta)
        flags = {"decoupled_assumption_b_zero": est.susceptance_norm == 0.0,
                 "decoupled_assumption_flat_angles":
                     est.max_nominal_angle == 0.0}
        return lin.LinearSolution(
            nominal, v_approx - nominal.V,
            lin.SolutionMethod.NOLOAD_CLOSED_FORM,
            lin.SolveDiagnostics(flags=flags))
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def run_pipeline(case: NetworkCase, method: str = "auto",
                 with_oracle: bool = False,
                 override_conditions: bool = False) -> RunReport:
    """Solve a case and assemble the full report.

    ``method='auto'`` picks the lossless flat-profile path when the
    conductance gate and unity-slack check pass, the no-load closed form
    for all-ZIP cases whose structural conditions hold, and the general
    stacked solve otherwise.
    """
    t0 = time.perf_counter()
    partition = build_admittance(case)
    resolved = _resolve_method(partition, case, method)
    sol = _dispatch(partition, case, resolved, override_conditions)
    t_solve = time.perf_counter() - t0

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
    flags = dict(sol.diagnostics.flags)
    flags["lossless_gate"] = _lossless_gate(partition, case)
    if resolved == "lossless":
        sys = trans.build_lossless_system(partition, case)
        bounds.append(BoundCheck(
            "reactive_quadratic",
            value=residual.norm_q,
            bound=trans.reactive_error_bound(sys, sol)))

    oracle_summary = None
    v_oracle = None
    t_oracle = 0.0
    if with_oracle:
        t1 = time.perf_counter()
        result = solve_newton(partition, case)
        t_oracle = time.perf_counter() - t1
        v_oracle = result.voltage
        oracle_summary = OracleSummary(
            converged=result.converged, iterations=result.iterations,
            final_mismatch=result.final_mismatch,
            voltage_error_norm=float(np.linalg.norm(v_approx - v_oracle)))

    rows = []
    for i in range(partition.n):
        vo = None if v_oracle is None else complex(v_oracle[i])
        rows.append(BusRow(
            bus=i + 1,
            v_nom=complex(sol.nominal.V[i]),
            dv=complex(sol.dv[i]),
            vmag=float(np.abs(v_approx[i])),
            theta_deg=math.degrees(math.atan2(v_approx[i].imag,
                                              v_approx[i].real)),
            p_hot=float(residual.p_hot[i]),
            q_hot=float(residual.q_hot[i]),
            v_oracle=vo,
            abs_err=None if vo is None else abs(v_approx[i] - vo)))
    return RunReport(
        method=resolved, rows=tuple(rows), norms=norms,
        bounds=tuple(bounds), flags=flags,
        condition=sol.diagnostics.condition, oracle=oracle_summary,
        timings={"solve_s": t_solve, "oracle_s": t_oracle})


# -- emission ---------------------------------------------------------------


def _row_cells(row: BusRow) -> list[str]:
    cells = [str(row.bus), _fmt(row.v_nom.real), _fmt(row.v_nom.imag),
             _fmt(row.dv.real), _fmt(row.dv.imag), _fmt(row.vmag),
             _fmt(row.theta_deg), _fmt(row.p_hot), _fmt(row.q_hot)]
    if row.v_oracle is not None:
        cells += [_fmt(row.v_oracle.real), _fmt(row.v_oracle.imag),
                  _fmt(row.abs_err)]
    return cells


def _emit_csv(report: RunReport) -> str:
    header = CSV_HEADER + (CSV_ORACLE_EXTRA if report.oracle else "")
    lines = [header]
    lines += [",".join(_row_cells(r)) for r in report.rows]
    return "\n".join(lines) + "\n"


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
        "buses": [],
    }
    for r in report.rows:
        entry = {"bus": r.bus,
                 "v_nom_re": _round12(r.v_nom.real),
                 "v_nom_im": _round12(r.v_nom.imag),
                 "dv_re": _round12(r.dv.real),
                 "dv_im": _round12(r.dv.imag),
                 "vmag": _round12(r.vmag),
                 "theta_deg": _round12(r.theta_deg),
                 "p_hot": _round12(r.p_hot),
                 "q_hot": _round12(r.q_hot)}
        if r.v_oracle is not None:
            entry["v_oracle_re"] = _round12(r.v_oracle.real)
            entry["v_oracle_im"] = _round12(r.v_oracle.imag)
            entry["abs_err"] = _round12(r.abs_err)
        doc["buses"].append(entry)
    return json.dumps(doc, indent=2) + "\n"


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
    header = CSV_HEADER + (CSV_ORACLE_EXTRA if report.oracle else "")
    cols = header.split(",")
    table = [cols] + [_row_cells(r) for r in report.rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    out.append("")
    for row in table:
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(out) + "\n"


def emit_report(report: RunReport, fmt: str = "table") -> str:
    if fmt == "csv":
        return _emit_csv(report)
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
    gate = _lossless_gate(partition, case)
    flat = None
    if gate:
        sys = trans.build_lossless_system(partition, case)
        flat = trans.check_flat_conditions(sys,
                                           partition.slack_adjacent_ids())
    return CheckReport(noload=noload, flat=flat, lossless_gate=gate,
                       slack_unity=abs(case.v_slack - 1.0) <= 1e-12)


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


@dataclass(frozen=True)
class CompareRow:
    alpha: float
    voltage_error: float
    error_over_alpha_sq: float
    s_hot_norm: float
    newton_iterations: int
    newton_converged: bool


@dataclass(frozen=True, eq=False)
class CompareReport:
    method: str
    rows: tuple[CompareRow, ...]


def run_compare(case: NetworkCase, alphas, method: str = "auto",
                override_conditions: bool = False,
                newton_settings: NewtonSettings | None = None
                ) -> CompareReport:
    """Sweep loading factors: scale constant-power injections by each alpha,
    solve linearly and with Newton, and tabulate the gap.

    The ratio ``voltage_error / alpha^2`` staying bounded as alpha shrinks
    is the observable signature that the linear model's error is quadratic
    in loading.
    """
    partition = build_admittance(case)
    resolved = _resolve_method(partition, case, method)
    rows = []
    for alpha in alphas:
        scaled = scale_power_injections(case, float(alpha))
        sol = _dispatch(partition, scaled, resolved, override_conditions)
        result = solve_newton(partition, scaled, newton_settings)
        residual = quadratic_residual(partition, sol.dv)
        err = float(np.linalg.norm(sol.approx_voltage() - result.voltage))
        rows.append(CompareRow(
            alpha=float(alpha), voltage_error=err,
            error_over_alpha_sq=err / float(alpha) ** 2 if alpha else
            float("nan"),
            s_hot_norm=residual.norm_s,
            newton_iterations=result.iterations,
            newton_converged=result.converged))
    return CompareReport(method=resolved, rows=tuple(rows))


def emit_compare(report: CompareReport, fmt: str = "table") -> str:
    header = ("alpha,voltage_error,error_over_alpha_sq,s_hot_norm,"
              "newton_iterations,newton_converged")
    if fmt == "json":
        doc = {"method": report.method, "sweep": [
            {"alpha": _round12(r.alpha),
             "voltage_error": _round12(r.voltage_error),
             "error_over_alpha_sq": _round12(r.error_over_alpha_sq),
             "s_hot_norm": _round12(r.s_hot_norm),
             "newton_iterations": r.newton_iterations,
             "newton_converged": r.newton_converged}
            for r in report.rows]}
        return json.dumps(doc, indent=2) + "\n"
    lines = [header] if fmt == "csv" else [f"method: {report.method}", header]
    for r in report.rows:
        lines.append(",".join([
            _fmt(r.alpha), _fmt(r.voltage_error),
            _fmt(r.error_over_alpha_sq), _fmt(r.s_hot_norm),
            str(r.newton_iterations),
            "true" if r.newton_converged else "false"]))
    if fmt not in ("csv", "table"):
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    return "\n".join(lines) + "\n"
