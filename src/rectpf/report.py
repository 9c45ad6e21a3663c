"""End-to-end pipeline: solve a case with its method's model and report.

Emission is strictly deterministic: identical case plus identical flags
produce byte-identical output, and all floats are rendered with 12
significant digits.  Per-bus and per-alpha output share one row model,
:class:`Rows`, which renders each column to text cells once; CSV, the
aligned table and the JSON rows are all written from those cells.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import distribution as dist
from . import linearize as lin
from . import transmission as trans
from .errors import SolverError
from .netmodel import (AdmittancePartition, NetworkCase, _scaled_targets,
                       build_admittance, check_noload_structure)
from .newton import NewtonResult, NewtonSettings, _solve, solve_newton
from .residuals import BoundCheck, nonlinear_mismatch, quadratic_residual

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


# The text renderer of an int or bool column's values.
_TEXT = {int: str, bool: lambda v: "true" if v else "false"}

_REPR_EXPONENTS = {"+12", "+13", "+14", "+15", *map(str, range(-324, -307))}


def _json_number(text: str) -> str:
    """``json.dumps(float(text))`` for a ``_fmt`` text.  ``repr`` keeps the
    digits of a normal double's text, but is positional at exponents 12 to
    15, and a subnormal (exponent -308 or below) has fewer digits."""
    _, e, exponent = text.partition("e")
    if exponent in _REPR_EXPONENTS or not text[-1].isdigit():  # or nan, inf
        return json.dumps(float(text))
    return text if e or "." in text else text + ".0"


@cache
def _row_template(columns: tuple[str, ...]) -> str:
    """A JSON row object of ``columns``, a ``%s`` for each value."""
    names = [json.dumps(name).replace("%", "%%") for name in columns]
    return "    {\n      " + ": %s,\n      ".join(names) + ": %s\n    }"


@dataclass(frozen=True, eq=False)
class Rows:
    """Tabular output: column names and one list of plain values per column.

    All values in a column share one type, ``int``, ``bool`` or ``float``,
    and that type picks the renderer that turns the column into text cells
    once; every format is written from those cells.
    """

    columns: tuple[str, ...]
    values: tuple[list, ...]

    def cells(self) -> list[list[str]]:
        """Text cells, column by column; a float column in one format call."""
        return [list(map(_TEXT[type(col[0])], col))
                if col and type(col[0]) is not float
                else ("%.12g\n" * len(col) % tuple(col)).splitlines()
                for col in self.values]

    def json_document(self, head: dict, key: str) -> str:
        """``json.dumps({**head, key: rows}, indent=2)``, byte for byte, for
        one object per row in ``rows``, each float rounded by
        :func:`_round12`.  ``head`` is not empty.  A float cell with "." or
        an exponent other than e+1x or e-3xx is its own JSON text."""
        columns = [[c if ("." in c or "e" in c) and "e+1" not in c
                    and "e-3" not in c else _json_number(c) for c in cells]
                   if col and type(col[0]) is float else cells
                   for col, cells in zip(self.values, self.cells())]
        row = _row_template(self.columns)
        rows = ",\n".join(map(row.__mod__, zip(*columns)))
        array = "[\n" + rows + "\n  ]" if rows else "[]"
        return (json.dumps(head, indent=2)[:-2] + ",\n  " + json.dumps(key)
                + ": " + array + "\n}")

    def csv_lines(self) -> list[str]:
        return [",".join(self.columns), *map(",".join, zip(*self.cells()))]

    def aligned_lines(self) -> list[str]:
        table = [[n, *col] for n, col in zip(self.columns, self.cells())]
        widths = [max(map(len, col)) for col in table]
        return ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
                for row in zip(*table)]


@dataclass(frozen=True, eq=False)
class RunReport:
    method: str
    rows: Rows
    norms: dict[str, float]
    bounds: tuple[BoundCheck, ...]
    flags: dict[str, bool]
    condition: float | None
    oracle: NewtonResult | None     # Newton's result, when it ran,
    oracle_error: float | None      # and |v_lin - v_newton|


# The refusal of a case with PV buses by each method that needs a complex
# power at every bus.
_PV_REFUSALS = {
    "general": ("PV_UNSUPPORTED_IN_GENERAL",
                "the general 2N solve needs a fully specified complex power "
                "at every bus; PV buses are not supported here"),
    "noload": ("NON_ZIP_BUS_PRESENT",
               "distribution closed form requires every non-slack bus to be "
               "a ZIP bus"),
    "nocurrent": ("NON_ZIP_BUS_PRESENT",
                  "this closed form requires every non-slack bus to be a ZIP "
                  "bus"),
    "decoupled": ("NON_ZIP_BUS_PRESENT",
                  "the decoupled estimate requires every non-slack bus to be "
                  "a ZIP bus"),
}

# The model of each method, built from the partition and the override flag.
_MODELS = {
    "general": lambda p, _: lin.prepare_general(p, lin.flat_nominal(p.n)),
    "noload": lambda p, _: lin.prepare_noload(p),
    "lossless": trans.prepare_lossless,
    "dc": lambda p, _: trans.prepare_dc(p),
    "nocurrent": lambda p, _: dist.prepare_no_current(p),
    "decoupled": lambda p, _: dist.prepare_decoupled(p),
}
METHODS = ("auto", *_MODELS)


def prepare(partition: AdmittancePartition, case: NetworkCase, method: str,
            override_conditions: bool) -> tuple[str, lin.LinearModel]:
    """The method that runs for ``method`` and its model of ``case``.

    ``auto`` picks the lossless model when the lossless gate passes, the
    no-load closed form for all-ZIP cases whose structural conditions hold,
    and the general model otherwise.  An explicit ``lossless`` raises the
    gate's error here, every other refusal the model's first solve.
    """
    gate = trans.lossless_gate(partition)
    flags = {"lossless_gate": gate is None}
    if method == "auto":
        if gate is None:
            method = "lossless"
        elif case.has_pv or not check_noload_structure(partition).verdict:
            method = "general"
        else:
            method, flags["noload_structure"] = "noload", True
    elif method == "noload":
        flags["noload_structure"] = check_noload_structure(partition).verdict
    elif method == "lossless" and gate is not None:
        raise gate
    if method not in _MODELS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {METHODS}")
    refusal = _PV_REFUSALS.get(method) if case.has_pv else None

    def build() -> lin.ModelParts:
        if refusal is not None:
            raise SolverError(refusal[1], code=refusal[0])
        return _MODELS[method](partition, override_conditions)
    return method, lin.LinearModel(flags, build)


def run_pipeline(case: NetworkCase, method: str = "auto",
                 with_oracle: bool = False,
                 override_conditions: bool = False) -> RunReport:
    """Solve a case with the model :func:`prepare` picks for ``method`` and
    assemble the full report."""
    partition = build_admittance(case)
    resolved, model = prepare(partition, case, method, override_conditions)
    s, q_known = case.injection_targets()
    sol = model.solve(s)

    residual = quadratic_residual(partition, sol.dv)
    v_approx = sol.approx_voltage()
    mismatch = nonlinear_mismatch(partition, v_approx, case)
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
    coefficient = model.parts.reactive_bound
    if coefficient is not None:
        bounds.append(BoundCheck(
            "reactive_quadratic", value=residual.norm_q,
            bound=coefficient * float(np.linalg.norm(sol.dv.imag)) ** 2))
    flags = {**model.parts.flags, **model.flags}

    v_nom, dv = sol.nominal.V, sol.dv
    columns = [list(range(1, partition.n + 1)),
               v_nom.real.tolist(), v_nom.imag.tolist(),
               dv.real.tolist(), dv.imag.tolist(),
               np.abs(v_approx).tolist(),
               [math.degrees(math.atan2(v.imag, v.real))
                for v in v_approx.tolist()],
               residual.p_hot.tolist(), residual.q_hot.tolist()]
    names, oracle, oracle_error = BUS_COLUMNS, None, None
    if with_oracle:
        oracle = solve_newton(partition, case)
        v_oracle = oracle.voltage
        oracle_error = float(np.linalg.norm(v_approx - v_oracle))
        columns += [v_oracle.real.tolist(), v_oracle.imag.tolist(),
                    np.abs(v_approx - v_oracle).tolist()]
        names += ORACLE_COLUMNS
    return RunReport(
        method=resolved, rows=Rows(names, tuple(columns)),
        norms=norms, bounds=tuple(bounds), flags=flags,
        condition=model.parts.condition, oracle=oracle,
        oracle_error=oracle_error)


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
            "voltage_error_norm": _round12(report.oracle_error),
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
                   f"|v_lin - v_newton|={_fmt(report.oracle_error)}")
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
    slack_unity: bool


def run_check(case: NetworkCase) -> CheckReport:
    """Evaluate the structural diagnostics without solving anything."""
    partition = build_admittance(case)
    noload = check_noload_structure(partition)
    flat = (trans.flat_conditions(partition)
            if trans.lossless_gate(partition) is None else None)
    return CheckReport(noload=noload, flat=flat,
                       slack_unity=trans.slack_is_unity(partition))


def emit_check(report: CheckReport, fmt: str = "table") -> str:
    """One ordered list of (name, value) items, rendered in any format."""
    noload, flat = report.noload, report.flat
    checks = [
        ("lossless_gate", flat is not None),
        ("slack_unity", report.slack_unity),
        ("noload_connected", noload.connected),
        ("noload_weak_dominance", noload.weak_rows.all()),
        ("noload_strict_at_slack_adjacent", noload.strict_at_slack_adjacent),
        ("noload_source_nonzero", noload.source_nonzero),
        ("noload_verdict", noload.verdict),
    ]
    if flat is not None:
        checks += [
            ("flat_weak_dominance", flat.weak.all()),
            ("flat_strict_at_slack_adjacent", flat.strict_at_slack_adjacent),
            ("flat_overall", flat.overall),
        ]
    items = [*((k, bool(v)) for k, v in checks),
             ("noload_reasons", list(noload.reasons))]
    if fmt == "json":
        return json.dumps(dict(items), indent=2) + "\n"
    if fmt not in FORMATS:
        raise ValueError(
            f"unknown format {fmt!r}; expected one of {FORMATS}")
    yes, no, none = (("true", "false", "-") if fmt == "csv"
                     else ("yes", "no", ""))
    texts = [(k, (",".join(v) or none) if isinstance(v, list)
              else yes if v else no) for k, v in items]
    if fmt == "table":              # no reasons, no line
        return "".join(f"{k}: {text}\n" for k, text in texts if text)
    out = io.StringIO()             # a CSV cell holding a comma is quoted
    csv.writer(out, lineterminator="\n").writerows(
        [("check", "result"), *texts])
    return out.getvalue()


# -- linear vs oracle sweep ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompareReport:
    method: str
    rows: Rows


def run_compare(case: NetworkCase, alphas, method: str = "auto",
                override_conditions: bool = False) -> CompareReport:
    """Sweep loading factors: scale constant-power injections by each alpha,
    solve linearly and with Newton, and tabulate the gap.

    The ratio ``voltage_error / alpha^2`` staying bounded as alpha shrinks
    is the observable signature that the linear model's error is quadratic
    in loading.  Every alpha shares one partition and one model, so each
    matrix that loading does not change is factored once, after the first
    alpha is scaled and validated.  Only the power targets are scaled; the
    scaled case is never built unless it is invalid.
    """
    partition = build_admittance(case)
    resolved, model = prepare(partition, case, method, override_conditions)
    alphas = [float(alpha) for alpha in alphas]
    errors, norms, iterations, converged = [], [], [], []
    for alpha in alphas:
        s = _scaled_targets(case, alpha)
        sol = model.solve(s)
        result = _solve(partition, case, s, NewtonSettings())
        errors.append(float(np.linalg.norm(sol.approx_voltage()
                                           - result.voltage)))
        norms.append(quadratic_residual(partition, sol.dv).norm_s)
        iterations.append(int(result.iterations))
        converged.append(bool(result.converged))
    # numpy's a ** 2 rounds as Python's, but under/overflows without raising
    ratios = [float(e / np.float64(a) ** 2) if a else math.nan
              for a, e in zip(alphas, errors)]
    columns = (alphas, errors, ratios, norms, iterations, converged)
    return CompareReport(method=resolved, rows=Rows(COMPARE_COLUMNS, columns))


def emit_compare(report: CompareReport, fmt: str = "table") -> str:
    if fmt == "json":
        return report.rows.json_document({"method": report.method},
                                         "sweep") + "\n"
    if fmt == "csv":
        lines = report.rows.csv_lines()
    elif fmt == "table":
        lines = [f"method: {report.method}", *report.rows.csv_lines()]
    else:
        raise ValueError(
            f"unknown format {fmt!r}; expected one of {FORMATS}")
    return "\n".join(lines) + "\n"
