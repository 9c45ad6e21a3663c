"""JSON reports keep the stdlib ``indent=2`` layout byte for byte.

The row arrays are written one C-encoded row at a time; re-encoding the
parsed output with ``json.dumps(..., indent=2)`` must give it back exactly,
NaN and infinite cells included.
"""

import json
import math

import pytest

import casegen
from rectpf import report


def _stdlib_layout(out: str) -> str:
    return json.dumps(json.loads(out), indent=2) + "\n"


def _cells(rows: report.Rows) -> list:
    return [v for row in rows.values for v in row]


@pytest.mark.parametrize("method, oracle", [
    ("auto", False), ("general", True), ("lossless", True), ("dc", False),
])
def test_run_report_json_is_the_stdlib_layout(method, oracle):
    case = casegen.lossless_ladder_case()
    out = report.emit_report(report.run_pipeline(case, method, oracle),
                             "json")
    assert out == _stdlib_layout(out)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_report_json_with_nonfinite_cells():
    # Loads this large overflow the quadratic term: p_hot NaN, q_hot inf.
    case = casegen.ladder_case(power=-1e160 * (1 + 0.4j))
    rep = report.run_pipeline(case, "general")
    assert any(math.isnan(v) for v in _cells(rep.rows))
    assert any(math.isinf(v) for v in _cells(rep.rows))
    out = report.emit_report(rep, "json")
    assert "NaN" in out and "Infinity" in out
    assert out == _stdlib_layout(out)


def test_run_report_json_with_nonconverging_oracle():
    case = casegen.ladder_case(power=-5 - 2j)
    rep = report.run_pipeline(case, "general", with_oracle=True)
    assert not rep.oracle.converged
    out = report.emit_report(rep, "json")
    assert out == _stdlib_layout(out)


def test_compare_report_json_is_the_stdlib_layout():
    # Newton does not converge at alpha 1; alpha 0 gives a NaN ratio.
    case = casegen.ladder_case(power=-5 - 2j)
    rep = report.run_compare(case, [1.0, 0.5, 0.0], method="general")
    assert any(isinstance(v, float) and math.isnan(v)
               for v in _cells(rep.rows))
    assert False in [row[-1] for row in rep.rows.values]
    out = report.emit_compare(rep, "json")
    assert out == _stdlib_layout(out)
    feeder = report.run_compare(casegen.fixed_feeder10(), [1.0, 0.25])
    out = report.emit_compare(feeder, "json")
    assert out == _stdlib_layout(out)


def test_json_document_of_no_rows():
    rows = report.Rows(("a", "b"), ())
    head = {"method": "x", "flags": {"f": True}}
    assert (rows.json_document(head, "rows")
            == json.dumps({**head, "rows": []}, indent=2))
