"""JSON reports keep the stdlib ``indent=2`` layout byte for byte.

The row arrays are written from the text cells of each column, a float as
its 12-digit text in ``repr``'s layout; re-encoding the parsed output with
``json.dumps(..., indent=2)`` must give it back exactly, NaN and infinite
cells included, and so must encoding the rows' rounded values.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casegen
from rectpf import report


def _stdlib_layout(out: str) -> str:
    return json.dumps(json.loads(out), indent=2) + "\n"


def _cells(rows: report.Rows) -> list:
    return [v for col in rows.values for v in col]


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
    assert False in rep.rows.values[
        rep.rows.columns.index("newton_converged")]
    out = report.emit_compare(rep, "json")
    assert out == _stdlib_layout(out)
    feeder = report.run_compare(casegen.fixed_feeder10(), [1.0, 0.25])
    out = report.emit_compare(feeder, "json")
    assert out == _stdlib_layout(out)


def test_json_document_of_no_rows():
    rows = report.Rows(("a", "b"), ([], []))
    head = {"method": "x", "flags": {"f": True}}
    assert (rows.json_document(head, "rows")
            == json.dumps({**head, "rows": []}, indent=2))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.floats(), st.floats(1e11, 1e17), st.floats(-1e16, -1e11),
                 st.floats(-1e-300, 1e-300)))
@example(-0.0)
@example(math.nan)
@example(-math.nan)
@example(math.inf)
@example(-math.inf)
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1e-05)
@example(123456789012.0)
@example(1e12)
@example(9.99999999999e15)
@example(1e16)
def test_json_number_of_a_cell_is_the_encoder_text(x):
    assert (report._json_number(report._fmt(x))
            == json.dumps(float(report._fmt(x))))


def test_wide_report_json_matches_encoding_rounded_rows():
    case = casegen.random_feeder_case(np.random.default_rng(3), 1000, 1000,
                                      with_shunts=False)
    rep = report.run_pipeline(case, "general", with_oracle=True)
    out = report.emit_report(rep, "json")
    head = json.loads(out)
    del head["buses"]
    buses = [{name: report._round12(v) if type(v) is float else v
              for name, v in zip(rep.rows.columns, row)}
             for row in zip(*rep.rows.values)]
    assert len(buses) == 1000
    assert out == json.dumps({**head, "buses": buses}, indent=2) + "\n"
