"""JSON reports keep the stdlib ``indent=2`` layout byte for byte.

The row arrays are formatted straight from each column's values, a float
as its 12-digit text, which a column that is not plain re-spells in
``repr``'s layout; re-encoding the parsed output with
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


# Floats at the edges of a plain float column: the range bounds, a deep
# subnormal whose repr has fewer digits, and values next to 1 that round
# to it at 12 significant digits or just do not.
PLAIN_EDGES = [math.nextafter(1e11, 0), 1e11, 99999999999.5,
               math.nextafter(1e-300, 0), 1e-300, 1.2345678901234e-318,
               0.9999999999995, 0.99999999999949,
               math.nextafter(0.9999999999995, 1), 1 + 2e-12]

# Floats whose text or JSON spelling is special: signed zeros, nan, inf,
# subnormals, the exponents repr writes positionally, integer values and
# values that round to integers at 12 significant digits, or lie just past
# the plain test's 1e-11 from an integer.
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     5e-324, 2.2250738585072014e-308, *PLAIN_EDGES]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(1e11, 1e17), st.floats(-1e17, -1e11),
    st.integers(-10 ** 17, 10 ** 17).map(float),
    st.tuples(st.integers(-10 ** 12, 10 ** 12), st.floats(-4e-13, 4e-13)).map(
        lambda t: t[0] * (1.0 + t[1])),
    st.tuples(st.integers(-10 ** 12, 10 ** 12),
              st.sampled_from([1e-11, -1e-11, 2e-11, -2e-11])).map(
        lambda t: t[0] * (1.0 + t[1])),
    st.floats(),
)
COLUMN_VALUES = {float: edge_floats, int: st.integers(-10 ** 20, 10 ** 20),
                 bool: st.booleans()}


@st.composite
def row_sets(draw) -> report.Rows:
    names = draw(st.lists(st.text(max_size=4), min_size=1, max_size=5,
                          unique=True))
    n = draw(st.integers(0, 6))
    values = tuple(draw(st.lists(COLUMN_VALUES[kind], min_size=n, max_size=n))
                   for kind in draw(st.lists(st.sampled_from(sorted(
                       COLUMN_VALUES, key=str)), min_size=len(names),
                       max_size=len(names))))
    return report.Rows(tuple(names), values)


def _text(v) -> str:
    """A cell's text, one value at a time."""
    if type(v) is bool:
        return "true" if v else "false"
    return str(v) if type(v) is int else report._fmt(v)


def _stdlib_document(rows: report.Rows, head: dict, key: str) -> str:
    """The encoder's document, each float as json.dumps(float(_fmt(x)))."""
    records = [{name: report._round12(v) if type(v) is float else v
                for name, v in zip(rows.columns, row)}
               for row in zip(*rows.values)]
    return json.dumps({**head, key: records}, indent=2)


@settings(max_examples=300, deadline=None)
@given(rows=row_sets())
def test_every_format_renders_each_cell_as_the_per_cell_oracle(rows):
    texts = [list(map(_text, col)) for col in rows.values]
    assert rows.csv_document() == "\n".join([",".join(rows.columns),
                                             *map(",".join, zip(*texts))])
    widths = [max(map(len, [name, *col]))
              for name, col in zip(rows.columns, texts)]
    assert rows.aligned_lines() == [
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths))
        for line in [rows.columns, *zip(*texts)]]
    head = {"method": "x"}
    assert (rows.json_document(head, "rows")
            == _stdlib_document(rows, head, "rows"))


@pytest.mark.parametrize("x", [
    *PLAIN_EDGES, *(k * (1 + t) for k in (1, -7, 123456, 10 ** 9)
                    for t in (1e-11, -1e-11, 2e-11, -2e-11))])
def test_plain_edge_alone_and_in_a_plain_column(x):
    # a column of the edge alone, and beside values that are all plain
    rows = report.Rows(("x", "with"), ([x] * 3, [0.5, x, -1.25e-7]))
    assert (rows.json_document({"m": 1}, "rows")
            == _stdlib_document(rows, {"m": 1}, "rows"))


@pytest.mark.filterwarnings("error")
def test_plain_and_exact_columns_beside_int_and_bool_columns():
    # an infinite cell, clipped before the plain test, warns about nothing
    rows = report.Rows(
        ("plain %s", "exact", "bus%", "100%d ok"),
        ([0.5, -1.25e-7, 3.14159265358979, 2.5e10 + 0.5, 0.75],
         [1.0, 1e16, math.nan, 1.2345678901234e-318, -math.inf],
         [1, 2, 10 ** 20, -3, 0], [True, False, True, True, False]))
    head = {"method": "x"}
    assert (rows.json_document(head, "rows")
            == _stdlib_document(rows, head, "rows"))
    assert rows.csv_document().splitlines() == [
        "plain %s,exact,bus%,100%d ok",
        "0.5,1,1,true", "-1.25e-07,1e+16,2,false",
        "3.14159265359,nan,100000000000000000000,true",
        "25000000000.5,1.23456629517e-318,-3,true", "0.75,-inf,0,false"]
