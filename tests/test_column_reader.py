"""The columnar case reader against the per-entry dict path.

``parse_case`` reads a clean case file straight into columns with
``caseio._read_columns`` and gives every other text to the dict path: the
document, then ``_bus_columns`` and ``_branch_columns``.  The reader must
decline (return None) wherever it could differ, and otherwise hand
``NetworkCase`` exactly what the dict path hands it.  A text it declines
that has blank, space-only or full-line comment lines is read once more
without them.  The single edits below pin its boundary; the property
checks generated cases in both layouts with up to two edits and with
comment and blank lines.
"""

from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import casegen
from test_case_loader import _flow_layout
from test_cli_fuzz import FIELDS, VALUES, _with
from rectpf import (CaseValidationError, _yamlio, caseio, dump_case,
                    parse_case)
from rectpf.netmodel import _BRANCH_COLUMNS, _BUS_COLUMNS

FLOW = """\
schema_version: "1"
base_mva: 100.0
buses:
  - {id: 1, kind: zip, p: -0.1, q: -0.05, shunt_b: 0.02}
  - {id: 2, kind: pv, v_setpoint: 1.02, p: 0.3}
  - {id: 3, kind: slack, v_setpoint: 1.0, theta_deg: 0.0}
branches:
  - {from: 1, to: 2, series_g: 2.0, series_b: -6.0, shunt_b_total: 0.04}
  - {from: 2, to: 3, series_g: 3.0, series_b: -8.0}
"""
BLOCK = dump_case(parse_case(FLOW))
HEAD, BUSES = FLOW[:FLOW.index("buses:")], FLOW[
    FLOW.index("buses:"):FLOW.index("branches:")]


def _handed(text):
    """What the dict path hands ``NetworkCase``: ``("columns", (base_mva,
    ids, columns))``, or ``("raised", code, violations)``."""
    handed = []
    with mock.patch.object(caseio, "_read_columns", lambda text: None), \
            mock.patch.object(caseio, "NetworkCase",
                              lambda *args: handed.append(args)):
        try:
            parse_case(text)
        except CaseValidationError as exc:
            return ("raised", exc.code, exc.violations)
    return ("columns", handed[0])


def _bits(value):
    value = np.asarray(value)
    bits = value.view(np.uint64) if value.dtype.kind in "fc" else value
    return value.dtype, value.shape, bits.tolist()


def _same_columns(got, want) -> None:
    """Equal base, ids (Python ints, in file order) and columns, bit for
    bit and in dtype."""
    (base, ids, columns), (base0, ids0, columns0) = got, want
    assert _bits(base) == _bits(base0)
    assert ids == ids0 and list(map(type, ids)) == list(map(type, ids0))
    assert columns.keys() == columns0.keys()
    for name, column in columns.items():
        assert _bits(column) == _bits(columns0[name]), name
        assert type(column) is type(columns0[name]), name


def _outcome(text):
    """``parse_case(text)``: every column and the base bit for bit, or the
    error code and violations."""
    try:
        case = parse_case(text)
    except CaseValidationError as exc:
        return ("raised", exc.code, exc.violations)
    for name in [*_BUS_COLUMNS, *_BRANCH_COLUMNS]:
        assert not getattr(case, name).flags.writeable
    return ("case", _bits(case.base_mva), [
        _bits(getattr(case, name)) for name in [*_BUS_COLUMNS,
                                                *_BRANCH_COLUMNS]])


def _same_outcome(text) -> None:
    """``parse_case`` gives exactly what the dict path gives: the case,
    each column bit for bit and read-only, or the same violations."""
    got = _outcome(text)
    with mock.patch.object(caseio, "_read_columns", lambda text: None):
        assert got == _outcome(text)


def _check(text) -> bool:
    """The reader declines ``text`` or reads what the dict path reads;
    whether it read."""
    read = caseio._read_columns(text)
    if read is not None:
        handed = _handed(text)
        assert handed[0] == "columns", handed
        _same_columns(read, handed[1])
    _same_outcome(text)
    return read is not None


# (layout, text replaced, replacement, whether the reader reads the result)
EDITS = [
    ("flow", "p: -0.1", "p: -0", True),
    ("flow", "id: 1,", "id: 1234567890123456789,", False),
    ("flow", "p: -0.1", "p: .5", False),
    ("flow", "p: -0.1", "p: 1_0", False),
    ("flow", "p: -0.1", "p: 017", False),
    ("flow", "kind: zip", "kind: 'zip'", False),
    ("flow", "q: -0.05", "q: -0.05, p: 0.2", False),
    ("block", "  q: -0.05\n", "  q: -0.05\n  p: 0.2\n", False),
    ("flow", "q: -0.05", "q: -0.05, extra: 1", False),
    ("flow", ", p: 0.3}", "}", False),
    ("flow", "p: 0.3}", "p: 0.3, q: 0.1}", False),
    ("flow", "buses:\n", "buses:\n  # a comment\n", False),
    ("flow", HEAD + BUSES, BUSES + HEAD, True),       # top-level keys moved
    ("block", "  series_b: -6.0\n", "  series_b: -6.0, 1\n", False),
    ("flow", "kind: zip", "kind: 'zip: x'", False),
    ("block", "  p: -0.1\n", "  p: -0\n", True),
    ("block", "- id: 1\n", "- id: 1\n  id: 1\n", False),
    ("flow", "{id: 1, kind: zip,", "{id: 1: kind, zip,", False),
    # a bad token only in the last number column of a section
    ("flow", "theta_deg: 0.0", "theta_deg: 0.0.0", False),
    ("flow", "shunt_b_total: 0.04", "shunt_b_total: 4e", False),
    ("flow", "series_g: 3.0", "series_g: -0", True),
    ("flow", ", shunt_b: 0.02}", "}", True),         # a key no bus has
    # a well-formed token of another key's value class
    ("flow", "id: 1,", "id: 1.5,", False),
    ("flow", "id: 1,", "id: zip,", False),
    ("flow", "kind: zip", "kind: 2", False),
    ("flow", "from: 1,", "from: 1.0,", False),
    ("flow", "to: 2,", "to: pv,", False),
    ("flow", "p: -0.1", "p: zip", False),
    ("flow", "series_b: -6.0", "series_b: slack", False),
    ("flow", "shunt_b_total: 0.04", "shunt_b_total: 1_0", False),
]


@pytest.mark.parametrize("layout, old, new, reads", EDITS)
def test_single_edit_reads_as_the_dict_path_reads(layout, old, new, reads):
    base = FLOW if layout == "flow" else BLOCK
    assert old in base
    text = base.replace(old, new, 1)
    assert _check(text) is reads
    if new.endswith(("p: -0", "p: -0\n")):
        # YAML reads -0 as the int 0, which widens to +0.0
        assert np.signbit(parse_case(text).power.real).tolist() == [
            False, False, False]
    if new.endswith("series_g: -0"):
        assert np.signbit(parse_case(text).series.real).tolist() == [
            False, False]


CASES = {
    "feeder": lambda rng: casegen.random_feeder_case(rng, 3, 12),
    "grid": lambda rng: casegen.random_lossless_case(rng, 3, 12,
                                                     pv_fraction=0.4),
    "mesh": lambda rng: casegen.random_feeder_case(rng, 3, 12,
                                                   with_shunt_g=True),
}


# Lines the reader strips from a text it declines: blank, space-only and
# full-line comments, indented or not.
FILLER = ["", " ", "    ", "#", "# a comment", "  # indented: comment",
          "#x: 1, {y: [2]}"]


@st.composite
def edited_texts(draw):
    """A casegen case with up to two fields set to ``test_cli_fuzz``'s
    values, in the block layout, keys sorted or not, or in the flow
    layout; the edits; and the text with up to four ``FILLER`` lines put
    before, between or after its lines."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    case = CASES[draw(st.sampled_from(sorted(CASES)))](rng)
    edits = draw(st.lists(st.sampled_from(sorted(FIELDS)).flatmap(
        lambda place: st.tuples(st.just(place), st.integers(0, 20),
                                st.sampled_from(FIELDS[place]),
                                st.sampled_from(VALUES))), max_size=2))
    doc = yaml.safe_load(_with(yaml.safe_load(dump_case(case)), edits))
    layout = draw(st.sampled_from(["dump", "sorted", "flow"]))
    if layout == "flow":
        text = _flow_layout(doc, draw(st.sampled_from([0, 2, 4])))
    else:
        text = yaml.safe_dump(doc, sort_keys=layout == "sorted")
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(FILLER)))
    return text, edits, "".join(line + "\n" for line in lines)


def _refuse(text):
    raise AssertionError("the document was loaded")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(drawn=edited_texts())
def test_reader_declines_or_reads_what_the_dict_path_reads(drawn):
    text, edits, commented = drawn
    read = _check(text)
    assert read or edits
    # Comment and blank lines change nothing but a parse error's position,
    # and a case the reader reads it still reads with them, without
    # loading the document.
    with mock.patch.object(_yamlio, "load_document",
                           _refuse if read else _yamlio.load_document):
        got, want = _outcome(commented), _outcome(text)
    if want[:2] == ("raised", "PARSE_ERROR"):
        got, want = got[:2], want[:2]
    assert got == want


# Comments the reader does not strip: each text still reaches the document.
YAML_COMMENTS = [
    ("flow", "buses:\n", "buses:\n\t# a tab before the comment\n"),
    ("block", "buses:\n", "buses:\n \t# a tab before the comment\n"),
    ("flow", "p: 0.3}\n", "p: 0.3}  # a trailing comment\n"),
    ("block", "  p: -0.1\n", "  p: -0.1 # a trailing comment\n"),
    ("flow", "{id: 1, kind: zip, ",
     "{id: 1, kind: zip,\n# inside a flow mapping\n    "),
]


@pytest.mark.parametrize("layout, old, new", YAML_COMMENTS)
def test_other_comments_take_the_yaml_path(layout, old, new):
    base = FLOW if layout == "flow" else BLOCK
    assert old in base
    text = base.replace(old, new, 1)
    with mock.patch.object(_yamlio, "load_document",
                           wraps=_yamlio.load_document) as load:
        _same_outcome(text)
    assert load.call_count == 2
