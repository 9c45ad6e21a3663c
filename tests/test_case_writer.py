"""The columnar case writer against the object writer it replaced: the same
text byte for byte, an exact round trip, and no per-bus objects."""

from collections import Counter

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import casegen
import reference_case
from reference_case import build_case
from test_cli_fuzz import _with
from rectpf import (Branch, Bus, CaseValidationError, ZipLoad, dump_case,
                    parse_case)
from rectpf.caseio import _BUS_FIELDS

# Floats whose text is easy to get wrong: a signed zero, the smallest
# subnormal, a subnormal with many digits, exponents where repr switches
# notation, the largest double and a value repr needs 17 digits for.
EDGE_FLOATS = [-0.0, 5e-324, 2.5e-308, 1e16, 1e22, 1.7976931348623157e308,
               0.30000000000000004]
BRANCH_FIELDS = ["series_g", "series_b", "shunt_b_total"]

BASE = yaml.safe_load("""
schema_version: "1"
buses:
  - {id: 1, kind: zip, p: -0.1, q: -0.05}
  - {id: 2, kind: pv, v_setpoint: 1.02, p: 0.3}
  - {id: 3, kind: slack, v_setpoint: 1.0, theta_deg: 0.0}
branches:
  - {from: 1, to: 2, series_g: 1.0, series_b: -5.0}
  - {from: 2, to: 3, series_g: 2.0, series_b: -6.0, shunt_b_total: 0.1}
""")


def _assert_writes_as_the_object_writer(text: str) -> None:
    case = parse_case(text)
    written = dump_case(case)
    assert written == reference_case.reference_dump(case)
    assert parse_case(written) == case


# Every numeric field of every bus kind and of a branch, set to each edge
# float; a v_setpoint of -0.0 is no positive magnitude, so no case.
EDGE_EDITS = [(place, index, name, value)
              for place, index, names in [
                  *(("buses", i, sorted(_BUS_FIELDS[kind]))
                    for i, kind in enumerate(("zip", "pv", "slack"))),
                  ("branches", 1, BRANCH_FIELDS)]
              for name in names for value in EDGE_FLOATS
              if (name, str(value)) != ("v_setpoint", "-0.0")]


@pytest.mark.parametrize("edit", EDGE_EDITS, ids=str)
def test_edge_floats_are_written_as_the_object_writer_wrote_them(edit):
    _assert_writes_as_the_object_writer(_with(BASE, [edit]))


@st.composite
def written_cases(draw) -> str:
    """Feeder and lossless draws of ``casegen``, the latter with PV buses,
    as the object writer writes them, with up to three fields set to an
    edge float of either sign."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        case = casegen.random_feeder_case(rng, 2, 12)
    else:
        case = casegen.random_lossless_case(
            rng, 2, 12, pv_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])))
    doc = yaml.safe_load(reference_case.reference_dump(case))
    edits = []
    for _ in range(draw(st.integers(0, 3))):
        value = draw(st.sampled_from(EDGE_FLOATS)) * draw(
            st.sampled_from([1, -1]))
        if draw(st.booleans()):
            index = draw(st.integers(0, len(doc["buses"]) - 1))
            fields = sorted(_BUS_FIELDS[doc["buses"][index]["kind"]])
            edits.append(("buses", index, draw(st.sampled_from(fields)),
                          value))
        else:
            edits.append(("branches", draw(st.integers(0, 50)),
                          draw(st.sampled_from(BRANCH_FIELDS)), value))
    return _with(doc, edits)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(text=written_cases())
def test_columns_are_written_as_the_object_writer_wrote_them(text):
    try:
        parse_case(text)
    except CaseValidationError:     # an edit no case file may hold
        return
    _assert_writes_as_the_object_writer(text)


def test_writer_builds_no_bus_branch_or_load_objects(monkeypatch):
    case = parse_case(dump_case(casegen.random_lossless_case(
        np.random.default_rng(5), 20, 30, pv_fraction=0.4)))
    built = Counter()
    for cls in (Bus, Branch, ZipLoad):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    dump_case(case)
    assert built == Counter()


def test_numpy_float_base_is_written_as_a_float():
    ladder = casegen.ladder_case()
    case = build_case(ladder.buses, ladder.branches, np.float64(100.0))
    text = dump_case(case)
    assert "base_mva: 100.0\n" in text
    assert parse_case(text) == case
