"""The columnar case reader against the per-entry reference reader, the
object builder against the views, and the CLI path's freedom from per-bus
objects."""

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casegen
import reference_case
from reference_case import build_case
from test_case_loader import _mangle
from test_cli_fuzz import BASES, FIELDS, VALUES, _with, case_texts
from test_golden_cli import GOLDEN
from rectpf import (Branch, Bus, CaseValidationError, NetworkCase,
                    PvSetpoint, SlackVoltage, ZipLoad, _yamlio, caseio,
                    dump_case, parse_case)
from rectpf.netmodel import _BRANCH_COLUMNS, _BUS_COLUMNS, _DEG
from rectpf.report import run_compare, run_pipeline


NUMBERS = [v for v in VALUES
           if isinstance(v, (int, float)) and not isinstance(v, bool)]


@st.composite
def entry_edits(draw) -> str:
    """Cases with up to four bus and branch fields set to numbers, which
    reach the model checks more often than ``case_texts``' edits do."""
    edits = draw(st.lists(st.sampled_from(["buses", "branches"]).flatmap(
        lambda place: st.tuples(st.just(place), st.integers(0, 20),
                                st.sampled_from(FIELDS[place]),
                                st.sampled_from(NUMBERS))), max_size=4))
    return _with(draw(st.sampled_from(BASES)), edits)


@st.composite
def documents(draw) -> str:
    """``test_cli_fuzz``'s edited cases, their buses sometimes reordered,
    then sometimes truncated or given a junk character."""
    text = draw(st.one_of(case_texts(), entry_edits()))
    doc = yaml.safe_load(text)
    if isinstance(doc.get("buses"), list) and draw(st.booleans()):
        doc["buses"] = draw(st.permutations(doc["buses"]))
        text = yaml.safe_dump(doc)
    return _mangle(draw, text)


def _outcome(read):
    try:
        return ("case", read())
    except CaseValidationError as exc:
        return ("raised", exc.code, exc.violations)


def _bits(values) -> np.ndarray:
    """Float and complex values as their bit patterns, so that signed zeros
    and nan payloads compare too."""
    values = np.asarray(values)
    return values.view(np.uint64) if values.dtype.kind in "fc" else values


@settings(derandomize=True, deadline=None, max_examples=400)
@given(text=documents())
@example(text="""\
schema_version: "1"
buses:
  - {id: 1, kind: zip, p: -0.1}
  - {id: 2, kind: slack, v_setpoint: 1.0, theta_deg: 5.0e-324}
branches:
  - {from: 1, to: 2, series_g: 1.0, series_b: -5.0}
""")
def test_columns_match_the_reference_reader(text):
    got = _outcome(lambda: parse_case(text))
    try:
        doc = _yamlio.load_document(text)
    except Exception:           # the shared loader is not under test here
        doc = None
    if not isinstance(doc, dict):
        assert got[:2] == ("raised", "PARSE_ERROR")
        return
    want = _outcome(lambda: reference_case.reference_parse(doc))
    if want[0] == "raised":
        assert got == want
        return
    assert got[0] == "case", got
    case, (buses, branches, base_mva) = got[1], want[1]
    assert _bits([case.base_mva]).tolist() == _bits([base_mva]).tolist()
    for name, values in reference_case.columns(buses, branches).items():
        column = getattr(case, name)
        assert not column.flags.writeable
        if name == "theta_deg":     # the objects hold the views' radians
            column = column * _DEG
            values = [b.slack_voltage.theta if b.slack_voltage else 0.0
                      for b in buses]
        assert _bits(column).tolist() == _bits(values).tolist(), name


def _draws():
    rng = np.random.default_rng(11)
    for _ in range(100):
        yield casegen.random_feeder_case(rng)
        yield casegen.random_lossless_case(rng, pv_fraction=0.3)
        yield casegen.random_lossless_case(rng, pv_fraction=0.3,
                                           newton_ready=True)


# a valid case with a negative zero in every column that can hold one
SIGNED_ZEROS = """\
schema_version: "1"
buses:
  - {id: 1, kind: zip, p: -0.0, q: -0.0, shunt_g: -0.0, shunt_b: -0.0, \
i_load_re: -0.0, i_load_im: -0.0}
  - {id: 2, kind: pv, v_setpoint: 1.0, p: -0.0, shunt_g: -0.0, shunt_b: 0.1}
  - {id: 3, kind: slack, v_setpoint: 1.0, theta_deg: -0.0}
branches:
  - {from: 1, to: 3, series_g: -0.0, series_b: -5.0, shunt_b_total: -0.0}
  - {from: 2, to: 3, series_g: 1.0, series_b: -0.0}
"""


def _fixed_cases():
    yield from (casegen.fixed_feeder10(), casegen.ladder_case(),
                casegen.lossless_ladder_case(), parse_case(SIGNED_ZEROS))
    for text in json.loads(GOLDEN.read_text(encoding="utf-8"))[
            "cases"].values():
        try:
            yield parse_case(text)
        except CaseValidationError:
            pass


def test_builder_rebuilds_every_column_from_the_views():
    # dtype and bytes, not ==: array_equal and NetworkCase.__eq__ take
    # -0.0 for +0.0, and the views must carry the sign of every zero
    cases = [*_draws(), *_fixed_cases()]
    assert len(cases) >= 300 + 4 + 9         # 9 golden cases are valid
    for case in cases:
        again = build_case(case.buses, case.branches, case.base_mva)
        for name in (*_BUS_COLUMNS, *_BRANCH_COLUMNS):
            column, rebuilt = getattr(case, name), getattr(again, name)
            assert rebuilt.dtype == column.dtype, name
            assert rebuilt.tobytes() == column.tobytes(), name


@pytest.mark.parametrize("bus", [Bus(1, "pv"), Bus(1, "slack")])
def test_builder_needs_the_setpoint_of_the_kind(bus):
    # the reference checks read that object, so a case without it has no
    # reference to match
    with pytest.raises(AssertionError):
        build_case([bus, Bus(2, "slack", slack_voltage=SlackVoltage(1.0))],
                   [Branch(1, 2, 1 - 5j)])


def test_a_case_is_immutable():
    case = casegen.fixed_feeder10()
    buses = case.buses
    with pytest.raises(AttributeError):
        case.power = np.zeros(10, complex)
    with pytest.raises(AttributeError):
        del case.kind
    with pytest.raises(AttributeError):
        case.buses = ()
    assert case.power.shape == (11,) and case.buses is buses
    assert case.buses[0].load.power == case.power[0]


@pytest.mark.parametrize("name", [*_BUS_COLUMNS, *_BRANCH_COLUMNS])
def test_columns_of_the_wrong_length_are_refused(name):
    case = casegen.ladder_case()
    ids, columns = range(1, case.n + 2), {
        key: getattr(case, key).tolist()
        for key in (*_BUS_COLUMNS, *_BRANCH_COLUMNS)}
    assert NetworkCase(case.base_mva, ids, columns) == case
    values = columns[name]
    others = {key: val for key, val in columns.items() if key != name}
    for edited in (others | {name: values + values[:1]},
                   others | {name: values[1:]}, others):
        shape = len(edited.get(name, ()))
        if name == "from_bus":      # the other branch columns are refused
            want = [f"column {key!r} needs {shape} rows, got shape "
                    f"({len(values)},)" for key in _BRANCH_COLUMNS
                    if key != name]
        else:
            want = [f"column {name!r} needs {len(values)} rows, got shape "
                    f"({shape},)"]
        with pytest.raises(CaseValidationError) as raised:
            NetworkCase(case.base_mva, ids, edited)
        assert raised.value.violations == want


def test_cli_path_builds_no_bus_branch_or_load_objects(monkeypatch):
    text = dump_case(casegen.random_feeder_case(np.random.default_rng(4),
                                                30, 40))
    built = Counter()
    for cls in (Bus, Branch, ZipLoad):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    case = parse_case(text)
    run_pipeline(case, with_oracle=True)
    run_compare(case, [1.0, 0.5, 0.25])
    assert built == Counter()
    # the views build the objects on first access, and only then
    assert len(case.buses) == case.n + 1
    assert built["Bus"] == case.n + 1


def _kind(kind, pv_setpoint=None, slack_voltage=None) -> dict:
    """The edit to ``kind``, with the setpoint object that kind carries."""
    return {"kind": kind, "pv_setpoint": pv_setpoint,
            "slack_voltage": slack_voltage}


# Object edits: each gives a bus a kind or a value that a model check
# rejects.
BUS_EDITS = [
    _kind("pv", PvSetpoint(0.2, 1.0)), _kind("pv", PvSetpoint(math.inf, -1.0)),
    _kind("slack", slack_voltage=SlackVoltage(1.0, 0.1)),
    _kind("slack", slack_voltage=SlackVoltage(math.nan, math.inf)),
    _kind("zip"),
    {"load": ZipLoad(0.1j, 0j, 0j)}, {"load": ZipLoad(power=0.5 + 0j)},
    {"load": ZipLoad(complex(math.inf, 0.0), 0j, 1j)},
    {"id": 0}, {"id": 2}, {"id": 2 ** 64},
]


OBJECT_BASES = [casegen.fixed_feeder10(), casegen.random_lossless_case(
    np.random.default_rng(5), 4, 8, pv_fraction=0.4)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(edits=st.lists(st.tuples(st.integers(0, 20),
                                st.sampled_from(BUS_EDITS)), max_size=3),
       base=st.sampled_from(OBJECT_BASES))
def test_built_cases_match_the_reference_checks(edits, base):
    buses = list(base.buses)
    for index, edit in edits:
        buses[index % len(buses)] = replace(buses[index % len(buses)], **edit)
    _, problems = reference_case.validate(buses, base.branches,
                                          base.base_mva)
    got = _outcome(lambda: build_case(buses, base.branches, base.base_mva))
    if problems:
        assert got == ("raised", "VALIDATION_ERROR", problems)
    else:
        assert got[0] == "case" and got[1].buses == tuple(
            sorted(buses, key=lambda b: b.id))


def test_endpoints_of_non_contiguous_ids_are_looked_up():
    # With ids 1, 2, 4 a range test of 1..3 would pass the unknown end 3
    # and refuse the known end 4: ends are looked up in the ids instead,
    # and listed after the head check, as the reference reader lists them.
    buses = (Bus(1, "zip"), Bus(2, "zip", ZipLoad(power=-0.1)),
             Bus(4, "slack", slack_voltage=SlackVoltage(1.0)))
    branches = (Branch(1, 2, 1 - 5j), Branch(2, 4, 2 - 6j),
                Branch(2, 3, 1 - 4j), Branch(0, 4, 1 - 3j))
    want = ["bus ids must be contiguous 1..3, got [1, 2, 4]",
            "branch[2] (2-3): endpoint is not a known bus id",
            "branch[3] (0-4): endpoint is not a known bus id"]
    assert reference_case.validate(buses, branches, 100.0)[1] == want
    got = _outcome(lambda: build_case(buses, branches))
    assert got == ("raised", "VALIDATION_ERROR", want)
    text = "\n".join([
        'schema_version: "1"', "buses:",
        "  - {id: 1, kind: zip}", "  - {id: 2, kind: zip, p: -0.1}",
        "  - {id: 4, kind: slack, v_setpoint: 1.0}", "branches:",
        *(f"  - {{from: {f}, to: {t}, series_g: 1.0, series_b: -5.0}}"
          for f, t in ((1, 2), (2, 4), (2, 3), (0, 4)))])
    assert _outcome(lambda: parse_case(text)) == ("raised",
                                                  "VALIDATION_ERROR", want)
