"""The columnar case reader against the per-entry reference reader, and the
CLI path's freedom from per-bus objects."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import casegen
import reference_case
from test_case_loader import _mangle
from test_cli_fuzz import BASES, FIELDS, VALUES, _with, case_texts
from rectpf import (Branch, Bus, BusKind, CaseValidationError, NetworkCase,
                    PvSetpoint, SlackVoltage, ZipLoad, caseio, dump_case,
                    parse_case)
from rectpf.netmodel import KINDS
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


def _reference_columns(buses, branches) -> dict:
    """The columns that the reference reader's objects stand for."""
    setpoints = [b.pv_setpoint for b in buses]
    voltages = [b.slack_voltage for b in buses]
    return {
        "kind": [KINDS.index(b.kind) for b in buses],
        "shunt": np.array([b.load.shunt_admittance for b in buses]),
        "current": np.array([b.load.current for b in buses]),
        "power": np.array([b.load.power for b in buses]),
        "p_set": [s.p if s else 0.0 for s in setpoints],
        "v_set": [(s or v).v_mag if s or v else 1.0
                  for s, v in zip(setpoints, voltages)],
        "theta": [v.theta if v else 0.0 for v in voltages],
        "from_bus": [br.from_bus for br in branches],
        "to_bus": [br.to_bus for br in branches],
        "series": np.array([br.series_admittance for br in branches]),
        "line_shunt": np.array([br.shunt_admittance_total
                                for br in branches]),
    }


@settings(derandomize=True, deadline=None, max_examples=400)
@given(text=documents())
def test_columns_match_the_reference_reader(text):
    got = _outcome(lambda: parse_case(text))
    try:
        doc = caseio._load_document(text)
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
    for name, values in _reference_columns(buses, branches).items():
        column = getattr(case, name)
        assert not column.flags.writeable
        assert _bits(column).tolist() == _bits(values).tolist(), name


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


# Object edits: each gives a bus a field that the case file cannot express,
# or a value that a model check rejects.
BUS_EDITS = [
    {"slack_voltage": None}, {"pv_setpoint": None},
    {"slack_voltage": SlackVoltage(1.0, 0.1)},
    {"pv_setpoint": PvSetpoint(0.2, 1.0)},
    {"pv_setpoint": PvSetpoint(math.inf, -1.0)},
    {"slack_voltage": SlackVoltage(math.nan, math.inf)},
    {"load": ZipLoad(0.1j, 0j, 0j)}, {"load": ZipLoad(power=0.5 + 0j)},
    {"load": ZipLoad(complex(math.inf, 0.0), 0j, 1j)},
    {"kind": BusKind.PV}, {"kind": BusKind.SLACK}, {"kind": BusKind.ZIP},
    {"id": 0}, {"id": 2}, {"id": 2 ** 64},
]


OBJECT_BASES = [casegen.fixed_feeder10(), casegen.random_lossless_case(
    np.random.default_rng(5), 4, 8, pv_fraction=0.4)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(edits=st.lists(st.tuples(st.integers(0, 20),
                                st.sampled_from(BUS_EDITS)), max_size=3),
       base=st.sampled_from(OBJECT_BASES))
def test_object_constructor_matches_the_reference_checks(edits, base):
    buses = list(base.buses)
    for index, edit in edits:
        buses[index % len(buses)] = replace(buses[index % len(buses)], **edit)
    _, problems = reference_case.validate(buses, base.branches,
                                          base.base_mva)
    got = _outcome(lambda: NetworkCase(buses, base.branches, base.base_mva))
    if problems:
        assert got == ("raised", "VALIDATION_ERROR", problems)
    else:
        assert got[0] == "case" and got[1].buses == tuple(
            sorted(buses, key=lambda b: b.id))


def test_endpoints_of_non_contiguous_ids_are_looked_up():
    # With ids 1, 2, 4 a range test of 1..3 would pass the unknown end 3
    # and refuse the known end 4: ends are looked up in the ids instead,
    # and listed after the head check, as the reference reader lists them.
    buses = (Bus(1, BusKind.ZIP), Bus(2, BusKind.ZIP, ZipLoad(power=-0.1)),
             Bus(4, BusKind.SLACK, slack_voltage=SlackVoltage(1.0)))
    branches = (Branch(1, 2, 1 - 5j), Branch(2, 4, 2 - 6j),
                Branch(2, 3, 1 - 4j), Branch(0, 4, 1 - 3j))
    want = ["bus ids must be contiguous 1..3, got [1, 2, 4]",
            "branch[2] (2-3): endpoint is not a known bus id",
            "branch[3] (0-4): endpoint is not a known bus id"]
    assert reference_case.validate(buses, branches, 100.0)[1] == want
    got = _outcome(lambda: NetworkCase(buses, branches))
    assert got == ("raised", "VALIDATION_ERROR", want)
    text = "\n".join([
        'schema_version: "1"', "buses:",
        "  - {id: 1, kind: zip}", "  - {id: 2, kind: zip, p: -0.1}",
        "  - {id: 4, kind: slack, v_setpoint: 1.0}", "branches:",
        *(f"  - {{from: {f}, to: {t}, series_g: 1.0, series_b: -5.0}}"
          for f, t in ((1, 2), (2, 4), (2, 3), (0, 4)))])
    assert _outcome(lambda: parse_case(text)) == ("raised",
                                                  "VALIDATION_ERROR", want)
