"""Case-file parsing, validation messages, and round-trip fidelity."""

import math

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casegen
from reference_case import build_case
from rectpf import (Branch, Bus, CaseValidationError, SlackVoltage, ZipLoad,
                    dump_case, load_case, parse_case, save_case)

MINIMAL = """
schema_version: "1"
buses:
  - {id: 1, kind: zip, p: -0.1, q: -0.05}
  - {id: 2, kind: slack, v_setpoint: 1.02, theta_deg: -3.0}
branches:
  - {from: 1, to: 2, series_g: 1.0, series_b: -5.0}
"""


def test_parse_minimal_case():
    case = parse_case(MINIMAL)
    assert len(case.buses) == 2 and len(case.branches) == 1
    b1, b2 = case.buses
    assert b1.kind == "zip"
    assert b1.load.power == -0.1 - 0.05j
    assert b1.load.current == 0j and b1.load.shunt_admittance == 0j
    assert b2.kind == "slack"
    assert b2.slack_voltage.v_mag == 1.02
    assert b2.slack_voltage.theta == -3.0 * (math.pi / 180.0)
    br = case.branches[0]
    assert br.series_admittance == 1.0 - 5.0j
    assert br.shunt_admittance_total == 0j
    assert case.base_mva == 100.0


def test_defaults_fill_in_zero():
    case = parse_case("""
schema_version: "1"
base_mva: 50
buses:
  - {id: 1, kind: zip}
  - {id: 2, kind: slack}
branches:
  - {from: 1, to: 2, series_g: 2.0, series_b: -4.0}
""")
    assert case.base_mva == 50.0
    assert case.buses[0].load == ZipLoad()
    assert case.buses[1].slack_voltage == SlackVoltage(1.0, 0.0)


def test_integer_schema_version_accepted():
    case = parse_case(MINIMAL.replace('"1"', "1"))
    assert len(case.buses) == 2


@pytest.mark.parametrize("mangle, needle", [
    (lambda d: d.update(extra=1), "unknown field(s)"),
    (lambda d: d.update(schema_version="2"), 'schema_version must be "1"'),
    (lambda d: d["buses"][0].update(kind="pq"), "'kind' must be one of"),
    (lambda d: d["buses"][0].update(id="one"), "'id' must be an integer"),
    (lambda d: d["buses"][0].update(id=True), "'id' must be an integer"),
    (lambda d: d["buses"][0].update(p="big"), "must be a number"),
    (lambda d: d["buses"][0].update(p=True), "must be a number"),
    (lambda d: d["buses"][0].update(v_setpoint=1.0), "unknown field(s)"),
    (lambda d: d["branches"][0].pop("series_b"), "'series_b' is required"),
    (lambda d: d["branches"][0].update({"from": 1.5}),
     "'from' must be an integer bus id"),
    (lambda d: d.update(buses=[]), "'buses' must be a non-empty list"),
    (lambda d: d.update(branches="x"), "'branches' must be a non-empty list"),
    (lambda d: d["buses"].append(7), "expected a mapping"),
])
def test_schema_violations_rejected(mangle, needle):
    doc = yaml.safe_load(MINIMAL)
    mangle(doc)
    with pytest.raises(CaseValidationError) as exc:
        parse_case(yaml.safe_dump(doc))
    assert exc.value.code == "VALIDATION_ERROR"
    assert any(needle in v for v in exc.value.violations)


def test_pv_bus_requirements():
    doc = yaml.safe_load(MINIMAL)
    doc["buses"][0] = {"id": 1, "kind": "pv"}
    with pytest.raises(CaseValidationError) as exc:
        parse_case(yaml.safe_dump(doc))
    joined = "; ".join(exc.value.violations)
    assert "pv bus requires 'v_setpoint'" in joined
    assert "pv bus requires 'p'" in joined


def test_reactive_power_forbidden_on_pv_bus():
    doc = yaml.safe_load(MINIMAL)
    doc["buses"][0] = {"id": 1, "kind": "pv", "v_setpoint": 1.0,
                       "p": 0.2, "q": 0.1}
    with pytest.raises(CaseValidationError) as exc:
        parse_case(yaml.safe_dump(doc))
    assert any("unknown field(s) ['q']" in v for v in exc.value.violations)


def test_all_violations_reported_at_once():
    text = """
schema_version: "3"
surprise: true
buses:
  - {id: 1, kind: pq}
  - {id: 2, kind: slack, color: red}
branches:
  - {from: 1, to: 2}
"""
    with pytest.raises(CaseValidationError) as exc:
        parse_case(text)
    joined = "; ".join(exc.value.violations)
    assert len(exc.value.violations) >= 5
    for needle in ("schema_version", "surprise", "'kind' must be one of",
                   "color", "'series_g' is required",
                   "'series_b' is required"):
        assert needle in joined


def test_parse_error_on_bad_yaml():
    with pytest.raises(CaseValidationError) as exc:
        parse_case("buses: [unclosed", source="broken.yaml")
    assert exc.value.code == "PARSE_ERROR"
    assert "broken.yaml" in exc.value.violations[0]
    assert "not valid YAML" in exc.value.violations[0]


def test_parse_error_when_root_is_not_a_mapping():
    with pytest.raises(CaseValidationError) as exc:
        parse_case("- 1\n- 2\n")
    assert exc.value.code == "PARSE_ERROR"
    assert "root must be a mapping" in exc.value.violations[0]


def test_structural_checks_still_run_after_parsing():
    # duplicate ids pass the schema but fail NetworkCase construction
    doc = yaml.safe_load(MINIMAL)
    doc["buses"][0]["id"] = 2
    with pytest.raises(CaseValidationError) as exc:
        parse_case(yaml.safe_dump(doc))
    assert exc.value.code == "VALIDATION_ERROR"


def test_dump_omits_zero_valued_fields():
    case = build_case(
        (Bus(1, "zip", ZipLoad(power=-0.1 + 0j)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 5j),))
    doc = yaml.safe_load(dump_case(case))
    entry = doc["buses"][0]
    assert entry["p"] == -0.1
    for absent in ("q", "shunt_g", "shunt_b", "i_load_re", "i_load_im"):
        assert absent not in entry
    assert "shunt_b_total" not in doc["branches"][0]
    # the slack entry always spells out its voltage
    assert doc["buses"][1] == {"id": 2, "kind": "slack",
                               "v_setpoint": 1.0, "theta_deg": 0.0}


def test_round_trip_degree_born_case():
    text = """
schema_version: "1"
base_mva: 75.0
buses:
  - {id: 1, kind: zip, p: -0.13, q: 0.07, shunt_g: 0.02, shunt_b: -0.04,
     i_load_re: 0.011, i_load_im: -0.003}
  - {id: 2, kind: pv, v_setpoint: 1.03, p: 0.4, shunt_b: 0.05}
  - {id: 3, kind: slack, v_setpoint: 0.97, theta_deg: 12.5}
branches:
  - {from: 1, to: 2, series_g: 2.0, series_b: -7.0, shunt_b_total: 0.08}
  - {from: 2, to: 3, series_g: 1.5, series_b: -6.0}
  - {from: 1, to: 3, series_g: 0.5, series_b: -2.5}
"""
    case = parse_case(text)
    again = parse_case(dump_case(case))
    assert again == case
    assert again.buses[1].pv_setpoint == case.buses[1].pv_setpoint
    # dumping twice is stable byte for byte
    assert dump_case(again) == dump_case(case)


def test_round_trip_random_cases():
    rng = np.random.default_rng(91)
    for _ in range(20):
        case = casegen.random_feeder_case(rng)
        assert parse_case(dump_case(case)) == case


def test_round_trip_lossless_case_with_pv():
    rng = np.random.default_rng(17)
    case = casegen.random_lossless_case(rng, pv_fraction=0.5)
    again = parse_case(dump_case(case))
    assert again == case


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(2.5e-308)
@example(5e-324)
@example(1.7976931348623157e308)
def test_slack_angle_text_survives_parse_and_dump(deg):
    # the case writer's own spelling of the angle, which it must write back
    text = yaml.safe_dump(deg).split("\n")[0]
    case = parse_case(MINIMAL.replace("theta_deg: -3.0", f"theta_deg: {text}"))
    assert f"  theta_deg: {text}\n" in dump_case(case)


def test_save_and_load_files(tmp_path):
    case = casegen.fixed_feeder10()
    path = tmp_path / "feeder.yaml"
    save_case(case, path)
    assert load_case(path) == case


def test_load_reports_file_name_in_errors(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("buses: [unclosed", encoding="utf-8")
    with pytest.raises(CaseValidationError) as exc:
        load_case(path)
    assert "bad.yaml" in exc.value.violations[0]


def test_conductive_line_shunt_cannot_be_dumped():
    case = build_case(
        (Bus(1, "zip", ZipLoad(power=-0.1 + 0j)),
         Bus(2, "zip"),
         Bus(3, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(3, 1, 1 - 5j, shunt_admittance_total=0.1 + 0.2j),
         Branch(1, 2, 1 - 5j, shunt_admittance_total=0.2j),
         Branch(2, 3, 1 - 5j, shunt_admittance_total=-0.3 + 0j)))
    with pytest.raises(CaseValidationError) as exc:
        dump_case(case)
    # every such branch, in branch order
    assert exc.value.violations == [
        f"branch {ends}: conductive line shunts cannot be represented in "
        "the case-file format" for ends in ("3-1", "2-3")]


@pytest.mark.parametrize("text, error", [
    ("a: !!bool 1.0e308", "KeyError: '1.0e308'"),
    ("a: !!timestamp foo",
     "AttributeError: 'NoneType' object has no attribute 'groupdict'"),
    ('a: !!int ""', "IndexError: string index out of range"),
    ("a: 0x_", "ValueError: invalid literal for int() with base 16: ''"),
])
def test_unconvertible_scalar_is_named_as_such(text, error):
    # PyYAML's constructors raise these without a position
    with pytest.raises(CaseValidationError) as exc:
        parse_case(text, source="case.yaml")
    assert exc.value.code == "PARSE_ERROR"
    assert exc.value.violations == [
        "case.yaml: not valid YAML: a scalar could not be converted "
        f"({error})"]
