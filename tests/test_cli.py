"""Command-line behaviour: formats, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

import casegen
import rectpf
from rectpf import save_case
from rectpf.cli import main

PLAIN_HEADER = "bus,v_nom_re,v_nom_im,dv_re,dv_im,vmag,theta_deg,p_hot,q_hot"
ORACLE_HEADER = PLAIN_HEADER + ",v_oracle_re,v_oracle_im,abs_err"

LOSSLESS_LADDER = """
schema_version: "1"
buses:
  - {id: 1, kind: zip, p: 0.5}
  - {id: 2, kind: slack}
branches:
  - {from: 1, to: 2, series_g: 0.0, series_b: -10.0}
"""

# weak dominance fails at bus 1: the reactive current load eats into the
# diagonal, so the flat solve refuses without the override
VIOLATED_CHAIN = """
schema_version: "1"
buses:
  - {id: 1, kind: zip, p: 0.1, i_load_im: -0.5}
  - {id: 2, kind: zip, p: -0.1}
  - {id: 3, kind: slack}
branches:
  - {from: 1, to: 2, series_g: 0.0, series_b: -1.0}
  - {from: 2, to: 3, series_g: 0.0, series_b: -2.0}
"""


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def feeder_path(tmp_path):
    path = tmp_path / "feeder.yaml"
    save_case(casegen.fixed_feeder10(), path)
    return str(path)


@pytest.fixture()
def lossless_path(tmp_path):
    path = tmp_path / "lossless.yaml"
    path.write_text(LOSSLESS_LADDER, encoding="utf-8")
    return str(path)


def test_solve_csv_header_and_shape(runner, feeder_path):
    res = runner.invoke(main, ["solve", feeder_path, "--format", "csv"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == PLAIN_HEADER
    assert len(lines) == 11  # header + 10 non-slack buses
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 9
        int(cells[0])
        [float(c) for c in cells[1:]]


def test_solve_oracle_csv_header(runner, feeder_path):
    res = runner.invoke(main, ["solve", feeder_path, "--oracle",
                               "--format", "csv"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == ORACLE_HEADER
    assert all(len(line.split(",")) == 12 for line in lines[1:])


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_solve_output_is_byte_identical_across_runs(runner, feeder_path, fmt):
    args = ["solve", feeder_path, "--oracle", "--format", fmt]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output


def test_solve_json_structure(runner, feeder_path):
    res = runner.invoke(main, ["solve", feeder_path, "--oracle",
                               "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["method"] == "noload"
    assert doc["flags"]["noload_structure"] is True
    assert doc["flags"]["lossless_gate"] is False
    assert doc["oracle"]["converged"] is True
    assert doc["norms"]["mismatch"] < 1e-2
    assert len(doc["buses"]) == 10
    assert doc["buses"][0]["bus"] == 1
    # two-sided residual checks ride along on every solve
    assert all(b["satisfied"] for b in doc["bounds"])


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_timings_never_emitted(runner, feeder_path, fmt):
    res = runner.invoke(main, ["solve", feeder_path, "--oracle",
                               "--format", fmt])
    assert res.exit_code == 0
    low = res.stdout.lower()
    for needle in ("timing", "seconds", "solve_s", "oracle_s", "elapsed"):
        assert needle not in low


def test_solve_auto_picks_lossless_and_reports_bound(runner, lossless_path):
    res = runner.invoke(main, ["solve", lossless_path, "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["method"] == "lossless"
    assert doc["flags"]["lossless_gate"] is True
    assert doc["norms"]["p_hot"] == 0.0
    names = [b["name"] for b in doc["bounds"]]
    assert "reactive_quadratic" in names
    assert all(b["satisfied"] for b in doc["bounds"])


def test_solve_dc_method(runner, lossless_path):
    res = runner.invoke(main, ["solve", lossless_path, "--method", "dc",
                               "--format", "csv"])
    assert res.exit_code == 0
    row = res.stdout.splitlines()[1].split(",")
    assert float(row[1]) == 1.0 and float(row[2]) == 0.0  # flat nominal
    assert float(row[6]) == pytest.approx(2.8624052261117, rel=1e-10)


def test_solve_rejects_lossless_method_on_lossy_case(runner, feeder_path):
    res = runner.invoke(main, ["solve", feeder_path, "--method", "lossless"])
    assert res.exit_code == 3
    assert res.stderr.startswith("LOSSY_NETWORK")
    assert res.stdout == ""


def test_solve_rejects_bad_yaml_with_exit_2(runner, tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("buses: [unclosed", encoding="utf-8")
    res = runner.invoke(main, ["solve", str(path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("PARSE_ERROR")


# PyYAML resolves these as ints, then its int constructor raises ValueError
@pytest.mark.parametrize("command", [["solve"], ["check"],
                                     ["compare", "--alpha-list", "1,0.5"]])
@pytest.mark.parametrize("field,value", [("base_mva", "0x_"),
                                         ("base_mva", "0b_"),
                                         ("p", "-0x_")])
def test_unconvertible_yaml_int_is_a_parse_error(runner, tmp_path, command,
                                                 field, value):
    text = LOSSLESS_LADDER.replace("p: 0.5", f"p: {value}")
    if field == "base_mva":
        text += f"base_mva: {value}\n"
    path = tmp_path / "bad_int.yaml"
    path.write_text(text, encoding="utf-8")
    res = runner.invoke(main, [command[0], str(path), *command[1:]])
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.exit_code == 2
    assert res.stderr.startswith(f"PARSE_ERROR: {path}: not valid YAML: ")
    assert len(res.stderr.splitlines()) == 1
    assert res.stdout == ""



# PyYAML's constructors for these explicit tags raise KeyError, IndexError
# and AttributeError, not a YAML error
@pytest.mark.parametrize("line", ["a: !!bool 1.0e308", "a: !!timestamp foo",
                                  "a: !!int ''"])
def test_unconstructible_tagged_scalar_is_a_parse_error(runner, tmp_path,
                                                        line):
    path = tmp_path / "bad_tag.yaml"
    path.write_text(LOSSLESS_LADDER + line + "\n", encoding="utf-8")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.exit_code == 2
    assert res.stderr.startswith(f"PARSE_ERROR: {path}: not valid YAML: ")
    assert len(res.stderr.splitlines()) == 1
    assert res.stdout == ""


# Unknown keys of types that do not compare, and a kind that is not hashable
@pytest.mark.parametrize("old,new,problem", [
    ("branches:", "1: 2\nzz: 3\nbranches:",
     "{path}: unknown field(s) ['zz', 1]"),
    ("p: 0.5}", "p: 0.5, 1: 2, zz: 3}",
     "buses[0] (id 1): unknown field(s) ['zz', 1]"),
    ("-10.0}", "-10.0, zz: 3, 1: 2}",
     "branches[0]: unknown field(s) ['zz', 1]"),
    ("kind: zip", "kind: [zip]", "buses[0] (id 1): 'kind' must be one of "
     "['pv', 'slack', 'zip'], got ['zip']"),
])
def test_odd_keys_are_a_validation_error(runner, tmp_path, old, new, problem):
    path = tmp_path / "odd_keys.yaml"
    path.write_text(LOSSLESS_LADDER.replace(old, new), encoding="utf-8")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.exit_code == 2
    assert res.stderr.splitlines() == [
        "VALIDATION_ERROR: " + problem.format(path=path)]
    assert res.stdout == ""

# two parallel branches whose conductances sum past the float range
OVERFLOWING_PARALLEL = """
schema_version: "1"
buses:
  - {id: 1, kind: zip, p: -0.1}
  - {id: 2, kind: slack}
branches:
  - {from: 1, to: 2, series_g: 1.0e+308, series_b: -1.0}
  - {from: 1, to: 2, series_g: 1.0e+308, series_b: -1.0}
"""


@pytest.mark.parametrize("argv", [["solve", "--oracle"], ["check"],
                                  ["compare", "--alpha-list", "1"]])
def test_overflowing_admittance_exits_2(runner, tmp_path, argv):
    path = tmp_path / "overflow.yaml"
    path.write_text(OVERFLOWING_PARALLEL, encoding="utf-8")
    res = runner.invoke(main, [argv[0], str(path)] + argv[1:])
    assert res.exit_code == 2
    assert res.stdout == ""
    err_lines = [l for l in res.stderr.splitlines() if l]
    assert err_lines
    assert all(l.startswith("VALIDATION_ERROR:") for l in err_lines)


def test_solve_lists_every_validation_problem(runner, tmp_path):
    path = tmp_path / "invalid.yaml"
    path.write_text("""
schema_version: "1"
buses:
  - {id: 1, kind: pq}
  - {id: 2, kind: slack, color: red}
branches:
  - {from: 1, to: 2}
""", encoding="utf-8")
    res = runner.invoke(main, ["solve", str(path)])
    assert res.exit_code == 2
    err_lines = [l for l in res.stderr.splitlines() if l]
    assert len(err_lines) >= 3
    assert all(l.startswith("VALIDATION_ERROR:") for l in err_lines)


def test_bad_pv_setpoint_is_reported_once(runner, tmp_path):
    path = tmp_path / "pv.yaml"
    path.write_text(LOSSLESS_LADDER.replace(
        "{id: 1, kind: zip, p: 0.5}",
        "{id: 1, kind: pv, p: abc, v_setpoint: 1.0}"), encoding="utf-8")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == [
        "VALIDATION_ERROR: buses[0] (id 1): field 'p' must be a number, "
        "got 'abc'"]


# Ints that no float or int64 holds, read by the full YAML loader
@pytest.mark.parametrize("old,new,problem", [
    ("p: 0.5}", "p: 0.5, q: 1" + "0" * 400 + "}",
     "bus 1: load.power is not finite"),
    ("kind: slack}", "kind: slack, v_setpoint: -1" + "0" * 400 + "}",
     "bus 2: slack v_mag must be positive"),
    ("{id: 2,", "{id: 2" + "0" * 30 + ",",
     "bus ids must be contiguous 1..2, got [1, 2" + "0" * 30 + "]\n"
     "VALIDATION_ERROR: branch[0] (1-2): endpoint is not a known bus id"),
    ("{from: 1,", "{from: 1" + "0" * 30 + ",",
     "branch[0] (1" + "0" * 30 + "-2): endpoint is not a known bus id"),
])
def test_huge_ints_get_coded_messages(runner, tmp_path, old, new, problem):
    path = tmp_path / "huge.yaml"
    path.write_text(LOSSLESS_LADDER.replace(old, new), encoding="utf-8")
    res = runner.invoke(main, ["solve", str(path)])
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.exit_code == 2
    assert res.stderr == f"VALIDATION_ERROR: {problem}\n"


def test_missing_file_is_a_usage_error(runner):
    res = runner.invoke(main, ["solve", "/nonexistent/case.yaml"])
    assert res.exit_code == 2


def test_unknown_method_is_a_usage_error(runner, feeder_path):
    res = runner.invoke(main, ["solve", feeder_path, "--method", "bogus"])
    assert res.exit_code == 2


def test_nocurrent_method_rejects_pv_buses(runner, tmp_path):
    path = tmp_path / "pv.yaml"
    path.write_text("""
schema_version: "1"
buses:
  - {id: 1, kind: pv, v_setpoint: 1.0, p: 0.2}
  - {id: 2, kind: slack}
branches:
  - {from: 1, to: 2, series_g: 0.0, series_b: -5.0}
""", encoding="utf-8")
    res = runner.invoke(main, ["solve", str(path), "--method", "nocurrent"])
    assert res.exit_code == 3
    assert res.stderr.startswith("NON_ZIP_BUS_PRESENT")


# |V_slack|^2 overflows at 1e200; at 1.7e308 the open-circuit profile does
@pytest.mark.parametrize("v_setpoint", ["1.0e200", "1.7e308"])
def test_nocurrent_method_with_a_huge_slack_voltage_exits_3(runner, tmp_path,
                                                            v_setpoint):
    path = tmp_path / "huge.yaml"
    path.write_text(f"""
schema_version: "1"
buses:
  - {{id: 1, kind: zip, shunt_b: 0.5}}
  - {{id: 2, kind: slack, v_setpoint: {v_setpoint}}}
branches:
  - {{from: 1, to: 2, series_g: 1.0, series_b: -2.0}}
""", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, ["solve", str(path), "--method",
                                   "nocurrent"])
    assert res.exit_code == 3
    assert res.stderr.startswith("NONFINITE_NOLOAD_VOLTAGE: ")


# |V_slack|^2 underflows at 1e-200, and the open-circuit profile with it
@pytest.mark.parametrize("v_setpoint", ["1.0e-200", "5e-324"])
def test_nocurrent_method_with_a_tiny_slack_voltage_exits_3(runner, tmp_path,
                                                            v_setpoint):
    path = tmp_path / "tiny.yaml"
    path.write_text(f"""
schema_version: "1"
buses:
  - {{id: 1, kind: zip, shunt_b: 0.5}}
  - {{id: 2, kind: slack, v_setpoint: {v_setpoint}}}
branches:
  - {{from: 1, to: 2, series_g: 1.0, series_b: -2.0}}
""", encoding="utf-8")
    res = runner.invoke(main, ["solve", str(path), "--method", "nocurrent"])
    assert res.exit_code == 3
    assert res.stderr.startswith("ZERO_NOLOAD_VOLTAGE: ")


def test_flat_conditions_violation_and_override(runner, tmp_path):
    path = tmp_path / "violated.yaml"
    path.write_text(VIOLATED_CHAIN, encoding="utf-8")
    res = runner.invoke(main, ["solve", str(path), "--method", "lossless"])
    assert res.exit_code == 3
    assert res.stderr.startswith("FLAT_CONDITIONS_VIOLATED")

    res = runner.invoke(main, ["solve", str(path), "--method", "lossless",
                               "--override-conditions", "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["flags"]["flat_profile_conditions"] is False


def test_check_reports_structure(runner, feeder_path, lossless_path):
    res = runner.invoke(main, ["check", feeder_path])
    assert res.exit_code == 0
    assert "lossless_gate: no" in res.stdout
    assert "noload_verdict: yes" in res.stdout
    assert "flat_overall" not in res.stdout

    res = runner.invoke(main, ["check", lossless_path, "--format", "json"])
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["lossless_gate"] is True
    assert doc["flat_overall"] is True
    assert doc["noload_reasons"] == []


def test_check_csv_format(runner, feeder_path):
    res = runner.invoke(main, ["check", feeder_path, "--format", "csv"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "check,result"
    assert "noload_verdict,true" in lines


# a shunt outweighs bus 1's branches and branch 2-3 is capacitive, so the
# no-load structure check fails for two reasons
TWO_REASONS = """
schema_version: "1"
buses:
  - {id: 1, kind: zip, p: -0.1, shunt_b: 30}
  - {id: 2, kind: zip, p: -0.1}
  - {id: 3, kind: slack}
branches:
  - {from: 1, to: 2, series_g: 1.0, series_b: -5.0}
  - {from: 2, to: 3, series_g: 0.0, series_b: 1.0}
"""


def test_check_csv_quotes_a_list_of_reasons(runner, tmp_path):
    path = tmp_path / "two_reasons.yaml"
    path.write_text(TWO_REASONS, encoding="utf-8")
    res = runner.invoke(main, ["check", str(path), "--format", "csv"])
    assert res.exit_code == 0
    rows = list(csv.reader(res.stdout.splitlines()))
    assert all(len(row) == 2 for row in rows)
    assert rows[-1] == ["noload_reasons",
                        "NOT_DIAGONALLY_DOMINANT,NO_STRICT_DOMINANCE"]
    res = runner.invoke(main, ["check", str(path)])
    assert res.stdout.endswith(
        "noload_reasons: NOT_DIAGONALLY_DOMINANT,NO_STRICT_DOMINANCE\n")


def test_compare_help_describes_its_solve_options(runner):
    solve = runner.invoke(main, ["solve", "--help"]).stdout
    compare = runner.invoke(main, ["compare", "--help"]).stdout
    for text in ("Linearization to run.", "Attempt the lossless flat solve"):
        assert text in solve and text in compare


def test_compare_sweep(runner, feeder_path):
    res = runner.invoke(main, ["compare", feeder_path,
                               "--alpha-list", "1,0.5,0.25",
                               "--format", "csv"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == ("alpha,voltage_error,error_over_alpha_sq,s_hot_norm,"
                        "newton_iterations,newton_converged")
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [1.0, 0.5, 0.25]
    errors = [float(r[1]) for r in rows]
    assert errors[0] > errors[1] > errors[2] > 0
    ratios = [float(r[2]) for r in rows]
    # quadratic shrinkage: error/alpha^2 stays within a tight band
    assert max(ratios) <= 4 * min(ratios)
    assert all(r[5] == "true" for r in rows)


def test_compare_rejects_bad_alpha_list(runner, feeder_path):
    res = runner.invoke(main, ["compare", feeder_path,
                               "--alpha-list", "1,zap"])
    assert res.exit_code == 2
    assert res.stderr.startswith("VALIDATION_ERROR")

    res = runner.invoke(main, ["compare", feeder_path, "--alpha-list", ","])
    assert res.exit_code == 2
    assert "empty" in res.stderr


@pytest.mark.parametrize("alphas", ["inf", "1,nan", "-inf,0.5"])
def test_compare_rejects_non_finite_alpha(runner, feeder_path, alphas):
    # scaling by inf once made the case's loads non-finite, and the error
    # blamed the case, not the flag
    res = runner.invoke(main, ["compare", feeder_path,
                               "--alpha-list", alphas])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == [
        f"VALIDATION_ERROR: --alpha-list must hold finite numbers, "
        f"got {alphas!r}"]


@pytest.mark.parametrize("make_case, method, alphas, code, line", [
    # G = 0 on the lossless ladder, but the first alpha's scaled loads are
    # validated before the decoupled model is built
    (lambda: casegen.lossless_ladder_case(p=5.0), "decoupled", "1e308", 2,
     "VALIDATION_ERROR: bus 1: load.power is not finite"),
    (lambda: casegen.lossless_ladder_case(p=5.0), "decoupled", "1,1e308", 3,
     "SINGULAR_G: conductance block G is numerically singular (pivot ratio "
     "0.000e+00)"),
    # the lossless gate refuses a lossy case before any alpha is scaled
    (lambda: casegen.ladder_case(power=-5 - 5j), "lossless", "1e308", 3,
     "LOSSY_NETWORK: network has conductance up to 1.000e+00 pu; the "
     "lossless formulation requires at most 1e-09"),
], ids=["first-alpha-invalid", "second-alpha-invalid", "lossless-gate"])
def test_compare_error_precedence(runner, tmp_path, make_case, method,
                                  alphas, code, line):
    path = tmp_path / "case.yaml"
    save_case(make_case(), path)
    res = runner.invoke(main, ["compare", str(path), "--alpha-list", alphas,
                               "--method", method])
    assert res.exit_code == code
    assert res.stderr.splitlines() == [line]


def test_non_utf8_case_file_is_a_parse_error(runner, tmp_path):
    path = tmp_path / "case.yaml"
    head = LOSSLESS_LADDER.encode()
    path.write_bytes(head + b"# \xff\n")
    res = runner.invoke(main, ["check", str(path)])
    assert res.exit_code == 2
    assert res.stderr.splitlines() == [
        f"PARSE_ERROR: {path}: not valid UTF-8: invalid start byte at byte "
        f"{len(head) + 2}"]


def test_overflow_warning_never_precedes_the_coded_line(runner, feeder_path):
    # pytest records warnings instead of printing them; as errors, a warning
    # that would reach stderr first ends the command with exit 1 instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = runner.invoke(main, ["compare", feeder_path,
                                   "--alpha-list", "1e200"])
    assert res.exit_code == 3
    assert res.stderr.startswith("SINGULAR_JACOBIAN: ")


def test_failed_internal_check_exits_3_with_its_code(runner, feeder_path,
                                                     monkeypatch):
    def disagreeing_routes(*args):
        raise rectpf.InternalCheckError("routes disagree")

    monkeypatch.setattr(rectpf.report, "quadratic_residual",
                        disagreeing_routes)
    res = runner.invoke(main, ["solve", feeder_path])
    assert res.exit_code == 3
    assert res.stderr == "INTERNAL_CHECK: routes disagree\n"


def test_version_from_a_source_checkout():
    # the package need not be installed: the version is the package's own
    src = str(Path(rectpf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-m", "rectpf.cli", "--version"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (res.returncode, res.stdout, res.stderr) == (
        0, f"rectpf, version {rectpf.__version__}\n", "")
