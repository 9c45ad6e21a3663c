"""The CLI contract under fuzzing: any case file and any command line end in
exit 0, 2 or 3, never in a traceback, and every failure's first stderr
line carries an error code."""

import re
import warnings

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import casegen
from rectpf import dump_case
from rectpf.cli import main
from rectpf.report import FORMATS, METHODS

BASES = [yaml.safe_load(dump_case(case)) for case in (
    casegen.fixed_feeder10(), casegen.ladder_case(),
    casegen.lossless_ladder_case(),
    casegen.random_feeder_case(np.random.default_rng(3), 4, 8),
    casegen.random_lossless_case(np.random.default_rng(5), 4, 8,
                                 pv_fraction=0.4))]

FIELDS = {
    "top": ["schema_version", "base_mva", "buses", "branches", "extra"],
    "buses": ["id", "kind", "p", "q", "shunt_g", "shunt_b", "i_load_re",
              "i_load_im", "v_setpoint", "theta_deg", "extra"],
    "branches": ["from", "to", "series_g", "series_b", "shunt_b_total",
                 "extra"],
}
VALUES = [0, 1, -1, 2.5, 1.0e308, -1.0e308, 5e-324, 1.0e12, -1.0e12,
          float("inf"), float("-inf"), float("nan"), "x", "zip", "slack",
          "pv", "1", True, False, None, [], [1], {}, {"a": 1}, 10 ** 400,
          -10 ** 400]
ALPHAS = ["1", "1,0.5,0.25", "0", "-1", "1e308", "nan", "", "a", "2,,3"]


def _with(base: dict, edits) -> str:
    """``base`` as YAML text with each (place, index, field, value) set."""
    doc = yaml.safe_load(yaml.safe_dump(base))
    for place, index, name, value in edits:
        if place == "top":
            doc[name] = value
        elif isinstance(doc.get(place), list) and doc[place]:
            entry = doc[place][index % len(doc[place])]
            if isinstance(entry, dict):
                entry[name] = value
    return yaml.safe_dump(doc)


@st.composite
def case_texts(draw) -> str:
    edits = draw(st.lists(st.sampled_from(sorted(FIELDS)).flatmap(
        lambda place: st.tuples(st.just(place), st.integers(0, 20),
                                st.sampled_from(FIELDS[place]),
                                st.sampled_from(VALUES))), max_size=3))
    return _with(draw(st.sampled_from(BASES)), edits)


# Each method's refusals, reached from these bases by editing these fields
# (bus -1 is the slack):
#   general    PV_UNSUPPORTED_IN_GENERAL, SINGULAR_SYSTEM
#   noload     NON_ZIP_BUS_PRESENT, NONFINITE_ and ZERO_NOLOAD_VOLTAGE
#   lossless   LOSSY_NETWORK, SLACK_NOT_UNITY, FLAT_CONDITIONS_VIOLATED,
#              SINGULAR_FLAT_SYSTEM
#   dc         SINGULAR_B
#   nocurrent  NON_ZIP_BUS_PRESENT, NONZERO_CURRENT_LOAD, NONFINITE_ and
#              ZERO_NOLOAD_VOLTAGE, from the current-free and PV bases
#   decoupled  NON_ZIP_BUS_PRESENT, SINGULAR_G, ZERO_NOLOAD_VOLTAGE
# ``auto`` refuses nothing itself; its fields steer its choice.
SLACK = [("buses", -1, "v_setpoint"), ("buses", -1, "theta_deg")]
REFUSALS = {
    "auto": (BASES, [*SLACK, ("branches", 0, "series_g"),
                     ("buses", 0, "i_load_im")]),
    "general": (BASES, [*SLACK, ("branches", 0, "series_g"),
                        ("branches", 0, "series_b")]),
    "noload": (BASES, [*SLACK, ("buses", 0, "i_load_re"),
                       ("buses", 0, "i_load_im")]),
    "lossless": ([BASES[0], BASES[2], BASES[4]], [
        *SLACK, ("branches", 0, "series_g"), ("buses", 0, "shunt_g"),
        ("buses", 0, "shunt_b"), ("buses", 0, "i_load_im")]),
    "dc": (BASES, [("branches", 0, "series_b"), ("buses", 0, "shunt_b")]),
    "nocurrent": ([BASES[0], BASES[1], BASES[2], BASES[4]], [
        ("buses", -1, "v_setpoint"), ("buses", 0, "i_load_re")]),
    "decoupled": (BASES, [*SLACK, ("branches", 0, "series_g")]),
}
# Magnitudes whose square overflows or underflows; a voltage magnitude
# takes these, and any other field either sign of them, zero or a value
# that moves the flat conditions.
MAGNITUDES = [1.0e200, 1.0e308, 5e-324, 1.0e-200]
SIGNED = [0.0, *(sign * x for x in [0.5, 10.0, *MAGNITUDES]
                 for sign in (1, -1))]
# The method drawn for one example, shared by its case and command line.
METHOD = st.shared(st.sampled_from(METHODS), key="method")


@st.composite
def method_case_texts(draw, method: str) -> str:
    """A base that can reach ``method``'s refusals, with one or two edits
    of the fields that reach them and at most one edit of any field."""
    bases, fields = REFUSALS[method]
    edits = [(*field, draw(st.sampled_from(
        MAGNITUDES if field[2] == "v_setpoint" else SIGNED)))
        for field in draw(st.lists(st.sampled_from(fields), min_size=1,
                                   max_size=2))]
    edits += draw(st.lists(st.sampled_from(sorted(FIELDS)).flatmap(
        lambda place: st.tuples(st.just(place), st.integers(0, 20),
                                st.sampled_from(FIELDS[place]),
                                st.sampled_from(VALUES))), max_size=1))
    return _with(draw(st.sampled_from(bases)), edits)


@st.composite
def command_lines(draw, method: str) -> list[str]:
    command = draw(st.sampled_from(["solve", "check", "compare"]))
    argv = [command, "--format", draw(st.sampled_from(FORMATS))]
    if command == "check":
        return argv
    argv += ["--method", method]
    if draw(st.booleans()):
        argv.append("--override-conditions")
    if command == "solve":
        return argv + (["--oracle"] if draw(st.booleans()) else [])
    alphas = draw(st.one_of(st.sampled_from(ALPHAS), st.lists(
        st.floats(-2, 2), min_size=1, max_size=3).map(
            lambda xs: ",".join(map(repr, xs)))))
    return argv + ["--alpha-list", alphas]


# bus 3's current load overflows the no-load solve
NONFINITE_NOLOAD = _with(BASES[0], [("buses", 2, "i_load_im", 1.0e308)])
# a stiff branch 3-4 makes the residual routes' roundoff large in absolute
# terms while the residual itself stays small
STIFF_BRANCH = _with(BASES[0], [("branches", 2, "series_g", 1.0e12)])


@pytest.fixture(scope="module")
def case_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "case.yaml"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(text=METHOD.flatmap(method_case_texts),
       argv=METHOD.flatmap(command_lines))
@example(text=NONFINITE_NOLOAD, argv=["solve"])
@example(text=STIFF_BRANCH, argv=["solve"])
@example(text=STIFF_BRANCH, argv=["solve", "--oracle"])
# an int too large for a float, read by the full YAML loader
@example(text=_with(BASES[0], [("buses", 0, "q", 10 ** 400)]), argv=["solve"])
# |V_slack|^2 overflows in the no-current special form
@example(text=_with(BASES[0], [("buses", -1, "v_setpoint", 1.0e200)]),
         argv=["solve", "--method", "nocurrent"])
# ... and underflows
@example(text=_with(BASES[0], [("buses", -1, "v_setpoint", 1.0e-200)]),
         argv=["solve", "--method", "nocurrent"])
# an alpha whose square underflows
@example(text=_with(BASES[0], []), argv=["compare", "--alpha-list", "5e-247"])
def test_cli_contract_holds_for_any_case_and_command(case_file, text, argv):
    case_file.write_text(text, encoding="utf-8")
    # as errors, warnings that would reach stderr before the coded line
    # end the command with an exception instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = CliRunner().invoke(main, [argv[0], str(case_file), *argv[1:]])
    if not isinstance(res.exception, (SystemExit, type(None))):
        raise res.exception
    assert res.exit_code in (0, 2, 3)
    if res.exit_code:
        assert re.match(r"[A-Z_]+: ", res.stderr), res.stderr
