"""Byte-for-byte CLI outputs against recorded golden data.

``golden_cli.json`` holds the case files and, for every command line
below, the exit code, stdout and stderr of a known-good build.  The test
replays each command on the stored case and compares all three exactly.
After an intended output change, re-record the file with::

    PYTHONPATH=src python tests/test_golden_cli.py

and list every changed expectation with the change: the recorder prints
one line for each key whose exit code, stdout or stderr changed against
the stored file.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from rectpf.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")

FORMATS = ("table", "csv", "json")
METHODS = ("auto", "general", "noload", "lossless", "dc", "nocurrent",
           "decoupled")
ALPHAS = "1,0.5,0.25"

# Cases that fail parsing or validation, each recorded under ``check`` and
# ``solve --format json``: the coded stderr lines and their order.  Buses
# are listed out of id order where model checks run, which report in id
# order; schema checks report in file order.
INVALID = {
    "unknown_field": """
schema_version: "1"
colour: red
buses:
  - {id: 1, kind: zip, p: -0.1, flavour: sour, aroma: 2}
  - {id: 2, kind: slack, v_setpoint: 1.0, p: 0.5}
branches:
  - {from: 1, to: 2, series_g: 1.0, series_b: -5.0, length: 3}
""",
    "wrong_types": """
schema_version: 2
base_mva: big
buses:
  - {id: 1, kind: zip, p: abc, q: [1], shunt_g: true, i_load_im: null}
  - {id: one, kind: zip}
  - {id: 3, kind: pq}
  - 7
  - {id: 4, kind: slack, v_setpoint: '1.0', theta_deg: x}
branches:
  - {from: 1.5, to: 2, series_g: 1.0}
  - {from: 1, to: 4, series_g: '1', series_b: -5.0, shunt_b_total: no}
""",
    "pv_bad_p": """
schema_version: "1"
buses:
  - {id: 1, kind: pv, p: abc, v_setpoint: 1.0}
  - {id: 2, kind: slack}
branches:
  - {from: 1, to: 2, series_g: 1.0, series_b: -5.0}
""",
    "pv_missing_p": """
schema_version: "1"
buses:
  - {id: 1, kind: zip, p: -0.1}
  - {id: 2, kind: pv, v_setpoint: 1.02}
  - {id: 3, kind: pv}
  - {id: 4, kind: slack}
branches:
  - {from: 1, to: 4, series_g: 1.0, series_b: -5.0}
  - {from: 2, to: 4, series_g: 1.0, series_b: -5.0}
  - {from: 3, to: 4, series_g: 1.0, series_b: -5.0}
""",
    "noncontiguous_ids": """
schema_version: "1"
buses:
  - {id: 5, kind: slack}
  - {id: 2, kind: zip, p: -0.1}
  - {id: 2, kind: zip, p: -0.2}
  - {id: 1, kind: slack, v_setpoint: 0.0}
branches:
  - {from: 1, to: 2, series_g: 1.0, series_b: -5.0}
  - {from: 2, to: 5, series_g: 1.0, series_b: -5.0}
""",
    "misplaced_slack": """
schema_version: "1"
buses:
  - {id: 2, kind: zip, p: -0.1}
  - {id: 1, kind: slack}
  - {id: 3, kind: pv, p: 0.2, v_setpoint: 1.0}
branches:
  - {from: 1, to: 2, series_g: 1.0, series_b: -5.0}
  - {from: 2, to: 3, series_g: 1.0, series_b: -5.0}
""",
    "nonfinite_loads": """
schema_version: "1"
base_mva: -100
buses:
  - {id: 3, kind: pv, p: .inf, v_setpoint: -1.0, shunt_b: .nan}
  - {id: 1, kind: zip, p: 1e400, q: -.inf, i_load_re: .nan}
  - {id: 2, kind: zip, shunt_g: -.inf, i_load_im: 1.0e308}
  - {id: 4, kind: slack, v_setpoint: .nan, theta_deg: .inf}
branches:
  - {from: 1, to: 2, series_g: .inf, series_b: -5.0, shunt_b_total: .nan}
  - {from: 2, to: 3, series_g: 0.0, series_b: 0.0}
  - {from: 3, to: 4, series_g: 1.0, series_b: -5.0}
""",
    "bad_endpoint": """
schema_version: "1"
buses:
  - {id: 1, kind: zip, p: -0.1}
  - {id: 2, kind: zip, p: -0.1}
  - {id: 3, kind: slack}
branches:
  - {from: 1, to: 9, series_g: 1.0, series_b: -5.0}
  - {from: 2, to: 2, series_g: 1.0, series_b: -5.0}
  - {from: 0, to: 0, series_g: 0.0, series_b: 0.0}
  - {from: 2, to: 3, series_g: 1.0, series_b: -5.0}
""",
    "disconnected": """
schema_version: "1"
buses:
  - {id: 1, kind: zip, p: -0.1}
  - {id: 2, kind: zip, p: -0.1}
  - {id: 3, kind: zip, p: -0.1}
  - {id: 4, kind: slack}
branches:
  - {from: 1, to: 2, series_g: 1.0, series_b: -5.0}
  - {from: 3, to: 4, series_g: 1.0, series_b: -5.0}
""",
    "not_yaml": "buses: [unclosed\n",
}


def commands() -> list[tuple[str, list[str]]]:
    """(case name, argv after the case path) for every recorded run."""
    out = []
    for case in ("feeder10", "lossless_ladder", "violated_chain", "pv_grid",
                 "lossy_mesh"):
        for fmt in FORMATS:
            out.append((case, ["check", "--format", fmt]))
            for method in METHODS:
                out.append((case, ["compare", "--alpha-list", ALPHAS,
                                   "--method", method, "--format", fmt]))
                for extra in ([], ["--oracle"]):
                    out.append((case, ["solve", "--method", method,
                                       "--format", fmt, *extra]))
    for fmt in FORMATS:
        for method in ("auto", "lossless"):
            out.append(("violated_chain", ["solve", "--method", method,
                                           "--override-conditions",
                                           "--format", fmt]))
        out.append(("violated_chain", ["compare", "--alpha-list", ALPHAS,
                                       "--override-conditions",
                                       "--format", fmt]))
    for case in INVALID:
        out += [(case, ["check"]), (case, ["solve", "--format", "json"])]
    return out


def _run(path: Path, argv: list[str]) -> dict:
    """Run ``argv`` on the case at ``path``, named relative to its folder so
    that error lines do not depend on where the case was written."""
    cwd = os.getcwd()
    os.chdir(path.parent)
    try:
        res = CliRunner().invoke(main, [argv[0], path.name, *argv[1:]])
    finally:
        os.chdir(cwd)
    if res.exception is not None and not isinstance(res.exception,
                                                    SystemExit):
        raise res.exception
    return {"exit": res.exit_code, "stdout": res.stdout,
            "stderr": res.stderr}


def _key(case: str, argv: list[str]) -> str:
    return " ".join([case, *argv])


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def case_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, text in _golden()["cases"].items():
        paths[name] = root / f"{name}.yaml"
        paths[name].write_text(text, encoding="utf-8")
    return paths


def test_every_command_is_recorded():
    assert sorted(_golden()["runs"]) == sorted(
        _key(case, argv) for case, argv in commands())


@pytest.mark.parametrize("case,argv", commands(),
                         ids=[_key(c, a) for c, a in commands()])
def test_output_matches_golden(case_paths, case, argv):
    want = _golden()["runs"][_key(case, argv)]
    assert _run(case_paths[case], argv) == want


def record(path: Path = GOLDEN) -> None:
    """Run every command on freshly written cases, store the outputs and
    print each key whose outputs differ from the stored ones."""
    import tempfile

    import numpy as np

    sys.path.insert(0, str(Path(__file__).parent))
    import casegen
    from test_cli import LOSSLESS_LADDER, VIOLATED_CHAIN

    from rectpf import dump_case

    cases = {"feeder10": dump_case(casegen.fixed_feeder10()),
             "lossless_ladder": LOSSLESS_LADDER,
             "violated_chain": VIOLATED_CHAIN,
             # meshed lossless grid with PV buses: Newton's |V|^2 rows
             "pv_grid": dump_case(casegen.random_lossless_case(
                 np.random.default_rng(1), 8, 12, pv_fraction=0.4,
                 newton_ready=True)),
             # meshed lossy grid: the general 2N solve off the flat profile
             "lossy_mesh": dump_case(casegen.random_feeder_case(
                 np.random.default_rng(1), 5, 7)), **INVALID}
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in cases.items():
            (Path(tmp) / f"{name}.yaml").write_text(text, encoding="utf-8")
        for case, argv in commands():
            runs[_key(case, argv)] = _run(Path(tmp) / f"{case}.yaml", argv)
    stored = json.loads(path.read_text(encoding="utf-8"))["runs"]
    for key, run in runs.items():
        changed = [part for part, text in run.items()
                   if stored.get(key, {}).get(part) != text]
        if changed:
            print(f"{key}: {', '.join(changed)}")
    path.write_text(json.dumps({"cases": cases, "runs": runs}, indent=1,
                               sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
