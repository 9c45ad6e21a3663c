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
    return out


def _run(path: Path, argv: list[str]) -> dict:
    res = CliRunner().invoke(main, [argv[0], str(path), *argv[1:]])
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
                 np.random.default_rng(1), 5, 7))}
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
