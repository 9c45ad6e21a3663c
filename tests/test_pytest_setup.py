"""A failing hypothesis property is reported as one failed test.

To report a failing property, hypothesis's pytest plugin imports libcst,
which imports ``mypy_extensions``, whose deprecated ``TypedDict`` warns.
pyproject.toml turns deprecation warnings into errors, so without its one
ignore for that message the warning raised inside the report hook and the
session stopped with INTERNALERROR, dropping every later test and the
failure summary.  Each run here is pytest in a subprocess, with the
project's settings, on a file holding one test.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SETTINGS = Path(__file__).resolve().parents[1] / "pyproject.toml"
FAILING = {
    "property": """\
from hypothesis import given, strategies as st

@given(st.integers())
def test_property(x):
    assert x < 0
""",
    # every other deprecation warning is still an error
    "deprecation": """\
import warnings

def test_deprecation():
    warnings.warn("an old API", DeprecationWarning)
""",
}


@pytest.mark.parametrize("name", sorted(FAILING))
def test_a_failing_test_fails_without_an_internal_error(tmp_path, name):
    (tmp_path / "test_one.py").write_text(FAILING[name])
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(SETTINGS), "--rootdir", str(tmp_path), "test_one.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "1 failed" in output and "INTERNALERROR" not in output, output
