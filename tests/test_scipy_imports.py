"""Which SciPy modules a command loads, and how rectpf shares them.

rectpf calls two of SciPy's compiled modules, ``_sparsetools`` and
``_superlu``, and ``_linalg`` loads them straight from their files, so a
command never imports ``scipy.sparse``, ``scipy.sparse.linalg`` or
``scipy.linalg``: importing them would triple a desk-scale command's
startup.  Each check runs in a fresh interpreter, since the test process
itself has imported all of SciPy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import casegen
import rectpf
from rectpf import save_case
from rectpf.report import METHODS

SRC = str(Path(rectpf.__file__).resolve().parents[1])
PACKAGES = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg")
SUPERLU = "scipy.sparse.linalg._dsolve._superlu"
SPARSETOOLS = "scipy.sparse._sparsetools"


def _fresh(script: str) -> dict:
    """The JSON object that ``script``, run in a fresh interpreter with
    ``src`` on its path, prints on its last stdout line."""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=SRC),
                         timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_commands_import_no_scipy_package(tmp_path):
    feeder, grid = tmp_path / "feeder.yaml", tmp_path / "grid.yaml"
    save_case(casegen.random_feeder_case(np.random.default_rng(40), 40, 40),
              feeder)
    save_case(casegen.random_lossless_case(np.random.default_rng(42), 42, 42,
                                           pv_fraction=0.3,
                                           newton_ready=True), grid)
    runs = [["solve", str(feeder), "--oracle"], ["check", str(feeder)],
            ["compare", str(feeder), "--alpha-list", "1.0,0.5,0.25"],
            ["solve", str(grid), "--oracle"], ["check", str(grid)],
            *(["solve", str(path), "--method", method, "--oracle"]
              for path in (feeder, grid) for method in METHODS),
            ["solve", str(tmp_path / "missing.yaml")]]
    got = _fresh(f"""
import json, sys
from rectpf.cli import main
codes = []
for args in {runs!r}:
    try:
        main(args)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps({{"codes": codes, "loaded": [
    name for name in {PACKAGES!r} if name in sys.modules]}}))
""")
    assert got["codes"][:5] == [0] * 5 and got["codes"][-1] == 2
    assert set(got["codes"]) <= {0, 2, 3}
    assert got["loaded"] == []


def test_scipy_works_after_rectpf():
    """rectpf's modules are the ones SciPy then imports, and they work."""
    got = _fresh(f"""
import json, sys
import numpy as np
from rectpf import _linalg
from scipy import sparse
from scipy.sparse import linalg
a = sparse.csr_array(np.array([[4.0, 1.0], [2.0, 3.0]]))
print(json.dumps({{
    "solve": linalg.splu(sparse.csc_array(a)).solve(np.ones(2)).tolist(),
    "product": (a @ np.ones(2)).tolist(),
    "same": [_linalg._superlu is sys.modules[{SUPERLU!r}],
             _linalg._sparsetools is sys.modules[{SPARSETOOLS!r}]]}}))
""")
    assert got == {"solve": [0.2, 0.2], "product": [5.0, 5.0],
                   "same": [True, True]}


def test_rectpf_reuses_scipy_modules_already_imported():
    """Imported after ``scipy.sparse.linalg``, rectpf loads nothing twice."""
    got = _fresh(f"""
import json, sys
import scipy.sparse.linalg
from rectpf import _linalg
print(json.dumps([_linalg._superlu is sys.modules[{SUPERLU!r}],
                  _linalg._sparsetools is sys.modules[{SPARSETOOLS!r}]]))
""")
    assert got == [True, True]
