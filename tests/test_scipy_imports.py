"""Which SciPy and PyYAML modules a command loads, and how rectpf shares
SciPy's.

rectpf calls two of SciPy's compiled modules, ``_sparsetools`` and
``_superlu``, and ``_linalg`` loads them straight from their files under
the directory ``find_spec("scipy")`` locates, so a command never runs
``scipy``'s own ``__init__`` nor imports ``scipy.sparse``,
``scipy.sparse.linalg`` or ``scipy.linalg``: importing those would triple
a desk-scale command's startup.  PyYAML is imported only for a text the
column reader declines and by ``dump_case``, so a command on a clean case
file, comment lines or not, never imports ``yaml``.  Each check runs in a
fresh interpreter, since the test process itself has imported all of
SciPy and PyYAML.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import casegen
import rectpf
from rectpf import save_case
from rectpf.report import METHODS

SRC = str(Path(rectpf.__file__).resolve().parents[1])
PACKAGES = ("scipy", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg",
            "yaml")
SUPERLU = "scipy.sparse.linalg._dsolve._superlu"
SPARSETOOLS = "scipy.sparse._sparsetools"


def _fresh(script: str, *args: str) -> dict:
    """The JSON object that ``script``, run with ``args`` in a fresh
    interpreter with ``src`` on its path, prints on its last stdout line."""
    res = subprocess.run([sys.executable, "-c", script, *args],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def _feeder(path: Path) -> Path:
    save_case(casegen.random_feeder_case(np.random.default_rng(40), 40, 40),
              path)
    return path


def test_commands_import_no_scipy_package(tmp_path):
    feeder, grid = _feeder(tmp_path / "feeder.yaml"), tmp_path / "grid.yaml"
    commented = tmp_path / "commented.yaml"
    commented.write_text("# a feeder\n\n" + feeder.read_text().replace(
        "\nbranches:", "\n# the lines\nbranches:"))
    save_case(casegen.random_lossless_case(np.random.default_rng(42), 42, 42,
                                           pv_fraction=0.3,
                                           newton_ready=True), grid)
    runs = [["solve", str(feeder), "--oracle"], ["check", str(feeder)],
            ["compare", str(feeder), "--alpha-list", "1.0,0.5,0.25"],
            ["solve", str(grid), "--oracle"], ["check", str(grid)],
            *(["solve", str(path), "--method", method, "--oracle"]
              for path in (feeder, grid) for method in METHODS),
            ["solve", str(commented), "--oracle"], ["check", str(commented)],
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
    assert got["codes"][:5] == [0] * 5 and got["codes"][-3:] == [0, 0, 2]
    assert set(got["codes"]) <= {0, 2, 3}
    assert got["loaded"] == []


def test_declined_file_loads_yaml_and_reports_as_before(tmp_path):
    """A text the column reader declines loads PyYAML, and gets the error
    it always got; ``dump_case`` writes what the feeder file holds."""
    feeder, bad = _feeder(tmp_path / "feeder.yaml"), tmp_path / "bad.yaml"
    bad.write_text(feeder.read_text().replace(
        "kind: zip", "kind: zip\n  colour: red", 1))
    got = _fresh("""
import contextlib, io, json, sys
from pathlib import Path
from rectpf import dump_case, load_case
from rectpf.cli import main
imported = "yaml" in sys.modules
err = io.StringIO()
with contextlib.redirect_stderr(err):
    try:
        main(["check", sys.argv[1]])
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"imported": imported, "declined": "yaml" in sys.modules,
                  "code": code, "stderr": err.getvalue(),
                  "dump": dump_case(load_case(sys.argv[2]))
                  == Path(sys.argv[2]).read_text()}))
""", str(bad), str(feeder))
    assert got == {"imported": False, "declined": True, "code": 2,
                   "stderr": "VALIDATION_ERROR: buses[0] (id 1): unknown "
                             "field(s) ['colour']\n", "dump": True}


def test_scipy_works_after_rectpf(tmp_path):
    """After a command, scipy imports as a whole, rectpf's modules are the
    ones it then uses, and they work."""
    got = _fresh(f"""
import json, sys
import numpy as np
from rectpf import _linalg
from rectpf.cli import main
try:
    main(["solve", sys.argv[1], "--oracle"])
except SystemExit as exc:
    code = exc.code
import scipy
from scipy import sparse
from scipy.sparse import linalg
a = sparse.csr_array(np.array([[4.0, 1.0], [2.0, 3.0]]))
print(json.dumps({{
    "code": code, "version": scipy.__version__,
    "solve": linalg.splu(sparse.csc_array(a)).solve(np.ones(2)).tolist(),
    "product": (a @ np.ones(2)).tolist(),
    "same": [_linalg._superlu is sys.modules[{SUPERLU!r}],
             _linalg._sparsetools is sys.modules[{SPARSETOOLS!r}]]}}))
""", str(_feeder(tmp_path / "feeder.yaml")))
    assert got == {"code": 0, "version": scipy.__version__,
                   "solve": [0.2, 0.2], "product": [5.0, 5.0],
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


def test_missing_scipy_is_an_import_error_naming_it():
    """With scipy hidden from every finder, ``import rectpf`` fails as
    ``import scipy`` would, not on the missing package's spec."""
    got = _fresh("""
import json, sys
class Hide:
    def __init__(self, finder):
        self.finder = finder
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] != "scipy":
            return self.finder.find_spec(name, path, target)
sys.meta_path[:] = map(Hide, sys.meta_path)
try:
    import rectpf
except ImportError as exc:
    print(json.dumps([type(exc).__name__, str(exc), exc.name]))
""")
    assert got == ["ModuleNotFoundError", "No module named 'scipy'", "scipy"]
