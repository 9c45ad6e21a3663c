"""How many scipy compressed matrices a command builds, and how many
products it sends through scipy's sparse ``@``.

At desk scale a command's numerics take microseconds, and building scipy
sparse objects, or dispatching through them, costs more than the
arithmetic.  These budgets count the ``_cs_matrix.__init__`` and
``_spbase.__matmul__`` calls of whole CLI commands on a 40-bus feeder and
a 42-bus lossless grid.  None is left: the partition keeps the case's Y
as raw CSR arrays, and so are the matrices derived from Y, which
``_linalg.matvec`` multiplies with scipy's own kernel; raw CSR arrays are
transposed straight into SuperLU's raw CSC arrays, the 2N systems and
Newton's Jacobians are filled as such arrays, and the pivots are read
from U's raw arrays, so no factorization builds a matrix and no product
goes through a scipy matrix.  No command imports ``scipy.sparse`` at all
(see ``test_scipy_imports.py``); this test imports it to count.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.sparse import _base, _compressed

import casegen
from rectpf import save_case
from rectpf.cli import main

FEEDER = casegen.random_feeder_case(np.random.default_rng(40), 40, 40)
GRID = casegen.random_lossless_case(np.random.default_rng(42), 42, 42,
                                    pv_fraction=0.3, newton_ready=True)
COMMANDS = {"solve --oracle": ("solve", "--oracle"), "check": ("check",),
            "compare": ("compare", "--alpha-list", "1.0,0.5,0.25")}


def scipy_calls(case, command: str, *options: str) -> tuple[int, int]:
    """The compressed scipy matrices that ``rectpf <command> <case file>
    <options>`` builds and the sparse products it takes, run in process:
    ``_cs_matrix.__init__`` and ``_spbase.__matmul__`` calls."""
    counts = {"built": 0, "products": 0}
    init, matmul = _compressed._cs_matrix.__init__, _base._spbase.__matmul__

    def counted_init(self, *args, **kwargs):
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counted_matmul(self, other):
        counts["products"] += 1
        return matmul(self, other)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.yaml"
        save_case(case, path)
        _compressed._cs_matrix.__init__ = counted_init
        _base._spbase.__matmul__ = counted_matmul
        try:
            result = CliRunner().invoke(main, [command, str(path), *options])
        finally:
            _compressed._cs_matrix.__init__ = init
            _base._spbase.__matmul__ = matmul
    assert result.exit_code == 0, result.output
    return counts["built"], counts["products"]


# The most each command may build: with scipy 1.17, what they build; none
# takes a scipy sparse product.  Before the partition kept Y as raw CSR
# arrays each built 1, the case's Y.  Before the matrices derived from Y were
# raw CSR arrays they built 5, 2 and 5 on the feeder and 7, 3 and 7 on the
# grid, and took 15, 0 and 40 and 16, 0 and 45 products; before a
# canonical CSR matrix was transposed straight into SuperLU's arrays, 6, 2
# and 6, and 9, 3 and 9; before SuperLU was called on raw arrays, 22, 3
# and 40, and 28, 4 and 52; before Y's derived matrices were cached on the
# partition, 40, 13 and 83, and 53, 15 and 104.
BUDGETS = {"feeder": (FEEDER, {"solve --oracle": 0, "check": 0,
                               "compare": 0}),
           "grid": (GRID, {"solve --oracle": 0, "check": 0,
                           "compare": 0})}


@pytest.mark.parametrize("name", sorted(BUDGETS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_builds_few_compressed_matrices(name, command):
    case, budget = BUDGETS[name]
    assert scipy_calls(case, *COMMANDS[command])[0] <= budget[command]


@pytest.mark.parametrize("name", sorted(BUDGETS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_takes_no_scipy_sparse_product(name, command):
    assert scipy_calls(BUDGETS[name][0], *COMMANDS[command])[1] == 0
