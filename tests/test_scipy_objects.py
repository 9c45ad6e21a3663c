"""How many scipy compressed matrices a command builds.

At desk scale a command's numerics take microseconds, and building scipy
sparse objects costs more than factoring them.  So every matrix derived
from Y is built once on the partition, and these budgets count the
``_cs_matrix.__init__`` calls of whole CLI commands on a 40-bus feeder and
a 42-bus lossless grid.  What stays is the case's Y, which the partition
adopts without a copy, and the derived matrices.  A canonical CSR matrix
is transposed straight into SuperLU's raw CSC arrays, the 2N systems and
Newton's Jacobians are filled as such arrays, and the pivots are read
from U's raw arrays, so no factorization builds a matrix.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.sparse import _compressed

import casegen
from rectpf import save_case
from rectpf.cli import main

FEEDER = casegen.random_feeder_case(np.random.default_rng(40), 40, 40)
GRID = casegen.random_lossless_case(np.random.default_rng(42), 42, 42,
                                    pv_fraction=0.3, newton_ready=True)
COMMANDS = {"solve --oracle": ("solve", "--oracle"), "check": ("check",),
            "compare": ("compare", "--alpha-list", "1.0,0.5,0.25")}


def constructions(case, command: str, *options: str) -> int:
    """The compressed scipy matrices that ``rectpf <command> <case file>
    <options>`` builds, run in process: ``_cs_matrix.__init__`` calls."""
    built = 0
    init = _compressed._cs_matrix.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.yaml"
        save_case(case, path)
        _compressed._cs_matrix.__init__ = counted
        try:
            result = CliRunner().invoke(main, [command, str(path), *options])
        finally:
            _compressed._cs_matrix.__init__ = init
    assert result.exit_code == 0, result.output
    return built



# The most each command may build: with scipy 1.17, what they build.
# Before a canonical CSR matrix was transposed straight into SuperLU's
# arrays they built 6, 2 and 6 on the feeder and 9, 3 and 9 on the grid;
# before SuperLU was called on raw arrays, 22, 3 and 40, and 28, 4 and 52;
# before Y's derived matrices were cached on the partition, 40, 13 and 83,
# and 53, 15 and 104.
BUDGETS = {"feeder": (FEEDER, {"solve --oracle": 5, "check": 2,
                               "compare": 5}),
           "grid": (GRID, {"solve --oracle": 7, "check": 3,
                           "compare": 7})}


@pytest.mark.parametrize("name", sorted(BUDGETS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_builds_few_compressed_matrices(name, command):
    case, budget = BUDGETS[name]
    assert constructions(case, *COMMANDS[command]) <= budget[command]
