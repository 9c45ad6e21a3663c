"""The installed runtime dependencies against pyproject.toml's ranges.

``_linalg`` calls private scipy entry points (``_superlu.gstrf``,
``_sparsetools.csr_matvec`` and ``csr_tocsc``), so the declared scipy range
is the one minor version these tests run on.  The ranges are read with
``tomllib`` and compared with ``packaging``, which pytest itself requires.
"""

import tomllib
from importlib import metadata
from pathlib import Path

import pytest
from packaging.requirements import Requirement

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared() -> dict:
    """Each runtime dependency's name and specifier set."""
    with PYPROJECT.open("rb") as f:
        project = tomllib.load(f)["project"]
    requirements = map(Requirement, project["dependencies"])
    return {req.name: req.specifier for req in requirements}


@pytest.mark.parametrize("name", sorted(declared()))
def test_installed_version_is_in_the_declared_range(name):
    assert declared()[name].contains(metadata.version(name)), (
        name, metadata.version(name), str(declared()[name]))
