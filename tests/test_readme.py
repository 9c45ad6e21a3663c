"""The README's library quick start runs as printed, and its export
notes match the package."""

import re
from pathlib import Path

import casegen
import rectpf
from rectpf import save_case

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_on_a_saved_feeder(tmp_path, monkeypatch, capsys):
    save_case(casegen.fixed_feeder10(), tmp_path / "feeder.yaml")
    monkeypatch.chdir(tmp_path)
    exec(compile(_quick_start(), str(README), "exec"), {})
    method, norm_s, satisfied, gap = capsys.readouterr().out.splitlines()
    assert method == "noload"
    assert 0 < float(norm_s) and satisfied == "True"
    assert 0 < float(gap) < 0.1          # the linear model is first-order


# the names README says are no longer exported
RETIRED = ("impedance_decomposition", "ImpedanceDecomposition",
           "SolutionMethod", "SolveDiagnostics", "InitialGuess",
           "solve_noload_closed_form", "NominalOrigin", "BusKind")


def test_exports_resolve_and_retired_names_are_gone():
    assert len(set(rectpf.__all__)) == len(rectpf.__all__)
    for name in rectpf.__all__:
        assert hasattr(rectpf, name), name
    notes = README.read_text(encoding="utf-8").split(
        "names are no longer exported", 1)[1].split("\n\n", 1)[0]
    for name in RETIRED:
        assert f"`{name}`" in notes
        assert not hasattr(rectpf, name), name
