"""The README's library quick start runs as printed."""

import re
from pathlib import Path

import casegen
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
