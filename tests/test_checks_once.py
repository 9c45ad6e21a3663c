"""The no-load structure check and the lossless gate run once per command."""

import sys

import pytest

import casegen
import rectpf.netmodel
import rectpf.transmission
from rectpf import SolverError, run_check, run_compare, run_pipeline
from rectpf.report import METHODS


@pytest.fixture()
def calls(monkeypatch):
    """Calls of each check, counted in every rectpf module that binds it."""
    seen = {"structure": 0, "gate": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, module, name in (("structure", rectpf.netmodel,
                               "check_noload_structure"),
                              ("gate", rectpf.transmission, "lossless_gate")):
        original = getattr(module, name)
        wrapper = counting(key, original)
        for mod in list(sys.modules.values()):
            if (mod is not None and mod.__name__.startswith("rectpf")
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, wrapper)
    return seen


def test_noload_pipeline_checks_structure_once(calls):
    report = run_pipeline(casegen.fixed_feeder10())
    assert report.method == "noload"
    assert report.flags["noload_structure"]
    assert calls["structure"] == 1


def test_auto_compare_checks_structure_once(calls):
    report = run_compare(casegen.fixed_feeder10(), [1, 0.5, 0.25])
    assert report.method == "noload"
    assert calls["structure"] == 1


def test_lossless_pipeline_runs_the_gate_once(calls):
    report = run_pipeline(casegen.lossless_ladder_case(p=0.5))
    assert report.method == "lossless"
    assert report.flags["lossless_gate"]
    assert calls["gate"] == 1


COMMANDS = {
    "solve": lambda case, method: run_pipeline(case, method=method),
    "compare": lambda case, method: run_compare(case, [1, 0.5, 0.25],
                                                method=method),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("make_case", [casegen.fixed_feeder10,
                                       casegen.lossless_ladder_case])
def test_each_check_runs_at_most_once(calls, command, method, make_case):
    try:
        COMMANDS[command](make_case(), method)
    except SolverError:
        pass
    assert calls["structure"] <= 1 and calls["gate"] <= 1, calls


def test_check_command_runs_each_check_once(calls):
    run_check(casegen.lossless_ladder_case())
    assert calls == {"structure": 1, "gate": 1}
