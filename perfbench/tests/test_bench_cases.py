"""Benchmark case generators: determinism, file round trip, method choice."""

import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import cases  # noqa: E402
import workloads  # noqa: E402
from check import check  # noqa: E402
from worker import invoke  # noqa: E402

import rectpf.cli  # noqa: E402
from rectpf import parse_case  # noqa: E402


def _files(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.glob("*.yaml"))}


def test_workload_is_deterministic_in_the_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    ops_a, info_a = workloads.build("desk-mix", 5, dirs[0])
    ops_b, info_b = workloads.build("desk-mix", 5, dirs[1])
    workloads.build("desk-mix", 6, dirs[2])
    strip = [{k: v for k, v in op.items() if k != "argv"} for op in ops_a]
    assert strip == [{k: v for k, v in op.items() if k != "argv"} for op in ops_b]
    assert info_a == info_b
    assert _files(dirs[0]) == _files(dirs[1])
    assert _files(dirs[0]) != _files(dirs[2])


@pytest.mark.parametrize("make", [cases.radial_feeder, cases.lossless_grid,
                                  cases.lossy_mesh])
def test_case_file_parses_to_the_generated_numbers(make):
    c = make(np.random.default_rng(3), 30, "c")
    parsed = parse_case(cases.to_yaml(c))
    s = np.array([b.pv_setpoint.p if b.pv_setpoint else b.load.power
                  for b in parsed.non_slack])
    assert np.array_equal(s, c.s)
    assert np.array_equal([b.series_admittance for b in parsed.branches], c.y)
    assert np.array_equal([b.load.current for b in parsed.non_slack], c.i_load)


def test_small_floats_stay_floats():
    for x in (1e-05, -3e-12, 2.5e-300, 1e+20):
        assert yaml.safe_load(cases.num(x)) == x


@pytest.mark.parametrize("make,method", [
    (cases.radial_feeder, "noload"),
    (cases.lossless_grid, "lossless"),
    (cases.lossy_mesh, "general"),
])
def test_auto_picks_the_intended_method_and_output_checks(tmp_path, make, method):
    c = make(np.random.default_rng(11), 40, "c")
    path = tmp_path / "c.yaml"
    path.write_text(cases.to_yaml(c))
    cases.save_ref(c, tmp_path / "c.npz")
    ref = cases.load_ref(tmp_path / "c.npz")
    op = workloads._op(str(path), c, "solve", oracle=True)
    assert op["method"] == method
    rc, out, err = invoke(rectpf.cli, op["argv"])
    assert check(op, rc, out, err, ref) is None
