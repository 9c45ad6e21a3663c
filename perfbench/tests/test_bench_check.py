"""The output check accepts real outputs and rejects altered ones."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import cases  # noqa: E402
import workloads  # noqa: E402
from check import check  # noqa: E402
from worker import invoke  # noqa: E402

import rectpf.cli  # noqa: E402


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A feeder's case, reference, oracle solve op and its real output."""
    tmp = tmp_path_factory.mktemp("feeder")
    c = cases.radial_feeder(np.random.default_rng(2), 25, "f")
    path = tmp / "f.yaml"
    path.write_text(cases.to_yaml(c))
    op = workloads._op(str(path), c, "solve", oracle=True)
    rc, out, err = invoke(rectpf.cli, op["argv"])
    return op, c, rc, out, err


def test_real_output_passes(solved):
    op, ref, rc, out, err = solved
    assert rc == 0
    assert check(op, rc, out, err, ref) is None


def test_perturbed_dv_is_rejected(solved):
    op, ref, rc, out, err = solved
    doc = json.loads(out)
    scale = float(np.abs(ref.dv_ref).max())
    doc["buses"][3]["dv_re"] += 1e-4 * scale
    reason = check(op, rc, json.dumps(doc), err, ref)
    assert reason is not None and "dv off the reference" in reason


def test_linear_voltage_in_place_of_newton_is_rejected(solved):
    op, ref, rc, out, err = solved
    doc = json.loads(out)
    for b in doc["buses"]:
        b["v_oracle_re"] = b["v_nom_re"] + b["dv_re"]
        b["v_oracle_im"] = b["v_nom_im"] + b["dv_im"]
    reason = check(op, rc, json.dumps(doc), err, ref)
    assert reason is not None and "mismatch" in reason


def test_wrong_exit_code_is_rejected(solved):
    op, ref, rc, out, err = solved
    assert "exit code 3" in check(op, 3, out, err, ref)


def test_expected_error_needs_its_code_and_exit(solved):
    _, ref, _, _, _ = solved
    op = dict(workloads._op("x.yaml", ref, "solve", rc=2,
                            code="VALIDATION_ERROR"))
    good = "VALIDATION_ERROR: buses[0] (id 1): unknown field(s) ['colour']\n"
    assert check(op, 2, "", good, ref) is None
    assert check(op, 0, "", "", ref) is not None
    assert check(op, 2, "", "PARSE_ERROR: bad\n", ref) is not None


def test_csv_row_count_is_checked(solved, tmp_path):
    op, ref, _, _, _ = solved
    csv_op = workloads._op(op["argv"][1], ref, "solve", fmt="csv")
    rc, out, err = invoke(rectpf.cli, csv_op["argv"])
    assert check(csv_op, rc, out, err, ref) is None
    truncated = "\n".join(out.splitlines()[:-1]) + "\n"
    assert check(csv_op, rc, truncated, err, ref) is not None
