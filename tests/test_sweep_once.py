"""A sweep prepares its model once: every matrix that loading does not
change is factored once, Newton's start Jacobian among them, and the
flat-profile conditions are evaluated once, for all the alphas of a
``compare``."""

from functools import cached_property

import numpy as np
import pytest
from scipy import sparse

import casegen
from reference_case import csr
import rectpf._linalg
import rectpf.transmission
from rectpf import (AdmittancePartition, NetworkCase, build_admittance,
                    compute_noload_voltage, run_compare)
from rectpf.linearize import _direct_coefficient, _real_block_matrix
from rectpf.newton import _equations
from rectpf.transmission import _im_coeff


def _lossless_case():
    return casegen.random_lossless_case(np.random.default_rng(61), n_min=6,
                                        n_max=6, pv_fraction=0.3,
                                        newton_ready=True)


@pytest.fixture()
def factored(monkeypatch):
    """Every matrix handed to SuperLU, in call order."""
    seen = []
    gstrf = rectpf._linalg._superlu.gstrf

    def counting_gstrf(n, nnz, *arrays, **kwargs):
        seen.append(sparse.csc_array(tuple(a.copy() for a in arrays),
                                     shape=(n, n)))
        return gstrf(n, nnz, *arrays, **kwargs)

    monkeypatch.setattr(rectpf._linalg._superlu, "gstrf", counting_gstrf)
    return seen


def _count(seen, m) -> int:
    """How many of ``seen`` equal the matrix ``m``."""
    return sum(a.shape == m.shape and (a != m).nnz == 0 for a in seen)


def _flat_block(part):
    ones = np.ones(part.n, dtype=complex)
    return sparse.csc_array(
        _real_block_matrix(part, ones, _direct_coefficient(part, ones)),
        shape=(2 * part.n, 2 * part.n))


# Each method's case, and the matrix its model factors.
MODELS = {
    "general": (casegen.fixed_feeder10, _flat_block),
    "noload": (casegen.fixed_feeder10, lambda part: part.Y_csr),
    "nocurrent": (casegen.fixed_feeder10, lambda part: part.Y_csr),
    "decoupled": (casegen.fixed_feeder10, lambda part: part.Y_csr.real),
    "dc": (casegen.fixed_feeder10, lambda part: csr(part.B_dc)),
    "lossless": (_lossless_case, lambda part: csr(_im_coeff(part))),
}


@pytest.mark.parametrize("method", sorted(MODELS))
def test_compare_factors_each_matrix_once(factored, method):
    make_case, matrix = MODELS[method]
    case = make_case()
    part = build_admittance(case)
    report = run_compare(case, [1, 0.5, 0.25], method=method)
    assert report.method == method
    # Y is factored once for Newton's start and the closed forms alike
    assert _count(factored, part.Y_csr) == 1
    assert _count(factored, sparse.csc_array(matrix(part))) == 1


def test_lossless_compare_builds_the_system_once(monkeypatch):
    case = _lossless_case()
    part = build_admittance(case)
    im_coeff = csr(_im_coeff(part)).toarray()

    factored, evaluated = [], []
    gstrf = rectpf._linalg._superlu.gstrf
    flat_conditions = rectpf.transmission.flat_conditions

    def counting_gstrf(n, nnz, *arrays, **kwargs):
        factored.append(sparse.csc_array(arrays, shape=(n, n)).toarray())
        return gstrf(n, nnz, *arrays, **kwargs)

    def counting_conditions(*args):
        evaluated.append(args)
        return flat_conditions(*args)

    monkeypatch.setattr(rectpf._linalg._superlu, "gstrf", counting_gstrf)
    monkeypatch.setattr(rectpf.transmission, "flat_conditions",
                        counting_conditions)
    report = run_compare(case, [1, 0.5, 0.25])
    assert report.method == "lossless"
    assert sum(np.array_equal(a, im_coeff) for a in factored) == 1
    assert len(evaluated) == 1


def test_decoupled_compare_measures_the_assumptions_once(monkeypatch):
    measured = []
    b_row_norm = AdmittancePartition.B_row_norm.func

    def counting_norm(partition):
        measured.append(partition)
        return b_row_norm(partition)

    counted = cached_property(counting_norm)
    counted.__set_name__(AdmittancePartition, "B_row_norm")
    monkeypatch.setattr(AdmittancePartition, "B_row_norm", counted)
    report = run_compare(casegen.fixed_feeder10(), [1, 0.5, 0.25],
                         method="decoupled")
    assert report.method == "decoupled"
    assert len(measured) == 1


@pytest.mark.parametrize("make_case", [casegen.fixed_feeder10,
                                       _lossless_case])
def test_compare_scales_the_targets_not_the_case(monkeypatch, make_case):
    case = make_case()
    built = []
    init = NetworkCase.__init__

    def counting_init(self, *args):
        built.append(self)
        return init(self, *args)

    monkeypatch.setattr(NetworkCase, "__init__", counting_init)
    report = run_compare(case, [1, 0.5, 0.25])
    assert all(report.rows.values[5]) and built == []


@pytest.mark.parametrize("make_case, method", [
    (casegen.fixed_feeder10, "noload"), (_lossless_case, "lossless")])
def test_compare_factors_newtons_start_jacobian_once(factored, make_case,
                                                     method):
    # Newton starts every alpha at the no-load profile with the same PV
    # rows; neither model factors a 2N matrix of its own.
    case = make_case()
    part = build_admittance(case)
    jacobian = _equations(part, case, case.injection_targets()[0])[1]
    start = sparse.csc_array(jacobian(compute_noload_voltage(part).V),
                             shape=(2 * part.n, 2 * part.n))
    report = run_compare(case, [1, 0.5, 0.25], method=method)
    iterations = report.rows.values[4]
    assert report.method == method and all(iterations)
    assert _count(factored, start) == 1
    assert (sum(a.shape == start.shape for a in factored)
            == sum(iterations) - sum(it > 0 for it in iterations) + 1)
