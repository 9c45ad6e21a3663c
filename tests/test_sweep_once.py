"""A sweep prepares its model once: every matrix that loading does not
change is factored once, and the flat-profile conditions are evaluated
once, for all the alphas of a ``compare``."""

import numpy as np
import pytest
from scipy import sparse

import casegen
import rectpf._linalg
import rectpf.distribution
import rectpf.transmission
from rectpf import build_admittance, run_compare
from rectpf.linearize import _direct_coefficient, _real_block_matrix
from rectpf.transmission import _dc_matrix, _im_coeff


def _lossless_case():
    return casegen.random_lossless_case(np.random.default_rng(61), n_min=6,
                                        n_max=6, pv_fraction=0.3,
                                        newton_ready=True)


@pytest.fixture()
def factored(monkeypatch):
    """Every matrix handed to SuperLU, in call order."""
    seen = []
    splu = rectpf._linalg.spla.splu

    def counting_splu(a, *args, **kwargs):
        seen.append(a.copy())
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(rectpf._linalg.spla, "splu", counting_splu)
    return seen


def _count(seen, m) -> int:
    """How many of ``seen`` equal the matrix ``m``."""
    return sum(a.shape == m.shape and (a != m).nnz == 0 for a in seen)


def _flat_block(part):
    ones = np.ones(part.n, dtype=complex)
    return _real_block_matrix(part, ones, _direct_coefficient(part, ones))


# Each method's case, and the matrix its model factors.
MODELS = {
    "general": (casegen.fixed_feeder10, _flat_block),
    "noload": (casegen.fixed_feeder10, lambda part: part.Y_csr),
    "nocurrent": (casegen.fixed_feeder10, lambda part: part.Y_csr),
    "decoupled": (casegen.fixed_feeder10, lambda part: part.Y_csr.real),
    "dc": (casegen.fixed_feeder10, _dc_matrix),
    "lossless": (_lossless_case, _im_coeff),
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
    im_coeff = _im_coeff(part).toarray()

    factored, evaluated = [], []
    splu = rectpf._linalg.spla.splu
    flat_conditions = rectpf.transmission.flat_conditions

    def counting_splu(a, *args, **kwargs):
        factored.append(a.toarray())
        return splu(a, *args, **kwargs)

    def counting_conditions(*args):
        evaluated.append(args)
        return flat_conditions(*args)

    monkeypatch.setattr(rectpf._linalg.spla, "splu", counting_splu)
    monkeypatch.setattr(rectpf.transmission, "flat_conditions",
                        counting_conditions)
    report = run_compare(case, [1, 0.5, 0.25])
    assert report.method == "lossless"
    assert sum(np.array_equal(a, im_coeff) for a in factored) == 1
    assert len(evaluated) == 1


def test_decoupled_compare_measures_the_assumptions_once(monkeypatch):
    measured = []
    max_row_norm = rectpf.distribution.max_row_norm

    def counting_norm(*args):
        measured.append(args)
        return max_row_norm(*args)

    monkeypatch.setattr(rectpf.distribution, "max_row_norm", counting_norm)
    report = run_compare(casegen.fixed_feeder10(), [1, 0.5, 0.25],
                         method="decoupled")
    assert report.method == "decoupled"
    assert len(measured) == 1
