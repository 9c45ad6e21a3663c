"""The shared factorization: condition estimate, determinism, singularity.

``Factorization`` takes raw arrays only; the dense and scipy matrices here
reach it as the CSC arrays ``splu`` would hand SuperLU for them."""

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse

import casegen
from reference_case import csr, superlu_input
from rectpf import (NominalVoltage, SolverError, build_admittance,
                    compute_noload_voltage)
from rectpf._linalg import PIVOT_RTOL, Factorization
from rectpf.linearize import _direct_coefficient, _real_block_matrix
from rectpf.transmission import _im_coeff


def gecon_condition(a) -> float:
    """Dense reference: LAPACK's LU plus its 1-norm condition estimator."""
    a = a.toarray() if sparse.issparse(a) else np.asarray(a)
    lu, _ = scipy.linalg.lu_factor(a)
    gecon = scipy.linalg.get_lapack_funcs(("gecon",), (lu,))[0]
    rcond, info = gecon(lu, np.linalg.norm(a, 1), norm="1")
    assert info == 0 and rcond > 0
    return 1.0 / rcond


def _systems(seed):
    """Matrices the solvers factor, real and complex, on random cases."""
    rng = np.random.default_rng(seed)
    feeder = casegen.random_feeder_case(rng, n_min=4, n_max=30)
    part = build_admittance(feeder)
    v0 = compute_noload_voltage(part)
    yield "feeder Y", part.Y_csr
    yield ("feeder diag(conj V0) Y",
           sparse.diags_array(v0.V.conj()) @ part.Y_csr)
    yield "feeder G", part.Y_csr.real
    n = feeder.n
    nominal = NominalVoltage(
        rng.normal(1, 0.05, n) + 1j * rng.normal(0, 0.05, n))
    direct = _direct_coefficient(part, nominal.V)
    yield "general 2N block", sparse.csc_array(
        _real_block_matrix(part, nominal.V, direct), shape=(2 * n, 2 * n))
    yield "general cross", sparse.diags_array(nominal.V) @ part.Y_csr.conj()
    grid = casegen.random_lossless_case(rng, n_min=4, n_max=30)
    grid_part = build_admittance(grid)
    yield "lossless im_coeff", csr(_im_coeff(grid_part))
    yield "lossless Y", grid_part.Y_csr


@pytest.mark.parametrize("seed", range(8))
def test_condition_matches_lapack_gecon(seed):
    for name, a in _systems(seed):
        cond = Factorization(superlu_input(a), code="X").condition
        ref = gecon_condition(a)
        assert abs(cond - ref) <= 1e-10 * ref, (name, cond, ref)


def test_condition_of_a_scalar_and_of_identity():
    for a in (np.array([[4.0]]), sparse.eye_array(7)):
        assert Factorization(superlu_input(a), code="X").condition == 1.0


def test_repeat_factorizations_are_bit_identical():
    for name, a in _systems(3):
        b = np.arange(1.0, a.shape[0] + 1)
        if a.dtype.kind == "c":
            b = b + 1j * b[::-1]
        one = Factorization(superlu_input(a), code="X")
        two = Factorization(superlu_input(a), code="X")
        assert np.array_equal(one.solve(b), two.solve(b)), name
        assert one.condition == two.condition, name


def test_matrix_right_hand_side_equals_column_solves():
    for name, a in _systems(5):
        lu = Factorization(superlu_input(a), code="X")
        rhs = np.random.default_rng(1).normal(size=(a.shape[0], 3))
        together = lu.solve(rhs)
        for k in range(3):
            assert np.array_equal(together[:, k], lu.solve(rhs[:, k])), name


def test_solution_solves_the_system():
    for name, a in _systems(6):
        b = np.ones(a.shape[0])
        x = Factorization(superlu_input(a), code="X").solve(b)
        assert np.abs(a @ x - b).max() <= 1e-10, name


@pytest.mark.parametrize("a", [
    np.zeros((1, 1)),
    np.array([[1.0, 2.0], [2.0, 4.0]]),
    sparse.csr_array(np.array([[1 - 5j, 0], [0, 0]])),
])
def test_exactly_singular_raises_callers_code(a):
    with pytest.raises(SolverError) as exc:
        Factorization(superlu_input(a), code="SINGULAR_TEST",
                      what="test matrix")
    assert exc.value.code == "SINGULAR_TEST"
    assert "test matrix" in str(exc.value)


def test_pivot_ratio_failure_raises_callers_code():
    a = np.diag([1.0, 0.1 * PIVOT_RTOL])
    with pytest.raises(SolverError) as exc:
        Factorization(superlu_input(a), code="SINGULAR_TEST")
    assert exc.value.code == "SINGULAR_TEST"
    assert "pivot ratio" in str(exc.value)
    # just above the threshold the same matrix factors
    lu = Factorization(superlu_input(np.diag([1.0, 10 * PIVOT_RTOL])),
                       code="X")
    assert lu.pivot_ratio == pytest.approx(10 * PIVOT_RTOL)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)])
def test_non_finite_input_raises_callers_code(bad):
    a = np.eye(3, dtype=type(bad))
    a[1, 2] = bad
    with pytest.raises(SolverError) as exc:
        Factorization(superlu_input(a), code="SINGULAR_TEST")
    assert exc.value.code == "SINGULAR_TEST"


@pytest.mark.parametrize("a", [np.eye(3), sparse.csc_array(np.eye(3)),
                               sparse.csr_array(np.eye(3))])
def test_a_matrix_that_is_no_raw_arrays_is_refused(a):
    # a scipy CSC matrix read as CSR arrays would be factored transposed
    with pytest.raises(TypeError, match="cannot factor"):
        Factorization(a, code="X")
