"""Quadratic residual, row-norm bounds, nonlinear mismatch oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import casegen
from rectpf import (InternalCheckError, build_admittance, complex_injection,
                    flat_nominal, linear_injection, max_row_norm,
                    nonlinear_mismatch, prepare, quadratic_residual,
                    verify_bounds)
from rectpf.linearize import _direct_coefficient


def test_max_row_norm_frozen_values():
    assert max_row_norm(np.array([[1 - 5j]])) == pytest.approx(np.sqrt(26),
                                                               rel=1e-15)
    assert max_row_norm(np.array([[3.0, 4.0], [0.0, 1.0]])) == 5.0
    assert max_row_norm(np.zeros((2, 2))) == 0.0
    assert max_row_norm(np.empty((0, 0))) == 0.0
    with pytest.raises(ValueError):
        max_row_norm(np.array([1.0, 2.0]))


def test_quadratic_residual_lossless_ladder_frozen():
    part = build_admittance(casegen.lossless_ladder_case())
    rep = quadratic_residual(part, np.array([0.05j]))
    # dv (conj(Y) conj(dv)) = 0.05j * (10j * -0.05j) = 0.05j * 0.5
    np.testing.assert_allclose(rep.s_hot, [0.025j], rtol=0, atol=1e-18)
    np.testing.assert_allclose(rep.p_hot, [0.0], rtol=0, atol=0)
    np.testing.assert_allclose(rep.q_hot, [0.025], rtol=0, atol=1e-18)
    assert rep.norm_p == 0.0
    assert rep.norm_q == pytest.approx(0.025, rel=1e-15)
    (bound,) = rep.bounds
    assert bound.name == "complex_power_quadratic"
    assert bound.satisfied
    # single-bus case: the bound is exactly tight
    assert bound.value == pytest.approx(bound.bound, rel=1e-14)


def test_dual_routes_agree_on_random_data():
    rng = np.random.default_rng(5)
    for _ in range(30):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        dv = rng.normal(0, 0.3, case.n) + 1j * rng.normal(0, 0.3, case.n)
        rep = quadratic_residual(part, dv)
        np.testing.assert_allclose(rep.p_hot + 1j * rep.q_hot, rep.s_hot,
                                   rtol=0,
                                   atol=1e-12 * (1 + np.abs(rep.s_hot).max()))


def test_corrupted_route_fails_the_cross_check(monkeypatch):
    # conj(Y)'s first entry off by 1e-6 relative: far above the roundoff of
    # the summed terms, so the routes must be reported as disagreeing
    rng = np.random.default_rng(17)
    part = build_admittance(casegen.fixed_feeder10())
    dv = rng.normal(0, 0.1, part.n) + 1j * rng.normal(0, 0.1, part.n)
    quadratic_residual(part, dv)
    corrupted = part.Y_conj.copy()
    corrupted.data[0] *= 1 + 1e-6
    monkeypatch.setitem(part.__dict__, "Y_conj", corrupted)
    with pytest.raises(InternalCheckError):
        quadratic_residual(part, dv)


def test_complex_injection_ladder_exact():
    part = build_admittance(casegen.lossless_ladder_case())
    s = complex_injection(part, np.array([1 + 0.05j]))
    # V (conj(Y V + Ybar)) = (1+0.05j) conj(-10j(1+0.05j) + 10j)
    np.testing.assert_allclose(s, [0.5 + 0.025j], rtol=0, atol=0)


def test_mismatch_equals_quadratic_term_for_full_solve():
    rng = np.random.default_rng(13)
    for _ in range(20):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        sol = prepare(part, case, "general", False)[1].solve(
            case.injection_targets()[0])
        mism = nonlinear_mismatch(part, sol.approx_voltage(), case)
        rep = quadratic_residual(part, sol.dv)
        s, _ = case.injection_targets()
        assert np.abs(mism - rep.s_hot).max() <= 1e-10 * (1 + np.abs(s).max())


def test_mismatch_identity_holds_for_arbitrary_perturbations():
    """The identity is algebraic: it holds for any dv, not just solutions."""
    rng = np.random.default_rng(19)
    for _ in range(20):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        n = case.n
        nominal = flat_nominal(n)
        direct = _direct_coefficient(part, nominal.V)
        dv = rng.normal(0, 0.2, n) + 1j * rng.normal(0, 0.2, n)
        implied = linear_injection(part, nominal, direct, dv)
        mism = complex_injection(part, nominal.V + dv) - implied
        rep = quadratic_residual(part, dv)
        scale = 1 + np.abs(implied).max()
        assert np.abs(mism - rep.s_hot).max() <= 1e-12 * scale


def test_verify_bounds_tight_for_single_entry():
    v = verify_bounds(np.array([0.3 - 0.4j]), np.array([[2 + 1j]]))
    assert v.both_hold
    assert v.quadratic_value == pytest.approx(v.quadratic_bound, rel=1e-14)
    assert v.linear_value == pytest.approx(v.linear_bound, rel=1e-14)


def random_row_orthogonal(rng, n):
    """A = diag(c) Q with unitary Q: spectral norm == max row norm.

    The linear row-norm inequality is not a theorem for arbitrary matrices
    (all-ones 2x2 against (1, 1) already breaks it); it holds exactly on
    this family, which contains every diagonal matrix, and holds there with
    equality attainable, so sweeps over it exercise the boundary.
    """
    c = rng.normal(0, 2, n) + 1j * rng.normal(0, 2, n)
    z = rng.normal(0, 1, (n, n)) + 1j * rng.normal(0, 1, (n, n))
    q, _ = np.linalg.qr(z)
    return c[:, None] * q


def test_linear_bound_fails_off_family():
    v = verify_bounds(np.ones(2, dtype=complex), np.ones((2, 2), complex))
    assert v.quadratic_value <= v.quadratic_bound * (1 + 1e-12)
    assert v.linear_value > v.linear_bound  # 2*sqrt(2) vs 2


def test_verify_bounds_random_sweep():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        x = rng.normal(0, 2, n) + 1j * rng.normal(0, 2, n)
        # quadratic inequality: any matrix at all
        a = rng.normal(0, 2, (n, n)) + 1j * rng.normal(0, 2, (n, n))
        v = verify_bounds(x, a)
        assert v.quadratic_value <= v.quadratic_bound * (1 + 1e-12)
        # both inequalities: the row-orthogonal family
        assert verify_bounds(x, random_row_orthogonal(rng, n)).both_hold


# Zero or magnitude in [1e-30, 1e6]: pairwise products then stay far above
# the subnormal range, where squaring inside a Euclidean norm loses relative
# accuracy and the comparisons would drown in underflow noise.
_finite = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-30, max_value=1e6),
    st.floats(min_value=-1e6, max_value=-1e-30))


@st.composite
def _vector_matrix(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    re = draw(hnp.arrays(float, (n,), elements=_finite))
    im = draw(hnp.arrays(float, (n,), elements=_finite))
    are = draw(hnp.arrays(float, (n, n), elements=_finite))
    aim = draw(hnp.arrays(float, (n, n), elements=_finite))
    return re + 1j * im, are + 1j * aim


@settings(max_examples=300, deadline=None)
@given(_vector_matrix())
def test_quadratic_row_norm_bound_property(pair):
    x, a = pair
    v = verify_bounds(x, a)
    assert v.quadratic_value <= v.quadratic_bound * (1 + 1e-12)


@st.composite
def _vector_diagonal(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    x = (draw(hnp.arrays(float, (n,), elements=_finite))
         + 1j * draw(hnp.arrays(float, (n,), elements=_finite)))
    c = (draw(hnp.arrays(float, (n,), elements=_finite))
         + 1j * draw(hnp.arrays(float, (n,), elements=_finite)))
    return x, np.diag(c)


@settings(max_examples=300, deadline=None)
@given(_vector_diagonal())
def test_both_bounds_hold_for_diagonal_matrices(pair):
    x, a = pair
    assert verify_bounds(x, a).both_hold


def test_zero_perturbation_gives_zero_residual():
    part = build_admittance(casegen.ladder_case())
    rep = quadratic_residual(part, np.zeros(1, dtype=complex))
    assert rep.norm_s == 0.0
    assert rep.bounds[0].satisfied
