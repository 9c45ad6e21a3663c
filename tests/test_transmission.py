"""Lossless flat-profile solve, its reactive bound, classical DC recovery."""

import numpy as np
import pytest

import casegen
from reference_case import build_case, csr
from rectpf import (Branch, Bus, SlackVoltage, SolverError, ZipLoad,
                    build_admittance, nonlinear_mismatch, prepare,
                    quadratic_residual)
from rectpf.transmission import _im_coeff, flat_conditions


def _lossless_pipeline(case):
    part = build_admittance(case)
    model = prepare(part, case, "lossless", False)[1]
    return (part, model, flat_conditions(part),
            model.solve(case.injection_targets()[0]))


def _reactive_bound(model, sol):
    return model.parts.reactive_bound * float(
        np.linalg.norm(sol.dv.imag)) ** 2


def _dc(part, case, p):
    return prepare(part, case, "dc", False)[1].solve(p).dv.imag


def test_lossy_network_rejected():
    case = casegen.ladder_case()   # series 1-5j has conductance
    part = build_admittance(case)
    with pytest.raises(SolverError) as exc:
        prepare(part, case, "lossless", False)
    assert exc.value.code == "LOSSY_NETWORK"


def test_non_unity_slack_rejected():
    case = build_case(
        (Bus(1, "zip", ZipLoad(power=0.5 + 0j)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.02, 0.0))),
        (Branch(1, 2, -10j),))
    part = build_admittance(case)
    with pytest.raises(SolverError) as exc:
        prepare(part, case, "lossless", False)
    assert exc.value.code == "SLACK_NOT_UNITY"


def test_ladder_system_frozen():
    case = casegen.lossless_ladder_case(p=0.5)
    part = build_admittance(case)
    np.testing.assert_allclose(part.Y_csr.imag.toarray(), [[-10.0]],
                               rtol=0, atol=0)
    np.testing.assert_allclose(part.Ysh.imag, [0.0], rtol=0, atol=0)
    np.testing.assert_allclose(csr(_im_coeff(part)).toarray(), [[10.0]],
                               rtol=0, atol=0)


def test_ladder_conditions_and_solution_frozen():
    case = casegen.lossless_ladder_case(p=0.5)
    part, model, conds, sol = _lossless_pipeline(case)
    np.testing.assert_allclose(conds.lhs, [10.0], rtol=0, atol=0)
    np.testing.assert_allclose(conds.rhs, [0.0], rtol=0, atol=0)
    assert conds.overall
    assert conds.violated_buses() == ()
    np.testing.assert_allclose(sol.dv, [0.05j], rtol=0, atol=0)
    rep = quadratic_residual(part, sol.dv)
    np.testing.assert_allclose(rep.p_hot, [0.0], rtol=0, atol=0)
    np.testing.assert_allclose(rep.q_hot, [0.025], rtol=0, atol=1e-17)
    bound = _reactive_bound(model, sol)
    assert bound == pytest.approx(0.025, abs=1e-15)
    assert rep.norm_q <= bound + 1e-12


def test_single_bus_current_cancellation_fails_strictness():
    # Im(I_L) = -10 makes the lhs exactly zero; the rhs row is empty, so
    # weak dominance survives but strictness cannot, and the solve refuses.
    case = build_case(
        (Bus(1, "zip", ZipLoad(current=-10j, power=0.5 + 0j)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, -10j),))
    part = build_admittance(case)
    conds = flat_conditions(part)
    np.testing.assert_allclose(conds.lhs, [0.0], rtol=0, atol=0)
    np.testing.assert_allclose(conds.rhs, [0.0], rtol=0, atol=0)
    assert conds.weak.all()
    assert not conds.strict.any()
    assert not conds.overall
    assert conds.violated_buses() == ()
    with pytest.raises(SolverError) as exc:
        _lossless_pipeline(case)
    assert exc.value.code == "FLAT_CONDITIONS_VIOLATED"


def test_weak_violation_and_override():
    # chain 1-2-slack, beta12 = 1, beta2s = 2, with Im(I_L) at bus 1 chosen
    # inside the cancellation window: lhs = |-1 - (-0.5)| = 0.5 < rhs = 1
    case = build_case(
        (Bus(1, "zip", ZipLoad(current=-0.5j, power=0.3 + 0j)),
         Bus(2, "zip", ZipLoad(power=-0.2 + 0j)),
         Bus(3, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, -1j), Branch(2, 3, -2j)))
    part = build_admittance(case)
    conds = flat_conditions(part)
    assert not conds.weak[0]
    assert conds.violated_buses() == (1,)
    assert not conds.overall
    with pytest.raises(SolverError) as exc:
        _lossless_pipeline(case)
    assert exc.value.code == "FLAT_CONDITIONS_VIOLATED"
    model = prepare(part, case, "lossless", True)[1]
    sol = model.solve(case.injection_targets()[0])
    assert not model.parts.flags["flat_profile_conditions"]
    # the override really solved the stated system
    rhs = case.p_vector() + part.i_load.real
    im_coeff = csr(_im_coeff(part)).toarray()
    np.testing.assert_allclose(im_coeff @ sol.dv.imag, rhs,
                               rtol=0, atol=1e-14)


def test_random_cases_active_residual_vanishes():
    rng = np.random.default_rng(37)
    for _ in range(30):
        case = casegen.random_lossless_case(rng, pv_fraction=0.4)
        part, model, conds, sol = _lossless_pipeline(case)
        assert conds.overall
        rep = quadratic_residual(part, sol.dv)
        # with G = 0 and dRe = 0 the active quadratic term is identically 0
        assert rep.norm_p == 0.0
        mism = nonlinear_mismatch(part, sol.approx_voltage(), case)
        assert np.abs(mism.real).max() <= 1e-9
        assert rep.norm_q <= _reactive_bound(model, sol) + 1e-12


def test_dc_equals_flat_imaginary_part_without_currents_or_shunt_g():
    rng = np.random.default_rng(43)
    for _ in range(20):
        case = casegen.random_lossless_case(rng, with_current=False)
        part, model, conds, sol = _lossless_pipeline(case)
        theta = _dc(part, case, case.p_vector())
        assert np.abs(sol.dv.imag - theta).max() <= 1e-12


def test_dc_ladder_frozen():
    case = casegen.lossless_ladder_case(p=0.5)
    part = build_admittance(case)
    theta = _dc(part, case, np.array([0.5]))
    np.testing.assert_allclose(theta, [0.05], rtol=0, atol=1e-16)


def test_dc_shunt_conductance_variants_differ_by_known_vector():
    rng = np.random.default_rng(47)
    for _ in range(10):
        case = casegen.random_feeder_case(rng, with_shunt_g=True)
        part = build_admittance(case)
        assert np.abs(part.Ysh.real).max() > 0
        p = case.p_vector()
        t_drop = _dc(part, case, p)
        t_keep = _dc(part, case, p - part.Ysh.real)
        expected = np.linalg.solve(
            part.Y_csr.toarray().imag - np.diag(part.Ysh.imag),
            part.Ysh.real)
        got = np.linalg.norm(t_drop - t_keep)
        assert abs(got - np.linalg.norm(expected)) <= 1e-12


def test_dc_singular_on_resistive_network():
    case = build_case(
        (Bus(1, "zip", ZipLoad(power=-0.1 + 0j)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 2 + 0j),))
    part = build_admittance(case)
    with pytest.raises(SolverError) as exc:
        _dc(part, case, case.p_vector())
    assert exc.value.code == "SINGULAR_B"


def test_slack_angle_zero_but_magnitude_off_rejected():
    case = build_case(
        (Bus(1, "zip", ZipLoad(power=0.1 + 0j)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 1e-6))),
        (Branch(1, 2, -4j),))
    part = build_admittance(case)
    with pytest.raises(SolverError) as exc:
        prepare(part, case, "lossless", False)
    assert exc.value.code == "SLACK_NOT_UNITY"
