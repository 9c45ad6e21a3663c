"""Linear perturbation model: coefficients, 2N solve, no-load closed form."""

import numpy as np
import pytest
from scipy import sparse

import casegen
from reference_case import build_case
from rectpf import (NominalVoltage, SolverError, build_admittance,
                    compute_noload_voltage, flat_nominal, linear_injection,
                    prepare)
from rectpf.linearize import (_direct_coefficient, _real_block_matrix,
                              prepare_general, prepare_noload)
from rectpf.netmodel import (Branch, Bus, PvSetpoint, SlackVoltage,
                             ZipLoad)


def _direct_for(case, nominal=None):
    part = build_admittance(case)
    if nominal is None:
        nominal = flat_nominal(part.n)
    return part, nominal, _direct_coefficient(part, nominal.V)


def test_coefficients_vanish_at_flat_lossless_ladder():
    case = casegen.lossless_ladder_case()
    part, nominal, direct = _direct_for(case)
    np.testing.assert_allclose(direct, [0j], rtol=0, atol=0)
    np.testing.assert_allclose(-nominal.V * direct, [0j], rtol=0, atol=0)
    cross = sparse.diags_array(nominal.V) @ part.Y_csr.conj()
    np.testing.assert_allclose(cross.toarray(), [[10j]], rtol=0, atol=0)
    block = sparse.csc_array(_real_block_matrix(part, nominal.V, direct),
                             shape=(2, 2))
    np.testing.assert_allclose(block.toarray(), [[0, 10], [10, 0]],
                               rtol=0, atol=0)


def test_offset_identity_at_random_nominal():
    rng = np.random.default_rng(3)
    for _ in range(10):
        case = casegen.random_feeder_case(rng)
        n = case.n
        v0 = NominalVoltage(rng.normal(1, 0.1, n) + 1j * rng.normal(0, 0.1, n))
        part, _, direct = _direct_for(case, v0)
        # the model's constant term, read at dv = 0, is -offset
        offset = -linear_injection(part, v0, direct, np.zeros(n))
        np.testing.assert_allclose(offset, -v0.V * direct, rtol=0, atol=0)


def test_general_2n_lossless_ladder_frozen():
    case = casegen.lossless_ladder_case(p=0.5)
    part, nominal, _ = _direct_for(case)
    parts = prepare_general(part, nominal)
    sol = parts.solve(np.array([0.5 + 0j]))
    np.testing.assert_allclose(sol.dv, [0.05j], rtol=0, atol=1e-15)
    assert parts.condition is not None
    np.testing.assert_allclose(sol.approx_voltage(), [1 + 0.05j],
                               rtol=0, atol=1e-15)


def test_noload_voltage_ladder_is_unity():
    case = casegen.ladder_case()
    part = build_admittance(case)
    nom = compute_noload_voltage(part)
    np.testing.assert_allclose(nom.V, [1 + 0j], rtol=0, atol=1e-15)


def test_noload_closed_form_ladder_frozen():
    case = casegen.ladder_case(power=-0.1 - 0.05j)
    part = build_admittance(case)
    sol = prepare_noload(part).solve(np.array([-0.1 - 0.05j]))
    expected = (-0.35 - 0.45j) / 26
    np.testing.assert_allclose(sol.dv, [expected], rtol=1e-14, atol=0)


def test_noload_voltage_matches_independent_nodal_solve():
    rng = np.random.default_rng(17)
    for _ in range(15):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        nom = compute_noload_voltage(part)
        full = casegen.oracle_full_matrix(case)
        n = case.n
        i_l = np.array([b.load.current for b in case.non_slack])
        rhs = i_l - full[:n, n] * case.v_slack
        expected = np.linalg.solve(full[:n, :n], rhs)
        np.testing.assert_allclose(nom.V, expected, rtol=1e-11, atol=1e-13)


def test_closed_form_equals_general_2n_at_noload_nominal():
    rng = np.random.default_rng(29)
    for _ in range(20):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        nom = compute_noload_voltage(part)
        s, _ = case.injection_targets()
        a = prepare_general(part, nom).solve(s)
        b = prepare_noload(part).solve(s)
        assert np.abs(a.dv - b.dv).max() <= 1e-10


def test_homogeneous_rhs_gives_zero_perturbation():
    rng = np.random.default_rng(41)
    case = casegen.random_feeder_case(rng)
    n = case.n
    v0 = NominalVoltage(rng.normal(1, 0.1, n) + 1j * rng.normal(0, 0.1, n))
    part, _, direct = _direct_for(case, v0)
    sol = prepare_general(part, v0).solve(v0.V * direct)
    np.testing.assert_allclose(sol.dv, np.zeros(n), rtol=0, atol=0)


def test_linear_model_rows_are_satisfied():
    rng = np.random.default_rng(59)
    for _ in range(20):
        case = casegen.random_feeder_case(rng)
        n = case.n
        v0 = NominalVoltage(rng.normal(1, 0.05, n)
                            + 1j * rng.normal(0, 0.05, n))
        part, _, direct = _direct_for(case, v0)
        s, _ = case.injection_targets()
        sol = prepare_general(part, v0).solve(s)
        cross_dv = v0.V * (part.Y_csr.conj() @ sol.dv.conj())
        offset = -v0.V * direct
        resid = (direct * sol.dv + cross_dv - (s + offset))
        assert np.abs(resid).max() <= 1e-10 * (1 + np.abs(s).max())
        # the helper computes the same thing shifted by the target
        np.testing.assert_allclose(
            linear_injection(part, v0, direct, sol.dv) - s,
            resid, rtol=0, atol=1e-15)


def test_solve_general_rejects_pv():
    case = build_case(
        (Bus(1, "pv", pv_setpoint=PvSetpoint(p=0.2, v_mag=1.0)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 4j),))
    part = build_admittance(case)
    with pytest.raises(SolverError) as exc:
        prepare(part, case, "general", False)[1].solve(
            case.injection_targets()[0])
    assert exc.value.code == "PV_UNSUPPORTED_IN_GENERAL"


def test_solve_general_defaults_to_flat():
    case = casegen.ladder_case()
    part = build_admittance(case)
    sol = prepare(part, case, "general", False)[1].solve(
        case.injection_targets()[0])
    assert (sol.nominal.V == 1).all()
    # flat == no-load for this network, so the closed form must agree
    ref = prepare_noload(part).solve(np.array([-0.1 - 0.05j]))
    assert np.abs(sol.dv - ref.dv).max() <= 1e-12


def test_singular_y_detected():
    # bus shunt cancels the series term exactly: Y == [[0]]
    case = build_case(
        (Bus(1, "zip", ZipLoad(shunt_admittance=-1 + 5j)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 5j),))
    part = build_admittance(case)
    assert part.Y_csr.toarray()[0, 0] == 0
    with pytest.raises(SolverError) as exc:
        compute_noload_voltage(part)
    assert exc.value.code == "SINGULAR_Y"


def test_zero_noload_voltage_detected():
    # constant-current load exactly absorbs the slack in-feed
    case = build_case(
        (Bus(1, "zip", ZipLoad(current=-1 + 5j)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 5j),))
    part = build_admittance(case)
    with pytest.raises(SolverError) as exc:
        compute_noload_voltage(part)
    assert exc.value.code == "ZERO_NOLOAD_VOLTAGE"


def test_nonfinite_noload_voltage_detected():
    # the current load divided by a branch admittance below one overflows
    case = build_case(
        (Bus(1, "zip", ZipLoad(current=1e308j)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 0.1 - 0.5j),))
    part = build_admittance(case)
    with pytest.raises(SolverError) as exc:
        compute_noload_voltage(part)
    assert exc.value.code == "NONFINITE_NOLOAD_VOLTAGE"


def test_nominal_validation():
    with pytest.raises(ValueError):
        NominalVoltage(np.array([[1.0 + 0j]]))
    with pytest.raises(ValueError):
        NominalVoltage(np.array([np.nan + 0j]))


def test_coefficients_reject_wrong_length():
    case = casegen.ladder_case()
    part = build_admittance(case)
    with pytest.raises(ValueError):
        prepare_general(part, flat_nominal(3))


def test_block_matrix_equals_numeric_jacobian_of_injection():
    """The 2N block matrix is the derivative of the injection map."""
    from rectpf import complex_injection

    rng = np.random.default_rng(71)
    case = casegen.random_feeder_case(rng, n_min=3, n_max=6)
    part = build_admittance(case)
    n = case.n
    v0 = NominalVoltage(rng.normal(1, 0.05, n) + 1j * rng.normal(0, 0.05, n))
    direct = _direct_coefficient(part, v0.V)
    block = sparse.csc_array(_real_block_matrix(part, v0.V, direct),
                             shape=(2 * n, 2 * n)).toarray()
    step = 1e-6
    fd = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        x = np.zeros(2 * n)
        x[j] = step
        dv = x[:n] + 1j * x[n:]
        s_plus = complex_injection(part, v0.V + dv)
        s_minus = complex_injection(part, v0.V - dv)
        col = (s_plus - s_minus) / (2 * step)
        fd[:n, j] = col.real
        fd[n:, j] = col.imag
    assert np.abs(block - fd).max() <= 1e-7 * max(1.0, np.abs(block).max())
