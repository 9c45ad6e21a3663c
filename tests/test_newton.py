"""Newton-Raphson reference solver and its finite-difference self-check."""

import numpy as np
import pytest

import casegen
from reference_case import build_case
from rectpf import (Branch, Bus, NewtonSettings, PvSetpoint, SlackVoltage,
                    SolverError, ZipLoad, build_admittance, jacobian_check,
                    nonlinear_mismatch, solve_newton)


def test_converges_on_ladder():
    case = casegen.ladder_case(power=-0.1 - 0.05j)
    part = build_admittance(case)
    res = solve_newton(part, case)
    assert res.converged
    assert res.iterations <= 10
    assert res.final_mismatch <= 1e-10
    mism = nonlinear_mismatch(part, res.voltage, case)
    assert np.abs(mism).max() <= 1e-10


def test_converged_voltage_satisfies_case_equations():
    rng = np.random.default_rng(101)
    for _ in range(15):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        res = solve_newton(part, case)
        assert res.converged
        mism = nonlinear_mismatch(part, res.voltage, case)
        assert np.abs(mism).max() <= 1e-10


def test_pv_bus_holds_magnitude_and_active_power():
    case = build_case(
        (Bus(1, "zip", ZipLoad(power=-0.3 - 0.15j)),
         Bus(2, "pv", pv_setpoint=PvSetpoint(p=0.25, v_mag=1.02)),
         Bus(3, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 2 - 6j), Branch(2, 3, 3 - 8j), Branch(1, 3, 1 - 4j)))
    part = build_admittance(case)
    res = solve_newton(part, case)
    assert res.converged
    assert abs(abs(res.voltage[1]) - 1.02) <= 1e-10
    mism = nonlinear_mismatch(part, res.voltage, case)
    _, q_known = case.injection_targets()
    assert np.abs(mism.real).max() <= 1e-10
    assert np.abs(mism.imag[q_known]).max() <= 1e-10


def test_zero_power_case_needs_no_iterations():
    rng = np.random.default_rng(103)
    case = casegen.random_feeder_case(rng, load_scale=0.0)
    part = build_admittance(case)
    res = solve_newton(part, case)
    assert res.converged
    assert res.iterations == 0
    assert res.final_mismatch <= 1e-12


def test_iteration_cap_returns_unconverged():
    case = casegen.ladder_case(power=-0.3 - 0.2j)
    part = build_admittance(case)
    res = solve_newton(part, case,
                       NewtonSettings(tolerance=1e-14, max_iterations=1))
    assert not res.converged
    assert res.iterations == 1
    assert np.isfinite(res.final_mismatch)


def test_singular_jacobian_raised():
    # the current load cancels the slack's source, so the no-load voltage
    # is zero and Newton starts flat; there the load's magnitude matches
    # the branch admittance's and zeroes one column of the Jacobian
    # exactly: direct = -conj(I_L) and cross = conj(y) have equal
    # magnitude, so the real block loses rank
    case = build_case(
        (Bus(1, "zip", ZipLoad(current=-1 + 5j, power=0.1 + 0j)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 5j),))
    part = build_admittance(case)
    with pytest.raises(SolverError) as exc:
        solve_newton(part, case)
    assert exc.value.code == "SINGULAR_JACOBIAN"


def test_settings_validation():
    with pytest.raises(ValueError):
        NewtonSettings(tolerance=0.0)
    with pytest.raises(ValueError):
        NewtonSettings(max_iterations=0)
    with pytest.raises(ValueError):
        NewtonSettings(max_iterations=2.5)
    # a bool is not a number here, as in case files
    with pytest.raises(ValueError):
        NewtonSettings(max_iterations=True)
    with pytest.raises(ValueError):
        NewtonSettings(tolerance=True)


def test_quadratic_convergence_of_iterates():
    """Mismatch decays at least quadratically near the solution."""
    case = casegen.fixed_feeder10()
    part = build_admittance(case)
    mismatches = []
    for cap in (1, 2, 3):
        res = solve_newton(
            part, case, NewtonSettings(tolerance=1e-300, max_iterations=cap))
        mismatches.append(res.final_mismatch)
    # each extra iteration should square the error scale, give or take
    assert mismatches[1] <= mismatches[0] ** 2 * 1e3
    assert mismatches[2] <= max(mismatches[1] ** 2 * 1e3, 5e-16)


def test_jacobian_check_on_random_cases():
    rng = np.random.default_rng(107)
    for _ in range(8):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        n = case.n
        v = (rng.normal(1, 0.05, n) + 1j * rng.normal(0, 0.05, n))
        dev = jacobian_check(part, case, v)
        assert dev <= 1e-6


def test_jacobian_check_with_pv_rows():
    rng = np.random.default_rng(109)
    for _ in range(5):
        case = casegen.random_lossless_case(rng, pv_fraction=0.5)
        part = build_admittance(case)
        n = case.n
        v = (rng.normal(1, 0.05, n) + 1j * rng.normal(0, 0.05, n))
        assert jacobian_check(part, case, v) <= 1e-6


def test_jacobian_check_fd_is_near_exact():
    """All residual rows are quadratic: central differences are exact to
    roundoff, so the deviation is orders below the acceptance threshold."""
    case = casegen.fixed_feeder10()
    part = build_admittance(case)
    v = np.ones(case.n, dtype=complex) * (0.98 - 0.01j)
    assert jacobian_check(part, case, v) <= 1e-9
