"""The decoupled estimate: its own method tag and tolerant assumption flags."""

import numpy as np

import casegen
from rectpf import (NominalVoltage, build_admittance, decoupled_estimate,
                    prepare)
from rectpf.distribution import FLAT_ANGLE_TOL, ZERO_SUSCEPTANCE_TOL


def test_decoupled_solution_is_not_a_closed_form():
    case = casegen.fixed_feeder10()
    part = build_admittance(case)
    s = case.injection_targets()[0]
    sol = prepare(part, case, "decoupled", False)[1].solve(s)
    closed = prepare(part, case, "noload", False)[1].solve(s)
    assert np.abs(sol.dv - closed.dv).max() > 1e-6


def test_roundoff_angle_reads_flat():
    # dense LU returned this no-load voltage on the 2-bus ladder
    case = casegen.ladder_case()
    part = build_admittance(case)
    nominal = NominalVoltage(np.array([1 - 2.8e-17j]))
    s, _ = case.injection_targets()
    est = decoupled_estimate(part, nominal, s)
    assert 0.0 < est.max_nominal_angle <= FLAT_ANGLE_TOL
    assert est.flags["decoupled_assumption_flat_angles"] is True
    assert est.flags["decoupled_assumption_b_zero"] is False


def test_flags_read_the_documented_tolerances():
    case = casegen.ladder_case(series=1 - 0.5e-9j)
    part = build_admittance(case)
    s, _ = case.injection_targets()
    tilted = NominalVoltage(np.array([np.exp(2e-12j)]))
    est = decoupled_estimate(part, tilted, s)
    assert est.susceptance_norm <= ZERO_SUSCEPTANCE_TOL
    assert est.flags == {"decoupled_assumption_b_zero": True,
                         "decoupled_assumption_flat_angles": False}
