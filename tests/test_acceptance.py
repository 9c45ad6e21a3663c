"""Acceptance suite: ten numbered criteria, one test per criterion.

Every run prints one PASS/FAIL line per criterion in the terminal summary
(hooked up in conftest).  Tolerances are pinned in the asserts; nothing
in here adapts to the data.
"""

import numpy as np
from click.testing import CliRunner

import casegen
from rectpf import (NewtonSettings, build_admittance,
                    build_lossless_system, complex_injection,
                    compute_noload_voltage,
                    decoupled_estimate, dump_case, flat_nominal,
                    jacobian_check,
                    linear_injection, nonlinear_mismatch, parse_case,
                    quadratic_residual, reactive_error_bound, save_case,
                    scale_power_injections, solve_classical_dc,
                    solve_distribution, solve_general, solve_lossless_flat,
                    solve_newton, solve_no_current_closed_form, verify_bounds)
from rectpf.cli import main
from rectpf.linearize import direct_coefficient
from test_residuals import random_row_orthogonal


def _flat_solution(case):
    part = build_admittance(case)
    sys = build_lossless_system(part)
    assert sys.conditions.overall
    return part, sys, solve_lossless_flat(sys, case.p_vector())


def test_c01_flat_solve_zeroes_active_power_error():
    rng = np.random.default_rng(10001)
    for _ in range(100):
        case = casegen.random_lossless_case(rng, pv_fraction=0.3)
        part, sys, sol = _flat_solution(case)
        rep = quadratic_residual(part, sol.dv)
        p = case.p_vector() + part.i_load.real
        assert rep.norm_p <= 1e-10 * (1 + np.linalg.norm(p))
        assert rep.norm_p == 0.0  # exact: every product keeps Re = 0
        mism = nonlinear_mismatch(part, sol.approx_voltage(), case)
        assert np.abs(mism.real).max() <= 1e-9
    print("criterion 01: flat solve has zero active-power error: PASS")


def test_c02_reactive_error_bound_holds_and_is_tight_on_ladder():
    rng = np.random.default_rng(10002)
    for _ in range(100):
        case = casegen.random_lossless_case(rng, pv_fraction=0.3)
        part, sys, sol = _flat_solution(case)
        rep = quadratic_residual(part, sol.dv)
        assert rep.norm_q <= reactive_error_bound(sys, sol) + 1e-12

    part, sys, sol = _flat_solution(casegen.lossless_ladder_case(p=0.5))
    rep = quadratic_residual(part, sol.dv)
    bound = reactive_error_bound(sys, sol)
    assert abs(rep.norm_q - 0.025) <= 1e-12
    assert abs(bound - 0.025) <= 1e-12
    print("criterion 02: reactive quadratic bound holds, tight on ladder: "
          "PASS")


def test_c03_classical_dc_recovery_and_shunt_conductance_gap():
    rng = np.random.default_rng(10003)
    for _ in range(50):
        case = casegen.random_lossless_case(rng, with_current=False)
        part, sys, sol = _flat_solution(case)
        theta = solve_classical_dc(part, case.p_vector())
        assert np.abs(sol.dv.imag - theta).max() <= 1e-12

    for _ in range(20):
        case = casegen.random_feeder_case(rng, with_shunt_g=True)
        part = build_admittance(case)
        assert np.abs(part.Ysh.real).max() > 0
        p = np.array([b.load.power.real for b in case.buses[:-1]])
        drop = solve_classical_dc(part, p)
        keep = solve_classical_dc(part, p, keep_shunt_conductance=True)
        gap = np.linalg.norm(drop - keep)
        ref = np.linalg.norm(np.linalg.solve(
            part.Y_csr.toarray().imag - np.diag(part.Ysh.imag),
            part.Ysh.real))
        assert abs(gap - ref) <= 1e-12 * (1 + ref)
    print("criterion 03: classical DC recovered from the flat solve: PASS")


def test_c04_zero_power_cases_are_solved_exactly():
    rng = np.random.default_rng(10004)
    for _ in range(25):
        case = casegen.random_feeder_case(rng, load_scale=0.0)
        part = build_admittance(case)

        closed = solve_distribution(part, case)
        assert np.abs(closed.dv).max() == 0.0
        nominal = compute_noload_voltage(part)
        general = solve_general(part, case, nominal)
        assert np.abs(general.dv).max() <= 1e-12
        for sol in (closed, general):
            mism = nonlinear_mismatch(part, sol.approx_voltage(), case)
            assert np.abs(mism).max() <= 1e-12

        res = solve_newton(part, case)
        assert res.converged and res.iterations <= 2
    print("criterion 04: zero-power cases return the nominal exactly: PASS")


def test_c05_mismatch_equals_quadratic_term_across_methods():
    rng = np.random.default_rng(10005)

    def full_identity(case, part, sol):
        s, _ = case.injection_targets()
        mism = nonlinear_mismatch(part, sol.approx_voltage(), case)
        rep = quadratic_residual(part, sol.dv)
        tol = 1e-10 * (1 + np.abs(s).max())
        assert np.abs(mism - rep.s_hot).max() <= tol

    def active_identity(case, part, dv):
        s, _ = case.injection_targets()
        v = flat_nominal(part.n).V + dv
        mism = nonlinear_mismatch(part, v, case)
        rep = quadratic_residual(part, dv)
        tol = 1e-10 * (1 + np.abs(s).max())
        assert np.abs(mism.real - rep.s_hot.real).max() <= tol

    for _ in range(60):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        full_identity(case, part, solve_general(part, case))
    for _ in range(50):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        full_identity(case, part, solve_distribution(part, case))
    for _ in range(40):
        case = casegen.random_feeder_case(rng, with_current=False)
        part = build_admittance(case)
        s, _ = case.injection_targets()
        sol = solve_no_current_closed_form(part, s)
        full_identity(case, part, sol)
    for _ in range(30):
        case = casegen.random_lossless_case(rng, pv_fraction=0.3)
        part, sys, sol = _flat_solution(case)
        active_identity(case, part, sol.dv)
    for _ in range(20):
        case = casegen.random_lossless_case(rng, with_current=False)
        part, sys, _ = _flat_solution(case)
        theta = solve_classical_dc(part, case.p_vector())
        active_identity(case, part, 1j * theta)
    # the decoupled estimate does not satisfy the linear rows, so it is
    # checked against its own implied injection (the identity is algebraic
    # in dv, not a property of any particular solve)
    for _ in range(20):
        case = casegen.random_feeder_case(rng, with_current=False)
        part = build_admittance(case)
        s, _ = case.injection_targets()
        nominal = compute_noload_voltage(part)
        est = decoupled_estimate(part, nominal, s)
        dv = est.v_mag * np.exp(1j * est.theta) - nominal.V
        direct = direct_coefficient(part, nominal.V)
        implied = linear_injection(part, nominal, direct, dv)
        mism = complex_injection(part, nominal.V + dv) - implied
        rep = quadratic_residual(part, dv)
        assert np.abs(mism - rep.s_hot).max() <= \
            1e-10 * (1 + np.abs(implied).max())
    print("criterion 05: mismatch equals the quadratic term for every "
          "method: PASS")


def test_c06_no_current_closed_form_matches_general_closed_form():
    rng = np.random.default_rng(10006)
    for _ in range(50):
        case = casegen.random_feeder_case(rng, with_current=False)
        part = build_admittance(case)
        s, _ = case.injection_targets()
        special = solve_no_current_closed_form(part, s)
        general = solve_distribution(part, case)
        assert np.abs(special.nominal.V - general.nominal.V).max() <= 1e-12
        assert np.abs(special.approx_voltage()
                      - general.approx_voltage()).max() <= 1e-12
    print("criterion 06: zero-current closed form matches the no-load "
          "profile: PASS")


def test_c07_linearization_error_is_quadratic_in_loading():
    case = casegen.fixed_feeder10()
    part = build_admittance(case)
    alphas = [1.0, 0.5, 0.25, 0.125]
    ratios = []
    shot_norms = []
    for alpha in alphas:
        scaled = scale_power_injections(case, alpha)
        sol = solve_distribution(part, scaled)
        newton = solve_newton(part, scaled)
        assert newton.converged
        err = np.linalg.norm(sol.approx_voltage() - newton.voltage)
        ratios.append(err / alpha ** 2)
        shot_norms.append(quadratic_residual(part, sol.dv).norm_s)
    for r_prev, r_next in zip(ratios, ratios[1:]):
        assert r_next / r_prev < 4.0
        assert r_prev / r_next < 4.0
    # the quadratic term itself scales exactly: halving is lossless in
    # binary floating point, so these are bitwise alpha^2 multiples
    for alpha, norm in zip(alphas, shot_norms):
        assert abs(norm - alpha ** 2 * shot_norms[0]) \
            <= 1e-12 * shot_norms[0]
    print("criterion 07: voltage error shrinks quadratically with "
          "loading: PASS")


def test_c08_row_norm_inequalities_and_residual_dominance():
    rng = np.random.default_rng(10008)
    # 10,000 trials on families where the linear inequality is a theorem
    # (row-scaled unitary and diagonal matrices; for arbitrary matrices
    # only the quadratic inequality holds, see the counterexample test)
    for trial in range(10_000):
        n = int(rng.integers(1, 9))
        x = rng.normal(0, 2, n) + 1j * rng.normal(0, 2, n)
        if trial % 2:
            a = np.diag(rng.normal(0, 2, n) + 1j * rng.normal(0, 2, n))
        else:
            a = random_row_orthogonal(rng, n)
        assert verify_bounds(x, a).both_hold
    for _ in range(2_000):
        n = int(rng.integers(1, 9))
        x = rng.normal(0, 2, n) + 1j * rng.normal(0, 2, n)
        a = rng.normal(0, 2, (n, n)) + 1j * rng.normal(0, 2, (n, n))
        v = verify_bounds(x, a)
        assert v.quadratic_value <= v.quadratic_bound * (1 + 1e-12)

    for _ in range(30):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        rep = quadratic_residual(part, solve_distribution(part, case).dv)
        check = rep.bounds[0]
        assert check.satisfied
        assert check.value <= check.bound + 1e-12
    print("criterion 08: row-norm inequalities and residual dominance "
          "hold: PASS")


def test_c09_newton_oracle_is_sound():
    rng = np.random.default_rng(10009)
    cases = [casegen.random_feeder_case(rng) for _ in range(12)]
    cases += [casegen.random_lossless_case(rng, pv_fraction=0.5,
                                           newton_ready=True)
              for _ in range(8)]
    for case in cases:
        part = build_admittance(case)
        res = solve_newton(part, case, NewtonSettings(max_iterations=40))
        assert res.converged
        mism = nonlinear_mismatch(part, res.voltage, case)
        _, q_known = case.injection_targets()
        assert np.abs(mism.real).max() <= 1e-10
        if q_known.any():
            assert np.abs(mism.imag[q_known]).max() <= 1e-10
        for bus in case.buses:
            if bus.pv_setpoint is not None:
                v = res.voltage[bus.id - 1]
                assert abs(abs(v) - bus.pv_setpoint.v_mag) <= 1e-10
        assert jacobian_check(part, case, res.voltage) <= 1e-6
    print("criterion 09: Newton oracle consistent with its Jacobian: PASS")


def test_c10_reports_are_deterministic_and_round_trips_are_lossless(
        tmp_path):
    runner = CliRunner()
    path = tmp_path / "feeder.yaml"
    save_case(casegen.fixed_feeder10(), path)

    for fmt in ("table", "csv", "json"):
        args = ["solve", str(path), "--oracle", "--format", fmt]
        outs = {runner.invoke(main, args).stdout for _ in range(3)}
        assert len(outs) == 1

    res = runner.invoke(main, ["solve", str(path), "--format", "csv"])
    assert res.stdout.splitlines()[0] == \
        "bus,v_nom_re,v_nom_im,dv_re,dv_im,vmag,theta_deg,p_hot,q_hot"
    res = runner.invoke(main, ["solve", str(path), "--oracle",
                               "--format", "csv"])
    assert res.stdout.splitlines()[0] == \
        ("bus,v_nom_re,v_nom_im,dv_re,dv_im,vmag,theta_deg,p_hot,q_hot,"
         "v_oracle_re,v_oracle_im,abs_err")

    rng = np.random.default_rng(10010)
    for _ in range(10):
        case = casegen.random_feeder_case(rng)
        assert parse_case(dump_case(case)).branches == case.branches
    for _ in range(10):
        case = casegen.random_lossless_case(rng, pv_fraction=0.3)
        assert parse_case(dump_case(case)) == case
    print("criterion 10: deterministic reports, exact headers, lossless "
          "round trips: PASS")
