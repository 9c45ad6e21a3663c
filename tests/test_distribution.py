"""Distribution closed form, P/Q coupling split, decoupled estimates."""

import dataclasses

import numpy as np
import pytest
from click.testing import CliRunner

import casegen
import rectpf
from reference_case import build_case
from rectpf import (Branch, Bus, InternalCheckError, PvSetpoint,
                    SlackVoltage, SolverError, ZipLoad,
                    build_admittance, coupling_decomposition,
                    decoupled_estimate, nonlinear_mismatch, prepare,
                    quadratic_residual, run_pipeline,
                    save_case, solve_no_current_closed_form)
from rectpf.cli import main
from rectpf.distribution import prepare_no_current


def _noload(part, case):
    return prepare(part, case, "noload", False)[1].solve(
        case.injection_targets()[0])


def test_ladder_closed_form_frozen():
    case = casegen.ladder_case(power=-0.1 - 0.05j)
    part = build_admittance(case)
    sol = _noload(part, case)
    expected = (-0.35 - 0.45j) / 26
    np.testing.assert_allclose(sol.dv, [expected], rtol=1e-14)
    np.testing.assert_allclose(sol.nominal.V, [1 + 0j], rtol=0, atol=1e-15)
    assert run_pipeline(case, method="noload").flags["noload_structure"]


def test_rejects_pv_bus():
    case = build_case(
        (Bus(1, "pv", pv_setpoint=PvSetpoint(p=0.3, v_mag=1.0)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 4j),))
    part = build_admittance(case)
    with pytest.raises(SolverError) as exc:
        _noload(part, case)
    assert exc.value.code == "NON_ZIP_BUS_PRESENT"


def test_coupling_terms_sum_to_full_perturbation():
    rng = np.random.default_rng(67)
    for _ in range(20):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        sol = _noload(part, case)
        s, _ = case.injection_targets()
        terms = coupling_decomposition(part, s)
        assert np.abs(terms.dv - sol.dv).max() <= 1e-11 * (1 + np.abs(sol.dv).max())


def test_coupling_matches_the_dense_formulas():
    rng = np.random.default_rng(71)
    for _ in range(20):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        sol = _noload(part, case)
        s, _ = case.injection_targets()
        terms = coupling_decomposition(part, s)
        z = np.linalg.inv(part.Y_csr.toarray())
        vmag, theta = np.abs(sol.nominal.V), np.angle(sol.nominal.V)
        dc, ds = np.cos(theta) / vmag, np.sin(theta) / vmag
        a = z.real * dc - z.imag * ds
        c = z.imag * dc + z.real * ds
        dense = {"re_from_p": a @ s.real, "re_from_q": c @ s.imag,
                 "im_from_p": c @ s.real, "im_from_q": -(a @ s.imag)}
        scale = max(np.abs(v).max() for v in dense.values())
        for name, expected in dense.items():
            gap = np.abs(getattr(terms, name) - expected).max()
            assert gap <= 1e-10 * scale, name


def test_coupling_cross_terms_vanish_for_resistive_flat_network():
    # pure resistance and zero-angle slack: X = 0, theta = 0, so P moves
    # only the real part and Q only the imaginary part
    case = build_case(
        (Bus(1, "zip", ZipLoad(power=-0.2 - 0.1j)),
         Bus(2, "zip", ZipLoad(power=-0.1 + 0.05j)),
         Bus(3, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 4 + 0j), Branch(2, 3, 5 + 0j)))
    part = build_admittance(case)
    sol = _noload(part, case)
    s, _ = case.injection_targets()
    terms = coupling_decomposition(part, s)
    np.testing.assert_allclose(terms.re_from_q, 0, atol=1e-15)
    np.testing.assert_allclose(terms.im_from_p, 0, atol=1e-15)
    np.testing.assert_allclose(terms.re_from_p, sol.dv.real, atol=1e-13)
    np.testing.assert_allclose(terms.im_from_q, sol.dv.imag, atol=1e-13)


def test_decoupled_estimate_exact_for_resistive_flat_network():
    case = build_case(
        (Bus(1, "zip", ZipLoad(power=-0.2 - 0.1j)),
         Bus(2, "zip", ZipLoad(power=-0.1 + 0.05j)),
         Bus(3, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 4 + 0j), Branch(2, 3, 5 + 0j)))
    part = build_admittance(case)
    sol = _noload(part, case)
    s, _ = case.injection_targets()
    est = decoupled_estimate(part, sol.nominal, s)
    assert est.susceptance_norm == 0.0
    assert est.max_nominal_angle == 0.0
    # under the decoupled assumptions the estimates equal the closed form's
    # own components: magnitude carries exactly Re dv, angle exactly Im dv
    np.testing.assert_allclose(est.v_mag, np.abs(sol.nominal.V) + sol.dv.real,
                               atol=1e-14)
    np.testing.assert_allclose(est.theta,
                               np.angle(sol.nominal.V) + sol.dv.imag,
                               atol=1e-14)
    # the polar reconstruction differs from the full profile only at second
    # order in the perturbation
    v_full = sol.approx_voltage()
    assert np.abs(est.v_mag * np.exp(1j * est.theta) - v_full).max() < 0.01


def test_decoupled_estimate_degrades_with_reactance():
    """Same |Y| entries, but inductive: the estimate must be much worse."""
    def feeder(series):
        return build_case(
            (Bus(1, "zip", ZipLoad(power=-0.2 - 0.1j)),
             Bus(2, "zip", ZipLoad(power=-0.1 - 0.05j)),
             Bus(3, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
            (Branch(1, 2, series), Branch(2, 3, series)))

    def estimate_error(series):
        case = feeder(series)
        part = build_admittance(case)
        sol = _noload(part, case)
        s, _ = case.injection_targets()
        est = decoupled_estimate(part, sol.nominal, s)
        dmag = est.v_mag - (np.abs(sol.nominal.V) + sol.dv.real)
        dang = est.theta - (np.angle(sol.nominal.V) + sol.dv.imag)
        return max(np.abs(dmag).max(), np.abs(dang).max())

    resistive = estimate_error(5 + 0j)
    inductive = estimate_error(5 - 3.5j)
    assert resistive <= 1e-14
    assert inductive > 10 * max(resistive, 1e-12)


def test_decoupled_estimate_singular_g():
    case = casegen.lossless_ladder_case()
    part = build_admittance(case)
    sol_s = np.array([0.5 + 0j])
    from rectpf import NominalVoltage
    nominal = NominalVoltage(np.ones(1, dtype=complex))
    with pytest.raises(SolverError) as exc:
        decoupled_estimate(part, nominal, sol_s)
    assert exc.value.code == "SINGULAR_G"


def test_no_current_special_matches_general_closed_form():
    rng = np.random.default_rng(73)
    for _ in range(20):
        case = casegen.random_feeder_case(rng, with_current=False)
        part = build_admittance(case)
        general = _noload(part, case)
        s, _ = case.injection_targets()
        special = solve_no_current_closed_form(part, s)
        assert np.abs(special.dv - general.dv).max() <= 1e-12
        assert np.abs(special.nominal.V - general.nominal.V).max() <= 1e-12
        assert prepare_no_current(part).flags["no_current_special"]


class _PerturbedThirdSolve:
    """Y's factor, except that its third solve comes back perturbed."""

    def __init__(self, factor):
        self._factor, self._solves = factor, 0

    def __getattr__(self, name):
        return getattr(self._factor, name)

    def solve(self, b):
        self._solves += 1
        x = self._factor.solve(b)
        return x + 1e-6 if self._solves == 3 else x


def _perturb_reference(part):
    # the special form solves for w, then for dv; its third solve on Y's
    # factor is the general closed form it is checked against
    part.__dict__["factor"] = _PerturbedThirdSolve(part.factor)
    return part


def test_no_current_cross_check_catches_a_disagreeing_reference(
        tmp_path, monkeypatch):
    case = casegen.random_feeder_case(np.random.default_rng(73),
                                      with_current=False)
    s, _ = case.injection_targets()
    with pytest.raises(InternalCheckError):
        prepare_no_current(_perturb_reference(build_admittance(case))).solve(s)
    monkeypatch.setattr(rectpf.report, "build_admittance",
                        lambda c: _perturb_reference(build_admittance(c)))
    save_case(case, tmp_path / "case.yaml")
    res = CliRunner().invoke(main, ["solve", str(tmp_path / "case.yaml"),
                                    "--method", "nocurrent"])
    assert res.exit_code == 3
    assert res.stderr.startswith("INTERNAL_CHECK: no-current special form "
                                 "disagrees with the general closed form")
    assert res.stdout == ""


def test_no_current_special_rejects_current_loads():
    # the case's own current loads, and current loads put on the partition
    case = casegen.random_feeder_case(np.random.default_rng(79))
    part = build_admittance(case)
    assert np.abs(part.i_load).max() > 0
    s, _ = case.injection_targets()
    i_load = np.ones(case.n, dtype=complex) * 0.1
    for loaded in (part, dataclasses.replace(part, i_load=i_load)):
        with pytest.raises(SolverError) as exc:
            solve_no_current_closed_form(loaded, s)
        assert exc.value.code == "NONZERO_CURRENT_LOAD"


def test_no_current_special_nonunit_slack():
    # the slack factorization must hold for any slack phasor
    case = casegen.random_feeder_case(np.random.default_rng(83),
                                      with_current=False)
    assert abs(case.v_slack - 1.0) > 1e-6
    part = build_admittance(case)
    s, _ = case.injection_targets()
    sol = solve_no_current_closed_form(part, s)
    mism = nonlinear_mismatch(part, sol.approx_voltage(), case)
    rep = quadratic_residual(part, sol.dv)
    assert np.abs(mism - rep.s_hot).max() <= 1e-10 * (1 + np.abs(s).max())


def test_error_bound_dominates_residual():
    rng = np.random.default_rng(89)
    for _ in range(25):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        sol = _noload(part, case)
        rep = quadratic_residual(part, sol.dv)
        bound, = rep.bounds
        assert bound.name == "complex_power_quadratic"
        assert rep.norm_s <= bound.bound + 1e-12


def test_error_bound_tight_for_single_bus():
    case = casegen.ladder_case(power=-0.1 - 0.05j)
    part = build_admittance(case)
    sol = _noload(part, case)
    rep = quadratic_residual(part, sol.dv)
    bound, = rep.bounds
    assert bound.name == "complex_power_quadratic"
    assert rep.norm_s == pytest.approx(bound.bound, rel=1e-13)
