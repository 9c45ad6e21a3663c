"""Y is factored once per admittance partition and shared by every solver,
and the no-load profile is solved on that factor once."""

import numpy as np
import pytest
from scipy import sparse

import casegen
import rectpf._linalg
from rectpf import (build_admittance, compute_noload_voltage,
                    coupling_decomposition, prepare, run_compare,
                    run_pipeline, solve_no_current_closed_form)


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


@pytest.fixture()
def solved(monkeypatch):
    """Every right-hand side handed to a factorization, in call order."""
    seen = []
    solve = rectpf._linalg.Factorization.solve

    def counting_solve(self, b):
        seen.append(np.array(b))
        return solve(self, b)

    monkeypatch.setattr(rectpf._linalg.Factorization, "solve",
                        counting_solve)
    return seen


def _noload_solves(seen, case) -> int:
    """How many of ``seen`` are the no-load right-hand side of ``case``."""
    part = build_admittance(case)
    rhs = part.i_load - part.Ybar * part.v_slack
    return sum(b.shape == rhs.shape and np.array_equal(b, rhs) for b in seen)


def _is_y(a, y) -> bool:
    return a.shape == y.shape and (a != y).nnz == 0


def test_pipeline_with_oracle_factors_y_once(factored):
    case = casegen.fixed_feeder10()
    report = run_pipeline(case, with_oracle=True)
    n = case.n
    orders = [a.shape[0] for a in factored]
    # Y, which the closed form solves on, then one Jacobian per iteration
    assert report.method == "noload"
    assert orders.count(n) == 1
    assert orders.count(2 * n) == report.oracle.iterations >= 1
    assert len(orders) == 1 + report.oracle.iterations
    y = build_admittance(case).Y_csr
    assert sum(_is_y(a, y) for a in factored) == 1


def test_compare_sweep_factors_y_once(factored):
    case = casegen.fixed_feeder10()
    report = run_compare(case, [1, 0.5, 0.25])
    assert report.method == "noload"
    y = build_admittance(case).Y_csr
    assert sum(_is_y(a, y) for a in factored) == 1
    # the closed form of every alpha solves on Y's factor
    assert [a.shape[0] for a in factored].count(case.n) == 1


def test_solvers_share_the_partition_factor(factored):
    case = casegen.fixed_feeder10()
    part = build_admittance(case)
    s, _ = case.injection_targets()
    compute_noload_voltage(part)
    prepare(part, case, "noload", False)[1].solve(s)
    solve_no_current_closed_form(part, s)
    assert part.factor is part.factor
    assert sum(_is_y(a, part.Y_csr) for a in factored) == 1


def test_coupling_solves_two_columns_on_the_partition_factor(factored,
                                                             solved):
    rng = np.random.default_rng(73)
    for _ in range(5):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        compute_noload_voltage(part)      # cached on the partition
        factored.clear()
        solved.clear()
        coupling_decomposition(part, case.injection_targets()[0])
        assert factored == []
        assert sum(1 if b.ndim == 1 else b.shape[1] for b in solved) <= 2


def test_pipeline_with_oracle_solves_the_noload_profile_once(solved):
    case = casegen.fixed_feeder10()
    report = run_pipeline(case, with_oracle=True)
    # the closed form's nominal and Newton's initial guess share one solve
    assert report.method == "noload"
    assert _noload_solves(solved, case) == 1


def test_compare_sweep_solves_the_noload_profile_once(solved):
    case = casegen.fixed_feeder10()
    report = run_compare(case, [1, 0.5, 0.25])
    assert report.method == "noload"
    assert _noload_solves(solved, case) == 1
