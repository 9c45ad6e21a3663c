"""Sparse storage: edge semantics, and solves that scale with the branches."""

import tracemalloc

import numpy as np

import casegen
from reference_case import build_case
from rectpf import (Branch, Bus, SlackVoltage, ZipLoad,
                    build_admittance, check_noload_structure,
                    compute_noload_voltage, prepare, run_pipeline)
from rectpf.linearize import _direct_coefficient, _real_block_matrix
from rectpf.transmission import flat_conditions


def _slack(bid):
    return Bus(bid, "slack", slack_voltage=SlackVoltage(1.0, 0.0))


def test_cancelling_parallel_branches_are_no_edge():
    # buses 1 and 2 are joined only by two branches whose admittances cancel
    # exactly; every bus still reaches the slack, but without that pair the
    # non-slack graph splits into {1} and {2, 3}
    case = build_case(
        (Bus(1, "zip", ZipLoad(power=-0.1 + 0j)), Bus(2, "zip"),
         Bus(3, "zip"), _slack(4)),
        (Branch(1, 4, 1 - 3j), Branch(1, 2, 1 - 2j), Branch(2, 1, -1 + 2j),
         Branch(2, 3, 1 - 2j), Branch(3, 4, 1 - 3j)))
    part = build_admittance(case)
    y = part.Y_csr.toarray()
    assert y[0, 1] == 0 and y[1, 0] == 0
    assert part.Y_csr.nnz == 3 + 2          # diagonal plus the 2-3 pair
    diag = check_noload_structure(part)
    assert not diag.connected
    assert "DISCONNECTED" in diag.reasons


def test_vectorized_stamps_equal_the_loop_oracle_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(20):
        case = casegen.random_feeder_case(rng, with_shunt_g=True)
        # a reversed copy of some branches: duplicates must sum in order
        extra = tuple(Branch(br.to_bus, br.from_bus,
                             0.5 * br.series_admittance, 0.01j)
                      for br in case.branches[::3])
        case = build_case(case.buses, case.branches + extra)
        full = casegen.partition_full_matrix(build_admittance(case))
        np.testing.assert_array_equal(full, casegen.oracle_full_matrix(case))


def _chain(n):
    """Radial chain 1-2-...-n-slack, one X/R ratio on every section."""
    y = 1.0 / complex(1e-4, 2.5e-4)
    buses = tuple(Bus(k, "zip", ZipLoad(power=complex(-2e-5, -1e-5)))
                  for k in range(1, n + 1)) + (_slack(n + 1),)
    branches = tuple(Branch(k, k + 1, y) for k in range(1, n + 1))
    return build_case(buses, branches)


def test_large_radial_feeder_is_solved_in_sparse_memory():
    n = 3200
    case = _chain(n)
    tracemalloc.start()
    try:
        report = run_pipeline(case, with_oracle=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.method == "noload"
    assert report.oracle.converged
    assert all(b.satisfied for b in report.bounds)
    # one dense n x n complex matrix alone would take 164 MB
    assert peak < 32e6

    part = build_admittance(case)
    assert part.Y_csr.nnz == n + 2 * (n - 1)
    nominal = compute_noload_voltage(part)
    jac = _real_block_matrix(part, nominal.V,
                             _direct_coefficient(part, nominal.V))
    assert len(jac.indptr) == 2 * n + 1
    assert len(jac.data) <= 4 * part.Y_csr.nnz
    assert np.isfinite(report.condition)


def _lossless_grid(n):
    """Lossless mesh: chain 1-2-...-n-slack plus a chord from every fifth
    bus, with line charging and shunt loads but no current loads."""
    buses = tuple(
        Bus(k, "zip", ZipLoad(shunt_admittance=0.01j * (k % 3),
                              power=complex((k % 7 - 3) / 10, -0.05)))
        for k in range(1, n + 1)) + (_slack(n + 1),)
    branches = tuple(Branch(k, k + 1, -1j * (10 + k % 7), 0.02j)
                     for k in range(1, n + 1))
    chords = tuple(Branch(k, k + 9, -5j) for k in range(1, n - 9, 5))
    return build_case(buses, branches + chords)


def test_large_lossless_grid_is_solved_in_sparse_memory():
    n = 2000
    case = _lossless_grid(n)
    p = case.p_vector()
    tracemalloc.start()
    try:
        part = build_admittance(case)
        sol = prepare(part, case, "lossless", False)[1].solve(p)
        theta = prepare(part, case, "dc", False)[1].solve(p).dv.imag
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flat_conditions(part).overall
    # one dense n x n float array alone would take 32 MB
    assert peak < 8e6
    # with no current loads the flat and DC systems are the same matrix
    np.testing.assert_allclose(sol.dv.imag, theta, rtol=1e-12, atol=0)
