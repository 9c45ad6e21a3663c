"""The 2N block builder against the scipy-composed formula, bit for bit.

``_real_block_matrix`` fills the partition's cached CSC pattern with
vectorized numpy, straight into the arrays SuperLU factors.  The oracle
below is the formula it replaced: the block matrix composed from
scipy.sparse operators, with each PV bus's reactive row swapped for its
|V|^2 row, converted as ``splu`` would hand it to SuperLU.  So ``indptr``,
``indices`` and every bit of ``data`` must agree, dtypes included.
"""

from functools import cached_property

import numpy as np
import pytest
from scipy import sparse

import casegen
from reference_case import build_case
from rectpf import (AdmittancePartition, Branch, Bus, PvSetpoint, SlackVoltage,
                    SolverError, ZipLoad, build_admittance,
                    compute_noload_voltage, run_compare, run_pipeline)
from rectpf._linalg import csc_arrays
from rectpf.linearize import _direct_coefficient, _real_block_matrix


def composed_block_matrix(partition, v, pv_pos=()):
    """The Jacobian as scipy.sparse operators compose it (test oracle)."""
    v = np.array(v, dtype=complex)
    y_conj = partition.Y_csr.conj()
    direct = (y_conj @ v.conj()
              + partition.Ybar.conj() * np.conj(partition.v_slack)
              - np.conj(partition.i_load))
    cross = sparse.csr_array(sparse.diags_array(v) @ y_conj, dtype=complex)
    dre = sparse.diags_array(direct.real)
    dim = sparse.diags_array(direct.imag)
    jac = sparse.block_array([[dre + cross.real, -dim + cross.imag],
                              [dim + cross.imag, dre - cross.real]],
                             format="csr")
    pv_pos = np.asarray(pv_pos, dtype=int)
    if pv_pos.size:
        rows = partition.n + pv_pos
        keep = np.ones(jac.shape[0])
        keep[rows] = 0.0
        pv_rows = sparse.csr_array(
            (np.concatenate([2.0 * v.real[pv_pos], 2.0 * v.imag[pv_pos]]),
             (np.concatenate([rows, rows]), np.concatenate([pv_pos, rows]))),
            shape=jac.shape)
        jac = sparse.diags_array(keep) @ jac + pv_rows
    return jac


def filled_block_matrix(partition, v, pv_pos=()):
    v = np.array(v, dtype=complex)
    return _real_block_matrix(
        partition, v, _direct_coefficient(partition, v),
        np.asarray(pv_pos, dtype=int))


def assert_same_superlu_input(partition, v, pv_pos=()):
    want = csc_arrays(composed_block_matrix(partition, v, pv_pos))
    got = filled_block_matrix(partition, v, pv_pos)
    assert got.indptr.dtype == want.indptr.dtype == np.intc
    assert got.indices.dtype == want.indices.dtype
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data.view(np.uint64),
                                  want.data.view(np.uint64))


def _pv_positions(case):
    return np.flatnonzero([b.kind == "pv" for b in case.non_slack])


def _iterates(rng, case, part):
    """Flat start, no-load profile, random iterates, and iterates with
    exact-zero (and negative-zero) real or imaginary parts."""
    n = case.n
    yield np.ones(n, dtype=complex)
    try:
        yield compute_noload_voltage(part).V
    except SolverError:   # a singular Y has no no-load profile
        pass
    v = rng.uniform(0.8, 1.2, n) + 1j * rng.uniform(-0.3, 0.3, n)
    yield v
    w = v.copy()
    w.real[rng.random(n) < 0.4] = 0.0
    w.imag[rng.random(n) < 0.4] = -0.0
    yield w
    yield np.where(rng.random(n) < 0.5, v.real + 0j, 1j * v.imag)


def _check_case(rng, case):
    part = build_admittance(case)
    pv_pos = _pv_positions(case)
    for v in _iterates(rng, case, part):
        assert_same_superlu_input(part, v, pv_pos)
        if pv_pos.size:   # the general-solve form of the same grid
            assert_same_superlu_input(part, v)


@pytest.mark.parametrize("seed", range(8))
def test_feeders_match_the_composed_formula(seed):
    rng = np.random.default_rng(seed)
    _check_case(rng, casegen.random_feeder_case(rng, 2, 40))


@pytest.mark.parametrize("seed", range(8))
def test_pv_grids_match_the_composed_formula(seed):
    rng = np.random.default_rng(100 + seed)
    case = casegen.random_lossless_case(rng, 2, 30, pv_fraction=0.4,
                                        newton_ready=True)
    _check_case(rng, case)


def test_flat_start_drops_zero_direct_coefficients():
    # Integer admittances sum exactly: at the flat start every series term
    # cancels in direct, leaving only bus 1's conductive shunt, so Im(direct)
    # is zero everywhere and Re(direct) at buses 2 and 3.  scipy's binops
    # drop those zeros; so must the fill.
    buses = (Bus(1, "zip", ZipLoad(shunt_admittance=0.5,
                                   power=-0.1 - 0.05j)),
             Bus(2, "zip", ZipLoad(power=-0.2)),
             Bus(3, "pv", pv_setpoint=PvSetpoint(0.1, 1.0)),
             Bus(4, "slack", slack_voltage=SlackVoltage(1.0, 0.0)))
    branches = (Branch(1, 2, 1 - 3j), Branch(2, 3, 2 - 5j),
                Branch(1, 3, 1 - 2j), Branch(3, 4, 4 - 8j),
                Branch(1, 4, 3 - 7j))
    case = build_case(buses, branches)
    part = build_admittance(case)
    v = np.ones(case.n, dtype=complex)
    direct = _direct_coefficient(part, v)
    np.testing.assert_array_equal(direct, [0.5, 0, 0])
    assert_same_superlu_input(part, v)
    assert_same_superlu_input(part, v, _pv_positions(case))


def test_index_arrays_are_the_pattern_s_own_when_no_entry_is_zero():
    # A lossless grid's conj(Y) is imaginary off the diagonal: at a generic
    # complex iterate every entry is nonzero and the fill keeps the
    # pattern's own index arrays; at the flat start the real parts of the
    # series terms are exact zeros, and so are a PV row's off-diagonal
    # entries at any iterate: those are dropped.
    rng = np.random.default_rng(5)
    case = casegen.random_lossless_case(rng, 6, 12, pv_fraction=0.4,
                                        newton_ready=True)
    part = build_admittance(case)
    pat = part.block_pattern
    v = 1 + 0.1 * (rng.standard_normal(case.n)
                   + 1j * rng.standard_normal(case.n))
    got = filled_block_matrix(part, v)
    assert got.data.all()
    assert got.indices is pat.indices and got.indptr is pat.indptr
    assert_same_superlu_input(part, v)
    pv = filled_block_matrix(part, v, _pv_positions(case))
    assert pv.data.size < pat.indices.size
    assert_same_superlu_input(part, v, _pv_positions(case))
    flat = filled_block_matrix(part, np.ones(case.n))
    assert flat.data.all() and flat.data.size < pat.indices.size
    assert flat.indices is not pat.indices
    assert_same_superlu_input(part, np.ones(case.n))


def test_cancelling_parallel_branches():
    # Branches 1-2 cancel exactly, and so does bus 3's whole diagonal: its
    # shunt load undoes its only series branch.  Those Y entries are gone,
    # and the block pattern still carries the diagonal.
    y = 2.0 - 6.0j
    buses = (Bus(1, "zip", ZipLoad(power=-0.1 - 0.05j)),
             Bus(2, "zip", ZipLoad(power=-0.2 + 0.01j)),
             Bus(3, "zip", ZipLoad(shunt_admittance=-y,
                                   power=-0.05j)),
             Bus(4, "slack", slack_voltage=SlackVoltage(1.0, 0.1)))
    branches = (Branch(1, 2, y), Branch(1, 2, -y), Branch(1, 4, 1 - 3j),
                Branch(2, 4, 4 - 9j), Branch(3, 4, y))
    case = build_case(buses, branches)
    part = build_admittance(case)
    assert part.Y_csr[0, 1] == 0 and part.Y_csr[2, 2] == 0
    rng = np.random.default_rng(3)
    for v in _iterates(rng, case, part):
        assert_same_superlu_input(part, v)
        assert_same_superlu_input(part, v, [1, 2])


def test_pattern_is_read_only_and_shared():
    part = build_admittance(casegen.fixed_feeder10())
    pat = part.block_pattern
    assert pat is part.block_pattern
    assert all(not arr.flags.writeable for arr in pat)
    m = _real_block_matrix(part, np.ones(part.n), np.ones(part.n))
    m.data[:] = 0.0    # the returned matrix owns its data


def test_rejects_a_voltage_of_the_wrong_length():
    part = build_admittance(casegen.fixed_feeder10())
    with pytest.raises(ValueError):
        _real_block_matrix(part, np.ones(part.n + 1), np.ones(part.n))


@pytest.fixture()
def patterns(monkeypatch):
    """Every partition whose block pattern is built, in build order."""
    built = []
    build = AdmittancePartition.block_pattern.func

    def counting(self):
        built.append(self)
        return build(self)

    prop = cached_property(counting)
    prop.__set_name__(AdmittancePartition, "block_pattern")
    monkeypatch.setattr(AdmittancePartition, "block_pattern", prop)
    return built


@pytest.mark.parametrize("method", ["auto", "general"])
def test_solve_with_oracle_builds_the_pattern_once(patterns, method):
    report = run_pipeline(casegen.fixed_feeder10(), method=method,
                          with_oracle=True)
    assert report.oracle.iterations >= 2
    assert len(patterns) == 1


@pytest.mark.parametrize("method", ["auto", "general"])
def test_compare_sweep_builds_the_pattern_once(patterns, method):
    run_compare(casegen.fixed_feeder10(), [1, 0.5, 0.25], method=method)
    assert len(patterns) == 1
