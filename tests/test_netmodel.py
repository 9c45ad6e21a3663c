"""Network model: admittance assembly, shunt identity, case validation."""

import math

import numpy as np
import pytest
from scipy import sparse

import casegen
from rectpf import (AdmittancePartition, Branch, Bus, BusKind,
                    CaseValidationError, NetworkCase, PvSetpoint,
                    SlackVoltage, ZipLoad, build_admittance,
                    check_noload_structure, scale_power_injections)
from rectpf.netmodel import _scaled_targets


oracle_full_matrix = casegen.oracle_full_matrix


def test_two_bus_ladder_partition():
    part = build_admittance(casegen.ladder_case())
    assert part.Y_csr.toarray().shape == (1, 1)
    assert part.Y_csr.toarray()[0, 0] == 1 - 5j
    assert part.Ybar[0] == -1 + 5j
    assert part.y_slack == 1 - 5j
    assert part.Ysh[0] == 0


def test_three_bus_ring_matches_oracle():
    case = NetworkCase(
        (Bus(1, BusKind.ZIP, ZipLoad(shunt_admittance=0.05 + 0.2j)),
         Bus(2, BusKind.ZIP, ZipLoad(power=-0.1j)),
         Bus(3, BusKind.SLACK, slack_voltage=SlackVoltage(1.02, 0.1))),
        (Branch(1, 2, 2 - 6j, 0.04j),
         Branch(2, 3, 1.5 - 4j),
         Branch(1, 3, 3 - 9j, 0.02j)))
    part = build_admittance(case)
    full = oracle_full_matrix(case)
    np.testing.assert_allclose(casegen.partition_full_matrix(part), full,
                               rtol=0, atol=0)
    np.testing.assert_allclose(part.Y_csr.toarray(), full[:2, :2],
                               rtol=0, atol=0)
    np.testing.assert_allclose(part.Ybar, full[:2, 2], rtol=0, atol=0)
    assert part.y_slack == full[2, 2]


def test_parallel_branches_sum():
    case = NetworkCase(
        (Bus(1, BusKind.ZIP),
         Bus(2, BusKind.SLACK, slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 3j), Branch(2, 1, 0.5 - 1j, 0.1j)))
    part = build_admittance(case)
    assert part.Y_csr.toarray()[0, 0] == (1 - 3j) + (0.5 - 1j) + 0.05j
    assert part.Ybar[0] == -(1 - 3j) - (0.5 - 1j)


def test_shunt_identity_on_random_cases():
    rng = np.random.default_rng(7)
    for _ in range(25):
        case = casegen.random_feeder_case(rng)
        part = build_admittance(case)
        ysh = part.Ysh
        np.testing.assert_allclose(
            ysh, part.Y_csr.sum(axis=1) + part.Ybar, rtol=0, atol=0)
        # hand-summed shunts: line halves plus bus shunt admittances
        expected = np.zeros(case.n, dtype=complex)
        for br in case.branches:
            for end in (br.from_bus, br.to_bus):
                if end <= case.n:
                    expected[end - 1] += br.shunt_admittance_total / 2.0
        for bus in case.non_slack:
            expected[bus.id - 1] += bus.load.shunt_admittance
        np.testing.assert_allclose(ysh, expected, rtol=0, atol=1e-14)


def test_full_matrix_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(10):
        case = casegen.random_lossless_case(rng, pv_fraction=0.3)
        full = casegen.partition_full_matrix(build_admittance(case))
        np.testing.assert_allclose(full, full.T, rtol=0, atol=0)
        np.testing.assert_allclose(full, oracle_full_matrix(case),
                                   rtol=0, atol=1e-14)


def test_partition_arrays_read_only():
    part = build_admittance(casegen.ladder_case())
    with pytest.raises(ValueError):
        part.Y_csr.data[0] = 0
    y = part.Y_csr
    assert not any(a.flags.writeable for a in (y.data, y.indices, y.indptr))


def test_partition_copies_a_callers_y():
    # duplicates at (0, 0) and an explicit zero at (1, 0)
    y = sparse.csr_array((np.array([1, 2, 0, 4], dtype=complex),
                          np.array([0, 0, 0, 1]), np.array([0, 2, 4])),
                         shape=(2, 2))
    part = AdmittancePartition(y, np.zeros(2), 1, np.zeros(2), 1)
    got = part.Y_csr
    assert got.toarray().tolist() == [[3, 0], [0, 4]] and got.nnz == 2
    assert not any(a.flags.writeable
                   for a in (got.data, got.indices, got.indptr))
    # the caller's matrix is neither summed nor frozen
    assert y.nnz == 4 and y.data.flags.writeable
    y.data[:] = 7
    assert got.toarray().tolist() == [[3, 0], [0, 4]]


def test_slack_adjacent_ids():
    case = NetworkCase(
        (Bus(1, BusKind.ZIP), Bus(2, BusKind.ZIP), Bus(3, BusKind.ZIP),
         Bus(4, BusKind.SLACK, slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 2j), Branch(2, 3, 1 - 2j), Branch(3, 4, 1 - 2j),
         Branch(1, 4, 2 - 4j)))
    part = build_admittance(case)
    assert part.slack_adjacent_ids() == (1, 3)


def test_injection_targets_and_pv():
    case = NetworkCase(
        (Bus(1, BusKind.ZIP, ZipLoad(power=-0.2 - 0.1j)),
         Bus(2, BusKind.PV, pv_setpoint=PvSetpoint(p=0.4, v_mag=1.01)),
         Bus(3, BusKind.SLACK, slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 3j), Branch(2, 3, 1 - 3j)))
    s, q_known = case.injection_targets()
    np.testing.assert_allclose(s, [-0.2 - 0.1j, 0.4 + 0j], rtol=0, atol=0)
    assert q_known.tolist() == [True, False]
    assert case.has_pv
    np.testing.assert_allclose(case.p_vector(), [-0.2, 0.4], rtol=0, atol=0)


def test_scale_power_injections():
    case = NetworkCase(
        (Bus(1, BusKind.ZIP, ZipLoad(0.1j, 0.02 + 0j, -0.2 - 0.1j)),
         Bus(2, BusKind.PV, pv_setpoint=PvSetpoint(p=0.4, v_mag=1.01)),
         Bus(3, BusKind.SLACK, slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 3j), Branch(2, 3, 1 - 3j)))
    scaled = scale_power_injections(case, 0.5)
    assert scaled.buses[0].load.power == -0.1 - 0.05j
    # shunt and current parts are untouched
    assert scaled.buses[0].load.shunt_admittance == 0.1j
    assert scaled.buses[0].load.current == 0.02 + 0j
    assert scaled.buses[1].pv_setpoint.p == 0.2
    assert scaled.buses[1].pv_setpoint.v_mag == 1.01
    # original is unchanged
    assert case.buses[0].load.power == -0.2 - 0.1j


def _targets_or_violations(scaled_targets):
    try:
        return np.asarray(scaled_targets()).view(np.uint64).tolist()
    except CaseValidationError as exc:
        return exc.violations


@pytest.mark.parametrize("alpha", [1.0, 0.5, -0.25, 0.0, -0.0, 1e308,
                                   -1e308, math.inf, math.nan])
def test_scaled_targets_are_the_scaled_cases(alpha):
    # a ZIP bus whose power and a PV bus whose setpoint overflow at 1e308,
    # and signed zeros that a fused complex product would round
    case = NetworkCase(
        (Bus(1, BusKind.ZIP, ZipLoad(power=complex(-0.0, 2.0))),
         Bus(2, BusKind.PV, pv_setpoint=PvSetpoint(p=-3.0, v_mag=1.01)),
         Bus(3, BusKind.ZIP, ZipLoad(power=-0.5 + 0j)),
         Bus(4, BusKind.SLACK, slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 3j), Branch(2, 3, 1 - 3j), Branch(3, 4, 2 - 5j)))
    with np.errstate(over="ignore", invalid="ignore"):
        want = _targets_or_violations(
            lambda: scale_power_injections(case, alpha).injection_targets()[0])
        assert _targets_or_violations(
            lambda: _scaled_targets(case, alpha)) == want


def _slack(bid):
    return Bus(bid, BusKind.SLACK, slack_voltage=SlackVoltage(1.0, 0.0))


def test_validation_collects_all_violations():
    with pytest.raises(CaseValidationError) as exc:
        NetworkCase(
            (Bus(1, BusKind.ZIP), Bus(2, BusKind.ZIP), _slack(3)),
            (Branch(1, 1, 1 - 2j),       # self loop
             Branch(2, 3, 0j),           # zero series admittance
             Branch(2, 9, 1 - 2j)))      # unknown endpoint
    msg = str(exc.value)
    assert "differ" in msg
    assert "series admittance" in msg
    assert "known bus" in msg
    assert exc.value.code == "VALIDATION_ERROR"
    assert len(exc.value.violations) >= 3


@pytest.mark.parametrize("buses,branches,needle", [
    # slack id is not the highest
    ((_slack(1), Bus(2, BusKind.ZIP)), (Branch(1, 2, 1 - 2j),), "highest"),
    # no slack at all
    ((Bus(1, BusKind.ZIP), Bus(2, BusKind.ZIP)),
     (Branch(1, 2, 1 - 2j),), "slack"),
    # two slacks
    ((_slack(1), _slack(2)), (Branch(1, 2, 1 - 2j),), "slack"),
    # non-contiguous ids
    ((Bus(1, BusKind.ZIP), _slack(3)), (Branch(1, 3, 1 - 2j),), "contiguous"),
    # PV without setpoint
    ((Bus(1, BusKind.PV), _slack(2)), (Branch(1, 2, 1 - 2j),), "setpoint"),
    # slack carrying a load
    ((Bus(1, BusKind.ZIP),
      Bus(2, BusKind.SLACK, ZipLoad(power=1 + 0j),
          slack_voltage=SlackVoltage(1.0, 0.0))),
     (Branch(1, 2, 1 - 2j),), "load"),
    # disconnected graph
    ((Bus(1, BusKind.ZIP), Bus(2, BusKind.ZIP), _slack(3)),
     (Branch(2, 3, 1 - 2j),), "connected"),
])
def test_validation_rejects(buses, branches, needle):
    with pytest.raises(CaseValidationError) as exc:
        NetworkCase(tuple(buses), tuple(branches))
    assert needle in str(exc.value).lower()


def test_pv_power_load_rejected():
    with pytest.raises(CaseValidationError):
        NetworkCase(
            (Bus(1, BusKind.PV, ZipLoad(power=0.1 + 0j),
                 pv_setpoint=PvSetpoint(p=0.1, v_mag=1.0)), _slack(2)),
            (Branch(1, 2, 1 - 2j),))


def test_structure_check_ladder_good():
    case = casegen.ladder_case()
    part = build_admittance(case)
    diag = check_noload_structure(part)
    assert diag.verdict
    assert diag.connected
    assert diag.source_nonzero
    assert diag.strict_at_slack_adjacent
    assert diag.reasons == ()
    assert diag.slack_adjacent == (1,)
    np.testing.assert_allclose(diag.dominance_margins, [abs(1 - 5j)],
                               rtol=1e-15)


def test_structure_check_zero_source():
    # constant-current load exactly cancels the slack in-feed
    case = NetworkCase(
        (Bus(1, BusKind.ZIP, ZipLoad(current=-1 + 5j)),
         Bus(2, BusKind.SLACK, slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 5j),))
    part = build_admittance(case)
    diag = check_noload_structure(part)
    assert not diag.verdict
    assert "NO_LOAD_VOLTAGE_ZERO" in diag.reasons


def test_structure_check_dominance_violation():
    # large negative bus shunt destroys the diagonal of the chain
    case = NetworkCase(
        (Bus(1, BusKind.ZIP, ZipLoad(shunt_admittance=-1.9 + 7.9j)),
         Bus(2, BusKind.ZIP),
         Bus(3, BusKind.SLACK, slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 4j), Branch(2, 3, 1 - 4j)))
    part = build_admittance(case)
    y = part.Y_csr.toarray()
    assert abs(y[0, 0]) < abs(y[0, 1])
    diag = check_noload_structure(part)
    assert not diag.verdict
    assert "NOT_DIAGONALLY_DOMINANT" in diag.reasons


def test_structure_check_no_strict_dominance():
    # chain with every diagonal exactly balanced by its off-diagonal row sum
    # would need a zero slack coupling; emulate with equality at the
    # slack-adjacent bus via a negative shunt there.
    case = NetworkCase(
        (Bus(1, BusKind.ZIP),
         Bus(2, BusKind.ZIP, ZipLoad(shunt_admittance=1 - 4j)),
         Bus(3, BusKind.SLACK, slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, 1 - 4j), Branch(2, 3, -1 + 4j)))
    part = build_admittance(case)
    # row 2: diagonal (1-4j) + (-1+4j) + (1-4j) = 1-4j, off-diag sum 1-4j
    diag = check_noload_structure(part)
    assert not diag.strict_at_slack_adjacent
    assert not diag.verdict
    assert "NO_STRICT_DOMINANCE" in diag.reasons


def test_admittance_partition_validates_shapes():
    with pytest.raises(ValueError):
        AdmittancePartition(np.eye(2, dtype=complex),
                            np.zeros(3, dtype=complex), 1 + 0j,
                            np.zeros(2, dtype=complex), 1 + 0j)
    with pytest.raises(ValueError, match="i_load"):
        AdmittancePartition(np.eye(2, dtype=complex),
                            np.zeros(2, dtype=complex), 1 + 0j,
                            np.zeros(3, dtype=complex), 1 + 0j)
