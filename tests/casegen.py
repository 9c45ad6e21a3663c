"""Random and fixed network generators shared by the test modules.

Lossless cases are generated so the flat-profile dominance conditions hold
by construction: series susceptances are negative (inductive lines), the
imaginary constant-current components are nonnegative and below half the
slack coupling at slack-adjacent buses, zero elsewhere.  That regime also
keeps the solved coefficient matrix strictly diagonally dominant, so the
solves the acceptance suite performs cannot fail for structural reasons.
"""

from __future__ import annotations

import numpy as np

from reference_case import build_case
from rectpf import (Branch, Bus, NetworkCase, PvSetpoint, SlackVoltage,
                    ZipLoad, scale_power_injections)


def oracle_full_matrix(case: NetworkCase) -> np.ndarray:
    """Independent bus-admittance assembly via per-branch 2x2 blocks."""
    m = case.n + 1
    full = np.zeros((m, m), dtype=complex)
    for br in case.branches:
        y = br.series_admittance
        h = br.shunt_admittance_total / 2.0
        block = np.array([[y + h, -y], [-y, y + h]])
        idx = np.array([br.from_bus - 1, br.to_bus - 1])
        full[np.ix_(idx, idx)] += block
    for bus in case.buses:
        full[bus.id - 1, bus.id - 1] += bus.load.shunt_admittance
    return full


def partition_full_matrix(part) -> np.ndarray:
    """The (N+1) x (N+1) nodal matrix reassembled from a partition."""
    n = part.n
    full = np.zeros((n + 1, n + 1), dtype=complex)
    full[:n, :n] = part.Y_csr.toarray()
    full[:n, n] = part.Ybar
    full[n, :n] = part.Ybar
    full[n, n] = part.y_slack
    return full


def random_edges(rng, m: int, extra: int | None = None):
    """Random connected topology on 1..m: spanning tree plus extra chords."""
    edges = [(int(rng.integers(1, k)), k) for k in range(2, m + 1)]
    present = set(edges)
    if extra is None:
        extra = int(rng.integers(0, max(1, m // 3) + 1))
    tries = 0
    while extra > 0 and tries < 50:
        a, b = sorted(rng.choice(np.arange(1, m + 1), size=2, replace=False))
        tries += 1
        if (int(a), int(b)) not in present:
            edges.append((int(a), int(b)))
            present.add((int(a), int(b)))
            extra -= 1
    return edges


def random_lossless_case(rng, n_min=2, n_max=20, pv_fraction=0.0,
                         with_current=True, with_shunts=True,
                         p_scale=1.0, newton_ready=False) -> NetworkCase:
    """Lossless transmission grid with unity slack, conditions guaranteed.

    With ``newton_ready`` the draw is filtered so the nonlinear equations
    stay solvable for the Newton reference: shunt compensation must not
    push the no-load profile away from one per-unit (PV setpoints sit at
    exactly one), and power injections are rescaled so the linear voltage
    step stays below 10 percent of nominal.
    """
    if not newton_ready:
        return _lossless_draw(rng, n_min, n_max, pv_fraction, with_current,
                              with_shunts, p_scale, False)
    for _ in range(100):
        case = _lossless_draw(rng, n_min, n_max, pv_fraction, with_current,
                              with_shunts, p_scale, True)
        mags = _noload_magnitudes(case)
        if mags is None or np.abs(mags - 1.0).max() > 0.3:
            continue
        ratio = linear_step_ratio(case)
        if not np.isfinite(ratio):
            continue
        if ratio > 0.1:
            case = scale_power_injections(case, 0.1 / ratio)
        return case
    raise RuntimeError("no solvable lossless draw in 100 tries")


def _noload_magnitudes(case: NetworkCase):
    """Voltage magnitudes with every power injection removed, or None."""
    full = oracle_full_matrix(case)
    n = len(case.buses) - 1
    slack = case.buses[-1].slack_voltage
    vs = slack.v_mag * np.exp(1j * slack.theta)
    i_l = np.array([b.load.current if b.load is not None else 0j
                    for b in case.buses[:-1]])
    try:
        v0 = np.linalg.solve(full[:n, :n], i_l - full[:n, n] * vs)
    except np.linalg.LinAlgError:
        return None
    return np.abs(v0)


def _lossless_draw(rng, n_min, n_max, pv_fraction, with_current,
                   with_shunts, p_scale, newton_ready) -> NetworkCase:
    n = int(rng.integers(n_min, n_max + 1))
    m = n + 1
    edges = random_edges(rng, m)
    betas = rng.uniform(0.5, 10.0, size=len(edges))
    charge_cap = 0.1 if newton_ready else 0.4
    branches = []
    for (a, b), beta in zip(edges, betas):
        shunt = 0j
        if with_shunts and rng.random() < 0.4:
            shunt = 1j * rng.uniform(0.0, charge_cap)
        branches.append(Branch(a, b, -1j * beta, shunt))

    beta_slack = np.zeros(n)
    for (a, b), beta in zip(edges, betas):
        if b == m:
            beta_slack[a - 1] += beta
        elif a == m:
            beta_slack[b - 1] += beta

    # newton_ready keeps currents and shunts mild: a PV setpoint of exactly
    # one per-unit must stay reachable from the no-load profile
    i_cap = 0.1 if newton_ready else 0.3
    buses = []
    for k in range(1, n + 1):
        i_im = 0.0
        i_re = 0.0
        if with_current:
            i_re = rng.uniform(-i_cap, i_cap)
            if beta_slack[k - 1] > 0:
                i_im = rng.uniform(0.0, min(0.5 * beta_slack[k - 1], i_cap))
        shunt = 0j
        if with_shunts and rng.random() < 0.5:
            if newton_ready:
                shunt = 1j * rng.uniform(-0.05, 0.1)
            else:
                shunt = 1j * rng.uniform(-0.3, 0.5)
        if rng.random() < pv_fraction:
            buses.append(Bus(k, "pv",
                             ZipLoad(shunt, complex(i_re, i_im), 0j),
                             pv_setpoint=PvSetpoint(
                                 p=float(rng.uniform(-1, 1)) * p_scale,
                                 v_mag=1.0)))
        else:
            power = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * p_scale
            buses.append(Bus(k, "zip",
                             ZipLoad(shunt, complex(i_re, i_im), power)))
    buses.append(Bus(m, "slack", slack_voltage=SlackVoltage(1.0, 0.0)))
    return build_case(tuple(buses), tuple(branches))


def linear_step_ratio(case: NetworkCase) -> float:
    """Size of the linear voltage step relative to the no-load profile.

    Computed with plain numpy on the independently stamped matrix.  Small
    values put the case deep inside the solvable region; the generators use
    this to filter out draws whose loading has no power-flow solution at
    all (those exist and are not solver bugs).
    """
    full = oracle_full_matrix(case)
    n = case.n
    y, ybar = full[:n, :n], full[:n, n]
    i_l = np.array([b.load.current for b in case.non_slack], dtype=complex)
    s = np.array([complex(b.pv_setpoint.p) if b.kind == "pv"
                  else b.load.power for b in case.non_slack], dtype=complex)
    try:
        v0 = np.linalg.solve(y, i_l - ybar * case.v_slack)
        if np.abs(v0).min() < 0.5:
            return np.inf
        dv = np.linalg.solve(y, (s / v0).conj())
    except np.linalg.LinAlgError:
        return np.inf
    return float((np.abs(dv) / np.abs(v0)).max())


def random_feeder_case(rng, n_min=2, n_max=20, load_scale=0.3,
                       with_current=True, with_shunts=True,
                       with_shunt_g=False, unit_slack=False) -> NetworkCase:
    """Lossy all-ZIP network with a mixed R/X branch population.

    Per-bus injections shrink with network size and draws whose linear
    voltage step exceeds 12 percent of nominal are rejected, keeping every
    generated case solvable: the Newton reference must converge on all of
    them.
    """
    for _ in range(100):
        case = _feeder_draw(rng, n_min, n_max, load_scale, with_current,
                            with_shunts, with_shunt_g, unit_slack)
        if linear_step_ratio(case) <= 0.12:
            return case
    raise RuntimeError("feeder generator failed to find a feasible draw")


def _feeder_draw(rng, n_min, n_max, load_scale, with_current, with_shunts,
                 with_shunt_g, unit_slack) -> NetworkCase:
    n = int(rng.integers(n_min, n_max + 1))
    m = n + 1
    temper = min(1.0, 4.0 / n)
    edges = random_edges(rng, m)
    branches = []
    for a, b in edges:
        y = complex(rng.uniform(2.0, 8.0), rng.uniform(-8.0, -2.0))
        shunt = 0j
        if with_shunts and rng.random() < 0.3:
            shunt = 1j * rng.uniform(0.0, 0.1)
        branches.append(Branch(a, b, y, shunt))
    buses = []
    for k in range(1, n + 1):
        shunt = 0j
        if with_shunts and rng.random() < 0.4:
            shunt = complex(rng.uniform(0.0, 0.3) if with_shunt_g else 0.0,
                            rng.uniform(-0.15, 0.15))
        elif with_shunt_g:
            shunt = complex(rng.uniform(0.05, 0.3), 0.0)
        current = 0j
        if with_current and rng.random() < 0.6:
            current = complex(rng.uniform(-0.08, 0.08),
                              rng.uniform(-0.08, 0.08)) * temper
        power = complex(rng.uniform(-1, 1),
                        rng.uniform(-1, 1)) * load_scale * temper
        buses.append(Bus(k, "zip", ZipLoad(shunt, current, power)))
    if unit_slack:
        slack_v = SlackVoltage(1.0, 0.0)
    else:
        slack_v = SlackVoltage(float(rng.uniform(0.98, 1.04)),
                               float(rng.uniform(-0.05, 0.05)))
    buses.append(Bus(m, "slack", slack_voltage=slack_v))
    return build_case(tuple(buses), tuple(branches))


def fixed_feeder10() -> NetworkCase:
    """Deterministic 10-bus radial feeder (slack at bus 11).

    Section impedances grow with distance from the head at a constant
    X/R ratio, so branch admittances share one phase and the row-sum
    dominance diagnostics hold with equality at interior buses.  Loads
    are modest so the Newton reference converges comfortably at unit
    loading.
    """
    branches = []
    for k in range(1, 11):
        r = 0.02 + 0.002 * k
        y = 1.0 / complex(r, 2.5 * r)
        branches.append(Branch(k, k + 1, y))
    buses = []
    for k in range(1, 11):
        power = complex(-(0.015 + 0.002 * k), -(0.008 + 0.001 * k))
        buses.append(Bus(k, "zip", ZipLoad(power=power)))
    buses.append(Bus(11, "slack", slack_voltage=SlackVoltage(1.0, 0.0)))
    return build_case(tuple(buses), tuple(branches))


def ladder_case(power=-0.1 - 0.05j, series=1 - 5j) -> NetworkCase:
    """Two-bus ladder: one ZIP bus behind one branch to the slack."""
    return build_case(
        (Bus(1, "zip", ZipLoad(power=power)),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, series),))


def lossless_ladder_case(p=0.5) -> NetworkCase:
    """Two-bus lossless ladder: series -10j, active target at bus 1."""
    return build_case(
        (Bus(1, "zip", ZipLoad(power=complex(p, 0.0))),
         Bus(2, "slack", slack_voltage=SlackVoltage(1.0, 0.0))),
        (Branch(1, 2, -10j),))
