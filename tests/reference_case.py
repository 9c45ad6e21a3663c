"""Reference case builder, reader and writer: one object per bus and branch.

:func:`columns` turns :class:`Bus` and :class:`Branch` objects into the
columns of a :class:`NetworkCase`, filled as the object constructor that
``NetworkCase`` once had filled them, and :func:`build_case` builds the case
of those columns; tests build their cases with it.

:func:`reference_parse` is the per-entry reader the columnar ``parse_case``
replaced, kept as a test oracle: ``_parse_bus`` and ``_parse_branch`` build
:class:`Bus` and :class:`Branch` objects, and :func:`validate` runs the
model checks over them in the order ``NetworkCase`` runs them.  It differs
from that reader in two declared ways only: an int beyond the float range
reads as +-inf instead of raising ``OverflowError``, and a pv bus's bad
``p`` is reported once instead of twice.

:func:`reference_dump` is the writer the columnar ``dump_case`` replaced:
one entry per :class:`Bus` view, emitted by ``yaml.safe_dump``.

:func:`reference_admittance` is the ``build_admittance`` that stamped the
full (N+1) x (N+1) matrix and sliced it three ways, and :func:`connected`
decides connectivity with ``scipy.sparse.csgraph``, not with the library's
own union-find.  :func:`csr` is the scipy matrix of the raw CSR arrays
that the partition keeps for the matrices it derives from Y.
"""

from __future__ import annotations

import math

import numpy as np
import yaml
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from rectpf.caseio import (_BRANCH_FIELDS, _BUS_ALLOWED, _BUS_FIELDS, _DEG,
                           _TOP_FIELDS, SCHEMA_VERSION, _degrees_exact)
from rectpf.errors import CaseValidationError
from rectpf.netmodel import (KINDS, AdmittancePartition, Branch, Bus,
                             NetworkCase, PvSetpoint, SlackVoltage, ZipLoad)


def columns(buses, branches) -> dict:
    """The columns of ``buses`` and ``branches`` as lists, in input order.
    A pv bus must carry a :class:`PvSetpoint` and the slack a
    :class:`SlackVoltage`; a bus fills the setpoint columns of its kind
    only, from that object, and the others read as their defaults."""
    for b in buses:
        assert b.kind != "pv" or isinstance(b.pv_setpoint, PvSetpoint), b
        assert b.kind != "slack" or isinstance(b.slack_voltage,
                                               SlackVoltage), b
    pv = [b.pv_setpoint if b.kind == "pv" else None for b in buses]
    sv = [b.slack_voltage if b.kind == "slack" else None for b in buses]
    return {
        "kind": [KINDS.index(b.kind) for b in buses],
        "shunt": [b.load.shunt_admittance for b in buses],
        "current": [b.load.current for b in buses],
        "power": [b.load.power for b in buses],
        "p_set": [s.p if s else 0.0 for s in pv],
        "v_set": [(s or v).v_mag if s or v else 1.0 for s, v in zip(pv, sv)],
        "theta": [v.theta if v else 0.0 for v in sv],
        "from_bus": [br.from_bus for br in branches],
        "to_bus": [br.to_bus for br in branches],
        "series": [br.series_admittance for br in branches],
        "line_shunt": [br.shunt_admittance_total for br in branches]}


def build_case(buses, branches, base_mva: float = 100.0) -> NetworkCase:
    """The validated case of ``buses`` and ``branches``."""
    return NetworkCase(base_mva, [b.id for b in buses],
                       columns(buses, branches))


def csr(a) -> sparse.csr_array:
    """The scipy CSR matrix of the square matrix's raw CSR arrays ``a``."""
    n = len(a.indptr) - 1
    return sparse.csr_array((a.data, a.indices, a.indptr), shape=(n, n))


def connected(n_nodes: int, rows, cols) -> bool:
    """True when the undirected graph on 0..n_nodes-1 with the given edges
    (self loops allowed) is connected, by ``csgraph.connected_components``."""
    if n_nodes <= 1:
        return True
    graph = sparse.coo_array((np.ones(len(rows)), (rows, cols)),
                             shape=(n_nodes, n_nodes))
    return connected_components(graph, directed=False)[0] == 1


def reference_admittance(case: NetworkCase) -> AdmittancePartition:
    """The partition of ``case`` as the slicing ``build_admittance`` built
    it: the stamps summed in stamp order, exact zeros dropped, the full
    matrix made CSR and sliced into Y, the slack column and the corner."""
    m = case.n + 1
    f, t = case.from_bus - 1, case.to_bus - 1
    ys = case.series
    half = case.line_shunt / 2.0
    buses = np.arange(m)
    rows = np.concatenate([np.stack([f, t, f, t], axis=1).ravel(), buses])
    cols = np.concatenate([np.stack([f, t, t, f], axis=1).ravel(), buses])
    keys, where = np.unique(rows * m + cols, return_inverse=True)
    data = np.zeros(keys.size, dtype=complex)
    vals = np.concatenate([
        np.stack([ys + half, ys + half, -ys, -ys], axis=1).ravel(),
        case.shunt])
    np.add.at(data, where, vals)
    keep = data != 0
    full = sparse.csr_array((data[keep], np.divmod(keys[keep], m)),
                            shape=(m, m))
    n = m - 1
    return AdmittancePartition(
        full[:n, :n], full[:n, [n]].toarray().ravel(), full[n, n],
        case.current[:-1], case.v_slack)


def _num(entry: dict, key: str, where: str, problems: list[str],
         default: float = 0.0) -> float:
    if key not in entry:
        return default
    val = entry[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        problems.append(f"{where}: field '{key}' must be a number, "
                        f"got {val!r}")
        return default
    try:
        return float(val)
    except OverflowError:
        return math.inf if val > 0 else -math.inf


def _check_fields(entry: dict, allowed: set, where: str,
                  problems: list[str]) -> None:
    if unknown := set(entry) - allowed:
        try:
            unknown = sorted(unknown)
        except TypeError:
            unknown = sorted(unknown, key=repr)
        problems.append(f"{where}: unknown field(s) {unknown}")


def _parse_bus(entry, index: int, problems: list[str]) -> Bus | None:
    where = f"buses[{index}]"
    if not isinstance(entry, dict):
        problems.append(
            f"{where}: expected a mapping, got {type(entry).__name__}")
        return None
    bus_id = entry.get("id")
    if isinstance(bus_id, bool) or not isinstance(bus_id, int):
        problems.append(f"{where}: 'id' must be an integer")
        return None
    where = f"buses[{index}] (id {bus_id})"
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in _BUS_FIELDS:
        problems.append(f"{where}: 'kind' must be one of "
                        f"{sorted(_BUS_FIELDS)}, got {kind!r}")
        return None
    _check_fields(entry, _BUS_ALLOWED[kind], where, problems)

    if kind == "slack":
        v_mag = _num(entry, "v_setpoint", where, problems, default=1.0)
        theta = _num(entry, "theta_deg", where, problems) * _DEG
        return Bus(bus_id, "slack",
                   slack_voltage=SlackVoltage(v_mag, theta))

    load = ZipLoad(
        shunt_admittance=complex(_num(entry, "shunt_g", where, problems),
                                 _num(entry, "shunt_b", where, problems)),
        current=complex(_num(entry, "i_load_re", where, problems),
                        _num(entry, "i_load_im", where, problems)),
        power=complex(_num(entry, "p", where, problems),
                      _num(entry, "q", where, problems)))
    if kind == "pv":
        problems += [f"{where}: pv bus requires '{key}'"
                     for key in ("v_setpoint", "p") if key not in entry]
        setpoint = PvSetpoint(p=load.power.real,
                              v_mag=_num(entry, "v_setpoint", where,
                                         problems, default=1.0))
        load = ZipLoad(load.shunt_admittance, load.current, 0j)
        return Bus(bus_id, "pv", load=load, pv_setpoint=setpoint)
    return Bus(bus_id, "zip", load=load)


def _parse_branch(entry, index: int, problems: list[str]) -> Branch | None:
    where = f"branches[{index}]"
    if not isinstance(entry, dict):
        problems.append(
            f"{where}: expected a mapping, got {type(entry).__name__}")
        return None
    _check_fields(entry, _BRANCH_FIELDS, where, problems)
    ok = True
    for key in ("from", "to"):
        val = entry.get(key)
        if isinstance(val, bool) or not isinstance(val, int):
            problems.append(f"{where}: '{key}' must be an integer bus id")
            ok = False
    for key in ("series_g", "series_b"):
        if key not in entry:
            problems.append(f"{where}: '{key}' is required")
            ok = False
    if not ok:
        return None
    return Branch(
        from_bus=entry["from"], to_bus=entry["to"],
        series_admittance=complex(_num(entry, "series_g", where, problems),
                                  _num(entry, "series_b", where, problems)),
        shunt_admittance_total=complex(
            0.0, _num(entry, "shunt_b_total", where, problems)))


def _finite(x) -> bool:
    if isinstance(x, complex):
        return math.isfinite(x.real) and math.isfinite(x.imag)
    return math.isfinite(x)


def _validate_bus(bus: Bus, problems: list[str]) -> None:
    where = f"bus {bus.id}"
    for name, val in (("shunt_admittance", bus.load.shunt_admittance),
                      ("current", bus.load.current),
                      ("power", bus.load.power)):
        if not _finite(val):
            problems.append(f"{where}: load.{name} is not finite")
    load_zero = (bus.load.shunt_admittance == 0 and bus.load.current == 0
                 and bus.load.power == 0)
    if bus.kind == "slack":
        if not (_finite(bus.slack_voltage.v_mag)
                and bus.slack_voltage.v_mag > 0):
            problems.append(f"{where}: slack v_mag must be positive")
        if not _finite(bus.slack_voltage.theta):
            problems.append(f"{where}: slack theta is not finite")
        if not load_zero:
            problems.append(f"{where}: slack bus cannot carry a load")
    elif bus.kind == "pv":
        if not (_finite(bus.pv_setpoint.v_mag)
                and bus.pv_setpoint.v_mag > 0):
            problems.append(f"{where}: pv v_mag must be positive")
        if not _finite(bus.pv_setpoint.p):
            problems.append(f"{where}: pv p is not finite")
        if bus.load.power != 0:
            problems.append(
                f"{where}: pv bus cannot carry a constant-power load")


def validate(buses, branches, base_mva) -> tuple[list[Bus], list[str]]:
    """The buses sorted by id, and every model problem of the case."""
    buses = sorted(buses, key=lambda b: b.id)
    problems: list[str] = []
    if not (_finite(base_mva) and base_mva > 0):
        problems.append("base_mva must be a positive finite number")
    if len(buses) < 2:
        problems.append("a case needs at least two buses")
    ids = [b.id for b in buses]
    if ids != list(range(1, len(buses) + 1)):
        problems.append(
            f"bus ids must be contiguous 1..{len(buses)}, got {ids}")
    slack_ids = [b.id for b in buses if b.kind == "slack"]
    if len(slack_ids) != 1:
        problems.append(
            f"exactly one slack bus required, found {len(slack_ids)}")
    elif buses and slack_ids[0] != buses[-1].id:
        problems.append(
            f"slack bus must have the highest id {buses[-1].id}, "
            f"got {slack_ids[0]}")
    for bus in buses:
        _validate_bus(bus, problems)
    id_set = set(ids)
    for i, br in enumerate(branches):
        where = f"branch[{i}] ({br.from_bus}-{br.to_bus})"
        if br.from_bus not in id_set or br.to_bus not in id_set:
            problems.append(f"{where}: endpoint is not a known bus id")
        if br.from_bus == br.to_bus:
            problems.append(f"{where}: endpoints must differ")
        if not _finite(br.series_admittance):
            problems.append(f"{where}: series admittance is not finite")
        elif br.series_admittance == 0:
            problems.append(f"{where}: series admittance must be nonzero")
        if not _finite(br.shunt_admittance_total):
            problems.append(f"{where}: shunt admittance is not finite")
    if not problems:
        ends = np.array([(br.from_bus - 1, br.to_bus - 1)
                         for br in branches], dtype=int).reshape(-1, 2)
        if not connected(len(buses), ends[:, 0], ends[:, 1]):
            problems.append("network graph is not connected")
    return buses, problems


def reference_parse(doc: dict, source: str = "<case>"):
    """``(buses sorted by id, branches, base_mva)`` of a loaded case
    document; raises :class:`CaseValidationError` as the reader did."""
    problems: list[str] = []
    _check_fields(doc, _TOP_FIELDS, source, problems)
    version = doc.get("schema_version")
    if version not in (SCHEMA_VERSION, int(SCHEMA_VERSION)):
        problems.append(
            f"{source}: schema_version must be \"{SCHEMA_VERSION}\", "
            f"got {version!r}")
    base_mva = _num(doc, "base_mva", source, problems, default=100.0)
    raw_buses = doc.get("buses")
    raw_branches = doc.get("branches")
    if not isinstance(raw_buses, list) or not raw_buses:
        problems.append(f"{source}: 'buses' must be a non-empty list")
        raw_buses = []
    if not isinstance(raw_branches, list) or not raw_branches:
        problems.append(f"{source}: 'branches' must be a non-empty list")
        raw_branches = []
    buses = [b for i, e in enumerate(raw_buses)
             if (b := _parse_bus(e, i, problems)) is not None]
    branches = [b for i, e in enumerate(raw_branches)
                if (b := _parse_branch(e, i, problems)) is not None]
    if problems:
        raise CaseValidationError(problems)
    buses, problems = validate(buses, branches, base_mva)
    if problems:
        raise CaseValidationError(problems)
    return buses, branches, base_mva


def _bus_entry(bus: Bus) -> dict:
    entry: dict = {"id": bus.id, "kind": bus.kind}
    if bus.kind == "slack":
        entry["v_setpoint"] = bus.slack_voltage.v_mag
        entry["theta_deg"] = _degrees_exact(bus.slack_voltage.theta)
        return entry
    if bus.kind == "pv":
        entry["v_setpoint"] = bus.pv_setpoint.v_mag
        entry["p"] = bus.pv_setpoint.p
    else:
        if bus.load.power.real:
            entry["p"] = bus.load.power.real
        if bus.load.power.imag:
            entry["q"] = bus.load.power.imag
    if bus.load.shunt_admittance.real:
        entry["shunt_g"] = bus.load.shunt_admittance.real
    if bus.load.shunt_admittance.imag:
        entry["shunt_b"] = bus.load.shunt_admittance.imag
    if bus.load.current.real:
        entry["i_load_re"] = bus.load.current.real
    if bus.load.current.imag:
        entry["i_load_im"] = bus.load.current.imag
    return entry


def reference_dump(case: NetworkCase) -> str:
    """The case file of ``case`` as the object writer wrote it; raises
    :class:`CaseValidationError` on the first conductive line shunt."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "base_mva": case.base_mva,
        "buses": [_bus_entry(b) for b in case.buses],
        "branches": [],
    }
    for br in case.branches:
        if br.shunt_admittance_total.real != 0:
            raise CaseValidationError(
                [f"branch {br.from_bus}-{br.to_bus}: conductive line shunts "
                 "cannot be represented in the case-file format"])
        entry = {"from": br.from_bus, "to": br.to_bus,
                 "series_g": br.series_admittance.real,
                 "series_b": br.series_admittance.imag}
        if br.shunt_admittance_total.imag:
            entry["shunt_b_total"] = br.shunt_admittance_total.imag
        doc["branches"].append(entry)
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
