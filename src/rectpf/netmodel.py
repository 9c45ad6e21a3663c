"""Network data model and admittance-matrix construction.

Buses are numbered 1..N+1 with the slack (reference) bus fixed at N+1.
All stored quantities are per-unit on the case's MVA base; angles are
radians (the case-file layer converts from degrees).  Every type here is
immutable after construction, so instances are safe to share freely.

A case is stored as columns, one read-only array per quantity with one row
per bus or per branch, because every solver reads the loads and
injections as vectors; the :class:`Bus` and :class:`Branch` objects of a
:class:`NetworkCase` are views of its columns.

Index convention: bus id ``k`` (1-based) occupies position ``k - 1`` in all
vectors and matrices over the non-slack buses; the slack bus has no position.

Admittance partition of the full nodal equations, with the slack voltage
pinned::

    [ I ]     [ Y     Ybar    ] [ V       ]
    [ I_s ] = [ Ybar^T  y_slack ] [ V_slack ]

where Y is the N x N block over non-slack buses.  Y is stored as a sparse
CSR matrix with one entry per bus and per branch end, so a radial feeder
costs O(N) memory and every solver works in O(nnz); no solver builds a
dense copy of Y.

The partition is the per-case context every solver, check and residual
reads: next to Y it carries the two other parts of a case that loading does
not change, the constant-current loads ``I_L`` and the slack voltage, and
it solves the no-load profile ``Y^(-1) (I_L - Ybar V_slack)`` once.  Only
the power injections, which loading scales, come from the case itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from ._linalg import Factorization
from .errors import CaseValidationError


class BusKind(Enum):
    SLACK = "slack"
    PV = "pv"
    ZIP = "zip"


@dataclass(frozen=True)
class ZipLoad:
    """Parallel constant-impedance / constant-current / constant-power load.

    Sign convention: ``power`` and ``current`` are injections into the bus,
    so consumption is negative.  ``shunt_admittance`` is the constant
    impedance part expressed as an admittance; it is stamped onto the bus
    diagonal together with any line shunts.
    """

    shunt_admittance: complex = 0j
    current: complex = 0j
    power: complex = 0j


@dataclass(frozen=True)
class PvSetpoint:
    """Generator setpoint: fixed active injection and voltage magnitude."""

    p: float
    v_mag: float


@dataclass(frozen=True)
class SlackVoltage:
    """Reference-bus voltage: magnitude and angle (radians)."""

    v_mag: float
    theta: float = 0.0

    @property
    def phasor(self) -> complex:
        return self.v_mag * cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    load: ZipLoad = field(default_factory=ZipLoad)
    pv_setpoint: PvSetpoint | None = None
    slack_voltage: SlackVoltage | None = None


@dataclass(frozen=True)
class Branch:
    """Pi-model branch: series admittance plus a lumped total shunt.

    The total shunt admittance is split 50/50 between the two terminals.
    Parallel branches between the same pair of buses simply sum.
    """

    from_bus: int
    to_bus: int
    series_admittance: complex
    shunt_admittance_total: complex = 0j


# A bus's ``kind`` column holds the index of its kind in ``KINDS``.
KINDS = tuple(BusKind)
_SLACK, _PV, _ZIP = map(KINDS.index, (BusKind.SLACK, BusKind.PV, BusKind.ZIP))
_BUS_COLUMNS = {"kind": np.int8, "shunt": complex, "current": complex,
                "power": complex, "p_set": float, "v_set": float,
                "theta": float}
_BRANCH_COLUMNS = {"from_bus": None, "to_bus": None, "series": complex,
                   "line_shunt": complex}


def _ints(values) -> np.ndarray:
    """An int64 column, or an object column holding what is no int64."""
    column = np.array(values)
    if column.dtype.kind == "i":
        return column
    return np.array(values, dtype=object if len(values) else np.int64)


def _flag(keyed: list, section: int, where, checks) -> None:
    """Add ``(section, i, check, message)`` for every position ``i`` of
    each ``(check, mask, text)``; ``where(i)`` names entry ``i``."""
    for check, mask, text in checks:
        keyed += [(section, i, check, f"{where(i)}: {text}")
                  for i in np.flatnonzero(mask).tolist()]


def _raise_problems(head: list[str], keyed: list[tuple]) -> None:
    """Raise the ``head`` messages, then the keyed ones sorted by section,
    position and check, if there are any."""
    if head or keyed:
        raise CaseValidationError(head + [p[3] for p in sorted(
            keyed, key=lambda p: p[:3])])


class NetworkCase:
    """A validated network: N+1 buses, branches and the MVA base, stored as
    read-only columns.

    Bus columns have one row per bus, sorted by id, so the slack is last:
    ``kind`` (an index into :data:`KINDS`); the load's complex ``shunt``,
    ``current`` and ``power`` (zero at the slack, ``power`` zero at a PV
    bus); ``p_set``, a PV bus's active setpoint; ``v_set``, the voltage
    magnitude of a PV or slack bus; ``theta``, the slack angle in radians
    (zero, one and zero elsewhere).  Branch columns keep the input order:
    ``from_bus``, ``to_bus``, the complex ``series`` admittance and total
    ``line_shunt``.  ``buses`` and ``branches`` are views, built on first
    access.  Construction from objects or, in ``parse_case``, straight
    from the file validates the case: :class:`CaseValidationError` lists
    every violation.  Ids must be contiguous 1..N+1, slack at N+1.
    """

    def __init__(self, buses, branches, base_mva: float = 100.0):
        buses = sorted(buses, key=lambda b: b.id)
        # A bus fills the setpoint columns of its kind only; the two has_
        # columns tell the checks which objects it carries.
        pv = [b.pv_setpoint if b.kind is BusKind.PV else None for b in buses]
        sv = [b.slack_voltage if b.kind is BusKind.SLACK else None
              for b in buses]
        self._fill(base_mva, [b.id for b in buses], {
            "kind": [KINDS.index(b.kind) for b in buses],
            "shunt": [b.load.shunt_admittance for b in buses],
            "current": [b.load.current for b in buses],
            "power": [b.load.power for b in buses],
            "p_set": [s.p if s else 0.0 for s in pv],
            "v_set": [(s or v).v_mag if s or v else 1.0
                      for s, v in zip(pv, sv)],
            "theta": [v.theta if v else 0.0 for v in sv],
            "has_slack_voltage": [b.slack_voltage is not None
                                  for b in buses],
            "has_pv_setpoint": [b.pv_setpoint is not None for b in buses],
            "from_bus": [br.from_bus for br in branches],
            "to_bus": [br.to_bus for br in branches],
            "series": [br.series_admittance for br in branches],
            "line_shunt": [br.shunt_admittance_total for br in branches]})

    @classmethod
    def from_columns(cls, base_mva: float, ids, columns: dict) -> NetworkCase:
        """The validated case of ``columns``; the bus columns list the buses
        in the order of ``ids``, and the case sorts them by id."""
        case = object.__new__(cls)
        case._fill(base_mva, ids, columns)
        return case

    def _fill(self, base_mva, ids, columns: dict) -> None:
        """Store the columns, read-only and sorted by id, and validate them:
        every check is a mask over the entries plus its message."""
        ids = _ints(ids)
        order = np.argsort(ids, kind="stable")
        cols = {name: np.asarray(columns[name], dtype)[order]
                for name, dtype in _BUS_COLUMNS.items()}
        cols |= {name: np.asarray(columns[name], dtype) if dtype
                 else _ints(columns[name])
                 for name, dtype in _BRANCH_COLUMNS.items()}
        for col in cols.values():
            col.flags.writeable = False
        self.__dict__.update(cols, base_mva=base_mva)
        ids = ids[order]
        slack, pv = self.kind == _SLACK, self.kind == _PV
        has_v, has_s = (np.asarray(columns[name], bool)[order]
                        if name in columns else mask
                        for name, mask in (("has_slack_voltage", slack),
                                           ("has_pv_setpoint", pv)))
        m, slack_ids, head, keyed = len(ids), ids[slack].tolist(), [], []
        if not (math.isfinite(base_mva) and base_mva > 0):
            head.append("base_mva must be a positive finite number")
        if m < 2:
            head.append("a case needs at least two buses")
        if not np.array_equal(ids, np.arange(1, m + 1)):
            head.append(f"bus ids must be contiguous 1..{m}, "
                        f"got {ids.tolist()}")
        if len(slack_ids) != 1:
            head.append(
                f"exactly one slack bus required, found {len(slack_ids)}")
        elif slack_ids[0] != ids[-1]:
            head.append(f"slack bus must have the highest id {ids[-1]}, "
                        f"got {slack_ids[0]}")
        load = (self.shunt != 0) | (self.current != 0) | (self.power != 0)
        v_bad = ~(np.isfinite(self.v_set) & (self.v_set > 0))
        _flag(keyed, 1, lambda i: f"bus {ids[i]}", [
            (0, ~np.isfinite(self.shunt),
             "load.shunt_admittance is not finite"),
            (1, ~np.isfinite(self.current), "load.current is not finite"),
            (2, ~np.isfinite(self.power), "load.power is not finite"),
            (3, slack & ~has_v, "slack bus needs a slack_voltage"),
            (3, ~slack & has_v, "only the slack bus has slack_voltage"),
            (4, pv & ~has_s, "pv bus needs a pv_setpoint"),
            (4, (self.kind == _ZIP) & has_s, "only pv buses have pv_setpoint"),
            (5, slack & v_bad, "slack v_mag must be positive"),
            (6, slack & ~np.isfinite(self.theta), "slack theta is not finite"),
            (7, slack & has_s, "slack bus cannot carry a pv_setpoint"),
            (8, slack & load, "slack bus cannot carry a load"),
            (5, pv & v_bad, "pv v_mag must be positive"),
            (6, pv & ~np.isfinite(self.p_set), "pv p is not finite"),
            # A pv bus's active injection is its setpoint; a separate
            # constant-power load term would be ambiguous.
            (8, pv & (self.power != 0),
             "pv bus cannot carry a constant-power load")])
        f, t, series = self.from_bus, self.to_bus, self.series
        _flag(keyed, 2, lambda i: f"branch[{i}] ({f[i]}-{t[i]})", [
            (0, ~(np.isin(f, ids) & np.isin(t, ids)),
             "endpoint is not a known bus id"),
            (1, f == t, "endpoints must differ"),
            (2, ~np.isfinite(series), "series admittance is not finite"),
            (3, np.isfinite(series) & (series == 0),
             "series admittance must be nonzero"),
            (4, ~np.isfinite(self.line_shunt),
             "shunt admittance is not finite")])
        if not (head or keyed or _connected(m, f - 1, t - 1)):
            head.append("network graph is not connected")
        _raise_problems(head, keyed)

    def __eq__(self, other):
        if not isinstance(other, NetworkCase):
            return NotImplemented
        return self.base_mva == other.base_mva and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in (*_BUS_COLUMNS, *_BRANCH_COLUMNS))

    @cached_property
    def buses(self) -> tuple[Bus, ...]:
        """The buses as :class:`Bus` objects, sorted by id."""
        return tuple(
            Bus(k, KINDS[code], ZipLoad(y, i, s),
                PvSetpoint(p, v) if code == _PV else None,
                SlackVoltage(v, th) if code == _SLACK else None)
            for k, (code, y, i, s, p, v, th) in enumerate(zip(*(
                getattr(self, name).tolist() for name in _BUS_COLUMNS)), 1))

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        """The branches as :class:`Branch` objects, in input order."""
        return tuple(Branch(*row) for row in zip(*(
            getattr(self, name).tolist() for name in _BRANCH_COLUMNS)))

    @property
    def slack(self) -> Bus:
        return self.buses[-1]

    @property
    def non_slack(self) -> tuple[Bus, ...]:
        return self.buses[:-1]

    @property
    def n(self) -> int:
        """Number of non-slack buses."""
        return len(self.kind) - 1

    @property
    def v_slack(self) -> complex:
        return self.v_set.item(-1) * cmath.exp(1j * self.theta.item(-1))

    @property
    def has_pv(self) -> bool:
        return bool((self.kind == _PV).any())

    def injection_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-bus complex power targets and a Q-known mask.

        PV buses contribute their active setpoint with a zero imaginary
        placeholder and ``q_known`` False: their reactive injection is free,
        so the imaginary part of any mismatch against this target is not
        meaningful and callers must mask it.
        """
        pv = self.kind[:-1] == _PV
        return np.where(pv, self.p_set[:-1], self.power[:-1]), ~pv

    def p_vector(self) -> np.ndarray:
        """Active-power injections at non-slack buses, (N,) real."""
        return self.injection_targets()[0].real


def scale_power_injections(case: NetworkCase, alpha: float) -> NetworkCase:
    """Scale every constant-power injection (and PV setpoint P) by ``alpha``.

    Constant-impedance and constant-current load parts are left untouched,
    so the no-load voltage profile of the scaled case is unchanged, and the
    scaled case is validated again.  Power is scaled term by term as
    Python's ``complex * float`` multiplies, with ``alpha + 0j``: numpy's
    complex product can fuse the terms and round a zero's sign otherwise.
    """
    s, power = case.power, np.empty_like(case.power)
    power.real = s.real * alpha - s.imag * 0.0
    power.imag = s.real * 0.0 + s.imag * alpha
    columns = {name: getattr(case, name)
               for name in (*_BUS_COLUMNS, *_BRANCH_COLUMNS)}
    return NetworkCase.from_columns(
        case.base_mva, np.arange(1, case.n + 2),
        columns | {"power": power, "p_set": case.p_set * alpha})


def _connected(n_nodes: int, rows, cols) -> bool:
    """True when the undirected graph on 0..n_nodes-1 with the given edges
    (self loops allowed) is connected."""
    if n_nodes <= 1:
        return True
    graph = sparse.coo_array((np.ones(len(rows)), (rows, cols)),
                             shape=(n_nodes, n_nodes))
    return connected_components(graph, directed=False)[0] == 1


class _BlockPattern(NamedTuple):
    """Sparsity of ``[[UL, UR], [LL, LR]]``, the 2N real form of a linear
    model ``diag(direct) dv + diag(V) conj(Y) conj(dv)``.

    Each block has the pattern P of ``Y + I``; P's entries are numbered in
    CSC order.  ``indices`` and ``indptr`` are the 2N CSC structure,
    ``slots[b, k]`` is the CSC position of entry k in block b (UL, UR, LL,
    LR), ``rows[k]`` its row in Y, ``conj_re``/``conj_im`` the parts of
    ``conj(Y)`` there (zero where only the diagonal is), and ``diag[i]``
    the entry number of ``(i, i)``.
    """

    indices: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    conj_re: np.ndarray
    conj_im: np.ndarray
    diag: np.ndarray
    slots: np.ndarray


@dataclass(frozen=True, eq=False)
class AdmittancePartition:
    """Slack-partitioned admittance data and the case's load-independent
    parts: the one context every solver, check and residual reads.

    ``Y_csr`` is the N x N block over non-slack buses as a sparse CSR matrix
    (any dense or sparse matrix is accepted and converted; explicit zeros
    are dropped), ``Ybar`` the (N,) coupling column to the slack,
    ``y_slack`` the slack self-admittance, ``i_load`` the (N,)
    constant-current injections and ``v_slack`` the slack voltage phasor.
    ``factor``, the LU of Y, is built on first use and shared by every
    solver that applies ``Y^(-1)``, so Y is factored at most once per
    partition; ``Y_conj`` and ``v_noload``, the no-load profile, are cached
    the same way, so the profile is solved at most once per partition.  The
    shunt vector is the CSR row sum ``Ysh = Y @ 1 + Ybar``: series terms
    cancel in the row sum, leaving exactly the lumped shunts (line halves
    plus the constant-impedance load parts).  ``block_pattern``, the
    sparsity of the stacked 2N real system, is built once and shared by
    every Jacobian of the partition.
    """

    Y_csr: sparse.csr_array
    Ybar: np.ndarray
    y_slack: complex
    i_load: np.ndarray
    v_slack: complex

    def __post_init__(self):
        y = sparse.csr_array(self.Y_csr, dtype=complex, copy=True)
        ybar = np.array(self.Ybar, dtype=complex)
        i_load = np.array(self.i_load, dtype=complex)
        if len(y.shape) != 2 or y.shape[0] != y.shape[1]:
            raise ValueError("Y must be a square matrix")
        if ybar.shape != (y.shape[0],):
            raise ValueError("Ybar must be a vector matching Y")
        if i_load.shape != (y.shape[0],):
            raise ValueError("i_load must be a vector matching Y")
        y.sum_duplicates()
        y.eliminate_zeros()
        for arr in (y.data, y.indices, y.indptr, ybar, i_load):
            arr.flags.writeable = False
        object.__setattr__(self, "Y_csr", y)
        object.__setattr__(self, "Ybar", ybar)
        object.__setattr__(self, "y_slack", complex(self.y_slack))
        object.__setattr__(self, "i_load", i_load)
        object.__setattr__(self, "v_slack", complex(self.v_slack))

    @property
    def n(self) -> int:
        return self.Y_csr.shape[0]

    @cached_property
    def factor(self) -> Factorization:
        """Sparse LU of Y; raises ``SINGULAR_Y`` as :class:`Factorization`."""
        return Factorization(self.Y_csr, code="SINGULAR_Y",
                             what="admittance block Y")

    @cached_property
    def v_noload(self) -> np.ndarray:
        """The no-load profile ``Y^(-1) (I_L - Ybar V_slack)``, solved on
        ``factor`` on first use; raises as ``factor`` does."""
        v0 = self.factor.solve(self.i_load - self.Ybar * self.v_slack)
        v0.flags.writeable = False
        return v0

    @cached_property
    def Y_conj(self) -> sparse.csr_array:
        """``conj(Y)``, built on first use, so the linear model and the
        quadratic term multiply by one copy instead of conjugating Y on
        every call."""
        y = self.Y_csr.conj()
        for arr in (y.data, y.indices, y.indptr):
            arr.flags.writeable = False
        return y

    @cached_property
    def block_pattern(self) -> _BlockPattern:
        """CSC structure of the 2N x 2N real block form, built on first use.

        The pattern depends on Y's sparsity only, so every Jacobian and
        every stacked linear system of the partition is filled on it.
        """
        y = self.Y_csr
        n = self.n
        nnz = y.nnz
        rows = np.repeat(np.arange(n), np.diff(y.indptr))
        # Column-major keys of Y's entries, then of the diagonal.
        keys = np.concatenate([y.indices.astype(np.intp) * n + rows,
                               np.arange(n) * (n + 1)])
        uniq, where = np.unique(keys, return_inverse=True)
        cols, prows = np.divmod(uniq, n)
        conj_y = np.zeros(uniq.size, dtype=complex)
        conj_y[where[:nnz]] = y.data.conj()
        # Entry k of P = pattern(Y + I) in column j lands in its column of
        # each block; the upper blocks lead every column of the 2N form.
        size = uniq.size
        colptr = np.searchsorted(cols, np.arange(n + 1))
        k = np.arange(size)
        upper = colptr[cols] + k
        lower = colptr[cols + 1] + k
        slots = np.stack([upper, 2 * size + upper, lower, 2 * size + lower])
        indices = np.empty(4 * size, dtype=np.int32)
        indices[slots] = [prows, prows, prows + n, prows + n]
        indptr = np.concatenate([2 * colptr, 2 * size + 2 * colptr[1:]])
        pattern = _BlockPattern(indices, indptr.astype(np.int32), prows,
                               conj_y.real.copy(), conj_y.imag.copy(),
                               where[nnz:], slots)
        for arr in pattern:
            arr.flags.writeable = False
        return pattern

    @cached_property
    def Ysh(self) -> np.ndarray:
        ysh = self.Y_csr.sum(axis=1) + self.Ybar
        ysh.flags.writeable = False
        return ysh

    def slack_adjacent_ids(self) -> tuple[int, ...]:
        """1-based ids of buses directly coupled to the slack."""
        return tuple(int(i) + 1 for i in np.flatnonzero(self.Ybar != 0))


def build_admittance(case: NetworkCase) -> AdmittancePartition:
    """Stamp branches and shunt loads into the partitioned admittance.

    One vectorized pass: the stamps are laid out branch by branch, then bus
    by bus, and duplicates are summed in that order, so every entry is the
    same floating-point sum as a dense accumulation.  Entries that sum to
    exactly zero (parallel branches that cancel) are dropped and count as
    no edge.  Branch stamping is symmetric, hence the reassembled full
    matrix is symmetric exactly.  A sum that overflows raises
    :class:`CaseValidationError`.
    """
    m = case.n + 1
    f, t = case.from_bus - 1, case.to_bus - 1
    ys = case.series
    half = case.line_shunt / 2.0
    buses = np.arange(m)
    rows = np.concatenate([np.stack([f, t, f, t], axis=1).ravel(), buses])
    cols = np.concatenate([np.stack([f, t, t, f], axis=1).ravel(), buses])
    keys, where = np.unique(rows * m + cols, return_inverse=True)
    data = np.zeros(keys.size, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        vals = np.concatenate([
            np.stack([ys + half, ys + half, -ys, -ys], axis=1).ravel(),
            case.shunt])
        np.add.at(data, where, vals)
    finite = np.isfinite(data)
    if not finite.all():
        ids = sorted({int(k) // m + 1 for k in keys[~finite]})
        raise CaseValidationError(
            [f"admittance at bus(es) {ids} is not finite: the branch and "
             f"shunt admittances summed there overflow"])
    keep = data != 0
    full = sparse.csr_array((data[keep], np.divmod(keys[keep], m)),
                            shape=(m, m))
    n = m - 1
    return AdmittancePartition(
        full[:n, :n], full[:n, [n]].toarray().ravel(), full[n, n],
        case.current[:-1], case.v_slack)


@dataclass(frozen=True, eq=False)
class StructureDiagnosis:
    """Structural conditions for a nonsingular no-load linearization.

    The no-load closed form needs ``diag(conj(V)) Y`` nonsingular.  That is
    guaranteed when (i) the non-slack graph is connected and Y is diagonally
    dominant row-wise, strictly at the slack-adjacent buses, and (ii) the
    no-load source ``I_L - Ybar * V_slack`` is not the zero vector (else the
    no-load voltage itself vanishes).
    """

    connected: bool
    dominance_margins: np.ndarray    # |y_ll| - sum_{m != l} |y_lm|, per bus
    weak_rows: np.ndarray            # margin >= -tol, per bus
    slack_adjacent: tuple[int, ...]  # 1-based ids coupled to the slack
    strict_at_slack_adjacent: bool
    source_nonzero: bool
    verdict: bool
    reasons: tuple[str, ...]


def check_noload_structure(partition: AdmittancePartition
                           ) -> StructureDiagnosis:
    """Evaluate the structural no-load solvability conditions.

    Dominance comparisons use a relative tolerance of 1e-12 on the row
    scale, so exact ties count as weak but not strict.
    """
    y = partition.Y_csr
    diag = np.abs(y.diagonal())
    offsum = abs(y).sum(axis=1) - diag
    margins = diag - offsum
    tol = 1e-12 * (diag + offsum)
    weak = margins >= -tol
    strict = margins > tol

    connected = _connected(partition.n, *y.nonzero())

    slack_adjacent = partition.slack_adjacent_ids()
    strict_at_adjacent = bool(slack_adjacent) and all(
        strict[k - 1] for k in slack_adjacent)

    v_slack = partition.v_slack
    source = partition.i_load - partition.Ybar * v_slack
    scale = max(1.0, float(np.abs(partition.Ybar * v_slack).max(initial=0.0)))
    source_nonzero = bool(np.abs(source).max(initial=0.0) > 1e-12 * scale)

    reasons = []
    if not connected:
        reasons.append("DISCONNECTED")
    if not weak.all():
        reasons.append("NOT_DIAGONALLY_DOMINANT")
    if not strict_at_adjacent:
        reasons.append("NO_STRICT_DOMINANCE")
    if not source_nonzero:
        reasons.append("NO_LOAD_VOLTAGE_ZERO")
    verdict = not reasons
    return StructureDiagnosis(
        connected=connected, dominance_margins=margins, weak_rows=weak,
        slack_adjacent=slack_adjacent,
        strict_at_slack_adjacent=strict_at_adjacent,
        source_nonzero=source_nonzero, verdict=verdict,
        reasons=tuple(reasons))
