"""Network data model and admittance-matrix construction.

Buses are numbered 1..N+1 with the slack (reference) bus fixed at N+1.
All stored quantities are per-unit on the case's MVA base; angles are
radians (the case-file layer converts from degrees).  Every type here is
immutable after construction, so instances are safe to share freely.

A case is built from and stored as columns, one read-only array per
quantity with one row per bus or per branch, because every solver reads the
loads and injections as vectors; the :class:`Bus` and :class:`Branch`
objects of a :class:`NetworkCase` are views of its columns.

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
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

from ._linalg import CSRArrays, Factorization, _segment_sums
from .errors import CaseValidationError


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


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str                   # one of KINDS
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
KINDS = ("slack", "pv", "zip")
_SLACK, _PV, _ZIP = range(3)
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
    if np.logical_or.reduce([mask for _, mask, _ in checks], None):
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
    access.  The constructor takes the ``columns`` (bus columns in the order
    of ``ids``, a row per id; branch columns a row per ``from_bus`` entry)
    and validates them, each check a mask over the entries: a
    :class:`CaseValidationError` lists every violation.  Ids must be
    contiguous 1..N+1, slack at N+1.
    """

    def __init__(self, base_mva: float, ids, columns: dict):
        ids = _ints(ids)
        cols = {name: np.asarray(columns.get(name, ()), dtype) if dtype
                else _ints(columns.get(name, ()))
                for name, dtype in (_BUS_COLUMNS | _BRANCH_COLUMNS).items()}
        rows = dict.fromkeys(_BUS_COLUMNS, ids.size) | dict.fromkeys(
            _BRANCH_COLUMNS, cols["from_bus"].size)
        _raise_problems([f"column {name!r} needs {rows[name]} rows, got "
                         f"shape {col.shape}" for name, col in cols.items()
                         if col.shape != (rows[name],)], [])
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        for name, col in cols.items():
            cols[name] = col = col[order] if name in _BUS_COLUMNS else col
            col.flags.writeable = False
        self.__dict__.update(cols, base_mva=base_mva)
        slack, pv = self.kind == _SLACK, self.kind == _PV
        m, slack_ids, head, keyed = len(ids), ids[slack].tolist(), [], []
        if not (math.isfinite(base_mva) and base_mva > 0):
            head.append("base_mva must be a positive finite number")
        if m < 2:
            head.append("a case needs at least two buses")
        if not (contiguous := np.array_equal(ids, np.arange(1, m + 1))):
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
            (3, slack & v_bad, "slack v_mag must be positive"),
            (4, slack & ~np.isfinite(self.theta), "slack theta is not finite"),
            (5, slack & load, "slack bus cannot carry a load"),
            (3, pv & v_bad, "pv v_mag must be positive"),
            (4, pv & ~np.isfinite(self.p_set), "pv p is not finite"),
            # A pv bus's active injection is its setpoint; a separate
            # constant-power load term would be ambiguous.
            (5, pv & (self.power != 0),
             "pv bus cannot carry a constant-power load")])
        f, t, series = self.from_bus, self.to_bus, self.series
        known = ((1 <= f) & (f <= m) & (1 <= t) & (t <= m)
                 if contiguous and f.dtype.kind == t.dtype.kind == "i"
                 else np.isin(f, ids) & np.isin(t, ids))
        _flag(keyed, 2, lambda i: f"branch[{i}] ({f[i]}-{t[i]})", [
            (0, ~known, "endpoint is not a known bus id"),
            (1, f == t, "endpoints must differ"),
            (2, ~np.isfinite(series), "series admittance is not finite"),
            (3, np.isfinite(series) & (series == 0),
             "series admittance must be nonzero"),
            (4, ~np.isfinite(self.line_shunt),
             "shunt admittance is not finite")])
        if not (head or keyed or _connected(m, f - 1, t - 1)):
            head.append("network graph is not connected")
        _raise_problems(head, keyed)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot change {name!r}: a NetworkCase is "
                             "immutable")

    __delattr__ = __setattr__

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


def _scaled(case: NetworkCase, alpha: float):
    """The power and PV setpoint columns times ``alpha``; power term by term
    as Python's ``complex * float`` multiplies, with ``alpha + 0j``: numpy's
    complex product can fuse the terms and round a zero's sign otherwise."""
    s, power = case.power, np.empty_like(case.power)
    power.real = s.real * alpha - s.imag * 0.0
    power.imag = s.real * 0.0 + s.imag * alpha
    return power, case.p_set * alpha


def scale_power_injections(case: NetworkCase, alpha: float) -> NetworkCase:
    """Scale every constant-power injection (and PV setpoint P) by ``alpha``.

    Constant-impedance and constant-current load parts are left untouched,
    so the no-load voltage profile of the scaled case is unchanged, and the
    scaled case is validated again.
    """
    power, p_set = _scaled(case, alpha)
    cols = {k: getattr(case, k) for k in _BUS_COLUMNS | _BRANCH_COLUMNS}
    return NetworkCase(case.base_mva, np.arange(1, case.n + 2),
                       cols | {"power": power, "p_set": p_set})


def _scaled_targets(case: NetworkCase, alpha: float) -> np.ndarray:
    """``scale_power_injections(case, alpha).injection_targets()[0]``.  Only
    a target that is not finite makes the scaled case invalid (as any
    ``alpha`` that is not finite does), so the case is built only then, to
    raise its validation error."""
    power, p_set = _scaled(case, alpha)
    s = np.where(case.kind[:-1] == _PV, p_set[:-1], power[:-1])
    if not np.isfinite(s).all():
        scale_power_injections(case, alpha)
    return s


def _connected(n_nodes: int, rows, cols) -> bool:
    """True when the undirected graph on 0..n_nodes-1 with the given edges
    (self loops allowed) is connected.  A vectorized union-find: while an
    edge joins two labels, hook each root to the smallest root across its
    edges, then jump pointers until every label is a root."""
    label = np.arange(n_nodes)
    rows, cols = np.asarray(rows, np.intp), np.asarray(cols, np.intp)
    while (split := label[rows] != label[cols]).any():
        lr, lc = label[rows[split]], label[cols[split]]
        np.minimum.at(label, lr, np.minimum(lr, lc))
        np.minimum.at(label, lc, np.minimum(lr, lc))
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    return not label.any()


def _minus_diag(a: CSRArrays, d: np.ndarray) -> CSRArrays:
    """``a - diag(d)`` for a canonical CSR ``a``, entry for entry as scipy's
    CSR subtraction forms it: ``a_ii - d_i`` on a stored diagonal,
    ``0 - d_i`` on a missing one, and exact zeros dropped."""
    n = len(a.indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    keys, where = np.unique(np.concatenate(
        [rows * n + a.indices, np.arange(n) * (n + 1)]), return_inverse=True)
    data = np.zeros(keys.size)
    data[where[:len(a.data)]] = a.data
    data[where[len(a.data):]] -= d
    keep = data != 0
    rows, cols = np.divmod(keys[keep], n)
    return CSRArrays(data[keep], cols, np.searchsorted(rows, np.arange(n + 1)))


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
    (any dense or sparse matrix is accepted, copied and converted; explicit
    zeros are dropped), ``Ybar`` the (N,) coupling column to the slack,
    ``y_slack`` the slack self-admittance, ``i_load`` the (N,)
    constant-current injections and ``v_slack`` the slack voltage phasor.
    ``Ysh = Y @ 1 + Ybar`` is the shunt vector: series terms cancel in the
    row sum, leaving the lumped shunts.

    The rest is read-only and built on first use, at most once per
    partition: ``factor``, Y's LU, which every solver applying ``Y^(-1)``
    shares; ``v_noload``, the no-load profile; ``block_pattern``, the
    sparsity every 2N Jacobian fills; and what is derived from Y, each bit
    for bit the scipy expression it replaces: ``Y_conj``, ``G``, ``B`` and
    ``Y_abs`` (``Y.conj()``, ``Y.real``, ``Y.imag``, ``abs(Y)``), the
    ``max_row_norm`` of Y (equal for ``conj(Y)``) and of B as ``Y_row_norm``
    and ``B_row_norm``, and ``B_dc = -(B - diags(Ysh.imag))``, which the
    DC and lossless models share.  ``Y_csr`` is the one scipy matrix: the
    derived ones are raw ``CSRArrays``, the first four on Y's own indices.
    """

    Y_csr: sparse.csr_array
    Ybar: np.ndarray
    y_slack: complex
    i_load: np.ndarray
    v_slack: complex
    # build_admittance's own Y: canonical, shared with no one, not copied
    _built: InitVar[bool] = False

    def __post_init__(self, _built):
        y = self.Y_csr
        if not _built:
            y = sparse.csr_array(y, dtype=complex, copy=True)
            y.sum_duplicates()
            y.eliminate_zeros()
        ybar = np.array(self.Ybar, dtype=complex)
        i_load = np.array(self.i_load, dtype=complex)
        if len(y.shape) != 2 or y.shape[0] != y.shape[1]:
            raise ValueError("Y must be a square matrix")
        if ybar.shape != (y.shape[0],):
            raise ValueError("Ybar must be a vector matching Y")
        if i_load.shape != (y.shape[0],):
            raise ValueError("i_load must be a vector matching Y")
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

    def _on_pattern(self, data: np.ndarray) -> CSRArrays:
        """The read-only CSR arrays of ``data`` on Y's pattern."""
        data.flags.writeable = False
        return CSRArrays(data, self.Y_csr.indices, self.Y_csr.indptr)

    def _max_row_norm(self, magnitudes: np.ndarray) -> float:
        """``max_row_norm`` of the entry ``magnitudes`` on Y's pattern."""
        return float(np.sqrt(_segment_sums(self.Y_csr, magnitudes ** 2)).max())

    Y_conj = cached_property(lambda p: p._on_pattern(p.Y_csr.data.conj()))
    G = cached_property(lambda p: p._on_pattern(p.Y_csr.data.real.copy()))
    B = cached_property(lambda p: p._on_pattern(p.Y_csr.data.imag.copy()))
    Y_abs = cached_property(lambda p: p._on_pattern(np.abs(p.Y_csr.data)))
    Y_row_norm = cached_property(lambda p: p._max_row_norm(p.Y_abs.data))
    B_row_norm = cached_property(lambda p: p._max_row_norm(np.abs(p.B.data)))

    @cached_property
    def B_dc(self) -> CSRArrays:
        b = _minus_diag(self.B, self.Ysh.imag)
        np.negative(b.data, out=b.data)
        for arr in b:
            arr.flags.writeable = False
        return b

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
        indices = np.empty(4 * size, dtype=np.intc)
        indices[slots] = [prows, prows, prows + n, prows + n]
        indptr = np.concatenate([2 * colptr, 2 * size + 2 * colptr[1:]])
        pattern = _BlockPattern(indices, indptr.astype(np.intc), prows,
                               conj_y.real.copy(), conj_y.imag.copy(),
                               where[nnz:], slots)
        for arr in pattern:
            arr.flags.writeable = False
        return pattern

    @cached_property
    def Ysh(self) -> np.ndarray:
        ysh = _segment_sums(self.Y_csr, self.Y_csr.data) + self.Ybar
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
    keys, data = keys[keep], data[keep]
    n, (rows, cols) = m - 1, np.divmod(keys, m)
    block, to_slack = (rows < n) & (cols < n), (rows < n) & (cols == n)
    ybar = np.zeros(n, dtype=complex)
    ybar[rows[to_slack]] = data[to_slack]
    y = sparse.csr_array((data[block], cols[block], np.searchsorted(
        rows[block], np.arange(m))), shape=(n, n))
    # the corner's entry, or 0 where its stamps cancel
    return AdmittancePartition(y, ybar, data[keys == m * m - 1].sum(),
                               case.current[:-1], case.v_slack, _built=True)


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
    offsum = _segment_sums(y, partition.Y_abs.data) - diag
    margins = diag - offsum
    tol = 1e-12 * (diag + offsum)
    weak = margins >= -tol
    strict = margins > tol

    rows = np.repeat(np.arange(partition.n), np.diff(y.indptr))
    connected = _connected(partition.n, rows, y.indices)

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
