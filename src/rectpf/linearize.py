"""First-order perturbation model of the power-balance equations.

The complex power injected at the non-slack buses for a voltage ``V`` is::

    S(V) = diag(V) conj(Y V + Ybar V_slack - I_L)

Writing ``V = V0 + dv`` for a nominal profile ``V0`` and collecting terms
by order of ``dv`` gives an exactly linear model plus one quadratic
remainder::

    diag(direct) dv + cross conj(dv) = S + offset      (linear model)
    S(V0 + dv) - S = [linear residual] + diag(dv) conj(Y) conj(dv)

with ``direct = conj(Y) conj(V0) + conj(Ybar V_slack) - conj(I_L)``,
``cross = diag(V0) conj(Y)`` and ``offset = -V0 * direct``.  ``direct`` is
the one coefficient computed as such; ``offset`` and the products of
``cross`` are formed where they are used.  This module solves the stacked
2N real system in the general case, and provides the closed form available
at the no-load nominal (where ``direct`` and ``offset`` vanish identically).
Every method is such a model around a fixed nominal; loading changes only
``s``, so a :class:`LinearModel` builds the rest once.

The stacked 2N real system is filled on the partition's cached block
pattern (``AdmittancePartition.block_pattern``): its sparsity depends on Y
alone, so only the values are computed per call, straight into the CSC
arrays SuperLU factors.  The cross products are formed from Y's entries in
real arithmetic, exactly as scipy's sparse product forms them, so those
arrays are bit-identical to the CSC form of the matrix composed from
scipy.sparse operators; no cross matrix, and no scipy matrix, is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, NamedTuple

import numpy as np

from ._linalg import CSCArrays, Factorization, matvec
from .errors import SolverError
from .netmodel import AdmittancePartition

# Nominal-voltage entries below this magnitude make the closed form (which
# divides by conj(V0)) meaningless.
MIN_NOMINAL_VMAG = 1e-12


@dataclass(frozen=True, eq=False)
class NominalVoltage:
    """A nominal complex voltage profile: a finite, read-only vector."""

    V: np.ndarray

    def __post_init__(self):
        v = np.array(self.V, dtype=complex)
        if v.ndim != 1:
            raise ValueError("nominal voltage must be a vector")
        if not np.isfinite(v.view(float)).all():
            raise ValueError("nominal voltage must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "V", v)


def flat_nominal(n: int) -> NominalVoltage:
    """The flat profile: one per-unit, zero angle, at every bus."""
    return NominalVoltage(np.ones(n, dtype=complex))


def _direct_coefficient(partition: AdmittancePartition,
                        v0: np.ndarray) -> np.ndarray:
    """``direct = conj(Y) conj(V0) + conj(Ybar V_slack) - conj(I_L)``."""
    return (matvec(partition.Y_conj, v0.conj())
            + partition.Ybar.conj() * np.conj(partition.v_slack)
            - np.conj(partition.i_load))


def _real_block_matrix(partition: AdmittancePartition, v: np.ndarray,
                       direct: np.ndarray,
                       pv_pos: np.ndarray = ()) -> CSCArrays:
    """Stack ``diag(direct) dv + diag(v) conj(Y) conj(dv)`` into the CSC
    arrays of its 2N x 2N real form, filled on the partition's cached block
    pattern.

    Unknown ordering is ``[Re dv; Im dv]``; row ordering is active-power
    rows then reactive-power rows.  The same matrix is the power-flow
    Jacobian at ``v``, which is why the Newton solver reuses this builder;
    the reactive row of each bus in ``pv_pos`` is replaced by the gradient
    of ``|v|^2``.  Exact zeros are dropped, as scipy's operators drop them.
    """
    pat = partition.block_pattern
    n = partition.n
    v = np.asarray(v, dtype=complex)
    direct = np.asarray(direct, dtype=complex)
    if v.shape != (n,) or direct.shape != (n,):
        raise ValueError("voltage and direct coefficient must have length N")
    vr = v.real[pat.rows]
    vi = v.imag[pat.rows]
    cre = vr * pat.conj_re - vi * pat.conj_im
    cim = vr * pat.conj_im + vi * pat.conj_re
    dre = np.zeros(cre.size)
    dre[pat.diag] = direct.real
    dim = np.zeros(cre.size)
    dim[pat.diag] = direct.imag
    blocks = np.stack([dre + cre, cim - dim, dim + cim, dre - cre])
    if len(pv_pos):
        is_pv = np.zeros(n, dtype=bool)
        is_pv[pv_pos] = True
        blocks[2:, is_pv[pat.rows]] = 0.0
        blocks[2, pat.diag[pv_pos]] = 2.0 * v.real[pv_pos]
        blocks[3, pat.diag[pv_pos]] = 2.0 * v.imag[pv_pos]
    data = np.empty(blocks.size)
    data[pat.slots] = blocks
    if data.all():
        return CSCArrays(data, pat.indices, pat.indptr)
    keep = data != 0
    indptr = np.concatenate([[0], np.cumsum(keep)], dtype=np.intc)
    return CSCArrays(data[keep], pat.indices[keep], indptr[pat.indptr])


def linear_injection(partition: AdmittancePartition,
                     nominal: NominalVoltage,
                     direct: np.ndarray,
                     dv: np.ndarray) -> np.ndarray:
    """Complex power the linear model at ``nominal`` (with its ``direct``
    coefficient) attributes to a perturbation ``dv``.

    For a perturbation produced by a full-system solve this reproduces the
    requested injection up to solver roundoff.  For partially constrained
    solves (flat lossless profile: active rows only) the imaginary part is
    the model's own reactive prediction.
    """
    v0 = nominal.V
    dv = np.asarray(dv, dtype=complex)
    return (direct * dv + v0 * matvec(partition.Y_conj, dv.conj())
            + v0 * direct)


@dataclass(frozen=True, eq=False)
class LinearSolution:
    """A solved voltage perturbation around a nominal profile."""

    nominal: NominalVoltage
    dv: np.ndarray

    def __post_init__(self):
        dv = np.array(self.dv, dtype=complex)
        dv.flags.writeable = False
        object.__setattr__(self, "dv", dv)

    def approx_voltage(self) -> np.ndarray:
        return self.nominal.V + self.dv


class ModelParts(NamedTuple):
    """What a model builds once: its solve, the condition estimate of its
    factored matrix and its flags, none of which depend on ``s``;
    ``reactive_bound`` is the coefficient ``c`` of its bound
    ``c |Im dv|^2`` on the reactive quadratic term, if any."""

    solve: Callable[[np.ndarray], LinearSolution]
    condition: float | None
    flags: Mapping[str, bool]
    reactive_bound: float | None


@dataclass(frozen=True, eq=False)
class LinearModel:
    """One method's linear model around its fixed nominal: ``build`` makes
    its parts, and runs the checks that refuse a case, on the first solve,
    and every later solve reuses them.  ``flags`` are the verdicts of the
    method choice."""

    flags: Mapping[str, bool]
    build: Callable[[], ModelParts]

    @cached_property
    def parts(self) -> ModelParts:
        return self.build()

    def solve(self, s) -> LinearSolution:
        return self.parts.solve(np.asarray(s, dtype=complex))


def compute_noload_voltage(partition: AdmittancePartition) -> NominalVoltage:
    """Voltage with every constant-power injection removed.

    The partition's ``v_noload``: ``Y V0 = I_L - Ybar V_slack`` solved once
    per partition on its shared factor of Y.  Raises ``SINGULAR_Y`` when Y
    cannot be factored, ``NONFINITE_NOLOAD_VOLTAGE`` when the solve
    overflows, and ``ZERO_NOLOAD_VOLTAGE`` when any entry of the profile is
    numerically zero (the closed form divides by it).
    """
    v0 = partition.v_noload
    if not np.isfinite(v0).all():
        raise SolverError("no-load voltage is not finite at some bus",
                          code="NONFINITE_NOLOAD_VOLTAGE")
    if v0.size and np.abs(v0).min() < MIN_NOMINAL_VMAG:
        raise SolverError(
            "no-load voltage vanishes at some bus; the closed form is "
            "undefined there", code="ZERO_NOLOAD_VOLTAGE")
    return NominalVoltage(v0)


def prepare_general(partition: AdmittancePartition,
                    nominal: NominalVoltage) -> ModelParts:
    """The stacked 2N real system at ``nominal``: both power rows at every
    bus.  Raises ``SINGULAR_SYSTEM`` when the LU pivot ratio collapses; the
    coefficients at an arbitrary nominal carry no general nonsingularity
    guarantee, so this is detected, never assumed."""
    v0, n = nominal.V, nominal.V.size
    direct = _direct_coefficient(partition, v0)
    offset = -v0 * direct
    lu = Factorization(_real_block_matrix(partition, v0, direct),
                       code="SINGULAR_SYSTEM",
                       what="stacked 2N perturbation system")

    def solve(s):
        x = lu.solve(np.concatenate([s.real + offset.real,
                                     s.imag + offset.imag]))
        return LinearSolution(nominal, x[:n] + 1j * x[n:])
    return ModelParts(solve, lu.condition, {}, None)


def prepare_noload(partition: AdmittancePartition) -> ModelParts:
    """The closed form at the no-load nominal, where ``direct`` vanishes and
    the model collapses to ``Y dv = conj(s) / conj(V0)``, solved on Y's
    shared factor; raises as :func:`compute_noload_voltage` does."""
    nominal = compute_noload_voltage(partition)
    v0_conj = nominal.V.conj()
    return ModelParts(
        lambda s: LinearSolution(nominal,
                                 partition.factor.solve(s.conj() / v0_conj)),
        partition.factor.condition, {}, None)
