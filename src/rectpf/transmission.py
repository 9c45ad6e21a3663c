"""Lossless transmission networks: flat-profile solution and DC recovery.

For a network with no resistive part anywhere (series or shunt) and a unity
slack voltage, linearizing around the flat profile leaves the active-power
rows depending on the perturbation through::

    -diag(Re(I_L)) dRe + im_coeff dIm = P + Re(I_L)

with ``im_coeff = -(B - diag(Bsh)) - diag(Im(I_L))``.  That is N equations
in 2N unknowns; fixing ``dRe = 0`` and solving the square system for
``dIm`` yields a profile whose neglected active-power quadratic term is
identically zero, since with zero conductance the term reduces to
``-diag(dRe) B dIm + diag(dIm) B dRe``.  The reactive error it does commit
is bounded a priori by ``max_row_norm(B) |dIm|^2``.  Neither ``im_coeff``
nor the conditions that make it invertible depend on P, so one prepared
model and one factor serve every load level of a case.

Dropping the current loads and shunts from the same active-power rows and
reading ``dIm`` as a small angle recovers the classical DC power flow.  Both
formulations are built on the partition's cached ``B_dc = -(B -
diag(Bsh))``, so a grid of thousands of buses costs O(nnz) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import CSRArrays, Factorization, _segment_sums
from .errors import SolverError
from .linearize import LinearSolution, ModelParts, flat_nominal
from .netmodel import AdmittancePartition, _minus_diag

# Largest conductance entry (series or shunt) tolerated by the lossless gate.
LOSSLESS_GMAX = 1e-9


def slack_is_unity(partition: AdmittancePartition) -> bool:
    """True when the slack voltage is one per-unit at zero angle."""
    return abs(partition.v_slack - 1.0) <= 1e-12


def lossless_gate(partition: AdmittancePartition) -> SolverError | None:
    """Why the lossless flat-profile formulation refuses a case, if it does.

    Returns ``None`` when the case passes the gate, else the error to raise:
    ``LOSSY_NETWORK`` when any conductance entry exceeds
    :data:`LOSSLESS_GMAX`, ``SLACK_NOT_UNITY`` unless the slack voltage is
    exactly one per-unit at zero angle (the formulation is derived for that
    reference; no attempt is made to rescale).
    """
    gmax = float(np.abs(partition.Y_csr.data.real).max(initial=0.0))
    if gmax > LOSSLESS_GMAX:
        return SolverError(
            f"network has conductance up to {gmax:.3e} pu; the lossless "
            f"formulation requires at most {LOSSLESS_GMAX:.0e}",
            code="LOSSY_NETWORK")
    if not slack_is_unity(partition):
        return SolverError(
            "lossless flat-profile solve requires slack voltage 1.0 at "
            "zero angle", code="SLACK_NOT_UNITY")
    return None


def _im_coeff(partition: AdmittancePartition) -> CSRArrays:
    """``im_coeff = -(B - diag(Bsh)) - diag(Im(I_L))``."""
    return _minus_diag(partition.B_dc, partition.i_load.imag)


@dataclass(frozen=True, eq=False)
class FlatSolveConditions:
    """Per-bus dominance conditions guaranteeing the flat solve's system.

    ``weak`` must hold at every bus and ``strict`` at one slack-adjacent
    bus at least; together with connectivity they make ``im_coeff``
    invertible.  ``lhs``/``rhs`` keep the raw compared quantities for
    reporting.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    weak: np.ndarray
    strict: np.ndarray
    strict_at_slack_adjacent: bool
    overall: bool

    def violated_buses(self) -> tuple[int, ...]:
        return tuple(int(i) + 1 for i in np.flatnonzero(~self.weak))


def flat_conditions(partition: AdmittancePartition) -> FlatSolveConditions:
    """Evaluate the dominance conditions for the flat-profile solve.

    Per bus the net susceptance tied to its own voltage (diagonal minus
    shunt, i.e. minus the sum of all incident series susceptances) shifted
    by the imaginary current load must weakly dominate the row of couplings
    to the other non-slack buses; strictly so at one slack-adjacent bus.
    """
    b = partition.B
    diag = partition.Y_csr.diagonal().imag
    lhs = np.abs(diag - partition.Ysh.imag - partition.i_load.imag)
    rhs = _segment_sums(b, np.abs(b.data)) - np.abs(diag)
    tol = 1e-12 * (lhs + rhs)
    weak = lhs >= rhs - tol
    strict = lhs > rhs + tol
    strict_at = any(strict[k - 1] for k in partition.slack_adjacent_ids())
    overall = bool(weak.all() and strict_at)
    return FlatSolveConditions(lhs=lhs, rhs=rhs, weak=weak, strict=strict,
                               strict_at_slack_adjacent=strict_at,
                               overall=overall)


def prepare_lossless(partition: AdmittancePartition,
                     override_conditions: bool) -> ModelParts:
    """The N active rows at the flat nominal with ``dRe = 0``, for a case
    that passed :func:`lossless_gate`.  Failed dominance conditions refuse
    the case unless ``override_conditions`` is set; the model's
    ``flat_profile_conditions`` flag then reads false, and the LU pivot
    check is the only remaining safeguard (``SINGULAR_FLAT_SYSTEM``)."""
    conditions = flat_conditions(partition)
    if not conditions.overall and not override_conditions:
        raise SolverError(
            "flat-profile dominance conditions do not hold "
            f"(buses {list(conditions.violated_buses()) or 'strictness'}); "
            "pass the override to attempt the solve anyway",
            code="FLAT_CONDITIONS_VIOLATED")
    lu = Factorization(_im_coeff(partition), code="SINGULAR_FLAT_SYSTEM",
                       what="flat-profile coefficient matrix")
    nominal, i_re = flat_nominal(partition.n), partition.i_load.real
    return ModelParts(lambda s: LinearSolution(
        nominal, 1j * lu.solve(s.real + i_re)), lu.condition,
        {"flat_profile_conditions": conditions.overall},
        partition.B_row_norm)


def prepare_dc(partition: AdmittancePartition) -> ModelParts:
    """Classical DC power flow ``-(B - diag(Bsh)) theta = P``: the flat
    active rows without conductances or current loads, with the imaginary
    perturbation read as a bus angle.  Solving for ``P - Gsh`` keeps the
    shunt-conductance load, and moves theta by ``(B - diag(Bsh))^(-1) Gsh``.
    """
    lu = Factorization(partition.B_dc, code="SINGULAR_B",
                       what="DC susceptance matrix")
    nominal = flat_nominal(partition.n)
    return ModelParts(lambda s: LinearSolution(
        nominal, 1j * lu.solve(s.real)), None, {}, None)
