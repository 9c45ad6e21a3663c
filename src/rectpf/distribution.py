"""Distribution feeders: no-load closed form and its decompositions.

With every non-slack bus carrying only a ZIP load, linearizing around the
no-load voltage gives the closed form ``dv = Y^(-1) diag(1/conj(V0)) conj(S)``
whose neglected term is bounded a priori by
``max_row_norm(conj(Y)) |dv|^2``, the ``complex_power_quadratic`` bound
that ``quadratic_residual`` reports.  Splitting ``Y^(-1) = R + jX`` and the
nominal into magnitude and angle separates the P and Q pathways into real
and imaginary voltage changes; when coupling vanishes (X = 0, flat angles)
the familiar decoupled magnitude/angle estimates drop out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._linalg import Factorization
from .errors import InternalCheckError, SolverError
from .linearize import (MIN_NOMINAL_VMAG, LinearSolution, ModelParts,
                        NominalVoltage, compute_noload_voltage)
from .netmodel import AdmittancePartition


def _magnitude_angle(nominal: NominalVoltage):
    vmag = np.abs(nominal.V)
    if vmag.size and vmag.min() < MIN_NOMINAL_VMAG:
        raise SolverError(
            "nominal voltage magnitude vanishes at some bus; angle "
            "extraction is undefined", code="ZERO_NOLOAD_VOLTAGE")
    theta = np.arctan2(nominal.V.imag, nominal.V.real)
    return vmag, theta


@dataclass(frozen=True, eq=False)
class CouplingTerms:
    """The four P/Q pathways of the closed form, split by target component.

    ``re_from_p + re_from_q`` is the real part of the full closed-form
    perturbation and ``im_from_p + im_from_q`` the imaginary part; the
    split shows how strongly active and reactive injections cross-couple
    through X and the nominal angles.
    """

    re_from_p: np.ndarray
    re_from_q: np.ndarray
    im_from_p: np.ndarray
    im_from_q: np.ndarray

    @property
    def dv(self) -> np.ndarray:
        return (self.re_from_p + self.re_from_q
                + 1j * (self.im_from_p + self.im_from_q))


def coupling_decomposition(partition: AdmittancePartition,
                           s: np.ndarray) -> CouplingTerms:
    """Split the closed-form perturbation at the partition's no-load
    profile into its P and Q pathways; raises as
    :func:`compute_noload_voltage` does.

    With ``A = R diag(cos/Vm) - X diag(sin/Vm)`` and
    ``C = X diag(cos/Vm) + R diag(sin/Vm)``::

        Re dv = A P + C Q        Im dv = C P - A Q

    As ``1/conj(V0) = (cos + j sin)/Vm``, ``Y^(-1) (P/conj(V0)) = A P + j C P``
    and likewise for Q: one two-column solve on Y's factor gives all four.
    """
    s = np.asarray(s, dtype=complex)
    e = 1.0 / compute_noload_voltage(partition).V.conj()
    from_p, from_q = partition.factor.solve(
        np.column_stack([e * s.real, e * s.imag])).T
    return CouplingTerms(re_from_p=from_p.real, re_from_q=from_q.imag,
                         im_from_p=from_p.imag, im_from_q=-from_q.real)


# The decoupled assumptions count as holding up to roundoff: nominal angles
# of at most FLAT_ANGLE_TOL radians are flat, and a susceptance row norm of
# at most ZERO_SUSCEPTANCE_TOL per-unit is zero (the lossless gate's
# conductance tolerance, mirrored).
FLAT_ANGLE_TOL = 1e-12
ZERO_SUSCEPTANCE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DecoupledEstimate:
    """Magnitude/angle estimates under the fully decoupled assumptions.

    The assumptions (no susceptance anywhere, flat nominal angles) are
    never silently trusted: ``susceptance_norm`` and ``max_nominal_angle``
    quantify how badly they are violated for the case at hand, and are
    returned unconditionally; ``flags`` reads them against the tolerances
    above.
    """

    v_mag: np.ndarray
    theta: np.ndarray
    susceptance_norm: float
    max_nominal_angle: float

    @property
    def flags(self) -> dict[str, bool]:
        return {"decoupled_assumption_b_zero":
                    self.susceptance_norm <= ZERO_SUSCEPTANCE_TOL,
                "decoupled_assumption_flat_angles":
                    self.max_nominal_angle <= FLAT_ANGLE_TOL}


def _estimator(partition: AdmittancePartition, nominal: NominalVoltage):
    """The estimate at ``nominal`` for zero loading, which carries the
    assumption measures, and the estimate for any ``s`` on one factor of G."""
    vmag, theta = _magnitude_angle(nominal)
    lu = Factorization(partition.G, code="SINGULAR_G",
                       what="conductance block G")
    unloaded = DecoupledEstimate(
        v_mag=vmag, theta=theta,
        susceptance_norm=partition.B_row_norm,
        max_nominal_angle=float(np.abs(theta).max(initial=0.0)))

    def estimate(s) -> DecoupledEstimate:
        s = np.asarray(s, dtype=complex)
        dmag, dang = lu.solve(np.column_stack([s.real / vmag,
                                               s.imag / vmag])).T
        return replace(unloaded, v_mag=vmag + dmag, theta=theta - dang)
    return unloaded, estimate


def decoupled_estimate(partition: AdmittancePartition,
                       nominal: NominalVoltage,
                       s: np.ndarray) -> DecoupledEstimate:
    """Magnitude from P, angle from Q, through the conductance block only.

    Returns ``|V0| + G^(-1) diag(1/|V0|) P`` and
    ``angle(V0) - G^(-1) diag(1/|V0|) Q``, on a factor of G made for this
    estimate; :func:`prepare_decoupled`'s model makes one for all.
    """
    return _estimator(partition, nominal)[1](s)


def prepare_decoupled(partition: AdmittancePartition) -> ModelParts:
    """The decoupled estimate at the no-load nominal, as a perturbation;
    its flags are the assumption flags of :class:`DecoupledEstimate`."""
    nominal = compute_noload_voltage(partition)
    unloaded, estimate = _estimator(partition, nominal)

    def solve(s):
        est = estimate(s)
        return LinearSolution(
            nominal, est.v_mag * np.exp(1j * est.theta) - nominal.V)
    return ModelParts(solve, None, unloaded.flags, None)


def prepare_no_current(partition: AdmittancePartition) -> ModelParts:
    """Closed form specialized to feeders without constant-current loads.

    The no-load profile factors as ``V0 = V_slack * w`` with the open-circuit
    divider vector ``w = -Y^(-1) Ybar``, and the perturbation takes the form
    ``(V_slack/|V_slack|^2) Y^(-1) diag(1/conj(w)) conj(s)``.  The result is
    the same profile the general no-load closed form produces; this is
    asserted internally rather than taken on faith.

    Raises ``NONZERO_CURRENT_LOAD`` for any current load,
    ``ZERO_NOLOAD_VOLTAGE`` when ``V0`` vanishes at some bus and
    ``NONFINITE_NOLOAD_VOLTAGE`` when ``V0`` or ``V_slack/|V_slack|^2`` is not.
    """
    if np.abs(partition.i_load).max(initial=0.0) > 0:
        raise SolverError(
            "this special form assumes no constant-current loads",
            code="NONZERO_CURRENT_LOAD")
    v_slack, lu = partition.v_slack, partition.factor
    w = lu.solve(-partition.Ybar)
    v0 = v_slack * w
    try:
        scale = v_slack / abs(v_slack) ** 2
    except (OverflowError, ZeroDivisionError):
        scale = np.inf
    if np.abs(v0).min(initial=np.inf) < MIN_NOMINAL_VMAG:
        raise SolverError("open-circuit voltage vanishes at some bus",
                          code="ZERO_NOLOAD_VOLTAGE")
    if not (np.isfinite(v0).all() and np.isfinite(scale)):
        raise SolverError(
            "open-circuit voltage or V_slack/|V_slack|^2 is not finite",
            code="NONFINITE_NOLOAD_VOLTAGE")
    nominal = NominalVoltage(v0)

    def solve(s):
        dv = scale * lu.solve(s.conj() / w.conj())
        reference = lu.solve(s.conj() / v0.conj())
        gap = float(np.abs(dv - reference).max(initial=0.0))
        if gap > 1e-12 * (1.0 + float(np.abs(dv).max(initial=0.0))):
            raise InternalCheckError(
                f"no-current special form disagrees with the general closed "
                f"form by {gap:.3e}")
        return LinearSolution(nominal, dv)
    return ModelParts(solve, lu.condition, {"no_current_special": True}, None)


def solve_no_current_closed_form(partition: AdmittancePartition,
                                 s: np.ndarray) -> LinearSolution:
    """The special form of :func:`prepare_no_current` for one ``s``."""
    return prepare_no_current(partition).solve(np.asarray(s, dtype=complex))
