"""Newton-Raphson power flow in rectangular voltage coordinates.

This is the nonlinear reference the linear models are judged against.  It
works directly on ``x = [Re V; Im V]`` so its Jacobian is exactly the
stacked real matrix of the perturbation coefficients evaluated at the
current iterate; the builder is shared with the linear solvers rather than
reimplemented.  The power targets and PV rows are bound once per solve,
and the current loads and slack voltage are read from the partition; each
iteration then computes only the direct coefficient (one sparse product) and
fills the partition's cached 2N block pattern, whose sparsity never changes,
into the CSC arrays SuperLU factors: an iteration builds no scipy matrix.
ZIP buses contribute active and reactive balance rows, PV buses an active row
and a squared-magnitude row ``|V|^2 = v_set^2``.

All residual rows are quadratic in the unknowns, so central finite
differences reproduce the analytic Jacobian to roundoff; ``jacobian_check``
exploits that as a built-in self-test.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ._linalg import Factorization
from .errors import SolverError
from .linearize import (_direct_coefficient, _real_block_matrix,
                        compute_noload_voltage)
from .netmodel import AdmittancePartition, NetworkCase
from .residuals import complex_injection

_FD_STEP = 1e-6


@dataclass(frozen=True)
class NewtonSettings:
    """Iteration controls.

    No step damping is applied by default; a half-step fallback triggers
    only when a full step would increase the mismatch.
    """

    tolerance: float = 1e-10
    max_iterations: int = 50

    def __post_init__(self):
        # a bool is not a number here, as in case files
        if isinstance(self.tolerance, bool) or not self.tolerance > 0:
            raise ValueError("tolerance must be a positive number")
        if (isinstance(self.max_iterations, bool)
                or not isinstance(self.max_iterations, numbers.Integral)
                or self.max_iterations < 1):
            raise ValueError("max_iterations must be an integer of at least 1")


@dataclass(frozen=True, eq=False)
class NewtonResult:
    """Outcome of a Newton run.

    Hitting the iteration cap is not an exception: the best iterate comes
    back with ``converged = False`` so callers can inspect it.
    """

    voltage: np.ndarray
    converged: bool
    iterations: int
    final_mismatch: float

    def __post_init__(self):
        v = np.array(self.voltage, dtype=complex)
        v.flags.writeable = False
        object.__setattr__(self, "voltage", v)


def _equations(partition: AdmittancePartition, case: NetworkCase,
               s_target: np.ndarray):
    """``residual(v) -> (f, mismatch)`` and ``jacobian(v)``, the Jacobian's
    CSC arrays, with the power targets ``s_target`` and the case's PV rows
    bound once.  ``f`` stacks the active rows over the reactive rows, a PV
    bus's replaced by its |V|^2 row; ``mismatch`` is the largest per-bus
    |complex| mismatch at ZIP buses, and of the active and |V|^2 rows at PV
    buses."""
    pv_pos = np.flatnonzero(~case.injection_targets()[1])
    # Python's float power, which can round x * x differently
    vset_sq = np.array([v ** 2 for v in case.v_set[pv_pos].tolist()])

    def residual(v):
        ds = complex_injection(partition, v) - s_target
        lower = ds.imag.copy()
        per_bus = np.abs(ds)
        if pv_pos.size:
            lower[pv_pos] = (v.real[pv_pos] ** 2 + v.imag[pv_pos] ** 2
                             - vset_sq)
            per_bus[pv_pos] = np.maximum(np.abs(ds.real[pv_pos]),
                                         np.abs(lower[pv_pos]))
        return (np.concatenate([ds.real, lower]),
                float(per_bus.max(initial=0.0)))

    def jacobian(v):
        return _real_block_matrix(partition, v,
                                  _direct_coefficient(partition, v), pv_pos)

    return residual, jacobian


def solve_newton(partition: AdmittancePartition,
                 case: NetworkCase,
                 settings: NewtonSettings | None = None) -> NewtonResult:
    """Run Newton-Raphson to the requested per-bus mismatch tolerance.

    Starts at the no-load profile, or flat when it cannot be computed.
    Raises ``SINGULAR_JACOBIAN`` when an iterate's Jacobian cannot be
    factored.  A converged result satisfies: every ZIP bus's complex
    mismatch and every PV bus's active mismatch and squared-magnitude
    deviation are at most ``settings.tolerance``.
    """
    return _solve(partition, case, case.injection_targets()[0],
                  settings or NewtonSettings(), {})


def _solve(partition: AdmittancePartition, case: NetworkCase,
           s_target: np.ndarray, settings: NewtonSettings,
           start: dict) -> NewtonResult:
    """:func:`solve_newton` for the power targets ``s_target``, which a
    ``compare`` sweep scales without scaling the case.  ``start`` keeps the
    first Jacobian's factor, which no target changes, for a sweep's solves."""
    residual, jacobian = _equations(partition, case, s_target)
    n = partition.n
    try:
        v = compute_noload_voltage(partition).V.copy()
    except SolverError:
        v = np.ones(n, dtype=complex)

    f, mismatch = residual(v)
    for it in range(settings.max_iterations):
        if mismatch <= settings.tolerance:
            return NewtonResult(v, True, it, mismatch)
        kept = start if it == 0 else {}
        if "lu" not in kept:
            kept["lu"] = Factorization(jacobian(v), code="SINGULAR_JACOBIAN",
                                       what="power-flow Jacobian")
        step2n = kept["lu"].solve(-f)
        step = step2n[:n] + 1j * step2n[n:]

        # Full step first; halve only while the mismatch would increase.
        best = None
        scale = 1.0
        for _ in range(5):
            cand = v + scale * step
            f_c, m_c = residual(cand)
            if best is None or m_c < best[0]:
                best = (m_c, cand, f_c)
            if m_c <= mismatch:
                break
            scale *= 0.5
        mismatch, v, f = best
    converged = mismatch <= settings.tolerance
    return NewtonResult(v, converged, settings.max_iterations, mismatch)


def jacobian_check(partition: AdmittancePartition,
                   case: NetworkCase,
                   voltage: np.ndarray) -> float:
    """Largest relative gap between analytic and central-difference Jacobian.

    Entries whose analytic magnitude is at most 1e-8 are skipped (relative
    comparison is meaningless there).  Returns 0.0 when nothing qualifies.
    """
    v = np.asarray(voltage, dtype=complex)
    residual, jacobian = _equations(partition, case,
                                    case.injection_targets()[0])
    n = partition.n
    jac, analytic = jacobian(v), np.zeros((2 * n, 2 * n))
    cols = np.repeat(np.arange(2 * n), np.diff(jac.indptr))
    analytic[jac.indices, cols] = jac.data

    fd = np.empty_like(analytic)
    for k in range(2 * n):
        bump = np.zeros(n, dtype=complex)
        bump[k % n] = _FD_STEP if k < n else 1j * _FD_STEP
        f_plus, _ = residual(v + bump)
        f_minus, _ = residual(v - bump)
        fd[:, k] = (f_plus - f_minus) / (2.0 * _FD_STEP)

    mask = np.abs(analytic) > 1e-8
    if not mask.any():
        return 0.0
    rel = np.abs(fd - analytic)[mask] / np.abs(analytic)[mask]
    return float(rel.max())
