"""Exact quadratic residuals of the linear models, and a-priori bounds.

Every linearization in this package neglects exactly one term of the
power-balance expansion: ``diag(dv) conj(Y) conj(dv)``.  This module
evaluates that term two independent ways (complex-vectorized and expanded
real arithmetic) and cross-checks them, computes the norm bounds that can
be stated before solving, and exposes the true nonlinear mismatch of any
candidate voltage as the universal correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import matvec
from .errors import InternalCheckError
from .netmodel import AdmittancePartition, NetworkCase


def max_row_norm(a) -> float:
    """Maximum Euclidean row norm, max_l sqrt(sum_k |a_lk|^2).

    For any vector x this gives ``|diag(x) A x| <= max_row_norm(A) |x|^2``
    and ``|A x| <= max_row_norm(A) |x|`` in the 2-norm (row-wise
    Cauchy-Schwarz, summed).  ``a`` may be dense or a scipy sparse matrix.
    """
    if hasattr(a, "tocsr"):   # ``**`` on a sparse matrix is a matrix power
        from scipy import sparse
        a = sparse.csr_array(a)
    else:
        a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("max_row_norm is defined for matrices")
    if a.size == 0:
        return 0.0
    return float(np.sqrt((abs(a) ** 2).sum(axis=1)).max())


@dataclass(frozen=True)
class BoundCheck:
    """One a-priori bound evaluated against the achieved value."""

    name: str
    value: float
    bound: float

    @property
    def satisfied(self) -> bool:
        return self.value <= self.bound * (1.0 + 1e-12) + 1e-300


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """The neglected quadratic term, by both evaluation routes.

    ``s_hot`` comes from the complex form, ``p_hot``/``q_hot`` from the
    expanded real form; construction fails if they disagree, so
    ``p_hot == s_hot.real`` and ``q_hot == s_hot.imag`` within roundoff is
    a checked invariant, not an assumption.
    """

    s_hot: np.ndarray
    p_hot: np.ndarray
    q_hot: np.ndarray
    norm_s: float
    norm_p: float
    norm_q: float
    bounds: tuple[BoundCheck, ...]


def quadratic_residual(partition: AdmittancePartition,
                       dv: np.ndarray) -> ResidualReport:
    """Evaluate ``diag(dv) conj(Y) conj(dv)`` with a dual-route cross-check.

    The two routes are algebraically identical; a discrepancy above 1e-12
    of the largest term they sum, ``max |dv| (|Y| |dv|)``, which on a stiff
    branch far exceeds the residual, indicates a bug and raises
    :class:`InternalCheckError` rather than returning silently wrong data.
    """
    dv = np.asarray(dv, dtype=complex)
    s_hot = dv * matvec(partition.Y_conj, dv.conj())

    g, b = partition.G, partition.B
    dre, dim = dv.real, dv.imag
    a = matvec(g, dre) - matvec(b, dim)
    c = matvec(g, dim) + matvec(b, dre)
    p_hot = dre * a + dim * c
    q_hot = dim * a - dre * c

    mag = np.abs(dv)
    scale = float((mag * matvec(partition.Y_abs, mag)).max(initial=0.0))
    gap = np.abs(s_hot - (p_hot + 1j * q_hot)).max(initial=0.0)
    if gap > 1e-12 * scale:
        raise InternalCheckError(
            f"complex and expanded residual routes disagree by {gap:.3e}")

    norm_dv = float(np.linalg.norm(dv))
    bound = BoundCheck("complex_power_quadratic",
                       value=float(np.linalg.norm(s_hot)),
                       bound=partition.Y_row_norm * norm_dv**2)
    return ResidualReport(
        s_hot=s_hot, p_hot=p_hot, q_hot=q_hot,
        norm_s=float(np.linalg.norm(s_hot)),
        norm_p=float(np.linalg.norm(p_hot)),
        norm_q=float(np.linalg.norm(q_hot)),
        bounds=(bound,))


@dataclass(frozen=True)
class BoundVerification:
    """Both generic norm inequalities evaluated on one (x, A) pair."""

    quadratic_value: float    # |diag(x) A x|
    quadratic_bound: float    # max_row_norm(A) |x|^2
    linear_value: float       # |A x|
    linear_bound: float       # max_row_norm(A) |x|

    @property
    def both_hold(self) -> bool:
        slack = 1.0 + 1e-12
        return (self.quadratic_value <= self.quadratic_bound * slack
                and self.linear_value <= self.linear_bound * slack)


def verify_bounds(x: np.ndarray, a: np.ndarray) -> BoundVerification:
    """Evaluate the two row-norm inequalities for an arbitrary pair."""
    x = np.asarray(x, dtype=complex)
    a = np.asarray(a, dtype=complex)
    ax = a @ x
    rn = max_row_norm(a)
    nx = float(np.linalg.norm(x))
    return BoundVerification(
        quadratic_value=float(np.linalg.norm(x * ax)),
        quadratic_bound=rn * nx ** 2,
        linear_value=float(np.linalg.norm(ax)),
        linear_bound=rn * nx)


def complex_injection(partition: AdmittancePartition,
                      voltage: np.ndarray) -> np.ndarray:
    """Exact complex power injected at each non-slack bus for ``voltage``."""
    v = np.asarray(voltage, dtype=complex)
    i_net = (matvec(partition.Y, v) + partition.Ybar * partition.v_slack
             - partition.i_load)
    return v * i_net.conj()


def nonlinear_mismatch(partition: AdmittancePartition,
                       voltage: np.ndarray,
                       case: NetworkCase) -> np.ndarray:
    """True complex-power imbalance of a candidate voltage for a case.

    This is the universal oracle hook: for any perturbation ``dv`` around a
    nominal, the mismatch equals the linear-model residual plus the exact
    quadratic term, so a correct full-system solve leaves precisely the
    quadratic term.  At PV buses the reactive injection is free; the
    imaginary part of those entries is reported against a zero placeholder
    and must be masked by the caller (``case.injection_targets()[1]``).
    """
    s_target, _ = case.injection_targets()
    return complex_injection(partition, voltage) - s_target
