"""Sparse LU factorization and the sparse kernels shared by every solver.

Every linear solve goes through :class:`Factorization`, which factors a
matrix once with SuperLU and then solves any number of right-hand sides.
It calls ``gstrf``, the SuperLU entry point of ``scipy.sparse.linalg.splu``,
on raw CSC arrays, and reads the pivots from U's raw arrays, so no scipy
matrix is built.  :func:`matvec` and ``_segment_sums`` multiply and sum
the rows of raw :class:`CSRArrays` with scipy's kernels, bit for bit.
Non-finite input and numerically singular systems are rejected at factor
time; the latter by a pivot-ratio test on the diagonal of U.  The 1-norm
condition estimate is computed on first use by the Hager-Higham estimator
that LAPACK's ``xGECON`` runs (``xLACN2``), driven by the factor's own
solves, so it costs a handful of sparse triangular solves and needs no
dense copy of the matrix.  The estimate is diagnostic only; no solve is
refused because of a large condition number.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools
from scipy.sparse.linalg._dsolve import _superlu

from .errors import SolverError

# A factorization is treated as singular when the smallest pivot magnitude
# falls below this fraction of the largest one.
PIVOT_RTOL = 1e-12

# Iteration cap and underflow threshold of LAPACK's xLACN2.
_LACN2_ITMAX = 5
_SAFMIN = np.finfo(float).tiny

# The options ``splu`` passes when every argument is left at its default.
_SPLU_OPTIONS = {"DiagPivotThresh": None, "ColPerm": None,
                 "PanelSize": None, "Relax": None}


def _segment_sums(a, data: np.ndarray) -> np.ndarray:
    """Sums of ``data`` on the pattern of a CSR (CSC) ``a`` over each row
    (column), added in the order scipy's ``a.sum`` adds them, and to zero
    as it adds them, which turns a sum of -0.0 into +0.0."""
    sums = np.zeros(len(a.indptr) - 1, dtype=data.dtype)
    nonempty = np.flatnonzero(np.diff(a.indptr))
    sums[nonempty] += np.add.reduceat(data, a.indptr[nonempty])
    return sums


class CSRArrays(NamedTuple):
    """A square matrix's canonical CSR arrays, float or complex ``data``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def matvec(a, x: np.ndarray) -> np.ndarray:
    """``a @ x`` for a square CSR ``a``, as ``csr_array`` forms it: scipy's
    ``csr_matvec`` into zeros of the upcast dtype."""
    n = len(a.indptr) - 1
    if x.shape != (n,):
        raise ValueError(f"matvec: vector of shape {x.shape}, matrix of {n}")
    out = np.zeros(n, np.result_type(a.data, x))
    _sparsetools.csr_matvec(n, n, a.indptr, a.indices, a.data, x, out)
    return out


class CSCArrays(NamedTuple):
    """A square matrix as SuperLU takes it: CSC arrays without duplicate
    entries, float or complex ``data`` and ``intc`` indices."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def csc_arrays(a) -> CSCArrays:
    """``a``, dense or sparse, converted as ``splu`` converts it: to CSC
    with duplicates summed, a floating dtype and ``intc`` indices; raw or
    scipy canonical square float CSR by ``tocsc``'s kernel, no CSC copy."""
    if isinstance(a, CSRArrays) or (
            sparse.issparse(a) and a.format == "csr" and a.has_canonical_format
            and a.dtype.char in "fdFD" and a.shape[0] == a.shape[1]):
        n, nnz = len(a.indptr) - 1, int(a.indptr[-1])
        out = CSCArrays(np.empty(nnz, a.data.dtype), np.empty(nnz, np.intc),
                        np.empty(n + 1, np.intc))
        _sparsetools.csr_tocsc(n, n, *(x.astype(np.intc, copy=False)
                               for x in (a.indptr, a.indices)), a.data,
                               out.indptr, out.indices, out.data)
        return out
    a = a.tocsc() if sparse.issparse(a) else sparse.csc_array(a)
    a.sum_duplicates()
    a = a._asfptype()
    return CSCArrays(a.data, a.indices.astype(np.intc, copy=False),
                     a.indptr.astype(np.intc, copy=False))


class Factorization:
    """LU factors of one square matrix: dense, sparse, its raw CSR arrays,
    or its :class:`CSCArrays`, which are factored as they are.

    ``solve`` accepts a vector or a matrix of right-hand sides.  Raises
    :class:`SolverError` with ``code`` when ``a`` has a non-finite entry,
    is exactly singular, or its pivot ratio min|u_ii| / max|u_ii| falls
    below :data:`PIVOT_RTOL`.
    """

    def __init__(self, a, *, code: str, what: str = "linear system"):
        self._a = a = a if isinstance(a, CSCArrays) else csc_arrays(a)
        if not np.isfinite(a.data).all():
            raise SolverError(f"{what} has non-finite entries", code=code)
        n = len(a.indptr) - 1
        try:
            self._lu = _superlu.gstrf(
                n, int(a.indptr[-1]), *a, ilu=False, options=_SPLU_OPTIONS,
                csc_construct_func=lambda arrays, shape: arrays)
        except RuntimeError as exc:   # SuperLU: "Factor is exactly singular"
            raise SolverError(
                f"{what} is numerically singular (pivot ratio 0.000e+00)",
                code=code) from exc
        data, rows, indptr = self._lu.U    # may run past U's last entry
        nnz = indptr[-1]
        on_diag = rows[:nnz] == np.repeat(np.arange(n), np.diff(indptr))
        pivots = np.abs(data[:nnz][on_diag])
        self.pivot_ratio = float(pivots.min() / pivots.max())
        if not self.pivot_ratio >= PIVOT_RTOL:
            raise SolverError(
                f"{what} is numerically singular "
                f"(pivot ratio {self.pivot_ratio:.3e})",
                code=code)

    def solve(self, b) -> np.ndarray:
        """``A^(-1) b`` for a vector or for each column of a matrix."""
        return self._lu.solve(np.asarray(b))

    @cached_property
    def condition(self) -> float:
        """1-norm condition estimate ``|A|_1 * est(|A^(-1)|_1)``, as xGECON."""
        anorm = float(_segment_sums(self._a, np.abs(self._a.data)).max())
        cond = anorm * _inverse_norm1_estimate(self._lu, self._a.data.dtype)
        return cond if 0.0 < cond < math.inf else math.inf


def _unit_phase(x: np.ndarray, cplx: bool) -> np.ndarray:
    """xLACN2's sign vector: x/|x| (1 below underflow), or +-1 if real."""
    if not cplx:
        return np.where(x >= 0, 1.0, -1.0)
    ax = np.abs(x)
    return np.divide(x, ax, out=np.ones_like(x), where=ax > _SAFMIN)


def _inverse_norm1_estimate(lu, dtype: np.dtype) -> float:
    """Estimate of |A^(-1)|_1 by LAPACK's xLACN2 reverse-communication loop.

    ``lu.solve(x)`` plays xLACN2's KASE=1 (multiply by A^(-1)) and
    ``lu.solve(x, trans)`` its KASE=2 (by A^(-T), or A^(-H) when complex).
    Deterministic: the iteration starts from the fixed vector 1/n.
    """
    n = lu.shape[0]
    cplx = dtype.kind == "c"
    trans = "H" if cplx else "T"
    x = lu.solve(np.full(n, 1.0 / n, dtype=dtype))
    if n == 1:
        return float(abs(x[0]))
    est = float(np.abs(x).sum())
    sign = _unit_phase(x, cplx)
    x = lu.solve(sign, trans)
    j = int(np.argmax(np.abs(x)))
    for _ in range(2, _LACN2_ITMAX + 1):
        e_j = np.zeros(n, dtype=dtype)
        e_j[j] = 1.0
        x = lu.solve(e_j)
        est_old, est = est, float(np.abs(x).sum())
        new_sign = _unit_phase(x, cplx)
        # repeated sign vector (real only) or no growth: converged
        if (not cplx and np.array_equal(new_sign, sign)) or est <= est_old:
            break
        sign = new_sign
        x = lu.solve(sign, trans)
        j_last, j = j, int(np.argmax(np.abs(x)))
        last = abs(x[j_last]) if cplx else x[j_last]
        if last == abs(x[j]):
            break
    # final stage: an alternating vector guards against the rare matrices
    # on which the power iteration above badly underestimates
    alt = (1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2, -1, 1)
    temp = 2.0 * float(np.abs(lu.solve(alt.astype(dtype))).sum()) / (3 * n)
    return max(est, temp)
