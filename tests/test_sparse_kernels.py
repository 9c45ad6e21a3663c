"""The raw CSR kernels against scipy's ``csr_array``, bit for bit.

The partition keeps the matrices it derives from Y as raw
:class:`CSRArrays`.  ``matvec`` multiplies them and ``_segment_sums`` sums
their rows with scipy's own kernels, and ``csc_arrays`` hands them to
SuperLU through ``tocsc``'s kernel.  This property pins each to the
``csr_array`` of the same arrays: ``@``, ``sum(axis=1)`` and ``tocsc``,
on float and complex data and vectors, with explicit and signed zeros,
empty rows, infinities and nans, 1x1 matrices and no entries at all.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from rectpf._linalg import CSRArrays, _segment_sums, csc_arrays, matvec

_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.5, 3.25, 5e-324, 1e308,
                           np.inf, -np.inf, np.nan])


def _numbers(draw, size: int, cplx: bool) -> np.ndarray:
    real = np.array(draw(st.lists(_VALUES, min_size=size, max_size=size)))
    if not cplx:
        return real
    imag = draw(st.lists(_VALUES, min_size=size, max_size=size))
    out = np.empty(size, complex)
    out.real, out.imag = real, imag
    return out


@st.composite
def products(draw):
    """Raw CSR arrays of a square matrix (sorted columns, rows that may be
    empty, either index dtype) and a vector, which may be a strided view."""
    n = draw(st.integers(1, 6))
    rows = [sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
            for _ in range(n)]
    index = draw(st.sampled_from([np.intc, np.int64]))
    indptr = np.cumsum([0, *map(len, rows)]).astype(index)
    indices = np.array([k for row in rows for k in row], index)
    data = _numbers(draw, len(indices), draw(st.booleans()))
    x = _numbers(draw, n, draw(st.booleans()))
    if draw(st.booleans()):
        x = _numbers(draw, n, True).real        # as quadratic_residual's
    return CSRArrays(data, indices, indptr), x


def _bytes(x: np.ndarray) -> tuple:
    return x.dtype, x.shape, x.tobytes()


@settings(derandomize=True, deadline=None, max_examples=400)
@given(drawn=products())
@example(drawn=(CSRArrays(np.zeros(0), np.zeros(0, np.intc),
                          np.zeros(2, np.intc)), np.array([np.nan])))
@example(drawn=(CSRArrays(np.array([-0.0]), np.zeros(1, np.intc),
                          np.array([0, 1], np.intc)), np.array([0.0])))
@example(drawn=(CSRArrays(np.array([np.inf, 1j]), np.array([0, 1]),
                          np.array([0, 0, 2])), np.array([0.0, -0.0])))
def test_kernels_are_scipys_bit_for_bit(drawn):
    a, x = drawn
    n = len(x)
    want = sparse.csr_array(a, shape=(n, n))
    assert want.nnz == len(a.data)              # explicit zeros kept
    with np.errstate(invalid="ignore", over="ignore"):
        assert _bytes(matvec(a, x)) == _bytes(want @ x)
        assert _bytes(_segment_sums(a, a.data)) == _bytes(want.sum(axis=1))
    csc = want.tocsc()
    assert [_bytes(arr) for arr in csc_arrays(a)] == [_bytes(arr) for arr in (
        csc.data, csc.indices.astype(np.intc), csc.indptr.astype(np.intc))]


def test_matvec_refuses_a_vector_of_another_length():
    a = CSRArrays(np.ones(2), np.array([0, 1], np.intc),
                  np.array([0, 1, 2], np.intc))
    for x in (np.ones(1), np.ones(3), np.ones((2, 1))):
        with pytest.raises(ValueError, match="matvec"):
            matvec(a, x)
