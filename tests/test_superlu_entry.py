"""``Factorization`` against ``scipy.sparse.linalg.splu``, bit for bit.

``Factorization`` calls SuperLU's ``gstrf`` itself, the private entry point
``splu`` calls, and reads the pivots from U's raw arrays.  This property
pins that call to ``splu`` on random real and complex matrices, 1x1 ones,
exactly singular ones and ones just below and above ``PIVOT_RTOL``, drawn
dense, as canonical CSR, as CSR with duplicate entries or with integer
entries.  ``Factorization`` is given the arrays ``splu`` hands SuperLU for
the drawn matrix (a canonical CSR's by ``csc_arrays`` too): the pivot
ratio, vector and matrix solves, the transposed solves of the condition
estimate, the estimate itself and every refusal, code and text, must equal
what ``splu`` gives.  A change in SciPy's private entry point fails here
instead of drifting.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import linalg as spla

from reference_case import superlu_input
from rectpf import SolverError
from rectpf._linalg import (PIVOT_RTOL, CSRArrays, Factorization,
                            _inverse_norm1_estimate, _segment_sums, csc_arrays)

# Small integers give exact cancellation, and so exactly singular factors.
_ENTRIES = st.sampled_from([0.0, 1.0, -1.0, 2.0, -3.0, 0.5, 4.0, -2.5])


@st.composite
def matrices(draw):
    """A square matrix, its form (dense, CSR or integer entries) and the
    scale of the last row: 1, or just below or above ``PIVOT_RTOL``."""
    n = draw(st.integers(1, 7))
    form = draw(st.sampled_from(["dense", "csr", "csr-dup", "int"]))
    cplx = form != "int" and draw(st.booleans())
    entries = draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))
    a = np.array(entries).reshape(n, n)
    if draw(st.booleans()):                     # a dominant diagonal
        a += np.diag(draw(st.lists(st.sampled_from([8.0, -9.0, 10.0]),
                                   min_size=n, max_size=n)))
    if cplx:
        imag = draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))
        a = a + 1j * np.array(imag).reshape(n, n)
    scale = draw(st.sampled_from([1.0, 0.1 * PIVOT_RTOL, 10 * PIVOT_RTOL]))
    if form == "int":
        a = a.astype(np.int64)
    else:
        a[-1] *= scale
    if form.startswith("csr"):
        a = sparse.csr_array(a)
    if form == "csr-dup":       # each entry split in two halves
        a = sparse.csr_array((np.repeat(a.data / 2, 2),
                              np.repeat(a.indices, 2), 2 * a.indptr), (n, n))
    return form, a


def _bytes(x: np.ndarray) -> tuple:
    return x.dtype, x.shape, x.tobytes()


def _splu_outcome(a):
    """``splu``'s factor of ``a`` and the refusal ``Factorization`` derives
    from it, or ``None``."""
    try:
        lu = spla.splu(sparse.csc_array(a))
    except RuntimeError:
        return None, "X: m is numerically singular (pivot ratio 0.000e+00)"
    pivots = np.abs(lu.U.diagonal())
    ratio = float(pivots.min() / pivots.max())
    if not ratio >= PIVOT_RTOL:
        return lu, f"X: m is numerically singular (pivot ratio {ratio:.3e})"
    return lu, None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(drawn=matrices())
@example(drawn=("dense", np.array([[4.0]])))
@example(drawn=("dense", np.zeros((1, 1))))
@example(drawn=("int", np.array([[1, 2], [2, 4]])))
@example(drawn=("csr", sparse.csr_array(np.diag([1.0, 0.1 * PIVOT_RTOL]))))
@example(drawn=("csr", sparse.csr_array(np.diag([1.0, 10 * PIVOT_RTOL]))))
def test_factorization_is_splu_bit_for_bit(drawn):
    form, a = drawn
    arrays = superlu_input(a)
    if form.startswith("csr"):
        assert a.has_canonical_format == (form == "csr" or a.nnz == 0)
    if form == "csr":
        # canonical CSR reaches SuperLU through ``tocsc``'s kernel
        raw = CSRArrays(a.data, a.indices, a.indptr)
        assert list(map(_bytes, csc_arrays(raw))) == list(map(_bytes, arrays))
    ref, refusal = _splu_outcome(a)
    try:
        lu = Factorization(arrays, code="X", what="m")
    except SolverError as exc:
        assert f"{exc.code}: {exc}" == refusal
        return
    assert refusal is None
    pivots = np.abs(ref.U.diagonal())
    assert lu.pivot_ratio == float(pivots.min() / pivots.max())

    n, dtype = a.shape[0], arrays.data.dtype
    assert dtype == ref.U.dtype
    rng = np.random.default_rng(n)
    b = rng.normal(size=(n, 3))
    if dtype.kind == "c":
        b = b + 1j * rng.normal(size=(n, 3))
    for rhs in (b[:, 0], b):
        assert _bytes(lu.solve(rhs)) == _bytes(ref.solve(rhs))
    trans = "H" if dtype.kind == "c" else "T"
    assert (_bytes(lu._lu.solve(b[:, 1], trans))
            == _bytes(ref.solve(b[:, 1], trans)))
    anorm = float(_segment_sums(arrays, np.abs(arrays.data)).max())
    cond = anorm * _inverse_norm1_estimate(ref, dtype)
    assert lu.condition == (cond if 0.0 < cond < np.inf else np.inf)
