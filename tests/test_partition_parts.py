"""The partition's stamped and derived matrices, bit for bit.

``build_admittance`` splits the sorted stamps into Y, the slack column and
the corner instead of slicing the full matrix, and the partition caches
what every solver used to derive from Y per call.  Each is compared, bits,
pattern and all, with the expression it replaces: the slicing builder kept
in ``reference_case`` and the scipy operators.  ``_connected``'s
union-find is compared with ``scipy.sparse.csgraph``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import casegen
import reference_case
from reference_case import build_case, csr
from rectpf import (AdmittancePartition, Branch, Bus, NetworkCase,
                    SlackVoltage, ZipLoad, build_admittance,
                    check_noload_structure, max_row_norm)
from rectpf._linalg import _segment_sums
from rectpf.netmodel import _connected
from rectpf.transmission import _im_coeff


def _bits(x) -> list:
    """The bit patterns of a float or complex array, or of a scalar."""
    x = np.atleast_1d(x)
    return x.astype(complex if x.dtype.kind == "c" else float).view(
        np.uint64).tolist()


def _assert_same(got, want) -> None:
    """Equal matrices: the same pattern and the same bits in every entry."""
    assert got.format == want.format and got.shape == want.shape
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert _bits(got.data) == _bits(want.data)


# -- connectivity ------------------------------------------------------------


@st.composite
def graphs(draw):
    """Edge lists on 1 to 60 nodes: drawn edges, self loops, repeats and
    isolated nodes, or a path whose node labels are shuffled or reversed,
    the worst order for hooking to the smaller label."""
    n = draw(st.integers(1, 60))
    node = st.integers(0, n - 1)
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
        edges += [edges[i] for i in draw(st.lists(
            st.integers(0, max(len(edges) - 1, 0)), max_size=5))
            if edges]                               # repeated edges
    else:
        order = draw(st.sampled_from(["shuffled", "reversed"]))
        labels = (draw(st.permutations(range(n))) if order == "shuffled"
                  else list(range(n))[::-1])
        cut = draw(st.integers(1, n))               # nodes past it isolated
        edges = list(zip(labels[:cut - 1], labels[1:cut]))
    rows = np.array([a for a, _ in edges], dtype=int)
    cols = np.array([b for _, b in edges], dtype=int)
    return n, rows, cols


@settings(derandomize=True, deadline=None, max_examples=400)
@given(graph=graphs())
@example(graph=(1, np.array([], int), np.array([], int)))
@example(graph=(2, np.array([], int), np.array([], int)))
@example(graph=(3, np.array([0, 2]), np.array([0, 2])))
def test_union_find_agrees_with_csgraph(graph):
    n, rows, cols = graph
    assert _connected(n, rows, cols) == reference_case.connected(n, rows,
                                                                 cols)


@pytest.mark.parametrize("n", [1200, 9600])
@pytest.mark.parametrize("order", ["chain", "reversed", "shuffled"])
def test_long_chains(n, order):
    labels = {"chain": np.arange(n), "reversed": np.arange(n)[::-1],
              "shuffled": np.random.default_rng(n).permutation(n)}[order]
    assert _connected(n, labels[:-1], labels[1:])
    # cutting one link leaves two parts
    cut = n // 3
    rows = np.delete(labels[:-1], cut)
    cols = np.delete(labels[1:], cut)
    assert not _connected(n, rows, cols)
    assert not reference_case.connected(n, rows, cols)


# -- stamping and the derived matrices ---------------------------------------


def _cancelled(case: NetworkCase, rng) -> NetworkCase:
    """``case`` plus two parallel pairs whose series admittances cancel: one
    from a bus that has no branch to the slack, if there is one, to the
    slack, so that the slack column holds an exact zero, and one from that
    bus to another non-slack bus."""
    m = case.n + 1
    tied = set(case.from_bus[case.to_bus == m].tolist()
               + case.to_bus[case.from_bus == m].tolist())
    a = int(rng.choice([k for k in range(1, m) if k not in tied] or [1]))
    y = complex(rng.uniform(1, 5), rng.uniform(-5, -1))
    pairs = [Branch(a, m, y), Branch(a, m, -y)]
    if m > 2:
        b = int(rng.choice([k for k in range(1, m) if k != a]))
        pairs += [Branch(a, b, y), Branch(b, a, -y)]
    return build_case(case.buses, case.branches + tuple(pairs),
                      case.base_mva)


@st.composite
def cases(draw):
    """A ``casegen`` feeder or lossless grid of 2 to 30 buses, as drawn or
    with cancelling pairs added."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        case = casegen.random_feeder_case(
            rng, 2, 30, with_shunt_g=draw(st.booleans()))
    else:
        case = casegen.random_lossless_case(
            rng, 2, 30, pv_fraction=draw(st.sampled_from([0.0, 0.3])))
    return _cancelled(case, rng) if draw(st.booleans()) else case


def _zip_bus(k: int, shunt: complex = 0j) -> Bus:
    return Bus(k, "zip", ZipLoad(shunt, 0.1j, -0.1 + 0j))


SLACK = SlackVoltage(1.0)
# Y, Ybar and the corner all sum to exact zeros and are dropped.
ALL_CANCELLED = build_case(
    (_zip_bus(1), Bus(2, "slack", slack_voltage=SLACK)),
    (Branch(1, 2, 1 - 5j), Branch(1, 2, -1 + 5j)))
# Only the corner cancels: the slack row keeps entries past its diagonal.
CORNER_CANCELLED = build_case(
    (_zip_bus(1), _zip_bus(2), Bus(3, "slack", slack_voltage=SLACK)),
    (Branch(1, 3, 1 - 5j), Branch(2, 3, -1 + 5j), Branch(1, 2, 2 - 4j)))
# Bus 1's shunt cancels its branch, so Y has no diagonal entry there, yet
# its shunt susceptance is not zero: B_dc and im_coeff insert one.
DIAGONAL_CANCELLED = build_case(
    (_zip_bus(1, -1 + 3j), _zip_bus(2),
     Bus(3, "slack", slack_voltage=SLACK)),
    (Branch(1, 3, 1 - 5j), Branch(2, 3, 1 - 5j), Branch(1, 2, 2j)))


def _assert_stamped_as_sliced(case: NetworkCase):
    part = build_admittance(case)
    want = reference_case.reference_admittance(case)
    _assert_same(part.Y_csr, want.Y_csr)
    assert _bits(part.Ybar) == _bits(want.Ybar)
    assert _bits(part.y_slack) == _bits(want.y_slack)
    return part


def _assert_parts_as_scipy(part) -> None:
    y = part.Y_csr
    _assert_same(csr(part.Y_conj), y.conj())
    _assert_same(csr(part.G), y.real)
    _assert_same(csr(part.B), y.imag)
    _assert_same(csr(part.Y_abs), abs(y))
    for m in (part.Y_conj, part.G, part.B, part.Y_abs):   # Y's, not copies
        assert m.indices is part.Y.indices and m.indptr is part.Y.indptr
    assert _bits(part.Y_row_norm) == _bits(max_row_norm(csr(part.Y_conj)))
    assert _bits(part.Y_row_norm) == _bits(max_row_norm(y))
    assert _bits(part.B_row_norm) == _bits(max_row_norm(y.imag))
    dc = -(y.imag - sparse.diags_array(part.Ysh.imag))
    _assert_same(csr(part.B_dc), dc)
    _assert_same(csr(_im_coeff(part)),
                 dc - sparse.diags_array(part.i_load.imag))
    for m in (part.Y_conj, part.G, part.B, part.Y_abs, part.B_dc):
        assert not any(arr.flags.writeable
                       for arr in (m.data, m.indices, m.indptr))
    # the row and column sums the checks and the condition estimate take
    assert _bits(part.Ysh) == _bits(y.sum(axis=1) + part.Ybar)
    diag = np.abs(y.diagonal())
    assert _bits(check_noload_structure(part).dominance_margins) == _bits(
        diag - (abs(y).sum(axis=1) - diag))
    assert _bits(_segment_sums(part.B, np.abs(part.B.data))) == _bits(
        abs(y.imag).sum(axis=1))
    csc = sparse.csc_array(csr(part.B_dc))
    assert _bits(_segment_sums(csc, np.abs(csc.data))) == _bits(
        abs(csc).sum(axis=0))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=cases())
def test_stamps_and_derived_matrices_are_bit_identical(case):
    _assert_parts_as_scipy(_assert_stamped_as_sliced(case))


def test_cancelled_pairs_leave_exact_zeros():
    feeder = casegen.fixed_feeder10()
    y = 2 - 3j
    case = build_case(feeder.buses, feeder.branches + (
        Branch(5, 11, y), Branch(5, 11, -y), Branch(3, 7, y),
        Branch(7, 3, -y)))
    part = _assert_stamped_as_sliced(case)
    assert part.Ybar[4] == 0 and part.Y_csr[2, 6] == 0
    assert part.Y_csr.nnz == build_admittance(feeder).Y_csr.nnz
    _assert_parts_as_scipy(part)
    part = _assert_stamped_as_sliced(ALL_CANCELLED)
    assert part.Y_csr.nnz == 0 and part.Ybar.tolist() == [0j]
    assert part.y_slack == 0
    _assert_parts_as_scipy(part)
    part = _assert_stamped_as_sliced(CORNER_CANCELLED)
    assert part.y_slack == 0 and part.Ybar.all()
    _assert_parts_as_scipy(part)
    part = _assert_stamped_as_sliced(DIAGONAL_CANCELLED)
    assert part.Y_csr[0, 0] == 0 and csr(part.B_dc)[0, 0] != 0
    _assert_parts_as_scipy(part)


def test_lossless_g_keeps_an_explicit_zero_per_entry():
    """As ``Y.real`` does, G holds every entry of Y's pattern."""
    part = build_admittance(casegen.lossless_ladder_case())
    assert len(part.G.data) == part.Y_csr.nnz and not part.G.data.any()
    _assert_parts_as_scipy(part)


@pytest.mark.parametrize("part", [
    build_admittance(ALL_CANCELLED),
    AdmittancePartition(np.array([[2 - 1j, 0], [1j, 0]]), np.ones(2), 1,
                        np.zeros(2), 1)], ids=["no entry", "last column empty"])
def test_partition_takes_its_own_y_back(part):
    """Y's raw arrays carry no shape: handed back to the constructor, as
    ``dataclasses.replace`` does, they keep the order ``len(indptr) - 1``."""
    i_load = np.full(part.n, 0.5j)
    for again in (dataclasses.replace(part, i_load=i_load),
                  AdmittancePartition(part.Y, part.Ybar, part.y_slack,
                                      i_load, part.v_slack)):
        assert again.n == part.n and again.Y_csr.shape == part.Y_csr.shape
        _assert_same(again.Y_csr, part.Y_csr)
        assert _bits(again.i_load) == _bits(i_load)
