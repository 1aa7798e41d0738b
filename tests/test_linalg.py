"""Vector kernels and the sparse operator type.

Reference values are either exact small-integer arithmetic or dense numpy
recomputations of the same quantity.
"""

from __future__ import annotations

import os
import subprocess
import sys
import types
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pipekrylov import linalg
from pipekrylov.linalg import (
    SparseOperator,
    as_vector,
    blocks,
    dot,
    maxpy,
    mdot,
    norm2,
    stacked_maxpy,
)
from pipekrylov.problems import make_identity, make_poisson, make_sinker, make_toy_diagonal
from pipekrylov.rng import SplitMix64

from conftest import random_spd, same_csr


def test_as_vector_coerces_lists_to_float64():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.tolist() == [1.0, 2.0, 3.0]


def test_as_vector_rejects_matrices():
    with pytest.raises(ValueError, match="1-D"):
        as_vector(np.zeros((2, 2)))


def test_dot_matches_integer_hand_sum():
    # 1*4 + 2*5 + 3*6 = 32, exact in float64.
    assert dot(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])) == 32.0


def test_dot_is_argument_order_symmetric_exactly():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(257)
    b = rng.standard_normal(257)
    assert dot(a, b) == dot(b, a)


def test_dot_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        dot(np.zeros(3), np.zeros(4))


def test_norm2_of_3_4_vector_is_5():
    assert norm2(np.array([3.0, 4.0])) == 5.0


class _FakeThreads:
    """A stand-in for the BLAS thread functions that logs every set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def set(self, count):
        self.sets.append(count)
        self.count = count

    def get(self):
        return self.count


@pytest.mark.parametrize("count,sets", [(1, []), (2, [1, 2]), (4, [1, 4])])
def test_scalar_products_take_one_thread_and_restore_the_count(monkeypatch, count, sets):
    fake = _FakeThreads(count)
    monkeypatch.setattr(linalg, "_threads", (fake.set, fake.get))
    a, b = np.arange(5.0), np.ones(5)
    assert dot(a, b) == 10.0
    assert fake.sets == sets and fake.count == count
    fake.sets.clear()
    assert norm2(np.array([3.0, 4.0])) == 5.0
    assert fake.sets == sets and fake.count == count
    # a product that raises under the lowered count still restores it
    for call in (lambda: dot(np.zeros((3, 2)), np.zeros(3)), lambda: norm2(np.zeros((2, 3)))):
        fake.sets.clear()
        with pytest.raises(ValueError):
            call()
        assert fake.sets == sets and fake.count == count
    fake.sets.clear()
    with pytest.raises(ValueError, match="mismatch"):
        dot(np.zeros(3), np.zeros(4))
    assert fake.count == count


@pytest.mark.skipif(not linalg.SCALAR_ONE_THREAD,
                    reason="numpy's OpenBLAS exposes no thread-count functions")
def test_scalar_products_leave_the_blas_thread_count_as_they_found_it():
    setter, getter = linalg._threads
    before = getter()
    a, b = np.random.default_rng(5).standard_normal((2, 64000))
    try:
        for count in (1, 2):
            setter(count)
            dot(a, b)
            norm2(a)
            with pytest.raises(ValueError):
                dot(np.zeros((3, 2)), np.zeros(3))
            with pytest.raises(ValueError, match="mismatch"):
                dot(a, b[1:])
            assert getter() == count
            setter(1)
            one = float(np.dot(a, b)), float(np.sqrt(np.dot(a, a)))
            setter(count)
            assert (dot(a, b), norm2(a)) == one
    finally:
        setter(before)


def test_scalar_products_without_thread_functions_are_numpys(monkeypatch):
    # unknown symbols, or a numpy without a numpy.libs folder, find nothing
    assert linalg._blas_thread_control((("no_such_set", "no_such_get"),)) is None
    with monkeypatch.context() as patch:
        patch.setattr(linalg.os, "listdir", mock.Mock(side_effect=FileNotFoundError))
        assert linalg._blas_thread_control() is None
    monkeypatch.setattr(linalg, "_threads", None)
    a, b = np.random.default_rng(6).standard_normal((2, 64000))
    assert dot(a, b) == float(np.dot(a, b))
    assert norm2(a) == float(np.sqrt(np.dot(a, a)))


def test_dot_and_norm2_are_plain_functions_and_norm2_does_not_call_dot(monkeypatch):
    # a tracer replaces both by name in every module that bound them, so a
    # norm that called the module-level dot would be counted twice
    for fn, name in ((dot, "dot"), (norm2, "norm2")):
        assert type(fn) is types.FunctionType
        assert (fn.__module__, fn.__name__) == ("pipekrylov.linalg", name)
        assert getattr(linalg, name) is fn
    monkeypatch.setattr(linalg, "dot", mock.Mock(side_effect=AssertionError("dot called")))
    assert norm2(np.array([3.0, 4.0])) == 5.0


def _block(rows: int, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, n)), rng.standard_normal(n)


@pytest.mark.parametrize("rows,n", [(1, 5), (7, 64), (30, 1000)])
def test_mdot_matches_a_list_of_dots(rows, n):
    vs, u = _block(rows, n, seed=rows)
    expected = np.array([dot(v, u) for v in vs])
    got = mdot(vs, u)
    assert got.shape == (rows,)
    scale = np.abs(vs) @ np.abs(u)
    assert np.all(np.abs(got - expected) <= 1e-13 * scale)


@pytest.mark.parametrize("rows,n", [(0, 5), (1, 5), (7, 64), (30, 1000)])
def test_block_maxpy_matches_list_maxpy(rows, n):
    # the list form: a sequential axpy loop over the rows, in index order
    vs, u = _block(rows, n, seed=100 + rows)
    cs = np.random.default_rng(rows).standard_normal(rows)
    expected = u.copy()
    for c, v in zip(cs.tolist(), vs):
        expected = expected + c * v
    got = maxpy(u, cs, vs)
    assert got is not u
    scale = np.abs(u) + np.abs(cs) @ np.abs(vs)
    assert np.all(np.abs(got - expected) <= 1e-13 * scale)


def test_maxpy_count_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        maxpy(np.zeros(3), [1.0], np.zeros((0, 3)))


def test_block_kernels_reject_mismatches():
    vs, u = _block(3, 8, seed=1)
    with pytest.raises(ValueError, match="length mismatch"):
        mdot(vs, u[:7])
    for not_a_block in (u, list(vs)):
        with pytest.raises(ValueError, match="2-D"):
            mdot(not_a_block, u)
        with pytest.raises(ValueError, match="2-D"):
            maxpy(u, [1.0, 2.0, 3.0], not_a_block)
    with pytest.raises(ValueError, match="count mismatch"):
        maxpy(u, [1.0, 2.0], vs)
    with pytest.raises(ValueError, match="length mismatch"):
        maxpy(u[:7], [1.0, 2.0, 3.0], vs)


@pytest.mark.parametrize("columns", [1, 2, 3, 4])
@pytest.mark.parametrize("rows", [0, 1, 5])
def test_stacked_maxpy_matches_a_maxpy_per_column(rows, columns):
    rng = np.random.default_rng(10 * rows + columns)
    block = rng.standard_normal((rows, columns, 64))
    heads = list(rng.standard_normal((columns, 64)))
    cs = rng.standard_normal(rows)
    got = stacked_maxpy(heads, cs, block)
    assert got.shape == (columns, 64)
    assert not np.shares_memory(got, block)
    assert not any(np.shares_memory(got, h) for h in heads)
    for j, head in enumerate(heads):
        expected = maxpy(head, cs, block[:, j])
        scale = np.abs(head) + np.abs(cs) @ np.abs(block[:, j])
        assert np.all(np.abs(got[j] - expected) <= 1e-13 * scale)


def test_stacked_maxpy_on_a_strided_column_prefix():
    # the leading columns of a run of rows are one (rows, columns*n) view
    # with row stride 4n, which is not copied on the way to the BLAS
    rng = np.random.default_rng(7)
    ring = rng.standard_normal((6, 4, 32))
    cs = rng.standard_normal(3)
    for width in (1, 2):
        prefix = ring[1:4, :width]
        assert np.shares_memory(prefix.reshape(3, width * 32), ring)
        heads = list(rng.standard_normal((width, 32)))
        got = stacked_maxpy(heads, cs, prefix)
        assert not np.shares_memory(got, ring)
        expected = stacked_maxpy(heads, cs, np.ascontiguousarray(prefix))
        scale = np.abs(heads) + np.einsum("k,kjn->jn", np.abs(cs), np.abs(prefix))
        assert np.all(np.abs(got - expected) <= 1e-13 * scale)


def test_stacked_maxpy_writes_into_a_row_it_does_not_read():
    rng = np.random.default_rng(8)
    cycle = rng.standard_normal((5, 3, 16))
    heads = list(rng.standard_normal((3, 16)))
    cs = rng.standard_normal(3)
    expected = stacked_maxpy(heads, cs, cycle[:3])
    got = stacked_maxpy(heads, cs, cycle[:3], out=cycle[3])
    assert np.shares_memory(got, cycle[3])
    assert np.array_equal(cycle[3], expected)


def test_stacked_maxpy_rejects_mismatches():
    rng = np.random.default_rng(9)
    block = rng.standard_normal((2, 3, 8))
    heads = list(rng.standard_normal((3, 8)))
    with pytest.raises(ValueError, match="head/column count mismatch"):
        stacked_maxpy(heads[:2], [1.0, 2.0], block)
    with pytest.raises(ValueError, match="head/column count mismatch"):
        stacked_maxpy(heads + heads[:1], [1.0, 2.0], block)
    with pytest.raises(ValueError, match="length mismatch"):
        stacked_maxpy([heads[0], heads[1], heads[2][:7]], [1.0, 2.0], block)
    with pytest.raises(ValueError, match="count mismatch"):
        stacked_maxpy(heads, [1.0], block)
    with pytest.raises(ValueError, match="3-D"):
        stacked_maxpy(heads[:1], [1.0, 2.0], block[:, 0])


def test_stacked_maxpy_rejects_an_out_it_reads_or_a_strided_one():
    # a ring slot inside the window it combines would be overwritten by the
    # product while the product still reads it
    rng = np.random.default_rng(10)
    ring = rng.standard_normal((4, 3, 8))
    heads = list(rng.standard_normal((2, 8)))
    cs = rng.standard_normal(3)
    before = ring.copy()
    for out in (ring[2, :2], ring[0, 1:], np.empty((2, 16))[:, ::2]):
        with pytest.raises(ValueError, match="C-contiguous and must not overlap"):
            stacked_maxpy(heads, cs, ring[:3, :2], out=out)
    assert np.array_equal(ring, before)
    # the column of a slot that the window does not read is no overlap
    got = stacked_maxpy(heads[:1], cs[:2], ring[:2, :1], out=ring[2, 1:2])
    assert np.array_equal(got, stacked_maxpy(heads[:1], cs[:2], before[:2, :1]))


def _resident_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmRSS line")


@pytest.mark.parametrize("shape", [(3, 5), (64, 2, 4096), (3, 2, 100_000), (0, 4), (4, 0, 2)])
def test_blocks_are_zero_filled_writable_arrays_of_the_shape(shape):
    # below, at and above the 4 MiB line between populated and huge pages
    block = blocks(*shape)
    assert block.shape == shape and block.dtype == np.float64
    assert block.flags.c_contiguous and block.flags.writeable
    assert not block.any()
    block[...] = 1.0
    assert block.sum() == block.size


def test_blocks_too_large_to_map_raise_memory_error_naming_shape_and_bytes():
    # beyond any user address space, and past ssize_t
    with pytest.raises(MemoryError, match=r"\(1000000000000000, 2, 64\): 1024000000000000000 "):
        blocks(10 ** 15, 2, 64)
    with pytest.raises(MemoryError, match=r"\(10{30}, 2, 64\)"):
        blocks(10 ** 30, 2, 64)


def test_freeing_a_large_block_returns_its_pages():
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc")
    block = blocks(8, 4, 2 ** 18)              # 64 MiB
    block[...] = 1.0
    before = _resident_mb()
    del block
    assert _resident_mb() < before - 60.0


def test_large_blocks_are_eligible_for_huge_pages():
    thp = "/sys/kernel/mm/transparent_hugepage/enabled"
    if not (os.path.exists(thp) and os.path.exists("/proc/self/smaps")):
        pytest.skip("needs Linux transparent huge pages")
    with open(thp, encoding="ascii") as f:
        if "[never]" in f.read():
            pytest.skip("transparent huge pages are off")
    block = blocks(2, 2, 2 ** 18)              # 8 MiB
    block[...] = 1.0
    address = block.ctypes.data
    eligible = None
    with open("/proc/self/smaps", encoding="utf-8", errors="replace") as smaps:
        inside = False
        for line in smaps:
            head = line.split()[0]
            if "-" in head and not head.endswith(":"):
                lo, hi = (int(x, 16) for x in head.split("-"))
                inside = lo <= address < hi
            elif inside and head == "THPeligible:":
                eligible = line.split()[1]
    assert eligible == "1"


def _toy_matrix() -> SparseOperator:
    dense = np.array([[2.0, -1.0, 0.0],
                      [-1.0, 2.0, -1.0],
                      [0.0, -1.0, 2.0]])
    return SparseOperator.from_dense(dense, symmetric=True)


def test_apply_matches_dense_matvec():
    A = _toy_matrix()
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(A.apply(x), A.to_dense() @ x)


def test_apply_rejects_wrong_length():
    with pytest.raises(ValueError, match="columns"):
        _toy_matrix().apply(np.zeros(4))


def test_apply_rejects_complex_input():
    # scipy's kernel would fail on the float64 output with its own message
    with pytest.raises(ValueError, match="complex128"):
        _toy_matrix().apply(np.array([1.0, 2.0, 3.0j]))


def test_diagonal_and_frobenius_hand_values():
    A = _toy_matrix()
    assert A.diagonal().tolist() == [2.0, 2.0, 2.0]
    # sqrt(3*4 + 4*1) = 4, exact.
    assert A.frobenius_norm() == 4.0
    assert A.nnz == 7


def test_from_dense_drops_exact_zeros():
    A = SparseOperator.from_dense([[1.0, 0.0], [0.0, 2.0]])
    assert A.nnz == 2


def test_from_scipy_sums_duplicates():
    coo = sp.coo_matrix(([1.0, 2.0], ([0, 0], [0, 0])), shape=(1, 1))
    A = SparseOperator.from_scipy(coo)
    assert A.to_dense().tolist() == [[3.0]]


def test_symmetry_error_exact_for_skew_entry():
    A = SparseOperator.from_dense([[0.0, 1.0], [3.0, 0.0]])
    assert A.symmetry_error() == 2.0
    assert _toy_matrix().symmetry_error() == 0.0


def test_symmetric_flag_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        SparseOperator.from_dense([[0.0, 1.0], [3.0, 0.0]], symmetric=True)


def test_symmetric_flag_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        SparseOperator(1, 2, [0, 1], [0], [1.0], symmetric=True)


def test_malformed_indptr_rejected():
    with pytest.raises(ValueError, match="indptr"):
        SparseOperator(2, 2, [0, 1], [0], [1.0])


def test_unsorted_columns_rejected():
    with pytest.raises(ValueError, match="strictly increasing"):
        SparseOperator(1, 3, [0, 2], [2, 0], [1.0, 1.0])


@pytest.mark.parametrize("indptr,indices,row", [
    # an entry repeats across the row 1/row 3 boundary, which is allowed;
    # row 3 itself is out of order
    ([0, 0, 2, 2, 4], [0, 2, 2, 1], 3),
    # a duplicate entry between a leading and a trailing empty row
    ([0, 0, 2, 2, 2], [1, 1], 1),
])
def test_unsorted_columns_name_the_first_bad_row(indptr, indices, row):
    with pytest.raises(ValueError, match=rf"strictly increasing in row {row}$"):
        SparseOperator(4, 3, indptr, indices, np.ones(len(indices)))


def test_empty_rows_at_both_ends_are_accepted():
    A = SparseOperator(4, 3, [0, 0, 1, 3, 3], [2, 0, 1], [1.0, 2.0, 3.0])
    assert A.to_dense().tolist() == [[0, 0, 0], [0, 0, 1], [2, 3, 0], [0, 0, 0]]


def test_column_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        SparseOperator(1, 2, [0, 1], [5], [1.0])


def test_nonfinite_entries_rejected():
    with pytest.raises(ValueError, match="finite"):
        SparseOperator(1, 1, [0, 1], [0], [np.nan])


def test_repr_names_shape_and_flag():
    assert repr(_toy_matrix()) == "SparseOperator(3x3, nnz=7, symmetric)"


# signed zeros, subnormals and small normals among the drawn values
_EDGE = np.array([0.0, -0.0, 5e-324, -5e-324, -1e-310, 2.2e-308, 1.0, -3.0])


def _values(rng, count: int) -> np.ndarray:
    """Finite values of mixed sign and magnitude, so that summing them in
    another order rounds differently, a fifth of them taken from _EDGE."""
    v = rng.standard_normal(count) * 10.0 ** rng.integers(-3, 4, count)
    edge = rng.random(count) < 0.2
    v[edge] = rng.choice(_EDGE, int(edge.sum()))
    return v


@st.composite
def _banded_operator(draw):
    """A random square CSR operator on a few diagonals, with a fifth of
    each diagonal's positions left out (so rows can be empty) and explicit
    zeros among the stored values, and its offsets and DIA values."""
    n = draw(st.integers(1, 12))
    offsets = sorted(draw(st.sets(st.integers(-(n - 1), n - 1), max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stored = np.zeros((n, n), dtype=bool)
    for k in offsets:
        i = np.arange(max(0, -k), min(n, n - k))
        i = i[rng.random(len(i)) < 0.8]
        stored[i, i + k] = True
    rows, cols = np.nonzero(stored)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    op = SparseOperator(n, n, indptr, cols, _values(rng, len(cols)))
    values = np.zeros((len(offsets), n))
    values[np.searchsorted(offsets, cols - rows), cols] = op.data
    return op, offsets, values, _values(rng, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_banded_operator())
def test_diagonal_product_equals_the_csr_product_bytewise(case):
    op, offsets, values, x = case
    # the same entries given by their diagonals; a zero of the diagonal
    # form, stored or not in the CSR arrays, adds ±0 to a row sum never -0
    by_diagonals = SparseOperator.from_diagonals(offsets, values)
    assert by_diagonals.apply(x).tobytes() == op.apply(x).tobytes() == op.csr.dot(x).tobytes()


def _permuted(A: SparseOperator) -> SparseOperator:
    csr = A.csr
    perm = np.argsort(SplitMix64(11).uniform01(csr.shape[0]), kind="stable")
    return SparseOperator.from_scipy(csr[perm][:, perm], symmetric=True)


def _permuted_poisson() -> SparseOperator:
    return _permuted(make_poisson(2, 16).A)


def _given_by_csr(A: SparseOperator) -> SparseOperator:
    return SparseOperator(A.n_rows, A.n_cols, A.indptr, A.indices, A.data, symmetric=A.symmetric)


@pytest.mark.parametrize("build,form", [
    (lambda: make_poisson(2, 16).A, "dia"),
    (lambda: make_poisson(3, 6).A, "dia"),
    (lambda: make_sinker(16, 1e3).A, "dia"),
    (lambda: make_toy_diagonal(50, 10.0).A, "dia"),
    (lambda: make_identity(7).A, "dia"),
    (_permuted_poisson, "csr"),
    (lambda: SparseOperator(3, 3, [0, 0, 0, 0], [], []), "csr"),
    (lambda: SparseOperator(4, 4, [0, 1, 2, 2, 2], [0, 1], [1.0, 2.0]), "csr"),
    (lambda: SparseOperator(4, 4, [0, 1, 1, 1, 1], [0], [1.0]), "csr"),
    # a banded operator given by CSR arrays keeps the CSR product
    (lambda: _given_by_csr(make_poisson(2, 16).A), "csr"),
])
def test_product_form_follows_the_birth(build, form):
    calls = []

    def counting(name):
        kernel = getattr(linalg.sparsetools, name)

        def run(*args):
            calls.append(name)
            return kernel(*args)
        return run

    with mock.patch.multiple(linalg.sparsetools, csr_matvec=counting("csr_matvec"),
                             dia_matvec=counting("dia_matvec")):
        op = build()
        calls.clear()                         # the builders apply the operator to x_true
        x = np.random.default_rng(op.n_cols).standard_normal(op.n_cols)
        y = op.apply(x)
    assert calls == [f"{form}_matvec"]
    assert y.tobytes() == op.csr.dot(x).tobytes()


def _scipy_scaled(A: SparseOperator):
    """scipy's D^-1/2 A D^-1/2, averaged with its transpose when A is
    flagged symmetric: the former build of ``SparseOperator.scaled``."""
    S = sp.diags(1.0 / np.sqrt(A.diagonal()))
    M = S @ A.csr @ S
    return (M + M.T) * 0.5 if A.symmetric else M


def _nonsymmetric_tridiagonal() -> SparseOperator:
    # an upwinded convection-diffusion stencil given by its diagonals
    n = 40
    return SparseOperator.from_diagonals(
        [-1, 0, 1], _tridiagonal(np.full(n - 1, -1.3), np.linspace(2.3, 9.7, n),
                                 np.full(n - 1, -0.7)))


def _random_nonsymmetric() -> SparseOperator:
    rng = np.random.default_rng(4)
    dense = rng.standard_normal((30, 30)) * (rng.random((30, 30)) < 0.3)
    np.fill_diagonal(dense, 1.0 + 10.0 * rng.random(30))
    return SparseOperator.from_dense(dense)


@pytest.mark.parametrize("build", [
    lambda: make_poisson(2, 16).A,
    lambda: make_poisson(3, 6).A,
    lambda: make_sinker(32, 1e3).A,
    lambda: make_sinker(32, 1e6).A,
    _nonsymmetric_tridiagonal,
    lambda: _permuted(make_sinker(16, 1e3).A),
    lambda: _given_by_csr(make_sinker(16, 1e6).A),
    lambda: random_spd(17, seed=5)[0],
    _random_nonsymmetric,
    # an explicit zero at (0, 2) whose mirror (2, 0) is not stored
    lambda: SparseOperator(3, 3, [0, 3, 5, 6], [0, 1, 2, 0, 1, 2], [2.0, -1.0, 0.0, -1.0,
                                                                     3.0, 5.0], symmetric=True),
    # a subnormal pair whose average halves to zero, which scipy keeps stored
    lambda: SparseOperator(2, 2, [0, 2, 4], [0, 1, 0, 1], [4.0, 5e-324, 5e-324, 0.25],
                           symmetric=True),
])
def test_scaled_is_scipys_two_sided_scaling_bytewise(build):
    A = build()
    ref = _scipy_scaled(A)
    B = A.scaled
    assert B.symmetric == A.symmetric
    assert same_csr(B, ref) and B.nnz == ref.nnz
    x = np.random.default_rng(A.n_cols).standard_normal(A.n_cols)
    assert B.apply(x).tobytes() == ref.dot(x).tobytes()
    assert A.scaled is B


def test_scaled_rejects_a_nonpositive_diagonal():
    with pytest.raises(ValueError, match="strictly positive"):
        SparseOperator.from_dense(np.diag([1.0, 0.0, 2.0])).scaled


def test_operator_arrays_are_the_csr_arrays():
    op = make_poisson(2, 8).A
    assert op.indptr is op.csr.indptr
    assert op.indices is op.csr.indices
    assert op.data is op.csr.data


def _tridiagonal(lower, main, upper):
    """Diagonals -1, 0, +1 in the DIA layout, zero where each ends."""
    return np.array([np.r_[lower, 0.0], main, np.r_[0.0, upper]])


def test_from_diagonals_hand_values():
    A = SparseOperator.from_diagonals([-1, 0, 1], _tridiagonal([-1.0, -1.0], [2.0, 2.0, 2.0],
                                                                [-1.0, -1.0]), symmetric=True)
    assert A.to_dense().tolist() == _toy_matrix().to_dense().tolist()
    assert A.nnz == 7 and A.diagonal().tolist() == [2.0, 2.0, 2.0]
    assert A.apply(np.array([1.0, 2.0, 3.0])).tolist() == [0.0, 0.0, 4.0]
    assert repr(A) == "SparseOperator(3x3, nnz=7, symmetric)"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_diagonals_rejects_nonfinite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        SparseOperator.from_diagonals([0], [[1.0, bad, 1.0]])


@pytest.mark.parametrize("offsets,values,match", [
    ([1, 0], np.zeros((2, 3)), "ascending"),
    ([0, 0], np.zeros((2, 3)), "ascending"),
    ([-3, 0], np.zeros((2, 3)), "out of range"),
    ([0, 3], np.zeros((2, 3)), "out of range"),
    ([0, 1], np.zeros((3, 3)), "shape"),
    ([0], np.zeros(3), "shape"),
    ([[0]], np.zeros((1, 3)), "shape"),
    ([0], np.zeros((1, 0)), "positive"),
    # the first place of diagonal +1 and the last of -1 lie outside
    ([1], [[5.0, 1.0, 1.0]], "outside"),
    ([-1], [[1.0, 1.0, 5.0]], "outside"),
])
def test_from_diagonals_rejects_malformed_input(offsets, values, match):
    with pytest.raises(ValueError, match=match):
        SparseOperator.from_diagonals(offsets, values)


@pytest.mark.parametrize("offsets,values", [
    ([-1, 0, 1], _tridiagonal([1.0, 2.0], [1.0, 1.0, 1.0], [1.0, 3.0])),
    # an unpaired diagonal holding a nonzero
    ([0, 2], [[1.0, 1.0, 1.0], [0.0, 0.0, 4.0]]),
    ([-2, 0], [[4.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
])
def test_from_diagonals_rejects_a_false_symmetric_flag(offsets, values):
    with pytest.raises(ValueError, match="not symmetric"):
        SparseOperator.from_diagonals(offsets, values, symmetric=True)
    assert SparseOperator.from_diagonals(offsets, values).symmetry_error() > 0.0


@pytest.mark.parametrize("offsets,values", [
    # an all-zero unpaired diagonal, a signed zero among its places
    ([0, 1], [[1.0, 1.0, 1.0], [0.0, -0.0, 0.0]]),
    # a 0.0/-0.0 pair
    ([-1, 0, 1], _tridiagonal([0.0, 2.0], [1.0, 1.0, 1.0], [-0.0, 2.0])),
])
def test_from_diagonals_reads_signed_zeros_as_symmetry_error_does(offsets, values):
    A = SparseOperator.from_diagonals(offsets, values, symmetric=True)
    assert A.symmetry_error() == 0.0


def test_from_diagonals_copies_its_values():
    values = np.array([[1.0, 2.0]])
    A = SparseOperator.from_diagonals([0], values)
    y = A.apply(np.ones(2))
    assert not np.shares_memory(A._diagonals[1], values)
    values[0, 0] = 7.0
    assert A.diagonal().tolist() == [1.0, 2.0]
    assert A.apply(np.ones(2)).tobytes() == y.tobytes() and A.data.tolist() == [1.0, 2.0]


@st.composite
def _diagonals(draw):
    """A square operator's diagonals in scipy's DIA layout, zero outside
    the operator, and a vector; a third of the draws mirror every diagonal,
    so that they are symmetric up to the signs of their zeros."""
    n = draw(st.integers(1, 12))
    offsets = sorted(draw(st.sets(st.integers(-(n - 1), n - 1), max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mirror = draw(st.integers(0, 2)) == 0
    if mirror:
        offsets = sorted(set(offsets) | {-d for d in offsets})
    values = _values(rng, len(offsets) * n).reshape(len(offsets), n)
    for k, d in enumerate(offsets):
        values[k, slice(n + d, None) if d < 0 else slice(0, d)] = 0.0
    if mirror:
        for k, d in enumerate(offsets):
            if d > 0:
                values[k, d:] = values[offsets.index(-d), :n - d]
        zeros = values == 0.0
        values[zeros & (rng.random(values.shape) < 0.5)] = -0.0
    return np.array(offsets, dtype=np.int64), values, _values(rng, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_diagonals())
def test_operator_from_diagonals_equals_scipys_dia_to_csr_bytewise(case):
    offsets, values, x = case
    n = values.shape[1]
    ref = sp.dia_matrix((values, offsets), shape=(n, n)).tocsr()
    A = SparseOperator.from_diagonals(offsets, values)
    # the same entries given as scipy's CSR arrays
    B = SparseOperator(n, n, ref.indptr, ref.indices, ref.data)
    assert same_csr(A, ref)
    assert A.nnz == B.nnz == ref.nnz
    for got, want in ((A.diagonal(), B.diagonal()), (A.apply(x), B.apply(x)),
                      (A.apply(x), ref.dot(x))):
        assert got.tobytes() == want.tobytes()
    error = B.symmetry_error()
    assert A.symmetry_error() == error
    # the flag is accepted exactly when the CSR check finds A symmetric
    if error == 0.0:
        assert SparseOperator.from_diagonals(offsets, values, symmetric=True).symmetric
    else:
        with pytest.raises(ValueError, match="not symmetric"):
            SparseOperator.from_diagonals(offsets, values, symmetric=True)


@pytest.mark.parametrize("build", [lambda: make_poisson(2, 9).A, lambda: make_poisson(3, 6).A,
                                   lambda: make_sinker(16, 1e3).A,
                                   lambda: make_poisson(3, 6).A.scaled,
                                   lambda: make_sinker(16, 1e6).A.scaled,
                                   _nonsymmetric_tridiagonal])
@pytest.mark.parametrize("lo,hi", [(0, 1), (3, 5), (0, 36), (7, 40), (1, 201), (0, 216)])
def test_principal_submatrix_is_scipys_slice_bytewise(build, lo, hi):
    A = build()
    hi = min(hi, A.n_rows)
    ref = A.csr[lo:hi, lo:hi].tocsr()
    block = A.principal_submatrix(lo, hi)
    assert same_csr(block, ref) and block.nnz == ref.nnz
    x = np.random.default_rng(hi).standard_normal(hi - lo)
    assert block.apply(x).tobytes() == ref.dot(x).tobytes()


@pytest.mark.parametrize("build", [lambda: make_poisson(2, 9).A, lambda: make_poisson(3, 6).A,
                                   lambda: make_sinker(16, 1e3).A, lambda: make_identity(5).A,
                                   lambda: make_poisson(2, 9).A.scaled,
                                   _nonsymmetric_tridiagonal, _random_nonsymmetric])
def test_as_general_is_the_same_operator_without_the_flag(build):
    A = build()
    G = A.as_general()
    assert not G.symmetric and G.shape == A.shape
    # the diagonal form shares the store that nothing writes after the build
    if A._diagonals is not None:
        assert np.shares_memory(G._diagonals[1], A._diagonals[1])
    x = np.random.default_rng(A.n_cols).standard_normal(A.n_cols)
    assert G.apply(x).tobytes() == A.apply(x).tobytes()
    for got, want in zip((G.indptr, G.indices, G.data), (A.indptr, A.indices, A.data)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert G.nnz == A.nnz


@pytest.mark.parametrize("lo,hi", [(-1, 2), (2, 2), (3, 2), (0, 5)])
def test_principal_submatrix_rejects_bounds_outside(lo, hi):
    with pytest.raises(ValueError, match="not inside"):
        _toy_matrix().principal_submatrix(lo, hi)


@st.composite
def _coo_entries(draw):
    """A random COO matrix of any rectangular shape, its entries at
    scattered places with duplicates among them, and a vector."""
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 12))
    count = draw(st.integers(0, 3 * n_rows * n_cols // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.integers(0, n_rows, count)
    cols = rng.integers(0, n_cols, count)
    coo = sp.coo_matrix((_values(rng, count), (rows, cols)), shape=(n_rows, n_cols))
    return coo, _values(rng, n_cols)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_coo_entries())
def test_operator_results_equal_scipy_sparse_bytewise(case):
    # the kernels are called without scipy.sparse; every result must be
    # the one scipy.sparse's public methods give, so that a scipy release
    # that moves or changes a kernel fails here
    coo, x = case
    ref = coo.tocsr()
    op = SparseOperator.from_scipy(coo)
    assert same_csr(op, ref)
    assert op.apply(x).tobytes() == ref.dot(x).tobytes()
    assert op.diagonal().tobytes() == ref.diagonal().tobytes()
    dense = ref.toarray()
    assert op.to_dense().tobytes() == dense.tobytes()
    if op.n_rows == op.n_cols:
        d = ref - ref.T
        assert op.symmetry_error() == (float(np.max(np.abs(d.data))) if d.nnz else 0.0)
    else:
        with pytest.raises(ValueError, match="square"):
            op.symmetry_error()
    # negative zeros are zeros to both
    dense[::2] *= -1.0
    if dense.any():
        assert same_csr(SparseOperator.from_dense(dense), sp.csr_matrix(dense))


def test_from_scipy_leaves_its_argument_unsorted():
    csr = sp.csr_matrix((np.array([1.0, 2.0]), np.array([1, 0]), np.array([0, 2])),
                        shape=(1, 2))
    A = SparseOperator.from_scipy(csr)
    assert A.indices.tolist() == [0, 1] and A.data.tolist() == [2.0, 1.0]
    assert csr.indices.tolist() == [1, 0]


def test_index_dtype_is_scipys():
    assert linalg.index_dtype(3, 7) is np.int32
    assert linalg.index_dtype(3, 2 ** 31 - 1) is np.int32
    assert linalg.index_dtype(3, 2 ** 31) is np.int64
    # int64 input that fits is held as int32, as scipy holds it
    A = SparseOperator(2, 2, np.array([0, 1, 2]), np.array([0, 1]), [1.0, 2.0])
    assert A.indptr.dtype == A.indices.dtype == np.int32


def test_kernels_come_from_the_loaded_scipy_sparse():
    # the test session imports scipy.sparse, whose kernel module is taken
    from scipy.sparse import _sparsetools

    assert linalg._load_sparsetools() is _sparsetools


def test_kernels_load_from_their_file_without_scipy_sparse():
    script = "\n".join([
        "import sys",
        "from pipekrylov import linalg",
        "assert linalg.sparsetools.__name__ == 'scipy.sparse._sparsetools'",
        "assert linalg.sparsetools.__file__.split('/')[-1].startswith('_sparsetools')",
        "assert 'scipy.sparse' not in sys.modules and 'scipy' not in sys.modules",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_kernels_fall_back_to_importing_scipy_sparse():
    # with no extension file to be found, scipy.sparse is imported after all
    script = "\n".join([
        "import importlib.util, sys",
        "importlib.util.find_spec = lambda name: None",
        "from pipekrylov import linalg",
        "from scipy.sparse import _sparsetools",
        "assert linalg.sparsetools is _sparsetools",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
