"""Dense vector kernels and the sparse operator type used by every solver.

Vectors are one-dimensional float64 numpy arrays throughout.  Every
kernel's accumulation order is independent of the argument order, and
repeated runs on the same machine with the same BLAS thread count are
bitwise reproducible.  ``dot`` and ``norm2`` take their product (ddot)
on one BLAS thread, whatever count the process has, and restore the
count after it: a threaded ddot rounds a long product differently with
each count (at length 16384, ``OPENBLAS_NUM_THREADS=1`` and ``2``
disagree), and waking a second thread costs more than the sum it
splits.  So they keep their bits at any thread count, unless
``SCALAR_ONE_THREAD`` is false: numpy's OpenBLAS showed no thread-count
functions, and they run on the process's threads.  The count is
process-global: solves run at once on several Python threads race on
it.  The block kernels are one BLAS matrix-vector product (gemv) each,
on the process's threads.  ``mdot`` (gemv_t, over the rows of a 2-D
block) rounds differently with a different thread count; it stays
threaded because it is bound by memory traffic on windows larger than
the cache (at one thread, ``fgmres``, ``pipefgmres`` and ``gcr`` on 3-D
Poisson n=40 took ×1.4-1.5 the time per iteration).  ``maxpy`` (over the rows of a 2-D block) and
``stacked_maxpy`` (over a 3-D ``(rows, columns, n)`` block read as one
``(rows, columns·n)`` matrix, strided views included, without a copy)
are gemv_n and keep their bits at any count; ``stacked_maxpy`` can
write into a given C-contiguous block that the product does not read,
such as the next slot of a ring.  Every block of vectors that outlives a
step, an operator's diagonal store and a solve's direction window, GMRES
cycle or CG direction columns, comes from ``blocks``: an anonymous
mapping of its own, never the C heap, so what ran before does not move
the peak memory it adds, and freeing it returns its pages.  A solve's
single working vectors are heap arrays, allocated once per solve and
updated in place; glibc keeps their memory for the next solve.  Only
real vectors are accepted: complex input raises ValueError rather than
losing its imaginary part.

``SparseOperator`` holds plain numpy arrays and runs scipy's compiled
sparse kernels on them directly: the extension module
``scipy/sparse/_sparsetools`` is loaded from its file, so that importing
the package or solving never runs ``scipy/sparse/__init__.py`` (whose
array-API layer imports numpy.f2py, numpy.testing and more, doubling the
resident memory of a process).  The kernels called are ``csr_matvec``,
``dia_matvec``, ``csr_diagonal``, ``csr_tocsc``, ``csr_minus_csr``,
``dia_tocsr`` and ``get_csr_submatrix``, all of them here: the ones
scipy.sparse itself runs for the same operations, so every result keeps
its bits.  Only the scipy view ``SparseOperator.csr`` imports
scipy.sparse, on first use.

An operator is given either by its compressed-row (CSR) arrays or, square,
by its diagonals (``SparseOperator.from_diagonals``), the form in which
the problem builders compute their stencils; a banded operator should be
built by its diagonals.  The form fixes the product: ``apply`` runs the
CSR kernel on an operator given by CSR arrays and the diagonal (DIA)
kernel, which streams no column indices, on one given by its diagonals.
The operators derived from one, its Jacobi scaling ``scaled`` and its
blocks ``principal_submatrix``, keep its form.  One given by its
diagonals derives its CSR arrays (``dia_tocsr``) only when something first
reads them, and counts its entries (``nnz``) likewise, so that building it
forms no CSR arrays, transpose or difference and reads its diagonals for
nothing that a solve does not read.  ``from_diagonals`` copies the values
it is given into a store of the operator's own; the problem builders,
``scaled`` and ``principal_submatrix`` fill such a store (``blocks``)
themselves and hand it over without a copy (``SparseOperator._adopt``),
and ``as_general`` shares it.  The two products agree bit for
bit on finite input: both sum each row in ascending column order from +0,
and a zero of the DIA form adds ±0 to a partial sum that is never −0.  On
a non-finite input 0·inf can put a NaN in a row that the CSR product
leaves finite.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import math
import mmap
import os
import sys
from functools import partial
from typing import Optional

import numpy as np

__all__ = [
    "as_vector",
    "blocks",
    "dot",
    "mdot",
    "norm2",
    "maxpy",
    "stacked_maxpy",
    "SparseOperator",
]

# the kernels of scipy.sparse._sparsetools that the package calls
KERNELS = ("csr_matvec", "dia_matvec", "csr_diagonal", "csr_tocsc", "csr_minus_csr",
           "dia_tocsr", "get_csr_submatrix")


def _load_sparsetools():
    """scipy's compiled sparse kernels, without importing scipy.sparse.

    The extension file is loaded on its own, unless scipy.sparse is
    already imported; where the file is not found, scipy.sparse is
    imported after all, which runs the same kernels more slowly.
    """
    module = None
    spec = None if "scipy.sparse" in sys.modules else importlib.util.find_spec("scipy")
    if spec is not None and spec.submodule_search_locations:
        folder = os.path.join(spec.submodule_search_locations[0], "sparse")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_sparsetools" + suffix)
            if os.path.isfile(path):
                file_spec = importlib.util.spec_from_file_location(
                    "scipy.sparse._sparsetools", path)
                module = importlib.util.module_from_spec(file_spec)
                file_spec.loader.exec_module(module)
                break
    if module is None:
        from scipy.sparse import _sparsetools as module
    missing = [name for name in KERNELS if not hasattr(module, name)]
    if missing:
        raise ImportError(f"scipy.sparse._sparsetools lacks the kernels {missing}")
    return module


sparsetools = _load_sparsetools()

_INT32_MAX = int(np.iinfo(np.int32).max)


def index_dtype(*sizes: int) -> type:
    """scipy's index dtype for CSR arrays of these dimensions and entry
    counts: int32 when every one fits, int64 otherwise."""
    return np.int32 if max(sizes) <= _INT32_MAX else np.int64


def as_vector(values) -> np.ndarray:
    """Coerce input to a 1-D float64 array (copying only when needed).
    Complex input raises ValueError rather than losing its imaginary part."""
    v = np.asarray(values)
    if np.iscomplexobj(v):
        raise ValueError(f"expected a real vector, got dtype {v.dtype}")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


# (set, get) thread-count symbols of OpenBLAS builds, newest numpy wheels first
_THREAD_SYMBOLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
                   ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
                   ("openblas_set_num_threads", "openblas_get_num_threads"))


def _blas_thread_control(symbols=_THREAD_SYMBOLS):
    """(set, get) thread-count functions of the OpenBLAS in numpy.libs,
    the library numpy loaded, or None where no such library or symbol is
    found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libdir) if "openblas" in name)
    except OSError:                                       # numpy not from a wheel
        return None
    for name in names:
        try:
            lib = ctypes.CDLL(os.path.join(libdir, name))
        except OSError:
            continue
        for set_name, get_name in symbols:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


_threads = _blas_thread_control()

# whether ``dot`` and ``norm2`` run on one BLAS thread (see the module docstring)
SCALAR_ONE_THREAD = _threads is not None


def _ddot(a: np.ndarray, b: np.ndarray):
    """np.dot(a, b) on one BLAS thread, the process's count restored after
    it; the one product behind ``dot`` and ``norm2``, so that a tracer
    wrapping either by name counts each call once.  Reading the count and
    a set/restore pair cost about 0.8 µs on a 2-core Xeon; at one thread
    nothing is set."""
    if _threads is None:
        return np.dot(a, b)
    setter, getter = _threads
    count = getter()
    if count == 1:
        return np.dot(a, b)
    setter(1)
    try:
        return np.dot(a, b)
    finally:
        setter(count)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product sum_k a_k*b_k, on one BLAS thread.

    The accumulation order does not depend on the argument order, so
    dot(a, b) == dot(b, a) exactly, nor on the BLAS thread count, unless
    ``SCALAR_ONE_THREAD`` is false.  The count it sets for the call is
    process-global (see the module docstring).
    """
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"vector shape mismatch: {a.shape} vs {b.shape}, not two 1-D vectors "
                         "of one length")
    return float(_ddot(a, b))


def _check_block(vs, u: np.ndarray) -> None:
    if not (isinstance(vs, np.ndarray) and vs.ndim == 2):
        raise ValueError(f"expected a 2-D block of vectors, got {type(vs).__name__} "
                         f"of shape {np.shape(vs)}")
    if vs.shape[1:] != u.shape:
        raise ValueError(f"vector length mismatch: {vs.shape[1]} vs a vector of shape {u.shape}")


def mdot(vs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inner products <vs[k], u> of every row of the 2-D block vs with u,
    as one stacked product (the multi-dot of a Gram-Schmidt projection),
    on the process's BLAS threads: its bits depend on their count."""
    _check_block(vs, u)
    return vs @ u


def norm2(a: np.ndarray) -> float:
    """Euclidean norm sqrt(<a, a>), its product taken as in ``dot``: on one
    BLAS thread, with the same bits at any thread count unless
    ``SCALAR_ONE_THREAD`` is false."""
    if a.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    return float(np.sqrt(_ddot(a, a)))


def maxpy(u: np.ndarray, coeffs, vs: np.ndarray) -> np.ndarray:
    """Return u + sum_k coeffs[k]*vs[k] as a new vector, for the rows
    vs[k] of the 2-D block vs, as one stacked product ``u + coeffs @ vs``."""
    _check_block(vs, u)
    if len(coeffs) != vs.shape[0]:
        raise ValueError(f"coefficient/vector count mismatch: {len(coeffs)} vs {vs.shape[0]}")
    return u + np.asarray(coeffs, dtype=np.float64) @ vs


def stacked_maxpy(heads, coeffs, vs: np.ndarray, out=None) -> np.ndarray:
    """Rows heads[j] + sum_k coeffs[k]*vs[k, j] for every column j of the
    3-D block vs: one product over its ``(rows, columns·n)`` view, then an
    in-place add per head.  The result is a fresh ``(columns, n)`` array,
    or ``out``, a C-contiguous one that does not overlap vs (ValueError
    otherwise)."""
    if not (isinstance(vs, np.ndarray) and vs.ndim == 3):
        raise ValueError(f"expected a 3-D block of vectors, got {type(vs).__name__} "
                         f"of shape {np.shape(vs)}")
    rows, columns, n = vs.shape
    if len(heads) != columns:
        raise ValueError(f"head/column count mismatch: {len(heads)} vs {columns}")
    if any(h.shape != (n,) for h in heads):
        raise ValueError(f"vector length mismatch: {n} vs {[h.shape for h in heads]}")
    if len(coeffs) != rows:
        raise ValueError(f"coefficient/vector count mismatch: {len(coeffs)} vs {rows}")
    if out is not None and (not out.flags.c_contiguous or np.shares_memory(out, vs)):
        raise ValueError("out must be C-contiguous and must not overlap the block")
    flat = np.matmul(np.asarray(coeffs, dtype=np.float64), vs.reshape(rows, columns * n),
                     out=None if out is None else out.reshape(columns * n))
    result = flat.reshape(columns, n)
    for row, h in zip(result, heads):
        row += h
    return result


def _index_array(values) -> np.ndarray:
    """An integer array as given; anything else, such as a list, as int64."""
    a = np.asarray(values)
    return a if a.dtype.kind == "i" else a.astype(np.int64)


# numpy's own threshold for advising huge pages on the memory of an array
_HUGE_PAGES = 4 << 20
_POPULATE = getattr(mmap, "MAP_POPULATE", 0)   # Linux: map the pages at once


def blocks(*shape: int) -> np.ndarray:
    """A zero-filled float64 array in an anonymous mapping of its own, for
    every array that outlives a step (see the module docstring).  Below
    4 MiB its pages are mapped at once where the system can: filling a
    3.6 MB store took 0.9 ms on a 2-core Xeon, against 1.9 ms faulted in
    page by page.  From 4 MiB up they are advised huge pages and fault in
    as written, as in numpy's own arrays; populated small pages made the
    CR steps on poisson2d n=128 ×1.12 slower.  A block too large to map
    raises MemoryError, naming its shape and bytes."""
    size = math.prod(shape)
    small = 8 * size < _HUGE_PAGES
    flags = ({"flags": mmap.MAP_PRIVATE | (_POPULATE if small else 0)}
             if hasattr(mmap, "MAP_PRIVATE") else {})     # not on Windows
    try:
        mapping = mmap.mmap(-1, max(8 * size, 1), **flags)
    except (OSError, OverflowError) as exc:               # no memory; past ssize_t
        raise MemoryError(f"cannot map a float64 block of shape {shape}: {8 * size} bytes "
                          f"({exc})") from None
    if not small and hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):                # a kernel without huge pages
            mapping.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(mapping, dtype=np.float64, count=size).reshape(shape)


def _jacobi_scaled(A: "SparseOperator") -> "SparseOperator":
    """D^-1/2 A D^-1/2 for the diagonal D of A, which must be positive, in
    the form A was built in.  Each stored entry a at (i, j) becomes
    (isq[i]*a)*isq[j], the product scipy.sparse forms for S @ A @ S with
    S = D^-1/2; an operator flagged symmetric averages it with its mirror
    (isq[j]*a)*isq[i], which rounds differently, as (M + M^T) * 0.5 does,
    so the scaled operator stays exactly symmetric.  Entries that come out
    zero are dropped, as scipy's product drops them."""
    d = A.diagonal()
    if A.n_rows != A.n_cols or not np.all(d > 0.0):
        raise ValueError("prescale requires a square operator with a strictly positive "
                         "diagonal")
    isq = 1.0 / np.sqrt(d)
    if A._diagonals is not None:
        offsets, a = A._diagonals
        cols = np.arange(A.n_cols)
        # the row of each place; the places outside the operator hold zeros
        rows = np.clip(cols - offsets[:, None], 0, A.n_rows - 1)
        m = blocks(*a.shape)
    else:
        a, cols = A.data, A.indices
        rows = np.repeat(np.arange(A.n_rows), np.diff(A.indptr))
        m = np.empty(len(a))
    np.multiply(isq[rows], a, out=m)
    m *= isq[cols]
    if A.symmetric:
        m += isq[cols] * a * isq[rows]
    if A._diagonals is not None:
        if A.symmetric:
            m *= 0.5
        return SparseOperator._adopt(offsets, m, symmetric=A.symmetric)
    keep = m != 0.0                           # before the halving can round an entry to zero
    if A.symmetric:
        m *= 0.5
    indptr = np.concatenate(([0], np.cumsum(keep)))[A.indptr]
    return SparseOperator(A.n_rows, A.n_cols, indptr, cols[keep], m[keep],
                          symmetric=A.symmetric)


class SparseOperator:
    """Sparse operator with an explicit symmetry flag, given by its
    compressed-row (CSR) arrays or, square, by its diagonals.

    Column indices must be strictly increasing within each row (this also
    forbids duplicate entries).  ``symmetric=True`` is a structural claim
    checked cheaply at build time and exactly testable via ``symmetry_error``.
    ``indptr`` and ``indices`` take scipy's index dtype (``index_dtype``),
    so that they are the arrays scipy would hold; ``data`` is float64.

    The form it is built in fixes its product.  One built from CSR arrays
    multiplies through them, banded or not; one built by ``from_diagonals``
    multiplies through its diagonals, which stream no column indices, and
    derives its CSR arrays from them when something first reads them, so
    build a banded operator by its diagonals.  On a finite vector both
    products give the same bits (see the module docstring); on one holding
    inf or NaN the diagonal form can return NaN in more rows.  The
    Jacobi-scaled operator ``scaled`` and the blocks ``principal_submatrix``
    cuts are built in the same form; ``scaled`` is built on first use and
    kept.  ``nnz`` of one built by its diagonals is counted on first read.
    """

    def __init__(self, n_rows: int, n_cols: int, indptr, indices, data,
                 symmetric: bool = False):
        if n_rows <= 0 or n_cols <= 0:
            raise ValueError("operator dimensions must be positive")
        indptr = _index_array(indptr)
        indices = _index_array(indices)
        data = np.asarray(data, dtype=np.float64)
        if indices.ndim != 1 or data.ndim != 1:
            raise ValueError("indices and data must be 1-D")
        if indptr.shape != (n_rows + 1,) or indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("malformed indptr")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if len(indices) != len(data):
            raise ValueError("indices/data length mismatch")
        if len(indices) and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError("column index out of range")
        # compare each entry with its successor, except across row starts
        unordered = np.diff(indices) <= 0
        starts = indptr[1:-1]
        unordered[starts[(starts > 0) & (starts < len(indices))] - 1] = False
        if unordered.any():
            row = np.searchsorted(indptr, np.argmax(unordered), side="right") - 1
            raise ValueError(f"columns not strictly increasing in row {row}")
        if not np.all(np.isfinite(data)):
            raise ValueError("operator entries must be finite")
        self._setup(n_rows, n_cols, symmetric, len(data))
        # checked above, so the cast to scipy's index dtype is exact
        index = index_dtype(n_rows, n_cols, len(data))
        self._arrays = (np.ascontiguousarray(indptr, dtype=index),
                        np.ascontiguousarray(indices, dtype=index),
                        np.ascontiguousarray(data))
        self._matvec = partial(sparsetools.csr_matvec, self.n_rows, self.n_cols, *self._arrays)
        if symmetric:
            if n_rows != n_cols:
                raise ValueError("symmetric flag requires a square operator")
            if self.symmetry_error() != 0.0:
                raise ValueError("operator flagged symmetric is not symmetric")

    def _setup(self, n_rows: int, n_cols: int, symmetric: bool, nnz: Optional[int]) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.symmetric = bool(symmetric)
        self._nnz = nnz                       # None until counted (the diagonal form)
        self._matvec = None                   # the product kernel, bound by the builder
        self._arrays = None                   # (indptr, indices, data)
        self._diagonals = None                # the diagonal form (offsets, values)
        self._csr = None                      # the scipy view, built on first use
        self._scaled = None

    @classmethod
    def from_diagonals(cls, offsets, values, symmetric: bool = False) -> "SparseOperator":
        """Build an n x n operator from its diagonals, in scipy's DIA
        layout: ``values[k, j]`` is the entry (j - offsets[k], j), for
        ``values`` of shape ``(len(offsets), n)``.  Offsets must be
        strictly ascending and inside (-n, n), and the places of a row of
        ``values`` that its diagonal does not reach must hold zero.  The
        values are copied into a store of the operator's own; zeros are
        not stored entries.  ``symmetric=True`` is checked exactly, each
        diagonal against its mirror, as ``symmetry_error`` would read
        them."""
        given = np.asarray(values, dtype=np.float64)
        store = given
        if given.ndim == 2:
            store = blocks(*given.shape)
            store[...] = given
        return cls._adopt(offsets, store, symmetric)

    @classmethod
    def _adopt(cls, offsets, values: np.ndarray, symmetric: bool = False) -> "SparseOperator":
        """``from_diagonals`` on a store the operator keeps without a copy:
        a ``blocks`` array that its caller filled and writes no more (the
        problem builders, ``scaled``, ``principal_submatrix`` and
        ``as_general``).  The one validation path of every operator built by
        its diagonals; the entry count is taken on first read."""
        offsets = _index_array(offsets)
        if offsets.ndim != 1 or values.ndim != 2 or values.shape[0] != len(offsets):
            raise ValueError(f"values must have shape (len(offsets), n), not {values.shape} "
                             f"for {len(offsets)} offsets")
        n = values.shape[1]
        if n <= 0:
            raise ValueError("operator dimensions must be positive")
        if np.any(np.diff(offsets) <= 0):
            raise ValueError("offsets must be strictly ascending")
        if len(offsets) and (offsets[0] <= -n or offsets[-1] >= n):
            raise ValueError("diagonal offset out of range")
        if not np.all(np.isfinite(values)):
            raise ValueError("operator entries must be finite")
        diagonals = offsets.tolist()
        for k, d in enumerate(diagonals):
            if (values[k, n + d:] if d < 0 else values[k, :d]).any():
                raise ValueError(f"diagonal {d} holds a nonzero outside the operator")
        if symmetric:
            row = {d: k for k, d in enumerate(diagonals)}
            for k, d in enumerate(diagonals):
                mirror = row.get(-d)
                if mirror is None:
                    same = not values[k].any()
                elif d > 0:
                    same = np.array_equal(values[k, d:], values[mirror, :n - d])
                else:
                    continue                  # the main diagonal, or checked from +|d|
                if not same:
                    raise ValueError("operator flagged symmetric is not symmetric")
        offsets = offsets.astype(index_dtype(n), copy=False)
        op = cls.__new__(cls)
        op._setup(n, n, symmetric, None)
        op._matvec = partial(sparsetools.dia_matvec, n, n, len(offsets), n, offsets, values)
        op._diagonals = offsets, values
        return op

    @classmethod
    def from_scipy(cls, mat, symmetric: bool = False) -> "SparseOperator":
        """Wrap any scipy sparse matrix or array, converted by its own
        ``tocsr`` and, unless canonical already, a copy of that with its
        duplicates summed and its columns sorted."""
        csr = mat.tocsr()
        if not csr.has_canonical_format:
            csr = csr.copy()
            csr.sum_duplicates()
        return cls(csr.shape[0], csr.shape[1], csr.indptr, csr.indices, csr.data,
                   symmetric=symmetric)

    @classmethod
    def from_dense(cls, mat, symmetric: bool = False) -> "SparseOperator":
        """Build from a dense 2-D array, dropping exact zeros (of either sign)."""
        dense = np.asarray(mat, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(dense, axis=1))))
        return cls(dense.shape[0], dense.shape[1], indptr, cols, dense[rows, cols],
                   symmetric=symmetric)

    @property
    def shape(self) -> tuple[int, int]:
        return self.n_rows, self.n_cols

    @property
    def nnz(self) -> int:
        """Stored entries; for an operator built by its diagonals, their
        nonzeros, counted on first read."""
        if self._nnz is None:
            self._nnz = int(np.count_nonzero(self._diagonals[1]))
        return self._nnz

    def _csr_arrays(self):
        """(indptr, indices, data); for an operator built from diagonals,
        derived on first read by scipy's DIA-to-CSR kernel, which stores
        the nnz nonzeros in ascending column order per row."""
        if self._arrays is None:
            offsets, values = self._diagonals
            n, nnz = self.n_rows, self.nnz
            index = index_dtype(n, nnz)
            indptr, indices, data = np.empty(n + 1, index), np.empty(nnz, index), np.empty(nnz)
            sparsetools.dia_tocsr(n, n, len(offsets), n, offsets.astype(index, copy=False),
                                  values, np.arange(len(offsets), dtype=index),
                                  data, indices, indptr)
            self._arrays = indptr, indices, data
        return self._arrays

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointers: row i holds the entries indptr[i]:indptr[i+1]."""
        return self._csr_arrays()[0]

    @property
    def indices(self) -> np.ndarray:
        """CSR column index of each stored entry."""
        return self._csr_arrays()[1]

    @property
    def data(self) -> np.ndarray:
        """CSR value of each stored entry."""
        return self._csr_arrays()[2]

    @property
    def csr(self):
        """A scipy ``csr_matrix`` holding the operator's own arrays, built
        on first use (it imports scipy.sparse); not to be modified."""
        if self._csr is None:
            import scipy.sparse as sp

            indptr, indices, data = self._csr_arrays()
            csr = sp.csr_matrix((data, indices, indptr), shape=self.shape)
            # the constructor keeps views of the arrays; share the arrays
            csr.indptr, csr.indices, csr.data = indptr, indices, data
            csr.has_canonical_format = True
            self._csr = csr
        return self._csr

    @property
    def scaled(self) -> "SparseOperator":
        """The symmetric Jacobi scaling D^-1/2 A D^-1/2, in this operator's
        form, built on first use and kept, so that a prescaled solve and a
        preconditioner built from it share one operator."""
        if self._scaled is None:
            self._scaled = _jacobi_scaled(self)
        return self._scaled

    def principal_submatrix(self, lo: int, hi: int) -> "SparseOperator":
        """The block A[lo:hi, lo:hi] as an operator in this operator's form:
        the diagonals that reach into the block, sliced, or the CSR arrays
        cut by the kernel that scipy.sparse slices with."""
        if not 0 <= lo < hi <= min(self.shape):
            raise ValueError(f"block [{lo}, {hi}) is not inside a {self.n_rows}x{self.n_cols} "
                             f"operator")
        m = hi - lo
        if self._diagonals is not None:
            offsets, values = self._diagonals
            inside = np.abs(offsets) < m
            block = blocks(np.count_nonzero(inside), m)
            np.compress(inside, values[:, lo:hi], axis=0, out=block)
            # zero the places whose row, column - offset, falls outside the block
            rows = np.arange(m) - offsets[inside, None]
            block[(rows < 0) | (rows >= m)] = 0.0
            return SparseOperator._adopt(offsets[inside], block)
        indptr, indices, data = sparsetools.get_csr_submatrix(
            self.n_rows, self.n_cols, self.indptr, self.indices, self.data, lo, hi, lo, hi)
        return SparseOperator(m, m, indptr, indices, data)

    def as_general(self) -> "SparseOperator":
        """The same operator, in the same form, without the symmetric flag;
        one built by its diagonals shares their store."""
        if self._diagonals is not None:
            return SparseOperator._adopt(*self._diagonals)
        return SparseOperator(self.n_rows, self.n_cols, *self._arrays)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product y_i = sum_j A_ij x_j, each row summed in
        ascending column order, as a new vector; complex x raises
        ValueError."""
        if x.ndim != 1 or x.shape[0] != self.n_cols:
            raise ValueError(f"operator has {self.n_cols} columns, vector has shape {x.shape}")
        if np.iscomplexobj(x):
            raise ValueError(f"expected a real vector, got dtype {x.dtype}")
        y = np.zeros(self.n_rows)
        self._matvec(x, y)
        return y

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (absent entries are zero)."""
        if self._diagonals is not None:
            offsets, values = self._diagonals
            main = values[offsets == 0]
            # adding +0.0 reads a -0.0 as the +0.0 of an absent CSR entry
            return main[0] + 0.0 if len(main) else np.zeros(self.n_rows)
        d = np.empty(min(self.shape))
        sparsetools.csr_diagonal(0, self.n_rows, self.n_cols, self.indptr, self.indices,
                                 self.data, d)
        return d

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.indptr))
        # added to zeros, as scipy's kernel does, so a stored -0.0 reads +0.0
        dense[rows, self.indices] += self.data
        return dense

    def symmetry_error(self) -> float:
        """Largest absolute entry of A - A^T (0.0 for an exactly symmetric A)."""
        if self.n_rows != self.n_cols:
            raise ValueError(f"symmetry needs a square operator, not {self.n_rows}x{self.n_cols}")
        n, nnz = self.n_rows, self.nnz
        index = index_dtype(n, 2 * nnz)
        indptr, indices = (a.astype(index, copy=False) for a in (self.indptr, self.indices))
        # A^T in CSR is A in compressed-column form
        t_indptr, t_indices, t_data = np.empty(n + 1, index), np.empty(nnz, index), np.empty(nnz)
        sparsetools.csr_tocsc(n, n, indptr, indices, self.data, t_indptr, t_indices, t_data)
        d_indptr, d_indices, d_data = (np.empty(n + 1, index), np.empty(2 * nnz, index),
                                       np.empty(2 * nnz))
        sparsetools.csr_minus_csr(n, n, indptr, indices, self.data, t_indptr, t_indices,
                                  t_data, d_indptr, d_indices, d_data)
        stored = d_data[:d_indptr[-1]]      # the kernel stores nonzero differences only
        return float(np.max(np.abs(stored))) if len(stored) else 0.0

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.sum(self.data * self.data)))

    def __repr__(self) -> str:
        flag = "symmetric" if self.symmetric else "general"
        return f"SparseOperator({self.n_rows}x{self.n_cols}, nnz={self.nnz}, {flag})"
