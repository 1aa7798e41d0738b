"""Dense vector kernels and the sparse operator type used by every solver.

Vectors are one-dimensional float64 numpy arrays throughout.  Every
kernel's accumulation order is independent of the argument order, and
repeated runs on the same machine with the same BLAS thread count are
bitwise reproducible.  ``dot`` and ``norm2`` use the BLAS, whose threaded
sum splits the vector by thread: a different thread count rounds large
products differently (at length 16384, ``OPENBLAS_NUM_THREADS=1`` and
``2`` already disagree).  The block kernels are one BLAS matrix-vector
product (gemv) each, rounding differently with a different thread count:
``mdot`` and ``maxpy`` over the rows of a 2-D block, ``stacked_maxpy``
over a 3-D ``(rows, columns, n)`` block as one ``(rows, columns·n)``
matrix, strided views included, without a copy.  ``blocks`` allocates
a solve's one block, so that earlier frees do not move its peak memory.

``SparseOperator.apply`` runs one of two scipy products.  A banded
operator, one whose diagonal (DIA) form stores at most
``DIAGONAL_FILL_MAX`` times its nonzeros, is applied by the DIA kernel,
which streams no column indices; any other operator by the compressed-row
(CSR) kernel.  The two agree bit for bit on finite input: both sum each
row in ascending column order from +0, and a padding zero of the DIA form
adds ±0 to a partial sum that is never −0.  On a non-finite input 0·inf
can put a NaN in a row that the CSR product leaves finite.
"""

from __future__ import annotations

import ctypes
import mmap

import numpy as np
import scipy.sparse as sp

__all__ = [
    "as_vector",
    "blocks",
    "dot",
    "mdot",
    "norm2",
    "maxpy",
    "stacked_maxpy",
    "DIAGONAL_FILL_MAX",
    "SparseOperator",
]

# ``SparseOperator.apply`` takes the diagonal form when it stores at most
# this many entries, padding zeros included, per stored nonzero.  Poisson
# 2-D n=128 needs 1.006, 3-D n=40 1.022 and the sinker n=64 1.013; a
# permuted stencil or scattered entries need hundreds.
DIAGONAL_FILL_MAX = 2


def as_vector(values) -> np.ndarray:
    """Coerce input to a 1-D float64 array (copying only when needed)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def _check_same_length(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"vector length mismatch: {a.shape[0]} vs {b.shape[0]}")


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product sum_k a_k*b_k.

    The accumulation order does not depend on the argument order, so
    dot(a, b) == dot(b, a) exactly; it does depend on the BLAS thread
    count.
    """
    _check_same_length(a, b)
    return float(np.dot(a, b))


def _check_block(vs, u: np.ndarray) -> None:
    if not (isinstance(vs, np.ndarray) and vs.ndim == 2):
        raise ValueError(f"expected a 2-D block of vectors, got {type(vs).__name__} "
                         f"of shape {np.shape(vs)}")
    if vs.shape[1] != u.shape[0]:
        raise ValueError(f"vector length mismatch: {vs.shape[1]} vs {u.shape[0]}")


def mdot(vs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inner products <vs[k], u> of every row of the 2-D block vs with u,
    as one stacked product (the multi-dot of a Gram-Schmidt projection)."""
    _check_block(vs, u)
    return vs @ u


def norm2(a: np.ndarray) -> float:
    """Euclidean norm sqrt(<a, a>)."""
    return float(np.sqrt(np.dot(a, a)))


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):             # not glibc: nothing to trim
    _malloc_trim = None


def blocks(rows: int, columns: int, n: int) -> np.ndarray:
    """One uninitialised ``(rows, columns, n)`` float64 block for one solve.

    A block of a few MB does not fit the holes that earlier work leaves in
    the C heap.  glibc then either maps it fresh, leaving those freed but
    resident holes unused, or carves it from the heap, depending on that
    history, so the peak resident memory of the same solve moved by the
    size of a block between identical runs.  The heap's free pages go back
    to the system first (glibc's ``malloc_trim``), so the block adds its
    own size to the resident set whatever ran before.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)
    return np.empty((rows, columns, n))


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
    or ``out``, a C-contiguous one that does not overlap vs."""
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
    flat = np.matmul(np.asarray(coeffs, dtype=np.float64), vs.reshape(rows, columns * n),
                     out=None if out is None else out.reshape(columns * n))
    result = flat.reshape(columns, n)
    for row, h in zip(result, heads):
        row += h
    return result


def _index_array(values) -> np.ndarray:
    """An integer array as given (so the CSR keeps scipy's int32 arrays
    without a copy); anything else, such as a list, as int64."""
    a = np.asarray(values)
    return a if a.dtype.kind == "i" else a.astype(np.int64)


def _diagonal_form(csr: sp.csr_matrix):
    """The DIA form of a CSR matrix with sorted columns, offsets ascending,
    or None when it has no entries or would store more than
    ``DIAGONAL_FILL_MAX`` times its nonzeros."""
    n_rows, n_cols = csr.shape
    if csr.nnz == 0:
        return None
    # diagonal of each entry, column - row, counted from the lowest one
    diag = csr.indices - np.repeat(np.arange(n_rows, dtype=np.intp), np.diff(csr.indptr))
    diag += n_rows - 1
    present = np.bincount(diag) > 0
    count = int(np.count_nonzero(present))
    if count * n_cols > DIAGONAL_FILL_MAX * csr.nnz:
        return None
    # each entry's place in the flat array: its diagonal's row, at its
    # column, where the DIA kernel reads it.  Few temporaries, freed early,
    # and an anonymous mapping of its own for the array, zero-filled by the
    # kernel, keep the peak memory of later solves steady: taken from the C
    # heap, the form raised the peak of poisson2d n=128 solves by 0.1 or
    # 0.7 MB between identical runs, and with more temporaries by 1.4 MB.
    flat = (np.cumsum(present) - 1)[diag]
    del diag
    flat *= n_cols
    flat += csr.indices
    values = np.frombuffer(mmap.mmap(-1, 8 * count * n_cols), dtype=np.float64)
    values[flat] = csr.data
    values = values.reshape(count, n_cols)
    return sp.dia_matrix((values, np.flatnonzero(present) - (n_rows - 1)), shape=csr.shape)


def _jacobi_scaled(A: "SparseOperator") -> "SparseOperator":
    """D^-1/2 A D^-1/2 for the diagonal D of A, which must be positive."""
    d = A.diagonal()
    if not np.all(d > 0.0):
        raise ValueError("prescale requires a strictly positive diagonal")
    isq = 1.0 / np.sqrt(d)
    S = sp.diags(isq)
    M = S @ A.csr @ S
    if A.symmetric:
        # the two-sided scaling rounds (isq[i]*a)*isq[j] and
        # (isq[j]*a)*isq[i] differently; average the transpose pair so
        # the scaled operator stays exactly symmetric
        M = (M + M.T) * 0.5
    return SparseOperator.from_scipy(M, symmetric=A.symmetric)


class SparseOperator:
    """Compressed-row sparse operator with an explicit symmetry flag.

    Column indices must be strictly increasing within each row (this also
    forbids duplicate entries).  ``symmetric=True`` is a structural claim
    checked cheaply at build time and exactly testable via ``symmetry_error``.
    ``indptr``, ``indices`` and ``data`` are the arrays of the backing CSR
    matrix, not copies.

    ``apply`` multiplies through the diagonal form when that stores at
    most ``DIAGONAL_FILL_MAX`` times the nonzeros, and through the CSR
    matrix otherwise.  On a finite vector both give the same bits (see the
    module docstring); on one holding inf or NaN the diagonal form can
    return NaN in more rows.  The diagonal form is built on the first
    ``apply`` and kept, and so is the Jacobi-scaled operator ``scaled``.
    """

    def __init__(self, n_rows: int, n_cols: int, indptr, indices, data,
                 symmetric: bool = False):
        if n_rows <= 0 or n_cols <= 0:
            raise ValueError("operator dimensions must be positive")
        indptr = _index_array(indptr)
        indices = _index_array(indices)
        data = np.asarray(data, dtype=np.float64)
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
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.symmetric = bool(symmetric)
        self._csr = sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))
        self.indptr = self._csr.indptr
        self.indices = self._csr.indices
        self.data = self._csr.data
        self._product = None                  # built on the first apply
        self._scaled = None                   # built on first use
        if symmetric:
            if n_rows != n_cols:
                raise ValueError("symmetric flag requires a square operator")
            if self.symmetry_error() != 0.0:
                raise ValueError("operator flagged symmetric is not symmetric")

    @classmethod
    def from_scipy(cls, mat, symmetric: bool = False) -> "SparseOperator":
        """Wrap any scipy sparse matrix (converted to canonical CSR)."""
        csr = sp.csr_matrix(mat)
        csr.sum_duplicates()
        csr.sort_indices()
        return cls(csr.shape[0], csr.shape[1], csr.indptr, csr.indices, csr.data,
                   symmetric=symmetric)

    @classmethod
    def from_dense(cls, mat, symmetric: bool = False) -> "SparseOperator":
        """Build from a dense array, dropping exact zeros."""
        return cls.from_scipy(sp.csr_matrix(np.asarray(mat, dtype=np.float64)),
                              symmetric=symmetric)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def csr(self) -> sp.csr_matrix:
        """Read-only view of the backing CSR matrix."""
        return self._csr

    @property
    def product(self) -> sp.spmatrix:
        """The matrix ``apply`` multiplies by: the diagonal form (format
        ``"dia"``) or the CSR matrix, chosen and built on first use."""
        if self._product is None:
            dia = _diagonal_form(self._csr)
            self._product = self._csr if dia is None else dia
        return self._product

    @property
    def scaled(self) -> "SparseOperator":
        """The symmetric Jacobi scaling D^-1/2 A D^-1/2, built on first use
        and kept, so that a prescaled solve and a preconditioner built from
        it share one operator and one diagonal form."""
        if self._scaled is None:
            self._scaled = _jacobi_scaled(self)
        return self._scaled

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product y_i = sum_j A_ij x_j, each row summed in
        ascending column order."""
        if x.shape[0] != self.n_cols:
            raise ValueError(f"operator has {self.n_cols} columns, vector has length {x.shape[0]}")
        return self.product.dot(x)

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (absent entries are zero)."""
        return self._csr.diagonal()

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def symmetry_error(self) -> float:
        """Largest absolute entry of A - A^T (0.0 for an exactly symmetric A)."""
        d = self._csr - self._csr.T
        return float(np.max(np.abs(d.data))) if d.nnz else 0.0

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.sum(self.data * self.data)))

    def __repr__(self) -> str:
        flag = "symmetric" if self.symmetric else "general"
        return f"SparseOperator({self.n_rows}x{self.n_cols}, nnz={self.nnz}, {flag})"
