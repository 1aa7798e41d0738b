"""Deterministic generators for the benchmark linear systems.

Every generator is a pure function of its arguments (plus an explicit
seed where randomness is involved), so identical calls yield bitwise
identical instances.  Each operator is a structured-grid stencil or a
diagonal, so each builder writes its diagonals straight into the store
that the operator keeps (``linalg._mapped``) and hands that store over
without a copy (``SparseOperator._adopt``, which checks it as
``from_diagonals`` checks the arrays it copies): the operator multiplies
through them from the start, and counts its entries and derives its
compressed-row arrays only if something reads them.  No builder calls a
sparse kernel itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import SparseOperator, _mapped
from .rng import SplitMix64

__all__ = [
    "ProblemInstance",
    "make_identity",
    "make_toy_diagonal",
    "make_poisson",
    "make_sinker",
]


@dataclass(frozen=True)
class ProblemInstance:
    A: SparseOperator
    b: np.ndarray
    x_true: Optional[np.ndarray]
    label: str


def _diagonal_operator(n: int, main) -> SparseOperator:
    """The n x n diagonal operator whose main diagonal holds ``main``."""
    values = _mapped(1, n)
    values[0] = main
    return SparseOperator._adopt([0], values, symmetric=True)


def make_identity(n: int) -> ProblemInstance:
    """Identity system; every method converges in a single iteration."""
    if n < 1:
        raise ValueError("identity problem needs n >= 1")
    A = _diagonal_operator(n, 1.0)
    b = np.full(n, 1.0 / np.sqrt(n))
    return ProblemInstance(A, b, b.copy(), f"identity(n={n})")


def make_toy_diagonal(n: int, cond: float) -> ProblemInstance:
    """Diagonal system with equally spaced eigenvalues in [1, cond].

    The right-hand side is the normalized all-ones vector, so the exact
    solution is known entrywise.
    """
    if n < 2:
        raise ValueError("toy diagonal problem needs n >= 2")
    if not (math.isfinite(cond) and cond > 1.0):
        raise ValueError("condition number cond must be finite and exceed 1")
    lam = 1.0 + (cond - 1.0) * np.arange(n, dtype=np.float64) / (n - 1)
    A = _diagonal_operator(n, lam)
    b = np.full(n, 1.0 / np.sqrt(n))
    x_true = b / lam
    return ProblemInstance(A, b, x_true, f"toy-diag(n={n},cond={cond:g})")


def make_poisson(dims: int, n_per_side: int, seed: int = 0) -> ProblemInstance:
    """Finite-difference Laplacian: 5-point stencil in 2-D, 7-point in 3-D.

    Dirichlet boundaries are folded into the matrix.  The manufactured
    solution has seeded uniform entries in [0, 1) and b = A x_true.

    The operator is built from its 2·dims + 1 diagonals: the main
    diagonal 2·dims and, per axis, -1 at offsets ±n**axis, zeroed where
    the neighbour lies across a grid line.  Its CSR arrays, derived on
    first read, are the ones ``sp.diags(...).tocsr()`` stores, and the same
    as the sum of Kronecker products T⊗I + I⊗T (and the 3-D analogue) of
    the 1-D Laplacian T, except at n = 2, where scipy's product keeps
    explicit zeros that this build does not store.
    """
    if dims not in (2, 3):
        raise ValueError("dims must be 2 or 3")
    if n_per_side < 2:
        raise ValueError("need at least 2 points per side")
    n = n_per_side
    N = n ** dims
    strides = [n ** axis for axis in range(dims)]
    offsets = [-s for s in reversed(strides)] + [0] + strides
    # the DIA layout: values[k, j] is the entry (j - offsets[k], j)
    values = _mapped(len(offsets), N)
    values[dims] = 2.0 * dims
    for axis, stride in enumerate(strides):
        lower, upper = values[dims - 1 - axis], values[dims + 1 + axis]
        # point p couples to p + stride unless it ends its grid line, as
        # the last stride points (the padding of ``lower``) all do
        lower[:] = -1.0
        lower.reshape(-1, n, stride)[:, n - 1] = 0.0
        upper[stride:] = lower[:N - stride]
    op = SparseOperator._adopt(offsets, values, symmetric=True)
    x_true = SplitMix64(seed).uniform01(N)
    # the DIA product gives the bits of scipy's ``csr @ x_true`` (see linalg)
    b = op.apply(x_true)
    return ProblemInstance(op, b, x_true,
                           f"poisson{dims}d(n={n},seed={seed})")


def make_sinker(n_per_side: int, contrast: float) -> ProblemInstance:
    """Variable-coefficient diffusion with a high-coefficient inclusion.

    Cell-centered grid on the unit square; the coefficient equals
    ``contrast`` inside a disc of radius 0.25 centered at (0.5, 0.5) and 1
    outside.  Face coefficients are harmonic means of the adjacent cells,
    which keeps the operator symmetric positive definite.  The forcing is
    1 inside the disc and 0 outside; no closed-form solution is attached.
    """
    if n_per_side < 4:
        raise ValueError("sinker problem needs at least 4 cells per side")
    if not (math.isfinite(contrast) and contrast >= 1.0):
        raise ValueError("coefficient contrast must be finite and >= 1")
    n = n_per_side
    h = 1.0 / n
    centers = (np.arange(n) + 0.5) * h
    cx, cy = np.meshgrid(centers, centers, indexing="ij")
    inside = (cx - 0.5) ** 2 + (cy - 0.5) ** 2 <= 0.25 ** 2
    kappa = np.where(inside, float(contrast), 1.0)

    N = n * n
    lines = np.arange(n)
    offsets = [-n, -1, 0, 1, n]
    values = _mapped(len(offsets), N)
    diag = np.zeros((n, n))
    # the four faces in a fixed order, so each diagonal sum rounds the same;
    # the neighbour across face (di, dj) lies on diagonal di·n + dj
    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        si, sj = lines + di, lines + dj
        interior = ((si >= 0) & (si < n))[:, None] & ((sj >= 0) & (sj < n))[None, :]
        ii = np.clip(si, 0, n - 1)[:, None]
        jj = np.clip(sj, 0, n - 1)[None, :]
        nb = kappa[ii, jj]
        # face coefficient: harmonic mean of the two cells; a Dirichlet
        # face folds the boundary value in with the cell's own kappa
        c = 2.0 * kappa * nb / (kappa + nb)
        diag += np.where(interior, c, kappa)
        # the DIA layout: the entry (row, column) sits at values[k, column]
        values[offsets.index(di * n + dj), (ii * n + jj)[interior]] = -c[interior]
    values[offsets.index(0)] = diag.ravel()
    op = SparseOperator._adopt(offsets, values, symmetric=True)
    b = inside.astype(np.float64).ravel()
    return ProblemInstance(op, b, None,
                           f"sinker(n={n},contrast={contrast:g})")
