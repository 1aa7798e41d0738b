"""Linear and nonlinear preconditioners plus a faithfulness probe.

A preconditioner is an application contract ``apply(r) -> u``.  Only the
identity and Jacobi kinds are linear maps; the block-Jacobi and nested
inner-solve kinds are nonlinear because a fixed number of inner CG
iterations is a nonlinear function of the input, and the noisy kind is
nonlinear (and stateful) by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SparseOperator, dot, norm2
from .names import canonical_name
from .rng import SplitMix64

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "BlockJacobiPreconditioner",
    "NestedKrylovPreconditioner",
    "NoisyPreconditioner",
    "FaithfulnessEstimate",
    "probe_faithfulness",
    "make_preconditioner",
    "PRECONDITIONER_KINDS",
]

PRECONDITIONER_KINDS = ("identity", "jacobi", "block_jacobi", "nested_krylov", "noisy")


class Preconditioner:
    """Base application contract; apply() never mutates its input."""

    kind = "abstract"
    is_linear = False

    def apply(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class IdentityPreconditioner(Preconditioner):
    kind = "identity"
    is_linear = True

    def apply(self, r: np.ndarray) -> np.ndarray:
        return r.copy()


def _checked_diagonal(A: SparseOperator) -> np.ndarray:
    d = A.diagonal()
    if np.any(d == 0.0):
        raise ValueError("Jacobi-type preconditioner requires a zero-free diagonal")
    return d


class JacobiPreconditioner(Preconditioner):
    """Elementwise division by the operator diagonal."""

    kind = "jacobi"
    is_linear = True

    def __init__(self, A: SparseOperator):
        self._diag = _checked_diagonal(A)

    def apply(self, r: np.ndarray) -> np.ndarray:
        return r / self._diag


def _jacobi_cg(matvec, diag: np.ndarray, b: np.ndarray, iters: int) -> np.ndarray:
    """Fixed-iteration Jacobi-preconditioned CG from a zero initial guess.

    No tolerance-based stop: the iteration count is part of the operator
    definition, which bounds the nonlinearity of each application.
    """
    x = np.zeros_like(b)
    r = b.copy()
    u = r / diag
    gamma = dot(r, u)
    if gamma == 0.0:
        return x
    p = u.copy()
    for _ in range(iters):
        s = matvec(p)
        eta = dot(p, s)
        if eta <= 0.0:
            break
        alpha = gamma / eta
        x += alpha * p
        r -= alpha * s
        u = r / diag
        gamma_new = dot(r, u)
        if gamma_new == 0.0:
            break
        p = u + (gamma_new / gamma) * p
        gamma = gamma_new
    return x


class BlockJacobiPreconditioner(Preconditioner):
    """Contiguous-block Jacobi with a fixed inner CG sweep per block.

    Indices are split into n_blocks equal contiguous ranges (the last block
    absorbs the remainder); each application runs ``inner_iters`` iterations
    of Jacobi-preconditioned CG on the block-diagonal submatrix.
    """

    kind = "block_jacobi"
    is_linear = False

    def __init__(self, A: SparseOperator, n_blocks: int = 4, inner_iters: int = 5):
        if n_blocks < 1 or n_blocks > A.n_rows:
            raise ValueError("block count must be in [1, n_rows]")
        if inner_iters < 1:
            raise ValueError("inner iteration count must be >= 1")
        _checked_diagonal(A)
        self.inner_iters = int(inner_iters)
        size = A.n_rows // n_blocks
        bounds = [k * size for k in range(n_blocks)] + [A.n_rows]
        self._blocks = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            block = A.principal_submatrix(lo, hi)
            self._blocks.append((lo, hi, block, block.diagonal()))

    def apply(self, r: np.ndarray) -> np.ndarray:
        u = np.zeros_like(r)
        for lo, hi, block, diag in self._blocks:
            u[lo:hi] = _jacobi_cg(block.apply, diag, r[lo:hi], self.inner_iters)
        return u


class NestedKrylovPreconditioner(Preconditioner):
    """Fixed number of Jacobi-preconditioned CG iterations on the full operator."""

    kind = "nested_krylov"
    is_linear = False

    def __init__(self, A: SparseOperator, inner_iters: int = 5):
        if inner_iters < 1:
            raise ValueError("inner iteration count must be >= 1")
        self._A = A
        self._diag = _checked_diagonal(A)
        self.inner_iters = int(inner_iters)

    def apply(self, r: np.ndarray) -> np.ndarray:
        return _jacobi_cg(self._A.apply, self._diag, r, self.inner_iters)


class NoisyPreconditioner(Preconditioner):
    """Identity plus Gaussian noise of relative magnitude eta.

    Each application adds eta*||r|| times a unit-norm Gaussian direction,
    so the perturbation size is exactly eta*||r||, scaled in float64.  The
    direction comes from ``SplitMix64.gaussian``, whose single-precision
    Box-Muller angle moves each sample pair by at most about 5e-7 of its
    radius from float64 Box-Muller; its bytes repeat on one machine and
    numpy build.  The generator state advances on every call; an instance
    must not be shared between concurrent solves.
    """

    kind = "noisy"
    is_linear = False

    def __init__(self, eta: float, seed: int):
        if not (math.isfinite(eta) and eta >= 0.0):
            raise ValueError("noise magnitude eta must be finite and nonnegative")
        self.eta = float(eta)
        self._rng = SplitMix64(seed)

    def apply(self, r: np.ndarray) -> np.ndarray:
        g = self._rng.gaussian(r.shape[0])
        gn = norm2(g)
        if gn == 0.0:
            return r.copy()
        return r + (self.eta * norm2(r) / gn) * g


@dataclass(frozen=True)
class FaithfulnessEstimate:
    """Sampled bound constant for ||B(A v) - v|| <= c_hat ||v||."""
    c_hat: float
    samples: int
    ratios: tuple

    def __post_init__(self):
        if self.ratios and self.c_hat != max(self.ratios):
            raise ValueError("c_hat must be the maximum sample ratio")


def probe_faithfulness(B: Preconditioner, A: SparseOperator,
                       n_samples: int, seed: int) -> FaithfulnessEstimate:
    """Estimate how closely B approximates the inverse action of A.

    Draws seeded random unit vectors v and measures ||B(A v) - v||.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = SplitMix64(seed)
    ratios = []
    for _ in range(n_samples):
        v = rng.gaussian(A.n_cols)
        v /= norm2(v)
        ratios.append(norm2(B.apply(A.apply(v)) - v))
    return FaithfulnessEstimate(max(ratios), n_samples, tuple(ratios))


def make_preconditioner(kind: str, A: SparseOperator, *, eta: float = 1e-4,
                        seed: int = 0, n_blocks: int = 4,
                        inner_iters: int = 5) -> Preconditioner:
    """Factory used by the command-line front end."""
    kind = canonical_name(kind)
    if kind == "identity":
        return IdentityPreconditioner()
    if kind == "jacobi":
        return JacobiPreconditioner(A)
    if kind == "block_jacobi":
        return BlockJacobiPreconditioner(A, n_blocks=n_blocks, inner_iters=inner_iters)
    if kind == "nested_krylov":
        return NestedKrylovPreconditioner(A, inner_iters=inner_iters)
    if kind == "noisy":
        return NoisyPreconditioner(eta, seed)
    raise ValueError(f"unknown preconditioner kind: {kind!r}")
