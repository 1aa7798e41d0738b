"""Shared fixtures: small benchmark systems and an observer collector."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from pipekrylov.linalg import SparseOperator
from pipekrylov.preconditioners import JacobiPreconditioner
from pipekrylov.problems import make_poisson
from pipekrylov.rng import SplitMix64


@pytest.fixture(scope="session")
def poisson16():
    """2-D Poisson system on a 16x16 grid (n = 256), seeded data."""
    return make_poisson(2, 16, seed=0)


@pytest.fixture(scope="session")
def poisson8():
    """2-D Poisson system on an 8x8 grid (n = 64), seeded data."""
    return make_poisson(2, 8, seed=0)


@pytest.fixture
def jacobi16(poisson16):
    return JacobiPreconditioner(poisson16.A)


@pytest.fixture
def jacobi8(poisson8):
    return JacobiPreconditioner(poisson8.A)


def random_spd(n: int, seed: int) -> tuple[SparseOperator, np.ndarray]:
    """Dense random SPD operator M M^T + n I and a random right-hand side."""
    rng = SplitMix64(seed)
    M = rng.gaussian(n * n).reshape(n, n)
    dense = M @ M.T + n * np.eye(n)
    A = SparseOperator.from_scipy(sp.csr_matrix(dense), symmetric=True)
    b = rng.gaussian(n)
    return A, b


def same_csr(op: SparseOperator, ref) -> bool:
    """The operator holds scipy's CSR arrays byte for byte, dtypes included."""
    return all(getattr(op, name).dtype == getattr(ref, name).dtype
               and getattr(op, name).tobytes() == getattr(ref, name).tobytes()
               for name in ("indptr", "indices", "data"))


def collector(events: list):
    """Observer callback that appends (event, iteration, payload) tuples."""
    return lambda event, i, payload: events.append((event, i, payload))
