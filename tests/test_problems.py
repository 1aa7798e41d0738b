"""Benchmark system generators.

Oracles: closed-form eigenvalues of the Dirichlet Laplacian, dense
Cholesky factorizations for definiteness, and entrywise hand values for
the diagonal models.
"""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from pipekrylov import linalg
from pipekrylov.linalg import SparseOperator
from pipekrylov.preconditioners import BlockJacobiPreconditioner, JacobiPreconditioner
from pipekrylov.problems import (
    make_identity,
    make_poisson,
    make_sinker,
    make_toy_diagonal,
)
from pipekrylov.rng import SplitMix64
from pipekrylov.solvers import SolverConfig, solve

from conftest import same_csr


def _laplacian_eigs_1d(n: int) -> np.ndarray:
    k = np.arange(1, n + 1)
    return 4.0 * np.sin(k * np.pi / (2.0 * (n + 1))) ** 2


def test_identity_problem_is_exactly_the_identity():
    prob = make_identity(5)
    assert np.array_equal(prob.A.to_dense(), np.eye(5))
    assert np.allclose(prob.b, 1.0 / np.sqrt(5.0), rtol=0.0, atol=0.0)
    assert np.array_equal(prob.x_true, prob.b)
    assert prob.label == "identity(n=5)"


def test_identity_problem_rejects_empty():
    with pytest.raises(ValueError, match="n >= 1"):
        make_identity(0)


def test_toy_diagonal_spectrum_is_equally_spaced():
    prob = make_toy_diagonal(5, 5.0)
    assert prob.A.diagonal().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert prob.A.symmetric
    b = 1.0 / np.sqrt(5.0)
    assert np.allclose(prob.b, b, rtol=0.0, atol=0.0)
    assert np.array_equal(prob.x_true, prob.b / prob.A.diagonal())


def test_toy_diagonal_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        make_toy_diagonal(1, 5.0)
    with pytest.raises(ValueError, match="exceed 1"):
        make_toy_diagonal(10, 1.0)


def test_poisson2d_matches_analytic_spectrum():
    n = 6
    prob = make_poisson(2, n, seed=0)
    lam1 = _laplacian_eigs_1d(n)
    analytic = np.sort((lam1[:, None] + lam1[None, :]).ravel())
    computed = np.linalg.eigvalsh(prob.A.to_dense())
    assert np.allclose(computed, analytic, rtol=0.0, atol=1e-12)


def test_poisson3d_matches_analytic_spectrum():
    n = 3
    prob = make_poisson(3, n, seed=0)
    lam1 = _laplacian_eigs_1d(n)
    analytic = np.sort(
        (lam1[:, None, None] + lam1[None, :, None] + lam1[None, None, :]).ravel())
    computed = np.linalg.eigvalsh(prob.A.to_dense())
    assert np.allclose(computed, analytic, rtol=0.0, atol=1e-12)


def test_poisson_rhs_is_exact_image_of_manufactured_solution():
    prob = make_poisson(2, 9, seed=3)
    assert np.array_equal(prob.b, prob.A.apply(prob.x_true))
    assert np.all((prob.x_true >= 0.0) & (prob.x_true < 1.0))


def test_poisson_seed_changes_data_not_operator():
    a = make_poisson(2, 5, seed=0)
    b = make_poisson(2, 5, seed=1)
    assert np.array_equal(a.A.to_dense(), b.A.to_dense())
    assert not np.array_equal(a.x_true, b.x_true)


def test_poisson_validation():
    with pytest.raises(ValueError, match="dims"):
        make_poisson(4, 5)
    with pytest.raises(ValueError, match="2 points"):
        make_poisson(2, 1)


def _kron_poisson(dims: int, n: int):
    """The Laplacian as a sum of Kronecker products of the 1-D one."""
    T = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                 offsets=[-1, 0, 1], format="csr")
    eye = sp.identity(n, format="csr")
    if dims == 2:
        A = sp.kron(T, eye) + sp.kron(eye, T)
    else:
        A = (sp.kron(sp.kron(T, eye), eye) + sp.kron(sp.kron(eye, T), eye)
             + sp.kron(sp.kron(eye, eye), T))
    op = SparseOperator.from_scipy(A, symmetric=True)
    x_true = SplitMix64(0).uniform01(n ** dims)
    return op, x_true, op.csr @ x_true


@pytest.mark.parametrize("dims,n", [(d, n) for d in (2, 3) for n in range(3, 13)]
                         + [(2, 128), (3, 40)])
def test_poisson_stores_the_kronecker_sum_bytewise(dims, n):
    prob = make_poisson(dims, n)
    op, x_true, b = _kron_poisson(dims, n)
    for built, ref in ((prob.A.indptr, op.indptr), (prob.A.indices, op.indices),
                       (prob.A.data, op.data), (prob.x_true, x_true), (prob.b, b)):
        assert built.dtype == ref.dtype
        assert built.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dims", [2, 3])
def test_poisson_at_two_points_stores_no_zeros(dims):
    prob = make_poisson(dims, 2)
    op, x_true, b = _kron_poisson(dims, 2)
    assert np.count_nonzero(prob.A.data == 0.0) == 0
    # the Kronecker product keeps explicit zeros here; the matrices agree
    assert np.array_equal(prob.A.to_dense(), op.to_dense())
    assert prob.b.tobytes() == b.tobytes()


def test_sinker_with_unit_contrast_is_the_poisson_operator():
    n = 8
    sink = make_sinker(n, 1.0)
    pois = make_poisson(2, n, seed=0)
    assert np.array_equal(sink.A.to_dense(), pois.A.to_dense())


def test_sinker_is_symmetric_positive_definite():
    prob = make_sinker(8, 100.0)
    assert prob.A.symmetry_error() == 0.0
    # Cholesky succeeds only for a positive definite matrix.
    np.linalg.cholesky(prob.A.to_dense())


def test_sinker_forcing_is_the_inclusion_indicator():
    prob = make_sinker(8, 100.0)
    assert set(prob.b.tolist()) == {0.0, 1.0}
    assert prob.b.sum() > 0
    assert prob.x_true is None


def _sinker_by_loop(n: int, contrast: float):
    """The cell-by-cell assembly make_sinker replaced, kept as its oracle."""
    centers = (np.arange(n) + 0.5) / n
    cx, cy = np.meshgrid(centers, centers, indexing="ij")
    inside = (cx - 0.5) ** 2 + (cy - 0.5) ** 2 <= 0.25 ** 2
    kappa = np.where(inside, float(contrast), 1.0)
    rows, cols, vals = [], [], []
    diag = np.zeros(n * n)
    for i in range(n):
        for j in range(n):
            k = i * n + j
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n and 0 <= jj < n:
                    c = 2.0 * kappa[i, j] * kappa[ii, jj] / (kappa[i, j] + kappa[ii, jj])
                    diag[k] += c
                    rows.append(k)
                    cols.append(ii * n + jj)
                    vals.append(-c)
                else:
                    diag[k] += kappa[i, j]
    rows.extend(range(n * n))
    cols.extend(range(n * n))
    vals.extend(diag)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))
    A.sum_duplicates()
    A.sort_indices()
    return A, inside.astype(np.float64).ravel()


def _same_arrays(built, ref) -> bool:
    return built.dtype == ref.dtype and built.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [4, 9, 16, 32])
@pytest.mark.parametrize("contrast", [1.0, 1e3])
def test_sinker_is_bitwise_the_cell_loop_assembly(n, contrast):
    # the loop assembles scipy's COO matrix, converted by scipy.sparse
    want, b = _sinker_by_loop(n, contrast)
    prob = make_sinker(n, contrast)
    assert same_csr(prob.A, want)
    assert _same_arrays(prob.b, b)


def _poisson_by_scipy_diags(dims: int, n: int, seed: int):
    """The operator through scipy.sparse's own DIA-to-CSR conversion."""
    N = n ** dims
    offsets, diagonals = [0], [np.full(N, 2.0 * dims)]
    for axis in range(dims):
        stride = n ** axis
        coupling = np.full(N - stride, -1.0)
        coupling[np.arange(N - stride) // stride % n == n - 1] = 0.0
        offsets += [-stride, stride]
        diagonals += [coupling, coupling]
    A = sp.diags(diagonals, offsets, shape=(N, N), format="csr")
    A.eliminate_zeros()
    x_true = SplitMix64(seed).uniform01(N)
    return A, x_true, A @ x_true


@pytest.mark.parametrize("dims,n", [(2, 2), (2, 3), (2, 8), (2, 128), (3, 2), (3, 5), (3, 40)])
def test_poisson_is_scipys_diagonal_build_bytewise(dims, n):
    prob = make_poisson(dims, n, seed=3)
    A, x_true, b = _poisson_by_scipy_diags(dims, n, seed=3)
    assert same_csr(prob.A, A)
    assert _same_arrays(prob.x_true, x_true)
    assert _same_arrays(prob.b, b)


def test_diagonal_models_are_scipys_builds_bytewise():
    assert same_csr(make_identity(7).A, sp.identity(7, format="csr"))
    lam = 1.0 + 9.0 * np.arange(50, dtype=np.float64) / 49
    assert same_csr(make_toy_diagonal(50, 10.0).A, sp.diags(lam, format="csr"))



def _builtin_problems():
    return [make_poisson(2, 16), make_poisson(3, 6), make_sinker(16, 1e3), make_identity(7),
            make_toy_diagonal(50, 10.0)]


def test_builtin_problems_build_and_solve_without_converting_to_csr():
    # every built-in operator is born in its diagonal form: building it,
    # its Jacobi preconditioner and monitored solves need no conversion,
    # transpose or difference of CSR arrays.  Its Jacobi scaling, its
    # diagonal blocks and its unflagged copy keep the diagonal form, so
    # prescaled, block-Jacobi and general solves run no CSR kernel either.
    def refuse(*args):
        raise AssertionError("a CSR kernel ran")

    with contextlib.ExitStack() as patches:
        for name in ("dia_tocsr", "coo_tocsr", "csr_sort_indices", "csr_tocsc",
                     "csr_minus_csr", "csr_diagonal", "csr_matvec", "get_csr_submatrix"):
            patches.enter_context(mock.patch.object(linalg.sparsetools, name, refuse))
        problems = _builtin_problems()
        for prob in problems:
            B = JacobiPreconditioner(prob.A)
            runs = [(SolverConfig(method=method, monitor_true_residual=True), prob.A, B)
                    for method in ("pcg", "pipefcg", "gcr", "pipefgmres")]
            runs += [(SolverConfig(method="pipefcg", prescale=True), prob.A,
                      JacobiPreconditioner(prob.A.scaled)),
                     (SolverConfig(method="fcg"), prob.A,
                      BlockJacobiPreconditioner(prob.A, n_blocks=3)),
                     (SolverConfig(method="fgmres"), prob.A.as_general(), B)]
            for cfg, A, pc in runs:
                res = solve(cfg, A, pc, prob.b, x_true=prob.x_true)
                assert res.iterations > 0
    # read afterwards, the CSR arrays are scipy's
    poisson2, poisson3, sinker, identity, toy = (prob.A for prob in problems)
    assert same_csr(poisson2, _poisson_by_scipy_diags(2, 16, 0)[0])
    assert same_csr(poisson3, _poisson_by_scipy_diags(3, 6, 0)[0])
    assert same_csr(sinker, _sinker_by_loop(16, 1e3)[0])
    assert same_csr(identity, sp.identity(7, format="csr"))
    lam = 1.0 + 9.0 * np.arange(50, dtype=np.float64) / 49
    assert same_csr(toy, sp.diags(lam, format="csr"))


@pytest.mark.parametrize("build", [lambda: make_poisson(2, 2), lambda: make_poisson(2, 8),
                                   lambda: make_poisson(3, 2), lambda: make_poisson(3, 5)]
                         + [lambda n=n: make_sinker(n, 1e3) for n in (4, 8, 32, 64)]
                         + [lambda: make_identity(7), lambda: make_toy_diagonal(50, 10.0)])
def test_builders_hold_the_diagonal_form_scipy_builds_from_csr(build):
    A = build().A
    # the diagonals the product streams are the ones that hold an entry,
    # laid out as scipy's DIA conversion of the same entries lays them out
    ref = A.csr.todia()
    offsets, values = A._diagonals
    for built, want in ((offsets, ref.offsets), (values, ref.data)):
        assert built.dtype == want.dtype and built.tobytes() == want.tobytes()


def test_sinker_validation():
    with pytest.raises(ValueError, match="4 cells"):
        make_sinker(3, 10.0)
    with pytest.raises(ValueError, match=">= 1"):
        make_sinker(8, 0.5)
