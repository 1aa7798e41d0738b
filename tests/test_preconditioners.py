"""Preconditioner kinds and the faithfulness probe.

Oracles: entrywise division for Jacobi, dense solves for the inner-CG
kinds, the exact noise magnitude eta*||r|| for the noisy kind, and a dense
replay of the probe's own sampling loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from pipekrylov.linalg import SparseOperator, norm2
from pipekrylov.preconditioners import (
    PRECONDITIONER_KINDS,
    _jacobi_cg,
    BlockJacobiPreconditioner,
    FaithfulnessEstimate,
    IdentityPreconditioner,
    JacobiPreconditioner,
    NestedKrylovPreconditioner,
    NoisyPreconditioner,
    Preconditioner,
    make_preconditioner,
    probe_faithfulness,
)
from pipekrylov.problems import make_identity, make_poisson, make_sinker
from pipekrylov.rng import SplitMix64

from conftest import random_spd, same_csr


def test_identity_returns_an_equal_copy():
    B = IdentityPreconditioner()
    r = np.array([1.0, -2.0, 3.0])
    u = B.apply(r)
    assert np.array_equal(u, r)
    assert u is not r
    assert B.is_linear


def test_jacobi_is_exact_elementwise_division():
    A = SparseOperator.from_dense([[4.0, 0.0], [0.0, 0.5]], symmetric=True)
    B = JacobiPreconditioner(A)
    assert B.apply(np.array([8.0, 1.0])).tolist() == [2.0, 2.0]
    assert B.is_linear


def test_jacobi_rejects_zero_diagonal():
    A = SparseOperator.from_dense([[0.0, 1.0], [1.0, 0.0]], symmetric=True)
    with pytest.raises(ValueError, match="zero-free diagonal"):
        JacobiPreconditioner(A)


def test_block_jacobi_with_scalar_blocks_equals_jacobi():
    prob = make_poisson(2, 4, seed=0)
    n = prob.A.n_rows
    blocks = BlockJacobiPreconditioner(prob.A, n_blocks=n, inner_iters=1)
    jac = JacobiPreconditioner(prob.A)
    r = SplitMix64(4).gaussian(n)
    assert np.allclose(blocks.apply(r), jac.apply(r), rtol=1e-14, atol=0.0)


def test_block_jacobi_solves_exactly_decoupled_blocks():
    # Block-diagonal operator: enough inner iterations make each block solve
    # exact up to CG roundoff, so apply() inverts the whole operator.
    d1 = np.array([[4.0, 1.0], [1.0, 3.0]])
    d2 = np.array([[5.0, 2.0], [2.0, 6.0]])
    dense = np.zeros((4, 4))
    dense[:2, :2] = d1
    dense[2:, 2:] = d2
    A = SparseOperator.from_dense(dense, symmetric=True)
    B = BlockJacobiPreconditioner(A, n_blocks=2, inner_iters=10)
    r = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.allclose(B.apply(r), np.linalg.solve(dense, r), rtol=0.0, atol=1e-12)
    assert not B.is_linear


def test_block_jacobi_validation():
    prob = make_poisson(2, 4, seed=0)
    with pytest.raises(ValueError, match="block count"):
        BlockJacobiPreconditioner(prob.A, n_blocks=0)
    with pytest.raises(ValueError, match="block count"):
        BlockJacobiPreconditioner(prob.A, n_blocks=17)
    with pytest.raises(ValueError, match="inner iteration"):
        BlockJacobiPreconditioner(prob.A, inner_iters=0)


def _block_bounds(n: int, n_blocks: int) -> list:
    size = n // n_blocks
    bounds = [k * size for k in range(n_blocks)] + [n]
    return list(zip(bounds[:-1], bounds[1:]))


@pytest.mark.parametrize("build", [lambda: make_poisson(2, 16).A,
                                   lambda: make_sinker(16, 1e3).A,
                                   lambda: random_spd(13, seed=2)[0]])
@pytest.mark.parametrize("n_blocks", [1, 3, 4])
def test_block_jacobi_is_scipys_block_slicing_bytewise(build, n_blocks):
    A = build()
    rng = np.random.default_rng(n_blocks)
    r = rng.standard_normal(A.n_rows)
    # the blocks scipy.sparse slices, applied by its product: the former
    # assembly of the preconditioner, kept as its oracle
    want = np.zeros_like(r)
    for lo, hi in _block_bounds(A.n_rows, n_blocks):
        ref = A.csr[lo:hi, lo:hi].tocsr()
        block = A.principal_submatrix(lo, hi)
        assert same_csr(block, ref)
        for _ in range(3):
            x = rng.standard_normal(hi - lo)
            assert block.apply(x).tobytes() == ref.dot(x).tobytes()
        want[lo:hi] = _jacobi_cg(ref.dot, ref.diagonal(), r[lo:hi], 5)
    got = BlockJacobiPreconditioner(A, n_blocks=n_blocks, inner_iters=5).apply(r)
    assert got.tobytes() == want.tobytes()


def test_nested_krylov_approaches_the_inverse():
    A, b = random_spd(10, seed=6)
    B = NestedKrylovPreconditioner(A, inner_iters=60)
    exact = np.linalg.solve(A.to_dense(), b)
    assert np.allclose(B.apply(b), exact, rtol=0.0, atol=1e-10)
    assert not B.is_linear


def test_nested_krylov_validation():
    A, _ = random_spd(6, seed=0)
    with pytest.raises(ValueError, match="inner iteration"):
        NestedKrylovPreconditioner(A, inner_iters=0)


def test_noisy_perturbation_has_exact_relative_magnitude():
    B = NoisyPreconditioner(1e-3, seed=5)
    r = SplitMix64(1).gaussian(50)
    u = B.apply(r)
    assert norm2(u - r) == pytest.approx(1e-3 * norm2(r), rel=1e-12)


def test_noisy_is_stateful_and_seed_deterministic():
    r = SplitMix64(1).gaussian(20)
    B1 = NoisyPreconditioner(1e-2, seed=9)
    B2 = NoisyPreconditioner(1e-2, seed=9)
    first1, second1 = B1.apply(r), B1.apply(r)
    first2, second2 = B2.apply(r), B2.apply(r)
    assert np.array_equal(first1, first2)
    assert np.array_equal(second1, second2)
    assert not np.array_equal(first1, second1)


def test_noisy_zero_eta_is_the_identity():
    B = NoisyPreconditioner(0.0, seed=0)
    r = np.array([1.0, 2.0])
    assert np.array_equal(B.apply(r), r)


def test_noisy_rejects_negative_eta():
    with pytest.raises(ValueError, match="nonnegative"):
        NoisyPreconditioner(-1e-4, seed=0)


def test_probe_of_noisy_on_identity_reads_back_eta():
    prob = make_identity(40)
    eta = 1e-4
    est = probe_faithfulness(NoisyPreconditioner(eta, seed=3), prob.A, 8, seed=11)
    assert est.samples == 8
    assert len(est.ratios) == 8
    # On the identity, ||B(A v) - v|| = eta for every unit v.
    for ratio in est.ratios:
        assert ratio == pytest.approx(eta, rel=1e-12)
    assert est.c_hat == max(est.ratios)


def test_probe_of_exact_inverse_is_numerically_zero():
    A, _ = random_spd(9, seed=2)
    inv = np.linalg.inv(A.to_dense())

    class _Exact(Preconditioner):
        def apply(self, r):
            return inv @ r

    est = probe_faithfulness(_Exact(), A, 5, seed=1)
    assert est.c_hat <= 1e-12


def test_probe_matches_dense_replay_for_jacobi():
    prob = make_poisson(2, 6, seed=0)
    B = JacobiPreconditioner(prob.A)
    est = probe_faithfulness(B, prob.A, 6, seed=21)
    dense = prob.A.to_dense()
    diag = np.diag(dense)
    rng = SplitMix64(21)
    for ratio in est.ratios:
        v = rng.gaussian(prob.A.n_cols)
        v /= norm2(v)
        expected = norm2((dense @ v) / diag - v)
        assert ratio == pytest.approx(expected, rel=1e-13)


def test_probe_validation():
    prob = make_identity(4)
    with pytest.raises(ValueError, match="one sample"):
        probe_faithfulness(IdentityPreconditioner(), prob.A, 0, seed=0)


def test_faithfulness_estimate_requires_consistent_maximum():
    with pytest.raises(ValueError, match="maximum"):
        FaithfulnessEstimate(c_hat=0.5, samples=2, ratios=(0.1, 0.9))


def test_factory_covers_every_advertised_kind():
    prob = make_poisson(2, 6, seed=0)
    built = {kind: make_preconditioner(kind, prob.A) for kind in PRECONDITIONER_KINDS}
    assert built["identity"].kind == "identity"
    assert built["jacobi"].kind == "jacobi"
    assert built["block_jacobi"].kind == "block_jacobi"
    assert built["nested_krylov"].kind == "nested_krylov"
    assert built["noisy"].kind == "noisy"


def test_factory_normalizes_dashes_and_rejects_unknown():
    prob = make_poisson(2, 6, seed=0)
    assert make_preconditioner("Block-Jacobi", prob.A).kind == "block_jacobi"
    with pytest.raises(ValueError, match="unknown preconditioner"):
        make_preconditioner("ilu", prob.A)
