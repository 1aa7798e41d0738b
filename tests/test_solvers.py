"""Method-family behavior: termination, equivalences, restarts, stopping
policy, and failure modes.

Oracles: exact-termination counts from spectra with few distinct
eigenvalues, reference method equivalences under linear preconditioning,
and dense solves for final-error checks.
"""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipekrylov import linalg
from pipekrylov.linalg import SparseOperator, norm2
from pipekrylov.preconditioners import (
    BlockJacobiPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    NoisyPreconditioner,
    Preconditioner,
)
from pipekrylov.problems import make_identity, make_poisson, make_sinker, make_toy_diagonal
from pipekrylov.solvers import (
    CG_FAMILY,
    CR_FAMILY,
    FCG_FAMILY,
    GMRES_FAMILY,
    METHODS,
    REDUCTION_LEDGER,
    STAGNATION_RTOL,
    THETA_MODES,
    TRUNCATION_STRATEGIES,
    SolverConfig,
    solve,
)
from pipekrylov.solvers import gmres as gmres_module
from pipekrylov.solvers.common import TraceRecorder
from pipekrylov.solvers.gmres import _LeastSquares
from pipekrylov.traceio import write_trace_csv

from conftest import collector, random_spd

STOP_REASONS = ("rtol", "atol", "max_it", "stagnation", "breakdown_unrecoverable")


def _natural(res) -> np.ndarray:
    return np.array([row.rnorm_natural for row in res.trace])


def _solve(method: str, A, B, b, **kwargs):
    defaults = dict(rtol=1e-8, max_it=200, stagnation_window=0)
    defaults.update(kwargs)
    return solve(SolverConfig(method=method, **defaults), A, B, b)


@pytest.mark.parametrize("method", METHODS)
def test_identity_system_converges_immediately(method):
    """b spans a one-dimensional Krylov space, so the first direction
    solves the system: a happy breakdown that ends with rtol.  In the fused
    GMRES methods the Pythagorean remainder of the first column rounds to
    -eps <z, z> at n = 2, 3 and 11 and to -2 eps <z, z> at n = 7."""
    for n in (1, 2, 3, 7, 11, 20):
        prob = make_identity(n)
        for pc in (IdentityPreconditioner(), JacobiPreconditioner(prob.A)):
            res = _solve(method, prob.A, pc, prob.b)
            assert (res.stop_reason, res.iterations) == ("rtol", 1), n
            assert norm2(res.x_final - prob.x_true) <= 1e-14


@pytest.mark.parametrize("method", ["pcg", "fcg", "gcr", "fgmres", "pipefcg"])
def test_starting_at_the_solution_stops_at_iteration_zero(method):
    prob = make_poisson(2, 8, seed=0)
    res = solve(SolverConfig(method=method, rtol=1e-8), prob.A,
                IdentityPreconditioner(), prob.b, x0=prob.x_true)
    assert res.converged
    assert res.iterations == 0
    assert res.trace[0].rnorm_natural == 0.0


@pytest.mark.parametrize("method", ["pcg", "cgcg", "pipecg", "fcg", "gcr", "fgmres"])
def test_three_distinct_eigenvalues_terminate_in_three_steps(method):
    # Krylov termination: the minimal polynomial has degree 3, so exact
    # arithmetic converges in 3 iterations; allow one extra for roundoff.
    diag = np.array([1.0, 2.0, 3.0] * 10)
    A = SparseOperator.from_dense(np.diag(diag), symmetric=True)
    b = np.ones(30) / np.sqrt(30.0)
    res = _solve(method, A, IdentityPreconditioner(), b, rtol=1e-10)
    assert res.converged
    assert res.iterations <= 4
    assert np.allclose(res.x_final, b / diag, rtol=0.0, atol=1e-10)


def test_fcg_with_unit_window_reduces_to_cg(poisson16):
    B = JacobiPreconditioner(poisson16.A)
    cg = _solve("pcg", poisson16.A, B, poisson16.b, rtol=1e-30, max_it=25)
    fcg = _solve("fcg", poisson16.A, B, poisson16.b, rtol=1e-30, max_it=25,
                 numax=1, truncation="standard")
    ref = _natural(cg)
    dev = np.abs(_natural(fcg) - ref) / ref
    assert float(dev.max()) <= 1e-10


def test_minimal_residual_histories_never_increase(poisson16):
    B = JacobiPreconditioner(poisson16.A)
    for method in ("gcr", "fgmres"):
        res = _solve(method, poisson16.A, B, poisson16.b, rtol=1e-30, max_it=30,
                     restart_len=30)
        hist = np.array([row.rnorm_true for row in res.trace])
        assert np.all(np.diff(hist) <= 1e-12 * hist[0])


def test_gmres_restart_cycles_are_flagged_and_still_converge(poisson16):
    B = JacobiPreconditioner(poisson16.A)
    res = _solve("fgmres", poisson16.A, B, poisson16.b, rtol=1e-10, max_it=400,
                 restart_len=5)
    assert res.converged
    restarts = [row.iter for row in res.trace if row.restarted]
    assert restarts, "expected at least one restart row"


def test_givens_rotations_on_floats_match_numpy_scalars():
    # the rotation loop runs on Python floats; on numpy float64 scalars
    # the same loop gives the same bits
    rng = np.random.default_rng(5)
    mlen = 30
    ls = _LeastSquares(mlen, 1.0)
    cs, sn = np.zeros(mlen), np.zeros(mlen)
    for k in range(1, mlen + 1):
        col = rng.standard_normal(k + 1) * 10.0 ** rng.integers(-8, 9, k + 1)
        ref = col.copy()
        for j in range(k - 1):
            t = cs[j] * ref[j] + sn[j] * ref[j + 1]
            ref[j + 1] = -sn[j] * ref[j] + cs[j] * ref[j + 1]
            ref[j] = t
        d_ref = math.hypot(ref[k - 1], ref[k])
        rotated = col.tolist()
        d = ls.rotate(rotated, k)
        assert np.array(rotated).tobytes() == ref.tobytes()
        assert d == d_ref
        ls.append(rotated, k, d)
        cs[k - 1], sn[k - 1] = ref[k - 1] / d_ref, ref[k] / d_ref
        assert (ls.cs[k - 1], ls.sn[k - 1]) == (cs[k - 1], sn[k - 1])
        # the back substitution against a dense solve of the stored triangle
        y = ls.iterate(np.zeros(mlen), np.eye(mlen), k)[:k]
        R = np.zeros((k, k))
        for j, stored in enumerate(ls.cols):
            R[: j + 1, j] = stored[: j + 1]
        y_ref = np.linalg.solve(R, np.array(ls.g[:k]))
        assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)
    x = np.ones(mlen)
    assert ls.iterate(x, np.eye(mlen), 0) is x


class _ZeroOnCall(Preconditioner):
    """Jacobi that returns the zero vector on one chosen (0-based) call."""

    def __init__(self, A, call: int):
        self._inner = JacobiPreconditioner(A)
        self._call = call
        self._count = 0

    def apply(self, r):
        self._count += 1
        if self._count - 1 == self._call:
            return np.zeros_like(r)
        return self._inner.apply(r)


def _vanished_column_row(method, poisson16, call, row):
    """A zero image on ``call`` vanishes a GMRES column: the row restarts
    the cycle from a refilled residual, without a breakdown flag."""
    res = _solve(method, poisson16.A, _ZeroOnCall(poisson16.A, call),
                 poisson16.b, restart_len=5)
    assert res.converged
    flagged = res.trace[row]
    assert flagged.restarted and not flagged.breakdown
    assert flagged.nu_used == 1
    return flagged


@pytest.mark.parametrize("method", GMRES_FAMILY)
def test_vanished_first_column_restarts_with_one_refill(method, poisson16):
    row = _vanished_column_row(method, poisson16, call=0, row=1)
    blocking, overlapped, tags = REDUCTION_LEDGER[method]
    assert (row.red_blocking, row.red_overlapped) == (blocking + 1, overlapped)
    assert row.overlap_tags == tags


@pytest.mark.parametrize("method", GMRES_FAMILY)
def test_vanished_column_after_a_full_cycle_carries_both_refills(method, poisson16):
    # a cycle of 5 columns makes 5 preconditioner calls, pipefgmres one
    # more for the image it computes ahead; the next call opens cycle 2
    first_of_cycle_2 = 6 if method == "pipefgmres" else 5
    row = _vanished_column_row(method, poisson16, call=first_of_cycle_2, row=6)
    blocking, overlapped, _ = REDUCTION_LEDGER[method]
    assert (row.red_blocking, row.red_overlapped) == (blocking + 2, overlapped)


def _bare_and_eager(method, A, make_pc, b, x_true, **kwargs):
    """The same solve twice: bare, where no row reads the iterate, and
    eager, where monitoring, x_true and an observer all read it."""
    bare = solve(SolverConfig(method=method, monitor_true_residual=False, **kwargs),
                 A, make_pc(), b)
    eager = solve(SolverConfig(method=method, **kwargs), A, make_pc(), b,
                  x_true=x_true, observer=collector([]))
    return bare, eager


def _assert_same_run(bare, eager):
    assert bare.x_final.tobytes() == eager.x_final.tobytes()
    assert (bare.iterations, bare.stop_reason) == (eager.iterations, eager.stop_reason)
    assert _natural(bare).tobytes() == _natural(eager).tobytes()


# case -> (preconditioner builder, SolverConfig overrides, stop reason)
LAZY_ITERATE_CASES = {
    "rtol": (JacobiPreconditioner, {}, "rtol"),
    "max_it-mid-cycle": (JacobiPreconditioner, dict(max_it=17, restart_len=10),
                         "max_it"),
    "max_it-at-cycle-end": (JacobiPreconditioner, dict(max_it=20, restart_len=10),
                            "max_it"),
    "stagnation": (JacobiPreconditioner,
                   dict(rtol=1e-30, stagnation_window=30, max_it=600), "stagnation"),
    # a zero image on call 3 ends the first cycle early on column 4
    "vanished-column": (lambda A: _ZeroOnCall(A, 3), dict(restart_len=10), "rtol"),
}


@pytest.mark.parametrize("case", LAZY_ITERATE_CASES)
@pytest.mark.parametrize("method", GMRES_FAMILY)
def test_lazy_iterate_matches_the_eager_one_bitwise(method, case):
    prob = make_poisson(2, 32, seed=0)
    make_pc, overrides, reason = LAZY_ITERATE_CASES[case]
    kwargs = {"max_it": 400, **overrides}
    bare, eager = _bare_and_eager(method, prob.A, lambda: make_pc(prob.A), prob.b,
                                  prob.x_true, **kwargs)
    assert bare.stop_reason == reason
    _assert_same_run(bare, eager)
    if case == "vanished-column":
        assert bare.trace[4].restarted
    if case == "max_it-mid-cycle":
        assert bare.trace[11].restarted and bare.iterations == 17
    if case == "max_it-at-cycle-end":
        assert bare.trace[11].restarted and bare.iterations == 20


@pytest.mark.parametrize("case", ["rtol", "max_it-at-cycle-end"])
def test_monitored_pipefgmres_forms_each_iterate_once(case, monkeypatch):
    # pipefgmres forms its basis rows with stacked_maxpy, so maxpy runs
    # only to form an iterate: once per row when each row reads it, and
    # neither again before a refill nor on exit
    calls, maxpy = [], gmres_module.maxpy

    def counted(*args, **kwargs):
        calls.append(1)
        return maxpy(*args, **kwargs)

    monkeypatch.setattr(gmres_module, "maxpy", counted)
    prob = make_poisson(2, 32, seed=0)
    make_pc, overrides, reason = LAZY_ITERATE_CASES[case]
    cfg = SolverConfig(method="pipefgmres", **{"max_it": 400, "restart_len": 10,
                                                **overrides})
    res = solve(cfg, prob.A, make_pc(prob.A), prob.b, x_true=prob.x_true)
    assert res.stop_reason == reason
    assert not any(row.breakdown for row in res.trace)
    assert any(row.restarted for row in res.trace)
    assert len(calls) == res.iterations


@st.composite
def _diagonally_dominant_system(draw):
    """A random nonsymmetric sparse system with a strictly dominant positive
    diagonal, its right-hand side and its dense solution."""
    n = draw(st.integers(5, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0 + rng.random(n))
    b = rng.standard_normal(n)
    return SparseOperator.from_dense(dense), b, np.linalg.solve(dense, b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(system=_diagonally_dominant_system(),
       method=st.sampled_from(GMRES_FAMILY),
       restart_len=st.integers(1, 12),
       max_it=st.integers(1, 80),
       sigma=st.sampled_from([0.0, 0.5]),
       jacobi=st.booleans())
def test_gmres_family_properties(system, method, restart_len, max_it, sigma, jacobi):
    A, b, x_true = system
    make_pc = (lambda: JacobiPreconditioner(A)) if jacobi else IdentityPreconditioner
    bare, eager = _bare_and_eager(method, A, make_pc, b, x_true,
                                  restart_len=restart_len, max_it=max_it, sigma=sigma)
    assert eager.stop_reason in STOP_REASONS
    for row in eager.trace:
        assert np.isfinite([row.rnorm_natural, row.rnorm_true, row.relerr]).all()
    # within a cycle a Givens rotation scales the residual tail by
    # |sn| <= 1; only a row with a refilled residual, flagged restarted or
    # breakdown, may raise the natural norm
    rows = eager.trace
    for prev, row in zip(rows, rows[1:]):
        assert row.restarted or row.breakdown or row.rnorm_natural <= prev.rnorm_natural
    _assert_same_run(bare, eager)


def test_pipefgmres_accepts_estimated_shift(poisson16):
    B = JacobiPreconditioner(poisson16.A)
    res = _solve("pipefgmres", poisson16.A, B, poisson16.b, rtol=1e-8,
                 max_it=200, restart_len=30, sigma_auto_power=5)
    assert res.converged


def test_pipefcg_theta_modes_all_converge(poisson16):
    B = JacobiPreconditioner(poisson16.A)
    for mode in ("zero", "one", "exact"):
        res = _solve("pipefcg", poisson16.A, B, poisson16.b, rtol=1e-8,
                     max_it=200, theta_mode=mode)
        assert res.converged, mode


def test_pipefcg_exact_theta_costs_one_blocking_phase(poisson16):
    B = JacobiPreconditioner(poisson16.A)
    res = _solve("pipefcg", poisson16.A, B, poisson16.b, rtol=1e-8, max_it=200,
                 theta_mode="exact")
    steady = [row for row in res.trace
              if row.iter >= 1 and not row.breakdown and not row.restarted]
    assert all(row.red_blocking == 1 and row.red_overlapped == 1 for row in steady)


@pytest.mark.parametrize("method", ["pipefcg", "pipegcr", "pipegcr_w"])
def test_exact_weighting_stops_when_the_residual_vanishes(method):
    # A = B = I: the first step lands on the solution, r is exactly zero,
    # and theta = <r, w>/<r, r> is undefined
    prob = make_identity(20)
    res = _solve(method, prob.A, IdentityPreconditioner(), prob.b,
                 theta_mode="exact")
    assert (res.stop_reason, res.iterations) == ("rtol", 1)
    row = res.trace[1]
    assert row.rnorm_natural == 0.0
    if method == "pipefcg":
        assert not (row.breakdown or row.restarted)
        assert (row.red_blocking, row.red_overlapped) == (1, 1)


@pytest.mark.parametrize("method", ["fcg", "cgfcg", "gcr", "pcr"])
def test_state_events_carry_the_preconditioned_residual(method, poisson16):
    B = JacobiPreconditioner(poisson16.A)
    events = []
    res = solve(SolverConfig(method=method, max_it=200), poisson16.A, B,
                poisson16.b, observer=collector(events))
    assert res.converged
    states = [(i, p) for event, i, p in events if event == "state"]
    accepted = {row.iter for row in res.trace if not row.breakdown}
    assert [i for i, _ in states] == [row.iter for row in res.trace]
    for i, payload in states:
        if i in accepted:
            assert np.array_equal(payload["u"], B.apply(payload["r"])), i


def test_pcr_minimizes_the_preconditioned_residual_norm():
    # preconditioned CR minimizes ||b - A x||_B = |L^T (b - A x)|, B = L L^T,
    # over x in K_k(BA, B b): a dense least-squares problem on an
    # orthonormal basis of that space
    prob = make_sinker(12, 1e3)
    B = JacobiPreconditioner(prob.A)
    A = prob.A.to_dense()
    half = np.linalg.cholesky(
        np.column_stack([B.apply(e) for e in np.eye(A.shape[0])])).T
    events = []
    res = solve(SolverConfig(method="pcr", rtol=1e-30, max_it=12,
                             stagnation_window=0),
                prob.A, B, prob.b, observer=collector(events))
    assert res.iterations == 12
    assert not any(row.breakdown or row.restarted for row in res.trace)
    iterates = {i: p["x"] for event, i, p in events if event == "state"}
    V = B.apply(prob.b)[:, None]
    worst = 0.0
    for k in range(1, 13):
        V, _ = np.linalg.qr(V)
        y, *_ = np.linalg.lstsq(half @ A @ V, half @ prob.b, rcond=None)
        best = norm2(half @ (prob.b - A @ V @ y))
        got = norm2(half @ (prob.b - A @ iterates[k]))
        worst = max(worst, abs(got - best) / best)
        V = np.column_stack([V, B.apply(A @ V[:, -1])])
    assert worst <= 1e-10


def test_pcr_with_jacobi_on_the_sinker_reaches_rtol():
    prob = make_sinker(32, 1e3)
    events = []
    res = solve(SolverConfig(method="pcr", rtol=1e-8, max_it=400,
                             stagnation_window=0),
                prob.A, JacobiPreconditioner(prob.A), prob.b,
                observer=collector(events))
    assert res.stop_reason == "rtol"
    true = norm2(prob.b - prob.A.apply(res.x_final))
    assert true <= 1.01 * 1e-8 * norm2(prob.b)
    states = {i: p for event, i, p in events if event == "state"}
    for row in res.trace:
        if not row.breakdown:
            assert row.rnorm_natural == norm2(states[row.iter]["r"]), row.iter


def test_symmetric_only_methods_reject_general_operators(poisson16):
    A = SparseOperator.from_scipy(poisson16.A.csr, symmetric=False)
    B = IdentityPreconditioner()
    for method in ("pcg", "gcr", "pcr", "pipegcr"):
        with pytest.raises(ValueError, match="symmetric"):
            _solve(method, A, B, poisson16.b)


def test_flexible_methods_handle_a_nonlinear_preconditioner():
    prob = make_sinker(12, 100.0)
    for method in ("fcg", "gcr", "fgmres"):
        B = BlockJacobiPreconditioner(prob.A, n_blocks=4, inner_iters=5)
        res = _solve(method, prob.A, B, prob.b, rtol=1e-8, max_it=500)
        assert res.converged, method
        assert norm2(prob.b - prob.A.apply(res.x_final)) <= 1e-6 * norm2(prob.b)


def test_indefinite_operator_is_an_unrecoverable_breakdown():
    diag = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
    A = SparseOperator.from_dense(np.diag(diag), symmetric=True)
    b = np.ones(6)
    res = _solve("pcg", A, IdentityPreconditioner(), b, rtol=1e-12, max_it=50)
    assert not res.converged
    assert res.stop_reason == "breakdown_unrecoverable"
    assert all(np.isfinite(row.rnorm_natural) for row in res.trace)


# Indefinite diagonal: with b = ones the initial <w, u> is negative, so
# the fused CG variants break down before their first step.
INDEFINITE = SparseOperator.from_dense(
    np.diag([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.5]), symmetric=True)


@pytest.mark.parametrize("method", ["cgcg", "pipecg"])
def test_nonpositive_initial_delta_flags_row_zero(method):
    res = _solve(method, INDEFINITE, IdentityPreconditioner(), np.ones(8))
    assert res.stop_reason == "breakdown_unrecoverable"
    assert res.iterations == 0
    assert len(res.trace) == 1 and res.trace[0].breakdown


@pytest.mark.parametrize("b", [np.ones(8), np.array([3.0, 1.0] * 4)],
                         ids=["ones", "3131"])
@pytest.mark.parametrize("method", GMRES_FAMILY)
def test_gmres_past_a_full_krylov_space_returns_a_true_solution(method, b):
    """Past n columns the new basis vector is rounding, and pipefgmres
    recurs its images; a Pythagorean remainder that rounds to zero there
    is no happy breakdown.  Read as one, pipefgmres on b = ones would stop
    with rtol at a true relative residual of 4.2."""
    res = _solve(method, INDEFINITE, IdentityPreconditioner(), b, max_it=50)
    assert res.stop_reason == "rtol"
    assert norm2(b - INDEFINITE.apply(res.x_final)) <= 1e-12 * norm2(b)


@pytest.mark.parametrize("method", ["cgfgmres", "pipefgmres"])
def test_rounded_first_column_takes_the_reduced_norm(method):
    """On the identity the first column's Pythagorean remainder is
    rounding; the column takes the reduced column's norm in one more
    blocking phase, on a row that is not flagged, and ends the run."""
    prob = make_identity(7)
    res = _solve(method, prob.A, IdentityPreconditioner(), prob.b)
    blocking, overlapped, tags = REDUCTION_LEDGER[method]
    row = res.trace[1]
    assert (row.red_blocking, row.red_overlapped) == (blocking + 1, overlapped)
    assert row.overlap_tags == tags
    assert not (row.breakdown or row.restarted)
    assert res.stop_reason == "rtol" and row.rnorm_natural <= 1e-15


def _breakdown_runs():
    """Runs that reach a breakdown or restart row in each of the methods,
    as (method, result, stagnation window)."""
    prob = make_toy_diagonal(100, 5.0)
    for method in METHODS:
        cfg = SolverConfig(method=method, rtol=1e-16, max_it=500, numax=100,
                           restart_len=10, stagnation_window=50)
        yield method, solve(cfg, prob.A, NoisyPreconditioner(1e-2, seed=7), prob.b), 50
    # pcr: gamma = <B r, A B r> = sum d_i b_i^2 is exactly 0 on this b;
    # gcr flags rows 2 and 4 on b = (1, 1, 0, ..., 0)
    for method, b in (("pcg", np.ones(8)), ("fcg", np.ones(8)),
                      ("cgcg", np.array([3.0, 1.0] * 4)),
                      ("pcr", np.array([1.0] * 6 + [0.0] * 2)),
                      ("gcr", np.array([1.0] * 2 + [0.0] * 6))):
        yield method, _solve(method, INDEFINITE, IdentityPreconditioner(), b,
                             max_it=50), 0


def _stagnation_row(natural, window):
    """The row at which the documented stagnation policy trips: the first
    i >= window whose best natural norm so far fails to improve on the
    best at row i - window by STAGNATION_RTOL relative; None if none does."""
    if window == 0:
        return None
    best = np.minimum.accumulate(natural)
    for i in range(window, len(best)):
        if best[i] > (1.0 - STAGNATION_RTOL) * best[i - window]:
            return i
    return None


def _assert_stagnation_policy(res, window):
    row = _stagnation_row(_natural(res), window)
    if res.stop_reason == "stagnation":
        assert row == res.iterations
    else:
        assert row is None or row >= res.iterations


def test_stagnation_stops_on_the_first_row_the_policy_trips():
    for method, res, window in _breakdown_runs():
        _assert_stagnation_policy(res, window)


@st.composite
def _symmetric_system(draw):
    """A random SPD system with a Jacobi, identity or noisy preconditioner,
    or a symmetric indefinite diagonal with the identity preconditioner:
    the operator, a preconditioner factory, b and the solution."""
    n = draw(st.integers(5, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    pc = draw(st.sampled_from(["jacobi", "identity", "noisy", "indefinite"]))
    if pc == "indefinite":
        rng = np.random.default_rng(seed)
        d = rng.uniform(0.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
        b = rng.standard_normal(n)
        return (SparseOperator.from_dense(np.diag(d), symmetric=True),
                IdentityPreconditioner, b, b / d)
    A, b = random_spd(n, seed)
    make_pc = {"jacobi": lambda: JacobiPreconditioner(A),
               "identity": IdentityPreconditioner,
               "noisy": lambda: NoisyPreconditioner(1e-3, seed=seed)}[pc]
    return A, make_pc, b, np.linalg.solve(A.to_dense(), b)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(system=_symmetric_system(),
       method=st.sampled_from(CG_FAMILY + FCG_FAMILY + CR_FAMILY),
       numax=st.integers(1, 8),
       truncation=st.sampled_from(TRUNCATION_STRATEGIES),
       theta_mode=st.sampled_from(THETA_MODES),
       max_it=st.integers(1, 120),
       window=st.sampled_from([0, 5, 20]))
def test_symmetric_family_properties(system, method, numax, truncation, theta_mode,
                                     max_it, window):
    A, make_pc, b, x_true = system
    bare, eager = _bare_and_eager(method, A, make_pc, b, x_true, numax=numax,
                                  truncation=truncation, theta_mode=theta_mode,
                                  max_it=max_it, stagnation_window=window)
    assert eager.stop_reason in STOP_REASONS
    blocking, overlapped, tags = REDUCTION_LEDGER[method]
    if theta_mode == "exact" and method in ("pipefcg", "pipegcr", "pipegcr_w"):
        blocking += 1               # the two dot products of the exact weighting
    for row in eager.trace:
        assert np.isfinite([row.rnorm_natural, row.rnorm_true, row.relerr]).all()
        if row.iter >= 1 and not (row.breakdown or row.restarted):
            assert (row.red_blocking, row.red_overlapped) == (blocking, overlapped)
            assert row.overlap_tags == tags
    _assert_stagnation_policy(eager, window)
    _assert_same_run(bare, eager)


def test_flagged_rows_add_one_blocking_refill_phase():
    reached = set()
    for method, res, _ in _breakdown_runs():
        blocking, overlapped, tags = REDUCTION_LEDGER[method]
        if method != "pipefcg_naive":
            blocking += 1           # the naive variant flushes without a refill
        for row in res.trace:
            if row.iter >= 1 and (row.breakdown or row.restarted):
                reached.add(method)
                assert (row.red_blocking, row.red_overlapped) == (blocking, overlapped), \
                    (method, row.iter)
                assert row.overlap_tags == tags, method
    assert reached == set(METHODS)


@pytest.mark.parametrize("arg,value", [("b", np.nan), ("x0", np.inf),
                                       ("x_true", -np.inf), ("b", 1j), ("x0", 1j),
                                       ("x_true", 1j)])
def test_non_finite_input_is_rejected(arg, value, poisson8):
    """Non-finite input, and complex input, whose imaginary part a solve
    would drop, fail up front."""
    vectors = {"b": poisson8.b.copy(), "x0": np.zeros(64),
               "x_true": poisson8.x_true.copy()}
    vectors[arg] = vectors[arg] + np.where(np.arange(64) == 3, value, 0.0)
    with pytest.raises(ValueError, match="complex128" if value == 1j else "NaN or inf"):
        solve(SolverConfig(method="pcg"), poisson8.A, IdentityPreconditioner(),
              vectors["b"], x0=vectors["x0"], x_true=vectors["x_true"])


@pytest.mark.parametrize("arg", ["b", "x0", "x_true"])
def test_vector_of_the_wrong_length_is_rejected(arg, poisson8):
    vectors = {"b": poisson8.b, "x0": None, "x_true": None}
    vectors[arg] = np.ones(63)
    with pytest.raises(ValueError, match="length"):
        solve(SolverConfig(method="pcg"), poisson8.A, IdentityPreconditioner(),
              vectors["b"], x0=vectors["x0"], x_true=vectors["x_true"])


class _InfFromCall(Preconditioner):
    """Jacobi whose image holds inf in its first entry from the chosen
    (1-based) call on."""

    def __init__(self, A, call: int):
        self._inner = JacobiPreconditioner(A)
        self._call = call
        self._count = 0

    def apply(self, r):
        self._count += 1
        u = self._inner.apply(r)
        if self._count >= self._call:
            u[0] = np.inf
        return u


@pytest.mark.parametrize("method", METHODS)
def test_non_finite_image_ends_the_run_with_a_finite_iterate(method, poisson8):
    """Once the preconditioner's image is not finite, each method's guards
    (the breakdown path's refill, the GMRES and naive refills) end the run
    on its last finite iterate."""
    with np.errstate(all="ignore"):
        res = solve(SolverConfig(method=method, max_it=100), poisson8.A,
                    _InfFromCall(poisson8.A, 5), poisson8.b, x_true=poisson8.x_true)
    assert res.stop_reason == "breakdown_unrecoverable" and not res.converged
    # the count is the last row's, also when a non-finite refill ends the
    # run with no row of its own (pipefcg_naive's last row is 3)
    assert res.iterations == res.trace[-1].iter >= 3
    assert np.isfinite(res.x_final).all()
    for row in res.trace:
        assert np.isfinite([row.rnorm_natural, row.rnorm_true, row.relerr]).all()


class _RaisesFromCall(_InfFromCall):
    """Jacobi that raises FloatingPointError from the chosen call on, as a
    preconditioner computing under ``np.errstate(all="raise")`` would."""

    def apply(self, r):
        u = super().apply(r)
        if np.isinf(u[0]):
            raise FloatingPointError("overflow in the preconditioner")
        return u


@pytest.mark.parametrize("method", METHODS)
def test_floating_point_error_counts_the_last_logged_row(method, poisson8):
    """A FloatingPointError that reaches ``solve`` ends the run as a
    breakdown whose count and iterate are the last logged row's: no step
    writes into the array of that iterate."""
    states = []
    res = solve(SolverConfig(method=method, max_it=100), poisson8.A,
                _RaisesFromCall(poisson8.A, 5), poisson8.b, x_true=poisson8.x_true,
                observer=lambda event, i, payload: event == "state" and states.append(
                    (i, payload["x"])))
    assert res.stop_reason == "breakdown_unrecoverable" and not res.converged
    assert res.iterations == res.trace[-1].iter == states[-1][0] >= 1
    assert res.x_final.tobytes() == states[-1][1].tobytes()


@pytest.mark.parametrize("method", ["pipecg", "pipefcg", "pipegcr_w"])
def test_pipelined_solve_allocates_few_vectors(method):
    """The steps update the vectors of the solve in place, so the traced
    peak of a pipelined solve stays below 13 vectors of the system's length
    (16.5 while every step allocated its updates afresh).  That includes
    the 8-vector block that ``solve`` allocates and frees first, x0 and the
    trace rows; the direction window is a mapping of its own, not traced."""
    prob = make_poisson(2, 128)
    B = JacobiPreconditioner(prob.A)
    tracemalloc.start()
    try:
        res = solve(SolverConfig(method=method), prob.A, B, prob.b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # long enough for the windowed methods to take two whole-ring steps
    assert res.converged and res.iterations > 2 * 30
    assert peak < 13 * prob.b.nbytes


@pytest.mark.parametrize("method", METHODS)
def test_overflowing_initial_residual_returns_the_initial_guess(method, poisson8):
    """|b - A x0| overflows, so row 0 cannot be logged: the recorder's
    FloatingPointError reaches ``solve``, which reports the breakdown with
    an empty trace and x0."""
    x0 = np.full(64, 1e308)
    with np.errstate(all="ignore"):
        res = solve(SolverConfig(method=method), poisson8.A,
                    JacobiPreconditioner(poisson8.A), poisson8.b, x0=x0)
    assert (res.stop_reason, res.iterations, res.trace) == (
        "breakdown_unrecoverable", 0, [])
    assert res.x_final.tobytes() == x0.tobytes()


class _Tiny(Preconditioner):
    def apply(self, r):
        return r * 1e-200


# what overflows -> (x0, x_true, monitored, preconditioner builder)
NON_FINITE_DIAGNOSTICS = {
    # sqrt(<B r, r>) stays finite while |r|^2 overflows
    "true residual": (np.full(64, -1e200), None, True, lambda A: _Tiny()),
    "relative error": (None, np.full(64, 1e200), False, JacobiPreconditioner),
}


@pytest.mark.parametrize("case", NON_FINITE_DIAGNOSTICS)
def test_non_finite_diagnostic_is_a_breakdown(case, poisson8):
    x0, x_true, monitored, make_pc = NON_FINITE_DIAGNOSTICS[case]
    with np.errstate(all="ignore"):
        rec = TraceRecorder(poisson8.A, poisson8.b, x_true, monitored)
        with pytest.raises(FloatingPointError, match=case):
            rec.log(0, np.zeros(64) if x0 is None else x0, 1.0, 0, 0, 0, frozenset())
        res = solve(SolverConfig(method="pcg", monitor_true_residual=monitored),
                    poisson8.A, make_pc(poisson8.A), poisson8.b, x0=x0, x_true=x_true)
    assert rec.trace == []
    assert (res.stop_reason, res.iterations, res.trace) == (
        "breakdown_unrecoverable", 0, [])


def test_stagnation_detection_fires_on_an_unreachable_tolerance(poisson16):
    B = JacobiPreconditioner(poisson16.A)
    res = solve(SolverConfig(method="gcr", rtol=1e-30, max_it=1000,
                             stagnation_window=30), poisson16.A, B, poisson16.b)
    assert not res.converged
    assert res.stop_reason == "stagnation"
    assert res.iterations < 1000


def test_iteration_limit_is_reported(poisson16):
    B = IdentityPreconditioner()
    res = solve(SolverConfig(method="pcg", rtol=1e-14, max_it=3,
                             stagnation_window=0), poisson16.A, B, poisson16.b)
    assert not res.converged
    assert res.stop_reason == "max_it"
    assert res.iterations == 3


def test_absolute_tolerance_dominates_when_larger(poisson16):
    B = JacobiPreconditioner(poisson16.A)
    nat0 = _solve("pcg", poisson16.A, B, poisson16.b,
                  max_it=1).trace[0].rnorm_natural
    res = _solve("pcg", poisson16.A, B, poisson16.b, rtol=1e-12,
                 atol=0.5 * nat0, max_it=100)
    assert res.converged
    assert res.stop_reason == "atol"


def test_prescale_recovers_the_unscaled_solution():
    A, b = random_spd(15, seed=3)
    exact = np.linalg.solve(A.to_dense(), b)
    res = solve(SolverConfig(method="pcg", rtol=1e-12, prescale=True,
                             stagnation_window=0, max_it=200), A,
                IdentityPreconditioner(), b)
    assert res.converged
    assert np.allclose(res.x_final, exact, rtol=0.0, atol=1e-9 * norm2(exact))


@pytest.mark.parametrize("method", METHODS)
def test_trace_norms_are_plain_floats(method, poisson8, jacobi8):
    # np.float64 passes isinstance(float) but reprs as np.float64(...),
    # which would corrupt summaries and trace files
    res = _solve(method, poisson8.A, jacobi8, poisson8.b, max_it=10,
                 rtol=1e-30, numax=10, restart_len=20)
    for row in res.trace:
        assert type(row.rnorm_natural) is float
        assert row.rnorm_true is None or type(row.rnorm_true) is float
        assert row.relerr is None or type(row.relerr) is float


def test_monitoring_can_be_disabled(poisson16):
    B = JacobiPreconditioner(poisson16.A)
    res = _solve("pcg", poisson16.A, B, poisson16.b,
                 monitor_true_residual=False, max_it=10, rtol=1e-30)
    assert all(row.rnorm_true is None for row in res.trace)


_SCALAR_REDUCTION_METHODS = ("pcg", "cgcg", "pipecg", "pcr")

_SOLVE_TO_FILES = """
import os, sys
from pipekrylov import linalg
from pipekrylov.preconditioners import JacobiPreconditioner
from pipekrylov.problems import make_poisson
from pipekrylov.solvers import SolverConfig, solve
from pipekrylov.traceio import write_trace_csv
folder, methods = sys.argv[1], sys.argv[2].split(",")
print(linalg._threads[1]())
prob = make_poisson(2, 128, seed=0)
for method in methods:
    res = solve(SolverConfig(method=method, max_it=2000), prob.A,
                JacobiPreconditioner(prob.A), prob.b, x_true=prob.x_true, seed=0)
    write_trace_csv(os.path.join(folder, method + ".csv"), res.trace)
    with open(os.path.join(folder, method + ".x"), "wb") as handle:
        handle.write(res.x_final.tobytes())
"""


@pytest.mark.skipif(not linalg.SCALAR_ONE_THREAD,
                    reason="numpy's OpenBLAS exposes no thread-count functions")
def test_scalar_reduction_methods_do_not_depend_on_the_thread_count(tmp_path):
    # 16384-vectors, long enough for OpenBLAS to thread a dot product; the
    # FCG, CR-window and GMRES methods also call mdot, which it threads
    methods = ",".join(_SCALAR_REDUCTION_METHODS)
    outputs = {}
    for threads in ("1", "2"):
        folder = tmp_path / threads
        folder.mkdir()
        proc = subprocess.run([sys.executable, "-c", _SOLVE_TO_FILES, str(folder), methods],
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [threads]
        outputs[threads] = {path.name: path.read_bytes() for path in sorted(folder.iterdir())}
    assert len(outputs["1"]) == 2 * len(_SCALAR_REDUCTION_METHODS)
    for name, data in outputs["1"].items():
        assert outputs["2"][name] == data, name


def test_stateful_noise_still_yields_bitwise_repeatable_runs(poisson16):
    def run() -> bytes:
        B = NoisyPreconditioner(1e-6, seed=12)
        res = _solve("pipefcg", poisson16.A, B, poisson16.b, rtol=1e-6,
                     max_it=200, numax=30)
        buf = io.StringIO()
        write_trace_csv(buf, res.trace)
        return buf.getvalue().encode()

    assert run() == run()


@pytest.mark.parametrize("method", METHODS)
def test_every_method_solves_the_poisson_system(method, poisson16):
    B = JacobiPreconditioner(poisson16.A)
    kwargs = dict(rtol=1e-8, max_it=500, stagnation_window=0)
    res = solve(SolverConfig(method=method, **kwargs), poisson16.A, B, poisson16.b)
    assert res.converged, (method, res.stop_reason)
    err = norm2(res.x_final - poisson16.x_true) / norm2(poisson16.x_true)
    assert err <= 1e-6, method
