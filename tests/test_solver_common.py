"""Configuration validation, truncation rules, the stabilized update, and
the spectral-shift estimator.

Oracles: the truncation formulas evaluated by hand, a list-of-entries
reference for the direction window, linearity identities for the
stabilized update, and eigenvalue facts about scaled identities and the
diagonal model problem.
"""

from __future__ import annotations

import numpy as np
import pytest

from pipekrylov.linalg import SparseOperator, dot
from pipekrylov.preconditioners import IdentityPreconditioner, JacobiPreconditioner
from pipekrylov.problems import make_poisson, make_toy_diagonal
from pipekrylov.rng import SplitMix64
from pipekrylov.solvers import (
    METHODS,
    SolverConfig,
    estimate_sigma,
    solve,
    stabilized_m_update,
    truncation_window,
)
from pipekrylov.solvers.common import DirectionWindow


def test_methods_tuple_lists_all_fourteen():
    assert len(METHODS) == 14
    assert len(set(METHODS)) == 14


def test_truncation_modulo_rule_hand_values():
    # min(i, i mod numax + 1)
    assert truncation_window(5, 3, "notay_mod") == 3
    assert truncation_window(6, 3, "notay_mod") == 1
    assert truncation_window(2, 30, "notay_mod") == 2
    assert truncation_window(30, 30, "notay_mod") == 1


def test_truncation_standard_rule_hand_values():
    assert truncation_window(2, 30, "standard") == 2
    assert truncation_window(45, 30, "standard") == 30


def test_truncation_keeps_full_memory_below_capacity():
    for i in range(1, 30):
        assert truncation_window(i, 30, "notay_mod") == i
        assert truncation_window(i, 30, "standard") == i


def test_truncation_validation():
    with pytest.raises(ValueError, match=">= 1"):
        truncation_window(0, 3, "standard")
    with pytest.raises(ValueError, match=">= 1"):
        truncation_window(1, 0, "standard")
    with pytest.raises(ValueError, match="unknown truncation"):
        truncation_window(1, 3, "other")


@pytest.mark.parametrize("numax", [1, 2, 3, 5])
@pytest.mark.parametrize("truncation", ["notay_mod", "standard"])
def test_direction_window_matches_a_list_reference(numax, truncation):
    # The reference keeps entries (p, s, ..., eta) in a plain list, oldest
    # first.  The window's coefficients run in slot order, so the check
    # compares the sums they form, which do not depend on that order.
    # Windows of 2, 3 and 4 columns are those of cgfcg, pipegcr and pipefcg.
    # Some directions are combined from the first head alone, their other
    # columns filled afterwards, as fcg fills s = A p.  The first two
    # whole-ring windows after each clear break down: their direction is
    # never pushed, and the refill clears the window.
    n = 7
    for method, columns in (("cgfcg", 2), ("pipegcr", 3), ("pipefcg", 4)):
        cfg = SolverConfig(method=method, numax=numax, truncation=truncation)
        rng = np.random.default_rng(10 * numax + len(truncation) + columns)
        win = DirectionWindow(cfg, columns, n)
        ref: list[tuple] = []
        built = breakdowns = 0
        for step in range(8 * numax + 4):
            v = rng.standard_normal(n)
            heads = list(rng.standard_normal((columns if step % 3 else 1, n)))
            betas = win.betas(v)
            nu = min(truncation_window(built, numax, truncation), len(ref)) if built else 0
            assert len(betas) == nu
            window = ref[len(ref) - nu:]
            ref_betas = [-dot(v, e[1]) / e[-1] for e in window]
            with pytest.raises(ValueError, match="head/column count"):
                win.combine(betas, *heads, *rng.standard_normal((columns, n)))
            combined = win.combine(betas, *heads)
            assert combined.shape == (columns, n)
            for col, (head, got) in enumerate(zip(heads, combined)):
                terms = [b * e[col] for b, e in zip(ref_betas, window)]
                scale = np.abs(head) + sum(np.abs(t) for t in terms)
                assert np.all(np.abs(got - (head + sum(terms))) <= 1e-13 * scale)
            combined[len(heads):] = rng.standard_normal((columns - len(heads), n))
            energies = [b * b * e[-1] for b, e in zip(ref_betas, window)]
            assert abs(win.energy(betas) - sum(energies)) <= 1e-13 * sum(energies)
            if nu == numax and breakdowns < 2:
                breakdowns += 1
                win.clear()
                ref, built = [], 0
                continue
            combined /= np.linalg.norm(combined, axis=1, keepdims=True)   # no growth
            kept = combined.copy()
            eta = rng.uniform(0.5, 2.0)
            win.push(eta)
            # push stores or copies the direction; it does not change it
            assert np.array_equal(combined, kept)
            ref = (ref + [(*kept, eta)])[-numax:]
            built += 1


def test_stabilized_update_modes_agree_for_linear_preconditioner():
    prob = make_poisson(2, 5, seed=0)
    B = JacobiPreconditioner(prob.A)
    rng = SplitMix64(8)
    r = rng.gaussian(25)
    w = rng.gaussian(25)
    u_tilde = B.apply(r)
    m_zero = stabilized_m_update(B, u_tilde, w, r, "zero")
    m_one = stabilized_m_update(B, u_tilde, w, r, "one")
    assert np.array_equal(m_zero, B.apply(w))
    # For a linear B with u_tilde = B(r) all modes collapse to B(w).
    assert np.allclose(m_one, m_zero, rtol=1e-13, atol=0.0)
    m_exact = stabilized_m_update(B, u_tilde, w, r, "exact")
    assert np.allclose(m_exact, m_zero, rtol=1e-12, atol=1e-14)


def test_stabilized_update_exact_mode_with_zero_residual():
    B = IdentityPreconditioner()
    z = np.zeros(4)
    assert stabilized_m_update(B, z, np.ones(4), z, "exact") is None


def test_stabilized_update_rejects_unknown_mode():
    with pytest.raises(ValueError, match="theta mode"):
        stabilized_m_update(IdentityPreconditioner(), np.zeros(2), np.zeros(2),
                            np.zeros(2), "two")


def test_sigma_estimate_is_exact_on_scaled_identities():
    two = SparseOperator.from_dense(2.0 * np.eye(6), symmetric=True)
    one = SparseOperator.from_dense(np.eye(6), symmetric=True)
    B = IdentityPreconditioner()
    est, degenerate = estimate_sigma(two, B, 1, seed=0)
    assert not degenerate
    assert est == pytest.approx(2.0, rel=1e-14)
    est, degenerate = estimate_sigma(one, B, 3, seed=0)
    assert not degenerate
    assert est == pytest.approx(1.0, rel=1e-14)


def test_sigma_estimate_converges_to_largest_eigenvalue():
    prob = make_toy_diagonal(100, 5.0)
    est, degenerate = estimate_sigma(prob.A, IdentityPreconditioner(), 50, seed=0)
    assert not degenerate
    assert est == pytest.approx(5.0, rel=0.01)


def test_sigma_estimate_flags_degenerate_operator():
    zero = SparseOperator(2, 2, [0, 0, 0], [], [], symmetric=True)
    est, degenerate = estimate_sigma(zero, IdentityPreconditioner(), 3, seed=0)
    assert degenerate and est == 0.0


def test_sigma_estimate_validation():
    prob = make_toy_diagonal(4, 2.0)
    with pytest.raises(ValueError, match=">= 1"):
        estimate_sigma(prob.A, IdentityPreconditioner(), 0, seed=0)


def test_config_normalizes_method_case():
    assert SolverConfig(method="  PCG ").method == "pcg"


@pytest.mark.parametrize("spelling,method", [("pipefcg-naive", "pipefcg_naive"),
                                             ("PipeGCR-W", "pipegcr_w")])
def test_config_accepts_hyphenated_method_names(spelling, method, poisson8):
    cfg = SolverConfig(method=spelling)
    assert cfg.method == method
    assert solve(cfg, poisson8.A, IdentityPreconditioner(), poisson8.b).converged


@pytest.mark.parametrize("kwargs,match", [
    (dict(method="cgs"), "unknown method"),
    (dict(method="pcg", rtol=0.0), "rtol"),
    (dict(method="pcg", rtol=1.5), "rtol"),
    (dict(method="pcg", atol=-1.0), "atol"),
    (dict(method="pcg", max_it=0), "max_it"),
    (dict(method="pcg", numax=0), "numax"),
    (dict(method="pcg", truncation="full"), "truncation"),
    (dict(method="pcg", restart_len=0), "restart_len"),
    (dict(method="pcg", sigma_auto_power=-1), "sigma_auto_power"),
    (dict(method="pcg", theta_mode="three"), "theta mode"),
    (dict(method="pcg", stagnation_window=-1), "stagnation_window"),
    (dict(method="fcg", numax=2.5), "numax"),
    (dict(method="fcg", max_it=10.5), "max_it"),
    (dict(method="pcg", max_it=10.0), "max_it"),
    (dict(method="pcg", max_it=True), "max_it"),
    (dict(method="fgmres", restart_len=3.5), "restart_len"),
    (dict(method="pcg", stagnation_window=2.5), "stagnation_window"),
    (dict(method="pcg", stagnation_window=False), "stagnation_window"),
    (dict(method="fgmres", sigma_auto_power=1.5), "sigma_auto_power"),
    (dict(method="pcg", numax="30"), "numax"),
])
def test_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SolverConfig(**kwargs)


@pytest.mark.parametrize("method", ["pcg", "fcg", "fgmres"])
def test_config_accepts_numpy_integer_counts(method, poisson8):
    counts = dict(max_it=40, numax=3, restart_len=4, sigma_auto_power=2, stagnation_window=5)
    A, b = poisson8.A, poisson8.b
    given = solve(SolverConfig(method=method, **{k: np.int64(v) for k, v in counts.items()}),
                  A, JacobiPreconditioner(A), b)
    plain = solve(SolverConfig(method=method, **counts), A, JacobiPreconditioner(A), b)
    assert given.iterations == plain.iterations
    assert given.x_final.tobytes() == plain.x_final.tobytes()


def test_solve_rejects_rectangular_operator():
    A = SparseOperator(2, 3, [0, 0, 0], [], [])
    cfg = SolverConfig(method="pcg")
    with pytest.raises(ValueError, match="square"):
        solve(cfg, A, IdentityPreconditioner(), np.zeros(2))


def test_solve_rejects_mismatched_rhs():
    prob = make_poisson(2, 4, seed=0)
    cfg = SolverConfig(method="pcg")
    with pytest.raises(ValueError, match="length"):
        solve(cfg, prob.A, IdentityPreconditioner(), np.zeros(7))
