"""Acceptance suite: one test per release criterion, at the stated
tolerances, each ending in a single printed pass line.

Criteria covered, in order: the noise-floor reproduction of the naive
pipelined variant against its stabilized counterparts, exact-arithmetic
equivalence of each method family under a linear preconditioner,
orthogonality invariants, the conjugation-coefficient recurrence,
minimal-residual optimality against a dense oracle, the reduction-phase
ledger, the analytic crossover band, breakdown recovery, and byte-level
determinism of the command-line front end.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from pipekrylov.cli import main
from pipekrylov.linalg import dot, norm2
from pipekrylov.perfmodel import (
    CostModelParams,
    MachineSpec,
    find_crossover,
    iteration_cost,
)
from pipekrylov.preconditioners import IdentityPreconditioner, JacobiPreconditioner, NoisyPreconditioner
from pipekrylov.problems import make_poisson, make_toy_diagonal
from pipekrylov.solvers import METHODS, REDUCTION_LEDGER, SolverConfig, solve
from pipekrylov.traceio import read_trace_csv

from conftest import collector, random_spd


def _toy_solve_argv(method: str, eta: str, rtol: str, out: str) -> list[str]:
    return [
        "solve", "--problem", "toy-diag", "--n", "100", "--cond", "5",
        "--solver", method, "--pc", "noisy", "--eta", eta, "--numax", "100",
        "--seed", "7", "--rtol", rtol, "--max-it", "300",
        "--stagnation-window", "0", "--out", out,
    ]


def _criterion1_commands(tmp_path) -> list[tuple[str, str, list[str]]]:
    """(variant, eta, argv) for the six noise-floor runs, rtol per clause."""
    commands = []
    for eta, rtol in (("1e-4", "1e-8"), ("1e-8", "1e-12")):
        for method in ("fcg", "pipefcg"):
            out = str(tmp_path / f"{method}_{eta}.csv")
            commands.append((method, eta, _toy_solve_argv(method, eta, rtol, out)))
        out = str(tmp_path / f"naive_{eta}.csv")
        commands.append(("pipefcg-naive", eta,
                         _toy_solve_argv("pipefcg-naive", eta, "1e-30", out)))
    return commands


def test_criterion_1_noise_floor_reproduction(tmp_path, capsys):
    started = time.perf_counter()
    for method, eta_str, argv in _criterion1_commands(tmp_path):
        assert main(argv) == 0
        eta = float(eta_str)
        trace = read_trace_csv(argv[-1])
        if method == "pipefcg-naive":
            window = [row.relerr for row in trace if 100 <= row.iter <= 300]
            assert len(window) == 201
            low, high = eta * 1e-1, eta * 1e2
            assert all(low <= err <= high for err in window), \
                f"naive floor left [{low:g}, {high:g}] for eta={eta:g}"
        else:
            assert trace[-1].relerr <= eta * 1e-2, \
                f"{method} missed the stabilized error bound for eta={eta:g}"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    capsys.readouterr()
    print(f"criterion 1: PASS (stabilized error below eta/100, naive floor "
          f"inside the eta band, {elapsed:.2f}s)")


_SUITES = (
    ("pcg", "cgcg", "pipecg"),
    ("fcg", "cgfcg", "pipefcg"),
    ("gcr", "pcr", "pipegcr", "pipegcr_w"),
    ("fgmres", "cgfgmres", "pipefgmres"),
)


def test_criterion_2_equivalence_suites():
    started = time.perf_counter()
    prob = make_poisson(2, 32, seed=0)
    worst = 0.0
    for suite in _SUITES:
        histories = {}
        for method in suite:
            cfg = SolverConfig(method=method, rtol=1e-30, max_it=30, numax=30,
                               restart_len=30, stagnation_window=0, sigma=0.0)
            res = solve(cfg, prob.A, JacobiPreconditioner(prob.A), prob.b)
            histories[method] = np.array([row.rnorm_natural for row in res.trace])
        ref = suite[0]
        for method in suite[1:]:
            dev = np.abs(histories[method] - histories[ref]) / histories[ref]
            worst = max(worst, float(dev.max()))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-6
    assert elapsed < 5.0
    print(f"criterion 2: PASS (worst pairwise deviation {worst:.2e}, "
          f"{elapsed:.2f}s)")


def test_criterion_3_orthogonality_invariants(poisson16):
    B = JacobiPreconditioner(poisson16.A)

    events: list = []
    cfg = SolverConfig(method="fcg", rtol=1e-30, max_it=40, numax=300,
                       stagnation_window=0)
    solve(cfg, poisson16.A, B, poisson16.b, observer=collector(events))
    dirs = [(i, d["p"], d["s"], d["eta"]) for e, i, d in events if e == "direction"]
    states = {i: d["r"] for e, i, d in events if e == "state"}
    worst_orth = worst_conj = 0.0
    for i, p_i, _, eta_i in dirs:
        r_i = states[i]
        for k, p_k, s_k, eta_k in dirs:
            if k < i:
                worst_orth = max(worst_orth,
                                 abs(dot(r_i, p_k)) / (norm2(r_i) * norm2(p_k)))
                worst_conj = max(worst_conj,
                                 abs(dot(p_i, s_k)) / np.sqrt(eta_i * eta_k))
    assert worst_orth <= 1e-8
    assert worst_conj <= 1e-8

    events = []
    cfg = SolverConfig(method="gcr", rtol=1e-30, max_it=40, numax=300,
                       stagnation_window=0)
    solve(cfg, poisson16.A, B, poisson16.b, observer=collector(events))
    svecs = [(d["s"], d["eta"]) for e, _, d in events if e == "direction"]
    worst_s = max(abs(dot(s_i, s_k)) / np.sqrt(eta_i * eta_k)
                  for a, (s_i, eta_i) in enumerate(svecs)
                  for (s_k, eta_k) in svecs[:a])
    assert worst_s <= 1e-8

    events = []
    cfg = SolverConfig(method="fgmres", rtol=1e-30, max_it=40, restart_len=60,
                       stagnation_window=0)
    solve(cfg, poisson16.A, B, poisson16.b, observer=collector(events))
    basis = [d["v"] for e, _, d in events if e == "basis"]
    gram = np.array([[dot(v_i, v_j) for v_j in basis] for v_i in basis])
    worst_v = float(np.max(np.abs(gram - np.eye(len(basis)))))
    assert worst_v <= 1e-8
    print(f"criterion 3: PASS (orthogonality residuals {worst_orth:.1e}, "
          f"{worst_conj:.1e}, {worst_s:.1e}, {worst_v:.1e})")


def test_criterion_4_eta_recurrence_consistency(poisson16):
    B = JacobiPreconditioner(poisson16.A)
    worst = 0.0
    for method in ("cgfcg", "pipefcg", "cgcg", "pipecg"):
        events: list = []
        cfg = SolverConfig(method=method, rtol=1e-30, max_it=30, numax=300,
                           stagnation_window=0)
        solve(cfg, poisson16.A, B, poisson16.b, observer=collector(events))
        directions = [data for event, _, data in events if event == "direction"]
        assert directions, method
        for data in directions:
            direct = dot(data["p"], poisson16.A.apply(data["p"]))
            worst = max(worst, abs(data["eta"] - direct) / abs(direct))
    assert worst <= 1e-8
    print(f"criterion 4: PASS (worst recurred-eta deviation {worst:.2e})")


def test_criterion_5_minimal_residual_oracle():
    A, b = random_spd(12, seed=42)
    B = IdentityPreconditioner()
    worst = 0.0

    events: list = []
    cfg = SolverConfig(method="gcr", rtol=1e-14, max_it=20, numax=50,
                       stagnation_window=0)
    res = solve(cfg, A, B, b, observer=collector(events))
    svecs = [d["s"] for e, _, d in events if e == "direction"]
    for row in res.trace:
        if row.iter < 1 or row.iter > len(svecs):
            continue
        span = np.column_stack(svecs[:row.iter])
        y, *_ = np.linalg.lstsq(span, b, rcond=None)
        worst = max(worst, abs(row.rnorm_true - norm2(b - span @ y)))

    events = []
    cfg = SolverConfig(method="fgmres", rtol=1e-14, max_it=20, restart_len=30,
                       stagnation_window=0)
    res = solve(cfg, A, B, b, observer=collector(events))
    basis = [d["v"] for e, _, d in events if e == "basis"]
    for row in res.trace:
        if row.iter < 1 or row.iter > len(basis) - 1:
            continue
        span = np.column_stack([A.apply(v) for v in basis[:row.iter]])
        y, *_ = np.linalg.lstsq(span, b, rcond=None)
        worst = max(worst, abs(row.rnorm_true - norm2(b - span @ y)))

    assert worst <= 1e-10
    print(f"criterion 5: PASS (worst oracle deviation {worst:.2e})")


def test_criterion_6_reduction_ledger(poisson8):
    # the paper's ledger, stated apart from REDUCTION_LEDGER, which the run
    # loop reads: (blocking, overlapped, what the overlapped phase hides)
    none = frozenset()
    pc_spmv = frozenset({"pc", "spmv"})
    pc_spmv_local = frozenset({"pc", "spmv", "local"})
    expected = {
        "pcg": (2, 0, none), "fcg": (2, 0, none), "gcr": (2, 0, none),
        "pcr": (2, 0, none), "fgmres": (2, 0, none),
        "cgcg": (1, 0, none), "cgfcg": (1, 0, none), "cgfgmres": (1, 0, none),
        "pipecg": (0, 1, pc_spmv), "pipefgmres": (0, 1, pc_spmv),
        "pipefcg": (0, 1, pc_spmv_local), "pipefcg_naive": (0, 1, pc_spmv_local),
        "pipegcr_w": (0, 1, pc_spmv_local),
        # pipegcr applies the operator itself, the one application its
        # reduction does not overlap
        "pipegcr": (0, 1, frozenset({"pc", "local"})),
    }
    assert set(expected) == set(METHODS) == set(REDUCTION_LEDGER)
    for method in METHODS:
        assert REDUCTION_LEDGER[method] == expected[method], method
        cfg = SolverConfig(method=method, rtol=1e-30, max_it=8, numax=30,
                           restart_len=30, stagnation_window=0)
        res = solve(cfg, poisson8.A, JacobiPreconditioner(poisson8.A), poisson8.b)
        steady = [row for row in res.trace
                  if row.iter >= 1 and not row.breakdown and not row.restarted]
        assert steady, method
        for row in steady:
            assert (row.red_blocking, row.red_overlapped, row.overlap_tags) == \
                expected[method], method
    print("criterion 6: PASS (per-iteration phase counts and overlap "
          "brackets match the ledger)")


def test_criterion_7_cost_model_crossover():
    started = time.perf_counter()
    spec = MachineSpec()
    params = CostModelParams()
    at = find_crossover("fcg", "pipefcg", spec, params)
    assert at is not None and 4e4 <= at <= 1.6e5
    exposed_2e5 = iteration_cost(
        "pipefcg", dataclasses.replace(spec, nodes=200000), params).t_red
    exposed_1e6 = iteration_cost(
        "pipefcg", dataclasses.replace(spec, nodes=1000000), params).t_red
    assert exposed_2e5 == 0.0
    assert exposed_1e6 > 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 7: PASS (crossover at {at} nodes, reduction exposure "
          f"reappears between 2e5 and 1e6 nodes, {elapsed:.2f}s)")


def test_criterion_8_breakdown_recovery():
    prob = make_toy_diagonal(100, 5.0)
    cfg = SolverConfig(method="pipefcg", rtol=1e-16, max_it=500, numax=100,
                       stagnation_window=50)
    res = solve(cfg, prob.A, NoisyPreconditioner(1e-4, seed=7), prob.b,
                x_true=prob.x_true)
    assert res.stop_reason in ("rtol", "stagnation")
    breakdowns = [row for row in res.trace if row.breakdown]
    restarts = [row for row in res.trace if row.restarted]
    assert breakdowns, "expected a detected breakdown"
    assert restarts, "expected a logged restart"
    for row in res.trace:
        assert np.isfinite(row.rnorm_natural)
        assert row.rnorm_true is None or np.isfinite(row.rnorm_true)
        assert row.relerr is None or np.isfinite(row.relerr)
    print(f"criterion 8: PASS ({len(breakdowns)} breakdown(s) recovered by "
          f"restart, stop_reason={res.stop_reason}, trace finite)")


def test_criterion_9_byte_determinism(tmp_path, capsys):
    for method, eta, argv in _criterion1_commands(tmp_path):
        first = argv[-1]
        second = str(tmp_path / ("again_" + first.rsplit("/", 1)[-1]))
        assert main(argv) == 0
        assert main(argv[:-1] + [second]) == 0
        with open(first, "rb") as f_a, open(second, "rb") as f_b:
            assert f_a.read() == f_b.read(), (method, eta)
    capsys.readouterr()
    print("criterion 9: PASS (repeated command lines reproduce byte-identical "
          "trace files)")
