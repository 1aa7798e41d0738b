"""CSV serialization: round-trips, byte determinism, and format errors.

The round-trip oracle is dataclass equality between written and re-read
rows; float fidelity follows from shortest round-trip decimal form.
"""

from __future__ import annotations

import io

import pytest

from pipekrylov.perfmodel import CostModelParams, MachineSpec, sweep
from pipekrylov.preconditioners import JacobiPreconditioner, NoisyPreconditioner
from pipekrylov.problems import make_poisson, make_sinker
from pipekrylov.solvers import SolverConfig, TraceRow, solve
from pipekrylov.traceio import (
    PERFMODEL_COLUMNS,
    TRACE_COLUMNS,
    read_compare_csv,
    read_perfmodel_csv,
    read_trace_csv,
    write_compare_csv,
    write_perfmodel_csv,
    write_trace_csv,
)


def _trace_with_edge_cases() -> list[TraceRow]:
    """A real solver trace plus hand rows exercising every optional field."""
    prob = make_poisson(2, 6, seed=0)
    res = solve(SolverConfig(method="pipefcg", rtol=1e-10, max_it=40,
                             stagnation_window=0), prob.A,
                NoisyPreconditioner(1e-7, seed=2), prob.b, x_true=prob.x_true)
    trace = res.trace
    trace.append(TraceRow(iter=99, rnorm_natural=0.1, rnorm_true=None,
                          relerr=None, nu_used=0, red_blocking=3,
                          red_overlapped=2, overlap_tags=frozenset({"pc", "spmv"}),
                          breakdown=True, restarted=True))
    return trace


def test_trace_round_trip_preserves_every_row(tmp_path):
    trace = _trace_with_edge_cases()
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, trace)
    back = read_trace_csv(path)
    assert len(back) == len(trace)
    for a, b in zip(trace, back):
        assert a == b


def test_trace_without_solution_leaves_relerr_empty(tmp_path):
    prob = make_sinker(6, 10.0)
    res = solve(SolverConfig(method="fcg", rtol=1e-8, max_it=100,
                             stagnation_window=0), prob.A,
                JacobiPreconditioner(prob.A), prob.b)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, res.trace)
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    relerr_col = TRACE_COLUMNS.index("relerr")
    assert all(line.split(",")[relerr_col] == "" for line in lines[1:])
    back = read_trace_csv(path)
    assert all(row.relerr is None for row in back)


def test_writes_are_byte_deterministic(tmp_path):
    trace = _trace_with_edge_cases()
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_trace_csv(a, trace)
    write_trace_csv(b, trace)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_write_accepts_open_handles():
    trace = _trace_with_edge_cases()
    buf = io.StringIO()
    write_trace_csv(buf, trace)
    assert buf.getvalue().startswith(",".join(TRACE_COLUMNS))


def test_reader_rejects_a_foreign_header(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(path)


def test_reader_rejects_short_rows(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(TRACE_COLUMNS) + "\n1,2\n")
    with pytest.raises(ValueError, match="fields"):
        read_trace_csv(path)


def test_compare_round_trip_groups_by_method(tmp_path):
    prob = make_poisson(2, 6, seed=0)
    runs = []
    for method in ("pcg", "fcg"):
        res = solve(SolverConfig(method=method, rtol=1e-8, max_it=60,
                                 stagnation_window=0), prob.A,
                    JacobiPreconditioner(prob.A), prob.b)
        runs.append((method, res.trace))
    path = str(tmp_path / "compare.csv")
    write_compare_csv(path, runs)
    back = read_compare_csv(path)
    assert [m for m, _ in back] == ["pcg", "fcg"]
    for (_, t_in), (_, t_out) in zip(runs, back):
        assert list(t_in) == list(t_out)


def test_perfmodel_round_trip_keeps_rows_and_notes(tmp_path):
    costs = sweep(("fcg", "pipefcg"), MachineSpec(), CostModelParams(),
                  (1024, 65536))
    path = str(tmp_path / "model.csv")
    write_perfmodel_csv(path, costs, notes=("crossover fcg vs pipefcg at nodes=65536",))
    back, notes = read_perfmodel_csv(path)
    assert back == costs
    assert notes == ["crossover fcg vs pipefcg at nodes=65536"]
    header = open(path, encoding="utf-8").readline().strip()
    assert header == ",".join(PERFMODEL_COLUMNS)


def test_perfmodel_reader_rejects_inconsistent_totals(tmp_path):
    path = str(tmp_path / "model.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(PERFMODEL_COLUMNS) + "\n")
        handle.write("1024,fcg,1.0,2.0,4.0\n")
    with pytest.raises(ValueError, match="t_total"):
        read_perfmodel_csv(path)
