"""Command-line front end: subcommands, configuration sources, exit codes,
and output formats.

Everything runs in-process through main(argv); one test drives the
installed module entry point end to end.
"""

from __future__ import annotations

import io
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from pipekrylov import cli, linalg
from pipekrylov.cli import main
from pipekrylov.perfmodel import CostModelParams, MachineSpec
from pipekrylov.preconditioners import JacobiPreconditioner
from pipekrylov.problems import make_sinker
from pipekrylov.solvers import SolveResult, SolverConfig, solve
from pipekrylov.cli import _exit_code
from pipekrylov.traceio import (
    PERFMODEL_COLUMNS,
    read_compare_csv,
    read_perfmodel_csv,
    read_trace_csv,
    write_compare_csv,
    write_trace_csv,
)


def _solve_argv(out: str | None = None, **overrides) -> list[str]:
    base = {
        "problem": "poisson2d", "n": "8", "solver": "pcg", "pc": "jacobi",
        "rtol": "1e-8", "max-it": "200",
    }
    base.update({k.replace("_", "-"): v for k, v in overrides.items()})
    argv = ["solve"]
    for key, value in base.items():
        argv.extend([f"--{key}", value])
    if out is not None:
        argv.extend(["--out", out])
    return argv


def test_solve_writes_trace_and_summary(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    code = main(_solve_argv(out=out, problem="toy-diag", n="100", cond="5",
                            solver="pipefcg", pc="noisy", eta="1e-4",
                            numax="100", seed="7", rtol="1e-10"))
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("pipefcg: converged=1 ")
    assert "stop_reason=rtol" in captured.out
    trace = read_trace_csv(out)
    assert len(trace) >= 2
    assert trace[0].iter == 0


def test_solve_trivial_identity_like_case(capsys):
    code = main(["solve", "--problem", "poisson2d", "--n", "4",
                 "--solver", "pcg", "--pc", "identity"])
    assert code == 0
    assert "converged=1" in capsys.readouterr().out


def test_symmetry_validation_reaches_the_user(capsys):
    code = main(_solve_argv(general="true"))
    assert code != 0
    assert "symmetric" in capsys.readouterr().err


def test_solve_prescale_matches_the_library(tmp_path, capsys):
    out = str(tmp_path / "p.csv")
    assert main(_solve_argv(out=out, problem="sinker", prescale="true")) == 0
    capsys.readouterr()
    prob = make_sinker(8, 100.0)
    cfg = SolverConfig(method="pcg", rtol=1e-8, max_it=200, prescale=True)
    res = solve(cfg, prob.A, JacobiPreconditioner(prob.A.scaled),
                prob.b, x_true=prob.x_true)
    expected = io.StringIO()
    write_trace_csv(expected, res.trace)
    with open(out) as f:
        assert f.read() == expected.getvalue()


def test_general_flag_without_value(capsys):
    argv = _solve_argv(solver="fgmres")
    argv.append("--general")
    assert main(argv) == 0


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(_solve_argv() + ["--banana", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_option_names_it(capsys):
    assert main(["solve", "--problem", "poisson2d"]) == 1
    assert "--solver" in capsys.readouterr().err


def test_invalid_number_names_the_key(capsys):
    assert main(_solve_argv(rtol="fast")) == 1
    assert "rtol" in capsys.readouterr().err


def test_unknown_problem_and_pc_are_rejected(capsys):
    assert main(_solve_argv(problem="helmholtz")) == 1
    assert "helmholtz" in capsys.readouterr().err
    assert main(_solve_argv(pc="ilu")) == 1
    assert "ilu" in capsys.readouterr().err


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comparison setup\n"
        "problem = poisson2d\n"
        "n = 8\n"
        "solver = pcg\n"
        "pc = jacobi\n"
        "max_it = 200\n"
        "rtol = 1e-4\n",
        encoding="utf-8")
    out1 = str(tmp_path / "a.csv")
    assert main(["solve", "--config", str(cfg), "--out", out1]) == 0
    loose = read_trace_csv(out1)
    out2 = str(tmp_path / "b.csv")
    assert main(["solve", "--config", str(cfg), "--rtol", "1e-10",
                 "--out", out2]) == 0
    tight = read_trace_csv(out2)
    assert len(tight) > len(loose)
    capsys.readouterr()


def test_config_file_unknown_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = poisson2d\nsolvr = pcg\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "unknown config key: solvr" in capsys.readouterr().err


def test_config_file_syntax_error_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem poisson2d\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg)]) == 1
    assert ":1:" in capsys.readouterr().err


def test_missing_config_file_is_reported(capsys):
    assert main(["solve", "--config", "/nonexistent/run.cfg"]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_strict_iteration_limit_is_exit_two(capsys):
    argv = _solve_argv(rtol="1e-14", max_it="2")
    assert main(argv) == 0
    assert main(argv + ["--strict"]) == 2
    capsys.readouterr()


def test_breakdown_is_exit_two_regardless_of_strict():
    failed = SolveResult(x_final=np.zeros(1), converged=False, iterations=3,
                         stop_reason="breakdown_unrecoverable",
                         trace=[])
    assert _exit_code(failed, strict=False) == 2
    assert _exit_code(failed, strict=True) == 2


def test_compare_merges_methods_and_warns_on_duplicates(tmp_path, capsys):
    out = str(tmp_path / "c.csv")
    code = main(["compare", "--problem", "poisson2d", "--n", "8",
                 "--pc", "jacobi", "--methods", "pcg,fcg,pcg,gcr",
                 "--rtol", "1e-8", "--out", out])
    assert code == 0
    captured = capsys.readouterr()
    assert "duplicate method 'pcg' ignored" in captured.err
    runs = read_compare_csv(out)
    assert [m for m, _ in runs] == ["pcg", "fcg", "gcr"]
    assert all(len(t) >= 2 for _, t in runs)
    assert captured.out.count("converged=1") == 3


def test_compare_single_method_matches_solve_rows(tmp_path, capsys):
    solo = str(tmp_path / "solo.csv")
    merged = str(tmp_path / "merged.csv")
    argv_common = ["--problem", "poisson2d", "--n", "8", "--pc", "jacobi",
                   "--rtol", "1e-8"]
    assert main(["solve", *argv_common, "--solver", "pcg", "--out", solo]) == 0
    assert main(["compare", *argv_common, "--methods", "pcg", "--out", merged]) == 0
    capsys.readouterr()
    trace = read_trace_csv(solo)
    runs = read_compare_csv(merged)
    assert len(runs) == 1 and runs[0][0] == "pcg"
    assert list(runs[0][1]) == list(trace)


def test_compare_csv_equals_the_per_method_solve_traces(tmp_path, capsys):
    # compare builds the problem once and a fresh noisy preconditioner per
    # method, whose stream starts again: each method's rows are the bytes
    # its own solve writes
    common = ["--problem", "poisson2d", "--n", "12", "--pc", "noisy", "--eta", "1e-3",
              "--seed", "5", "--rtol", "1e-10", "--max-it", "300"]
    methods = ["pcg", "pipefcg", "gcr", "pipefgmres", "fcg"]
    merged = tmp_path / "merged.csv"
    assert main(["compare", *common, "--methods", ",".join(methods),
                 "--out", str(merged)]) == 0
    runs = []
    for method in methods:
        solo = str(tmp_path / f"{method}.csv")
        assert main(["solve", *common, "--solver", method, "--out", solo]) == 0
        runs.append((method, read_trace_csv(solo)))
    capsys.readouterr()
    expected = io.StringIO()
    write_compare_csv(expected, runs)
    assert merged.read_text(encoding="utf-8") == expected.getvalue()


def test_probe_reports_the_noise_magnitude(capsys):
    code = main(["probe", "--problem", "identity", "--n", "32",
                 "--pc", "noisy", "--eta", "1e-4", "--samples", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pc=noisy problem=identity samples=6" in out
    c_hat = float(out.split("c_hat=")[1].splitlines()[0])
    assert c_hat == pytest.approx(1e-4, rel=1e-10)


def test_perfmodel_defaults_to_stdout(capsys):
    code = main(["perfmodel", "--methods", "fcg", "--nodes", "1024"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "nodes,method,t_calc,t_red,t_total"
    assert len(lines) == 2
    assert lines[1].startswith("1024,fcg,")


def test_perfmodel_crossover_note(tmp_path, capsys):
    out = str(tmp_path / "m.csv")
    code = main(["perfmodel", "--methods", "fcg,pipefcg",
                 "--crossover", "fcg,pipefcg", "--out", out])
    assert code == 0
    costs, notes = read_perfmodel_csv(out)
    assert notes == ["crossover fcg vs pipefcg at nodes=65536"]
    assert len(costs) == 2 * 13


def test_perfmodel_notes_a_pair_with_no_crossover_in_range(capsys):
    assert main(["perfmodel", "--methods", "fcg,pipefcg", "--nodes", "1,8",
                 "--crossover", "fcg,pipefcg"]) == 0
    assert capsys.readouterr().out.endswith("# no crossover for fcg vs pipefcg in range\n")


def test_perfmodel_rejects_bad_crossover_pair(capsys):
    assert main(["perfmodel", "--crossover", "fcg"]) == 1
    assert "exactly two" in capsys.readouterr().err


def test_perfmodel_rejects_nonpositive_nodes(capsys):
    assert main(["perfmodel", "--nodes", "0,1024"]) == 1
    assert "positive" in capsys.readouterr().err


def test_repeated_commands_are_byte_identical(tmp_path, capsys):
    argv = _solve_argv(problem="sinker", n="8", contrast="100",
                       solver="pipegcr", pc="block-jacobi", rtol="1e-6")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_module_entry_point_runs(tmp_path):
    out = str(tmp_path / "t.csv")
    proc = subprocess.run(
        [sys.executable, "-m", "pipekrylov", "solve", "--problem", "toy-diag",
         "--n", "16", "--cond", "10", "--solver", "fcg", "--pc", "jacobi",
         "--out", out],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "fcg: converged=1" in proc.stdout
    assert read_trace_csv(out)[0].iter == 0


def test_module_entry_point_prints_the_cost_table():
    proc = subprocess.run(
        [sys.executable, "-m", "pipekrylov", "perfmodel", "--nodes", "1024"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ",".join(PERFMODEL_COLUMNS)
    assert lines[1].startswith("1024,")


def test_no_command_loads_scipy_linalg_or_a_second_blas():
    # a GMRES cycle back-substitutes its triangular system on floats, so
    # no solve imports scipy.linalg, whose import maps a second OpenBLAS;
    # the monitored rows form the iterate on every row
    script = "\n".join([
        "import os, sys",
        "from pipekrylov.cli import main",
        "def check():",
        "    assert 'scipy.linalg' not in sys.modules",
        "    if os.path.exists('/proc/self/maps'):",
        "        with open('/proc/self/maps') as maps:",
        "            names = {line.split()[-1] for line in maps",
        "                     if 'openblas' in line.split()[-1].lower()}",
        "        assert len(names) == 1, names",
        "argv = ['solve', '--problem', 'poisson2d', '--n', '8', '--pc', 'jacobi']",
        "assert main(argv + ['--solver', 'pcg']) == 0",
        "check()",
        "for solver in ('fgmres', 'cgfgmres', 'pipefgmres'):",
        "    assert main(argv + ['--solver', solver, '--monitor-true-residual', 'true']) == 0",
        "    check()",
        "assert main(argv + ['--solver', 'fgmres', '--monitor-true-residual', 'false']) == 0",
        "check()",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("converged=1") == 5


def test_commands_never_import_scipy_sparse(tmp_path):
    # the operators run scipy's compiled kernels, loaded from their
    # extension file; scipy.sparse's package imports numpy.f2py and
    # numpy.testing.  The test session imports scipy.sparse, so only a
    # fresh process loads the kernels on their own.
    script = "\n".join([
        "import sys",
        "from pipekrylov.cli import main",
        "for problem in (['--problem', 'poisson2d', '--n', '8'], ['--problem', 'sinker', '--n', '8']):",
        "    assert main(['solve', '--solver', 'pcg', '--pc', 'jacobi'] + problem) == 0",
        "    assert main(['compare', '--methods', 'fgmres,pipefcg,gcr', '--pc', 'jacobi',",
        f"                 '--out', {str(tmp_path / 'c.csv')!r}] + problem) == 0",
        "assert main(['solve', '--solver', 'fcg', '--pc', 'block-jacobi', '--problem', 'poisson2d',",
        "             '--n', '8']) == 0",
        "assert main(['solve', '--solver', 'pcg', '--pc', 'jacobi', '--prescale', 'true',",
        "             '--problem', 'sinker', '--n', '8']) == 0",
        "assert main(['compare', '--general', '--methods', 'fgmres,pipefgmres', '--problem',",
        f"             'poisson2d', '--n', '8', '--out', {str(tmp_path / 'g.csv')!r}]) == 0",
        "loaded = [m for m in ('scipy.sparse', 'numpy.f2py', 'numpy.testing') if m in sys.modules]",
        "assert loaded == [], loaded",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("converged=1") == 12


@pytest.mark.parametrize("pc", ["jacobi", "nested-krylov"])
def test_compare_builds_one_scaled_operator(pc, tmp_path, capsys, monkeypatch):
    scaled, applied = [], []
    build, apply = linalg._jacobi_scaled, linalg.SparseOperator.apply

    def counting_build(A):
        scaled.append(A)
        return build(A)

    def recording_apply(op, x):
        applied.append(id(op))
        return apply(op, x)

    monkeypatch.setattr(linalg, "_jacobi_scaled", counting_build)
    monkeypatch.setattr(linalg.SparseOperator, "apply", recording_apply)
    assert main(["compare", "--problem", "poisson2d", "--n", "16", "--prescale", "true",
                 "--pc", pc, "--methods", "pcg,fcg,gcr", "--rtol", "1e-8",
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert capsys.readouterr().out.count("converged=1") == 3
    assert len(scaled) == 1
    # the builder applies the unscaled operator once, to x_true; the
    # solves and the preconditioner apply the scaled one only
    A = scaled[0]
    assert applied.count(id(A)) == 1
    assert set(applied) == {id(A), id(A.scaled)}


# a valid value other than the default for every SolverConfig field but method
SOLVER_SETTINGS = {
    "rtol": 1e-5, "atol": 0.5, "max_it": 7, "numax": 3, "truncation": "standard",
    "restart_len": 4, "sigma": 0.25, "sigma_auto_power": 2, "theta_mode": "exact",
    "monitor_true_residual": False, "stagnation_window": 9, "prescale": True,
}
# the same for every CostModelParams field and every MachineSpec field but nodes
PARAMS_SETTINGS = {"unknowns": 1e6, "nonzeros_per_row": 5.0, "numax": 12, "kavg": 0.5,
                   "restart_len": 9, "pc_inner_iters": 2}
SPEC_SETTINGS = {"cores_per_node": 64, "word_bytes": 8.0, "bandwidth": 1e9,
                 "tree_radix": 4, "latency": 2e-6, "flop_time": 1e-9}


def _flags(settings: dict) -> list[str]:
    renamed = {"nonzeros_per_row": "nz"}
    return [arg for name, value in settings.items()
            for arg in ("--" + renamed.get(name, name).replace("_", "-"), str(value))]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["solve", "compare"])
def test_every_solver_config_field_is_an_option(command, source, tmp_path, monkeypatch,
                                                capsys):
    assert set(SOLVER_SETTINGS) == {f.name for f in fields(SolverConfig)} - {"method"}
    configs = []

    def fake_solve(cfg, A, B, b, **kwargs):
        configs.append(cfg)
        return SolveResult(x_final=np.zeros_like(b), converged=True, iterations=0,
                           stop_reason="rtol", trace=[])

    monkeypatch.setattr(cli, "solve", fake_solve)
    argv = [command, "--problem", "poisson2d", "--n", "4",
            "--solver" if command == "solve" else "--methods", "fcg"]
    if source == "flag":
        chosen = _flags(SOLVER_SETTINGS)
    else:
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{name} = {value}\n"
                                for name, value in SOLVER_SETTINGS.items()), encoding="utf-8")
        chosen = ["--config", str(path)]
    assert main(argv) == 0
    assert main(argv + chosen) == 0
    capsys.readouterr()
    assert configs == [SolverConfig(method="fcg"),
                       SolverConfig(method="fcg", **SOLVER_SETTINGS)]


def test_every_cost_model_field_is_an_option(monkeypatch, capsys):
    assert set(PARAMS_SETTINGS) == {f.name for f in fields(CostModelParams)}
    assert set(SPEC_SETTINGS) == {f.name for f in fields(MachineSpec)} - {"nodes"}
    calls = []
    monkeypatch.setattr(cli, "sweep",
                        lambda methods, spec, params, grid: calls.append((spec, params)) or [])
    assert main(["perfmodel", "--nodes", "64,128"]) == 0
    assert main(["perfmodel", "--nodes", "64,128",
                 *_flags(PARAMS_SETTINGS), *_flags(SPEC_SETTINGS)]) == 0
    capsys.readouterr()
    assert calls == [(MachineSpec(nodes=64), CostModelParams()),
                     (MachineSpec(nodes=64, **SPEC_SETTINGS),
                      CostModelParams(**PARAMS_SETTINGS))]


POISSON = ["--problem", "poisson2d", "--n", "8"]


@pytest.mark.parametrize("argv, setting", [
    (["solve", *POISSON, "--solver", "cgfgmres", "--sigma", "nan"], "sigma"),
    (["solve", *POISSON, "--solver", "pcg", "--atol", "nan"], "atol"),
    (["solve", *POISSON, "--solver", "pcg", "--rtol", "nan"], "rtol"),
    (["solve", *POISSON, "--solver", "fgmres", "--pc", "noisy", "--eta", "nan"], "eta"),
    (["compare", *POISSON, "--methods", "fcg,gcr", "--pc", "noisy", "--eta", "inf"], "eta"),
    (["solve", "--problem", "toy-diag", "--cond", "nan", "--solver", "pcg"], "cond"),
    (["solve", "--problem", "sinker", "--contrast", "inf", "--solver", "pcg"], "contrast"),
    (["perfmodel", "--latency", "nan"], "latency"),
    (["perfmodel", "--unknowns", "inf"], "unknowns"),
    (["perfmodel", "--nz", "nan"], "nonzeros_per_row"),
    (["probe", *POISSON, "--samples", "0"], "sample"),
    (["solve", "--problem", "toy-diag", "--cond", "0.5", "--solver", "pcg"], "cond"),
    (["solve", "--problem", "poisson2d", "--n", "1", "--solver", "pcg"], "points per side"),
    (["solve", "--problem", "sinker", "--n", "2", "--solver", "pcg"], "cells per side"),
    (["solve", "--problem", "identity", "--n", "0", "--solver", "pcg"], "n >= 1"),
    # windows and cycles beyond any user address space, the last past ssize_t
    (["solve", *POISSON, "--solver", "fgmres", "--restart-len", str(10 ** 15)],
     "(1000000000000000, 2, 64)"),
    (["solve", *POISSON, "--solver", "fcg", "--numax", str(10 ** 15), "--max-it", str(10 ** 15)],
     "(1000000000000000, 2, 64)"),
    (["solve", *POISSON, "--solver", "fgmres", "--restart-len", str(10 ** 30)],
     f"({10 ** 30}, 2, 64)"),
    (["solve", *POISSON, "--solver", "pcg", "--max-it", "ten"], "invalid integer for max_it"),
    (["solve", *POISSON, "--solver", "pcg", "--prescale", "maybe"], "invalid boolean"),
    (["perfmodel", "--nodes", " , "], "empty list for nodes"),
    (["compare", *POISSON, "--methods", ","], "empty method list"),
])
def test_invalid_settings_exit_one_before_any_output(argv, setting, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)] if argv[0] != "probe" else argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and setting in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def test_compare_calls_the_builders_solve_and_writer_through_the_module(
        tmp_path, monkeypatch, capsys):
    # a caller that replaces these names on the module sees every call
    called = []
    for name in ("make_poisson", "solve", "write_compare_csv"):
        def counted(*args, _name=name, _call=getattr(cli, name), **kwargs):
            called.append(_name)
            return _call(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    assert main(["compare", *POISSON, "--pc", "jacobi", "--methods", "pcg,fgmres",
                 "--out", str(tmp_path / "c.csv")]) == 0
    capsys.readouterr()
    assert called == ["make_poisson", "solve", "solve", "write_compare_csv"]


def test_compare_checks_every_method_against_the_operator_before_solving(capsys):
    assert main(["compare", "--general", "--methods", "fgmres,pcg", *POISSON]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: method 'pcg' requires a symmetric-flagged operator\n"
    assert "fgmres:" not in captured.out


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_unwritable_out_is_one_error_line(command, tmp_path, monkeypatch, capsys):
    argv = [command, *POISSON, "--solver" if command == "solve" else "--methods", "pcg"]
    # a missing directory is rejected before anything is solved
    assert main(argv + ["--out", str(tmp_path / "missing" / "c.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write --out ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    # so is a directory
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot write --out {tmp_path}: it is a directory\n"
    # an OSError from the writer takes the same path
    def fail(target, *args):
        raise OSError(f"cannot open {target}")
    monkeypatch.setattr(cli, "write_trace_csv" if command == "solve" else "write_compare_csv",
                        fail)
    out = str(tmp_path / "c.csv")
    assert main(argv + ["--out", out]) == 1
    assert capsys.readouterr().err == f"error: cannot open {out}\n"
