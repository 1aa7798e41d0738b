"""Command-line front end: solve, compare, perfmodel, probe.

Configuration comes from flags or from a ``--config`` file of
``key = value`` lines with ``#`` comments; flags override the file, and
every key is validated against the subcommand's closed schema.  Exit
status is 0 on success, 1 on usage or configuration errors, and 2 on
solver failure (an unrecoverable breakdown, or reaching the iteration
limit without convergence when ``--strict`` is set).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .linalg import SparseOperator
from .perfmodel import (
    DEFAULT_NODE_GRID,
    MODEL_METHODS,
    CostModelParams,
    MachineSpec,
    find_crossover,
    iteration_cost,
    sweep,
)
from .preconditioners import PRECONDITIONER_KINDS, make_preconditioner, probe_faithfulness
from .problems import (
    ProblemInstance,
    make_identity,
    make_poisson,
    make_sinker,
    make_toy_diagonal,
)
from .solvers import METHODS, SolveResult, SolverConfig, prescale_operator, solve
from .traceio import write_compare_csv, write_perfmodel_csv, write_trace_csv

__all__ = ["main"]

PROBLEM_KINDS = ("identity", "toy_diag", "poisson2d", "poisson3d", "sinker")


class _ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


def _canon(value: str) -> str:
    return value.strip().lower().replace("-", "_")


def _cast_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise _ConfigError(f"invalid integer for {key}: {raw!r}") from None


def _cast_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise _ConfigError(f"invalid number for {key}: {raw!r}") from None


def _cast_str(key: str, raw: str) -> str:
    return raw.strip()


def _cast_name(key: str, raw: str) -> str:
    return _canon(raw)


def _cast_bool(key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise _ConfigError(f"invalid boolean for {key}: {raw!r}")


def _cast_int_list(key: str, raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise _ConfigError(f"empty list for {key}")
    return tuple(_cast_int(key, p) for p in parts)


@dataclass(frozen=True)
class _Opt:
    name: str
    cast: Callable[[str, str], Any]
    default: Any
    help: str
    is_flag: bool = False


_PROBLEM_OPTS = (
    _Opt("problem", _cast_name, None,
         "problem kind: identity, toy-diag, poisson2d, poisson3d, sinker"),
    _Opt("n", _cast_int, 16, "problem size (vector length or points per side)"),
    _Opt("cond", _cast_float, 100.0, "condition number of the toy diagonal"),
    _Opt("contrast", _cast_float, 100.0, "coefficient contrast of the sinker"),
    _Opt("pc", _cast_name, "identity",
         "preconditioner kind: identity, jacobi, block-jacobi, nested-krylov, noisy"),
    _Opt("eta", _cast_float, 1e-4, "noise magnitude of the noisy preconditioner"),
    _Opt("n_blocks", _cast_int, 4, "block count of the block-Jacobi preconditioner"),
    _Opt("inner_iters", _cast_int, 5, "inner iterations of the nested preconditioners"),
    _Opt("seed", _cast_int, 0, "seed for problem data, noise, and power iteration"),
    _Opt("general", _cast_bool, False,
         "drop the operator's symmetric flag (validation experiments)", is_flag=True),
)

_SOLVER_OPTS = (
    _Opt("rtol", _cast_float, 1e-8, "relative tolerance on the natural norm"),
    _Opt("atol", _cast_float, 0.0, "absolute tolerance on the natural norm"),
    _Opt("max_it", _cast_int, 1000, "iteration limit"),
    _Opt("numax", _cast_int, 30, "direction window capacity"),
    _Opt("truncation", _cast_name, "notay_mod",
         "truncation rule: notay-mod or standard"),
    _Opt("restart_len", _cast_int, 30, "restart cycle length (minimal-residual family)"),
    _Opt("sigma", _cast_float, 0.0, "constant shift (single-reduction GMRES variants)"),
    _Opt("sigma_auto_power", _cast_int, 0,
         "estimate the shift with this many power-iteration steps"),
    _Opt("theta_mode", _cast_name, "one",
         "stabilization weighting of pipefcg, pipegcr and pipegcr-w: zero, one, "
         "or exact (pipefcg-naive always uses the unstabilized B(w))"),
    _Opt("monitor_true_residual", _cast_bool, True,
         "recompute the true residual every iteration", is_flag=True),
    _Opt("stagnation_window", _cast_int, 50,
         "stagnation detection window (0 disables)"),
    _Opt("prescale", _cast_bool, False,
         "symmetric Jacobi scaling of the system", is_flag=True),
    _Opt("strict", _cast_bool, False,
         "exit 2 when the iteration limit is reached without convergence",
         is_flag=True),
    _Opt("out", _cast_str, None, "output CSV path"),
)

_SOLVE_OPTS = _PROBLEM_OPTS + (_Opt("solver", _cast_name, None, "method name"),) + _SOLVER_OPTS
_COMPARE_OPTS = _PROBLEM_OPTS + (
    _Opt("methods", _cast_str, None, "comma-separated method names"),) + _SOLVER_OPTS
_PROBE_OPTS = _PROBLEM_OPTS + (
    _Opt("samples", _cast_int, 10, "number of faithfulness probe samples"),
)
_PERFMODEL_OPTS = (
    _Opt("methods", _cast_str, ",".join(MODEL_METHODS), "comma-separated method names"),
    _Opt("nodes", _cast_int_list, DEFAULT_NODE_GRID, "comma-separated node counts"),
    _Opt("crossover", _cast_str, None,
         "append a crossover report for a standard,pipelined method pair"),
    _Opt("unknowns", _cast_float, 2000.0 ** 3, "total unknowns"),
    _Opt("nz", _cast_float, 7.0, "nonzeros per row"),
    _Opt("numax", _cast_int, 30, "direction window capacity"),
    _Opt("kavg", _cast_float, 0.8, "average window fill fraction"),
    _Opt("restart_len", _cast_int, 30, "restart cycle length"),
    _Opt("pc_inner_iters", _cast_int, 5, "preconditioner inner iterations"),
    _Opt("cores_per_node", _cast_int, 2 ** 10, "cores per node"),
    _Opt("word_bytes", _cast_float, 32.0, "word size in bytes"),
    _Opt("bandwidth", _cast_float, 100.0e9, "network bandwidth in bytes/second"),
    _Opt("tree_radix", _cast_int, 8, "reduction tree radix"),
    _Opt("latency", _cast_float, 1.0e-6, "message latency in seconds"),
    _Opt("flop_time", _cast_float, 2 ** 30 / 1.0e18, "seconds per flop"),
    _Opt("out", _cast_str, None, "output CSV path (default: standard output)"),
)

_SCHEMAS = {
    "solve": _SOLVE_OPTS,
    "compare": _COMPARE_OPTS,
    "perfmodel": _PERFMODEL_OPTS,
    "probe": _PROBE_OPTS,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pipekrylov",
                     description="Pipelined flexible Krylov solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "solve": "run one method on one problem and write its trace",
        "compare": "run several methods on one problem into a merged trace",
        "perfmodel": "evaluate the analytic cost model over a node grid",
        "probe": "estimate a preconditioner's faithfulness constant",
    }
    for command, schema in _SCHEMAS.items():
        p = sub.add_parser(command, description=descriptions[command])
        p.add_argument("--config", type=str, default=None,
                       help="key = value configuration file; flags override it")
        for opt in schema:
            flag = "--" + opt.name.replace("_", "-")
            if opt.is_flag:
                p.add_argument(flag, dest=opt.name, type=str, default=None,
                               nargs="?", const="true", metavar="V", help=opt.help)
            else:
                p.add_argument(flag, dest=opt.name, type=str, default=None,
                               metavar="V", help=opt.help)
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                key, value = line.split("=", 1)
                entries[_canon(key)] = value.strip()
    except OSError as exc:
        raise _ConfigError(f"cannot read config file {path}: {exc}") from None
    return entries


def _merge(schema, ns: argparse.Namespace) -> dict[str, Any]:
    from_file: dict[str, str] = {}
    if ns.config is not None:
        from_file = _read_config_file(ns.config)
    known = {opt.name for opt in schema}
    for key in from_file:
        if key not in known:
            raise _ConfigError(f"unknown config key: {key}")
    values: dict[str, Any] = {}
    for opt in schema:
        raw = getattr(ns, opt.name)
        if raw is None and opt.name in from_file:
            raw = from_file[opt.name]
        values[opt.name] = opt.default if raw is None else opt.cast(opt.name, raw)
    return values


def _require(values: dict, key: str) -> Any:
    if values[key] is None:
        raise _ConfigError(f"missing required option: --{key.replace('_', '-')}")
    return values[key]


def _build_problem(values: dict) -> ProblemInstance:
    kind = _require(values, "problem")
    n = values["n"]
    if kind == "identity":
        return make_identity(n)
    if kind == "toy_diag":
        return make_toy_diagonal(n, values["cond"])
    if kind == "poisson2d":
        return make_poisson(2, n, seed=values["seed"])
    if kind == "poisson3d":
        return make_poisson(3, n, seed=values["seed"])
    if kind == "sinker":
        return make_sinker(n, values["contrast"])
    raise _ConfigError(f"unknown problem: {kind} (expected one of {PROBLEM_KINDS})")


def _build_operator(values: dict) -> tuple[ProblemInstance, SparseOperator]:
    problem = _build_problem(values)
    A = problem.A
    if values["general"]:
        A = SparseOperator.from_scipy(A.csr, symmetric=False)
    return problem, A


def _build_pc(values: dict, A: SparseOperator):
    try:
        return make_preconditioner(values["pc"], A, eta=values["eta"],
                                   seed=values["seed"], n_blocks=values["n_blocks"],
                                   inner_iters=values["inner_iters"])
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _solver_config(values: dict, method: str) -> SolverConfig:
    try:
        return SolverConfig(
            method=method,
            rtol=values["rtol"],
            atol=values["atol"],
            max_it=values["max_it"],
            numax=values["numax"],
            truncation=values["truncation"],
            restart_len=values["restart_len"],
            sigma=values["sigma"],
            sigma_auto_power=values["sigma_auto_power"],
            theta_mode=values["theta_mode"],
            monitor_true_residual=values["monitor_true_residual"],
            stagnation_window=values["stagnation_window"],
            prescale=values["prescale"],
        )
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _summary_line(method: str, result: SolveResult) -> str:
    last = result.trace[-1] if len(result.trace) else None
    natural = "" if last is None else repr(last.rnorm_natural)
    true = "" if last is None or last.rnorm_true is None else repr(last.rnorm_true)
    relerr = "" if last is None or last.relerr is None else repr(last.relerr)
    return (f"{method}: converged={int(result.converged)}"
            f" iterations={result.iterations} stop_reason={result.stop_reason}"
            f" rnorm_natural={natural} rnorm_true={true} relerr={relerr}")


def _exit_code(result: SolveResult, strict: bool) -> int:
    if result.stop_reason == "breakdown_unrecoverable":
        return 2
    if strict and not result.converged and result.stop_reason == "max_it":
        return 2
    return 0


def _run_one(values: dict, method: str, problem: ProblemInstance,
             A: SparseOperator) -> SolveResult:
    """Solve with a fresh preconditioner, so that a seeded one (``noisy``)
    starts its stream again for every method."""
    cfg = _solver_config(values, method)
    try:
        B = _build_pc(values, prescale_operator(A) if cfg.prescale else A)
        return solve(cfg, A, B, problem.b, x_true=problem.x_true,
                     seed=values["seed"])
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _cmd_solve(values: dict) -> int:
    method = _require(values, "solver")
    result = _run_one(values, method, *_build_operator(values))
    if values["out"] is not None:
        write_trace_csv(values["out"], result.trace)
    print(_summary_line(method, result))
    return _exit_code(result, values["strict"])


def _method_list(raw: str, key: str) -> list[str]:
    methods = [_canon(m) for m in raw.split(",") if m.strip()]
    if not methods:
        raise _ConfigError(f"empty method list for {key}")
    deduped: list[str] = []
    for m in methods:
        if m in deduped:
            print(f"warning: duplicate method {m!r} ignored", file=sys.stderr)
            continue
        deduped.append(m)
    return deduped


def _cmd_compare(values: dict) -> int:
    methods = _method_list(_require(values, "methods"), "methods")
    problem, A = _build_operator(values)
    status = 0
    runs = []
    for method in methods:
        result = _run_one(values, method, problem, A)
        runs.append((method, result.trace))
        print(_summary_line(method, result))
        status = max(status, _exit_code(result, values["strict"]))
    if values["out"] is not None:
        write_compare_csv(values["out"], runs)
    return status


def _cmd_perfmodel(values: dict) -> int:
    methods = _method_list(values["methods"], "methods")
    grid = values["nodes"]
    if any(n < 1 for n in grid):
        raise _ConfigError("node counts must be positive")
    try:
        spec = MachineSpec(
            nodes=grid[0],
            cores_per_node=values["cores_per_node"],
            word_bytes=values["word_bytes"],
            bandwidth=values["bandwidth"],
            tree_radix=values["tree_radix"],
            latency=values["latency"],
            flop_time=values["flop_time"],
        )
        params = CostModelParams(
            unknowns=values["unknowns"],
            nonzeros_per_row=values["nz"],
            numax=values["numax"],
            kavg=values["kavg"],
            restart_len=values["restart_len"],
            pc_inner_iters=values["pc_inner_iters"],
        )
        costs = sweep(methods, spec, params, grid)
        notes = []
        if values["crossover"] is not None:
            pair = [_canon(m) for m in values["crossover"].split(",") if m.strip()]
            if len(pair) != 2:
                raise _ConfigError(
                    "crossover expects exactly two methods: standard,pipelined")
            at = find_crossover(pair[0], pair[1], spec, params, grid)
            if at is None:
                notes.append(f"no crossover for {pair[0]} vs {pair[1]} in range")
            else:
                notes.append(f"crossover {pair[0]} vs {pair[1]} at nodes={at}")
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None
    if values["out"] is not None:
        write_perfmodel_csv(values["out"], costs, notes)
    else:
        write_perfmodel_csv(sys.stdout, costs, notes)
    return 0


def _cmd_probe(values: dict) -> int:
    problem, A = _build_operator(values)
    B = _build_pc(values, A)
    if values["samples"] < 1:
        raise _ConfigError("samples must be >= 1")
    est = probe_faithfulness(B, A, values["samples"], values["seed"])
    ratios = est.ratios
    print(f"pc={values['pc']} problem={values['problem']} samples={est.samples}")
    print(f"c_hat={est.c_hat!r}")
    print(f"ratio_min={min(ratios)!r} ratio_mean={sum(ratios) / len(ratios)!r}"
          f" ratio_max={max(ratios)!r}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "perfmodel": _cmd_perfmodel,
    "probe": _cmd_probe,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        values = _merge(_SCHEMAS[ns.command], ns)
        return _COMMANDS[ns.command](values)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
