"""Command-line front end: solve, compare, perfmodel, probe.

Configuration comes from flags or from a ``--config`` file of
``key = value`` lines with ``#`` comments; flags override the file, and
every key is validated against the subcommand's closed schema.  The
solver and cost-model options are the fields of ``SolverConfig``,
``CostModelParams`` and ``MachineSpec`` with their defaults (``max_it``
is ``--max-it``, ``nonzeros_per_row`` is ``--nz``, and ``nodes`` comes
from ``--nodes``), and the dataclasses' checks validate them.  Every
invalid input raises ``ValueError`` before anything is solved; it is
reported, like an ``OSError`` from a trace writer, as one ``error:``
line with exit status 1.  An unrecoverable breakdown, or with
``--strict`` the iteration limit reached without convergence, exits 2.

The problem builders, ``solve`` and the trace writers are looked up as
module globals at call time, so that a caller may replace them here.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import dataclass, fields
from typing import Any, Callable, Optional, get_type_hints

from .linalg import SparseOperator
from .perfmodel import (
    DEFAULT_NODE_GRID,
    MODEL_METHODS,
    CostModelParams,
    MachineSpec,
    find_crossover,
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
from .solvers import SolveResult, SolverConfig, check_operator, prescale_operator, solve
from .traceio import write_compare_csv, write_perfmodel_csv, write_trace_csv

__all__ = ["main"]

_PROBLEMS: dict[str, Callable[[dict], ProblemInstance]] = {
    "identity": lambda v: make_identity(v["n"]),
    "toy_diag": lambda v: make_toy_diagonal(v["n"], v["cond"]),
    "poisson2d": lambda v: make_poisson(2, v["n"], seed=v["seed"]),
    "poisson3d": lambda v: make_poisson(3, v["n"], seed=v["seed"]),
    "sinker": lambda v: make_sinker(v["n"], v["contrast"]),
}
PROBLEM_KINDS = tuple(_PROBLEMS)


def _canon(value: str) -> str:
    return value.strip().lower().replace("-", "_")


def _cast_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"invalid integer for {key}: {raw!r}") from None


def _cast_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"invalid number for {key}: {raw!r}") from None


def _cast_str(key: str, raw: str) -> str:
    return raw.strip()


def _cast_name(key: str, raw: str) -> str:
    return _canon(raw)


def _cast_out(key: str, raw: str) -> str:
    """A path to write, checked before anything is solved."""
    path = raw.strip()
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"cannot write --{key} {path}: no directory {folder}")
    if os.path.isdir(path):
        raise ValueError(f"cannot write --{key} {path}: it is a directory")
    return path


def _cast_bool(key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"invalid boolean for {key}: {raw!r}")


def _cast_int_list(key: str, raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"empty list for {key}")
    return tuple(_cast_int(key, p) for p in parts)


# The cast of a dataclass field's type; a bool field is a flag.
_CASTS = {int: _cast_int, float: _cast_float, bool: _cast_bool, str: _cast_name}
# Fields whose option name differs from the field name.
_OPT_NAMES = {"nonzeros_per_row": "nz"}


@dataclass(frozen=True)
class _Opt:
    name: str
    cast: Callable[[str, str], Any]
    default: Any
    help: str
    is_flag: bool = False


def _field_opts(cls, helps: dict[str, str], skip: tuple[str, ...] = ()) -> tuple[_Opt, ...]:
    """One option per field of ``cls`` outside ``skip``, with the field's
    default and the cast of its type."""
    types = get_type_hints(cls)
    return tuple(_Opt(_OPT_NAMES.get(f.name, f.name), _CASTS[types[f.name]], f.default,
                      helps[f.name], is_flag=types[f.name] is bool)
                 for f in fields(cls) if f.name not in skip)


def _from_opts(cls, values: dict, **given):
    """``cls`` from the option values of its fields; ``given`` sets the rest."""
    return cls(**given, **{f.name: values[_OPT_NAMES.get(f.name, f.name)]
                           for f in fields(cls) if f.name not in given})


def _kinds(names: tuple[str, ...]) -> str:
    return ", ".join(name.replace("_", "-") for name in names)


# The preconditioner's keyword options and their defaults.
_PC_DEFAULTS = {name: param.default for name, param
                in inspect.signature(make_preconditioner).parameters.items()
                if param.kind is param.KEYWORD_ONLY}

_PROBLEM_OPTS = (
    _Opt("problem", _cast_name, None, "problem kind: " + _kinds(PROBLEM_KINDS)),
    _Opt("n", _cast_int, 16, "problem size (vector length or points per side)"),
    _Opt("cond", _cast_float, 100.0, "condition number of the toy diagonal"),
    _Opt("contrast", _cast_float, 100.0, "coefficient contrast of the sinker"),
    _Opt("pc", _cast_name, "identity", "preconditioner kind: " + _kinds(PRECONDITIONER_KINDS)),
    _Opt("eta", _cast_float, _PC_DEFAULTS["eta"],
         "noise magnitude of the noisy preconditioner"),
    _Opt("n_blocks", _cast_int, _PC_DEFAULTS["n_blocks"],
         "block count of the block-Jacobi preconditioner"),
    _Opt("inner_iters", _cast_int, _PC_DEFAULTS["inner_iters"],
         "inner iterations of the nested preconditioners"),
    _Opt("seed", _cast_int, _PC_DEFAULTS["seed"],
         "seed for problem data, noise, and power iteration"),
    _Opt("general", _cast_bool, False,
         "drop the operator's symmetric flag (validation experiments)", is_flag=True),
)

_SOLVER_OPTS = _field_opts(SolverConfig, {
    "rtol": "relative tolerance on the natural norm",
    "atol": "absolute tolerance on the natural norm",
    "max_it": "iteration limit",
    "numax": "direction window capacity",
    "truncation": "truncation rule: notay-mod or standard",
    "restart_len": "restart cycle length (minimal-residual family)",
    "sigma": "constant shift (single-reduction GMRES variants)",
    "sigma_auto_power": "estimate the shift with this many power-iteration steps",
    "theta_mode": "stabilization weighting of pipefcg, pipegcr and pipegcr-w: zero, one, "
                  "or exact (pipefcg-naive always uses the unstabilized B(w))",
    "monitor_true_residual": "recompute the true residual every iteration",
    "stagnation_window": "stagnation detection window (0 disables)",
    "prescale": "symmetric Jacobi scaling of the system",
}, skip=("method",)) + (
    _Opt("strict", _cast_bool, False,
         "exit 2 when the iteration limit is reached without convergence",
         is_flag=True),
    _Opt("out", _cast_out, None, "output CSV path"),
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
) + _field_opts(CostModelParams, {
    "unknowns": "total unknowns",
    "nonzeros_per_row": "nonzeros per row",
    "numax": "direction window capacity",
    "kavg": "average window fill fraction",
    "restart_len": "restart cycle length",
    "pc_inner_iters": "preconditioner inner iterations",
}) + _field_opts(MachineSpec, {
    "cores_per_node": "cores per node",
    "word_bytes": "word size in bytes",
    "bandwidth": "network bandwidth in bytes/second",
    "tree_radix": "reduction tree radix",
    "latency": "message latency in seconds",
    "flop_time": "seconds per flop",
}, skip=("nodes",)) + (
    _Opt("out", _cast_out, None, "output CSV path (default: standard output)"),
)

class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pipekrylov",
                     description="Pipelined flexible Krylov solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (description, schema, _) in _COMMANDS.items():
        p = sub.add_parser(command, description=description)
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
                    raise ValueError(
                        f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                key, value = line.split("=", 1)
                entries[_canon(key)] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    return entries


def _merge(schema, ns: argparse.Namespace) -> dict[str, Any]:
    from_file: dict[str, str] = {}
    if ns.config is not None:
        from_file = _read_config_file(ns.config)
    known = {opt.name for opt in schema}
    for key in from_file:
        if key not in known:
            raise ValueError(f"unknown config key: {key}")
    values: dict[str, Any] = {}
    for opt in schema:
        raw = getattr(ns, opt.name)
        if raw is None and opt.name in from_file:
            raw = from_file[opt.name]
        values[opt.name] = opt.default if raw is None else opt.cast(opt.name, raw)
    return values


def _require(values: dict, key: str) -> Any:
    if values[key] is None:
        raise ValueError(f"missing required option: --{key.replace('_', '-')}")
    return values[key]


def _build_operator(values: dict) -> tuple[ProblemInstance, SparseOperator]:
    kind = _require(values, "problem")
    if kind not in _PROBLEMS:
        raise ValueError(f"unknown problem: {kind} (expected one of {PROBLEM_KINDS})")
    problem = _PROBLEMS[kind](values)
    A = problem.A
    if values["general"]:
        A = SparseOperator.from_scipy(A.csr, symmetric=False)
    return problem, A


def _build_pc(values: dict, A: SparseOperator):
    return make_preconditioner(values["pc"], A,
                               **{name: values[name] for name in _PC_DEFAULTS})


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


def _run_one(values: dict, cfg: SolverConfig, problem: ProblemInstance,
             A: SparseOperator) -> SolveResult:
    """Solve with a fresh preconditioner, so that a seeded one (``noisy``)
    starts its stream again for every method."""
    B = _build_pc(values, prescale_operator(A) if cfg.prescale else A)
    return solve(cfg, A, B, problem.b, x_true=problem.x_true, seed=values["seed"])


def _cmd_solve(values: dict) -> int:
    cfg = _from_opts(SolverConfig, values, method=_require(values, "solver"))
    result = _run_one(values, cfg, *_build_operator(values))
    if values["out"] is not None:
        write_trace_csv(values["out"], result.trace)
    print(_summary_line(cfg.method, result))
    return _exit_code(result, values["strict"])


def _method_list(raw: str, key: str) -> list[str]:
    methods = [_canon(m) for m in raw.split(",") if m.strip()]
    if not methods:
        raise ValueError(f"empty method list for {key}")
    deduped: list[str] = []
    for m in methods:
        if m in deduped:
            print(f"warning: duplicate method {m!r} ignored", file=sys.stderr)
            continue
        deduped.append(m)
    return deduped


def _cmd_compare(values: dict) -> int:
    configs = [_from_opts(SolverConfig, values, method=method)
               for method in _method_list(_require(values, "methods"), "methods")]
    problem, A = _build_operator(values)
    for cfg in configs:
        check_operator(cfg, A)
    status = 0
    runs = []
    for cfg in configs:
        result = _run_one(values, cfg, problem, A)
        runs.append((cfg.method, result.trace))
        print(_summary_line(cfg.method, result))
        status = max(status, _exit_code(result, values["strict"]))
    if values["out"] is not None:
        write_compare_csv(values["out"], runs)
    return status


def _cmd_perfmodel(values: dict) -> int:
    methods = _method_list(values["methods"], "methods")
    grid = values["nodes"]
    spec = _from_opts(MachineSpec, values, nodes=grid[0])
    params = _from_opts(CostModelParams, values)
    costs = sweep(methods, spec, params, grid)
    notes = []
    if values["crossover"] is not None:
        pair = [_canon(m) for m in values["crossover"].split(",") if m.strip()]
        if len(pair) != 2:
            raise ValueError("crossover expects exactly two methods: standard,pipelined")
        at = find_crossover(pair[0], pair[1], spec, params, grid)
        if at is None:
            notes.append(f"no crossover for {pair[0]} vs {pair[1]} in range")
        else:
            notes.append(f"crossover {pair[0]} vs {pair[1]} at nodes={at}")
    write_perfmodel_csv(sys.stdout if values["out"] is None else values["out"], costs, notes)
    return 0


def _cmd_probe(values: dict) -> int:
    problem, A = _build_operator(values)
    B = _build_pc(values, A)
    est = probe_faithfulness(B, A, values["samples"], values["seed"])
    ratios = est.ratios
    print(f"pc={values['pc']} problem={values['problem']} samples={est.samples}")
    print(f"c_hat={est.c_hat!r}")
    print(f"ratio_min={min(ratios)!r} ratio_mean={sum(ratios) / len(ratios)!r}"
          f" ratio_max={max(ratios)!r}")
    return 0


# command -> (description, option schema, handler)
_COMMANDS = {
    "solve": ("run one method on one problem and write its trace",
              _SOLVE_OPTS, _cmd_solve),
    "compare": ("run several methods on one problem into a merged trace",
                _COMPARE_OPTS, _cmd_compare),
    "perfmodel": ("evaluate the analytic cost model over a node grid",
                  _PERFMODEL_OPTS, _cmd_perfmodel),
    "probe": ("estimate a preconditioner's faithfulness constant",
              _PROBE_OPTS, _cmd_probe),
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    _, schema, handler = _COMMANDS[ns.command]
    try:
        return handler(_merge(schema, ns))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
