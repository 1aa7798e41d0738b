#!/usr/bin/env python3
"""pipekrylov benchmark: time to solution per method family.

Run from the repository root:

    python3 perfbench/run.py --workload poisson2d-all --seed 0 --seconds 20 --trace 0

The load is a closed loop with one client in one process: a solve starts
only after the previous one returns.  A pass runs every method of the
workload once; passes repeat until ``--seconds`` have been spent after
the first set-up and warm-up, and at least three times.  Set-up is
timed again after each pass.  ``--trace 0``
reports the end-to-end metrics with no instrumentation.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer split
(see tracer.py).  Every solve's final relative error is checked against a
per-method bound.

Human-readable lines go to standard output first; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  The
metric names and units come from BENCHMARK.json.  A run record with the
environment goes to perfbench/out/.  Exit status: 0 when every check
passed; 1 when one failed, or when a command-line process failed (then
without a JSON line); 2 when the package or BENCHMARK.json cannot be read
or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tr
from cli_child import relative_error, timed_solves
from envinfo import environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

RTOL = 1e-8
# Builds per batch.  An untraced run makes a batch before the first pass
# and after each pass: a build takes 0.2-0.8 s, and the machine's speed
# drifts by up to a fifth over a few seconds, so builds spread over
# the run give a steadier median than builds made back to back.
SETUP_BATCH = 3
# Passes run at least this often, however short --seconds is, so that
# per-method medians drop one slow solve.  A command-line pass is a fresh
# process that sometimes pays a slow first solve.
MIN_PASSES = 3
# command-line processes per pass on the library workloads: their cli_s
# is short and spreads widely
LIBRARY_CLI_RUNS = 3
IMPORT_REPEATS = 3
# a traced run makes at least two pairs, in both orders
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150.0
# The layers' self times, less the measured wrapper cost, must add up to
# the untraced time to solution of the paired pass within this share, as a
# median over the pairs.  Measured medians sit at +1-9 %: the wrappers
# cost a little more in the solvers than in the calibration loop, and one
# pair moves by up to 13 % with the machine.
ACCOUNTING_TOLERANCE = 0.15

FAMILIES = {
    "cg": ("pcg", "cgcg", "pipecg"),
    "fcg": ("fcg", "cgfcg", "pipefcg_naive", "pipefcg"),
    "cr": ("gcr", "pcr", "pipegcr", "pipegcr_w"),
    "gmres": ("fgmres", "cgfgmres", "pipefgmres"),
}


@dataclass(frozen=True)
class Workload:
    dims: int
    n: int
    pc: str
    methods: tuple
    # upper bound on each method's final relative error ||x - x*|| / ||x*||
    relerr_max: dict
    # lower bound, for a method that must stall above a noise floor
    relerr_min: dict = field(default_factory=dict)
    max_it: int = 1000
    eta: float = 0.0
    via_cli: bool = False


# The reason for each workload is in BENCHMARK.json and README.md.
# Relative-error bounds sit 4-20 times above the largest error measured
# over seeds 0-9.  The noisy workload keeps the paper's criterion-1 shape:
# pipefcg reaches eta/10, pipefcg-naive stays above eta.
WORKLOADS = {
    "poisson2d-all": Workload(
        dims=2, n=128, pc="jacobi", max_it=5000,
        methods=("pcg", "cgcg", "pipecg", "fcg", "cgfcg", "pipefcg_naive", "pipefcg",
                 "gcr", "pcr", "pipegcr", "pipegcr_w", "fgmres", "cgfgmres", "pipefgmres"),
        relerr_max={"pcg": 5e-6, "cgcg": 5e-6, "pipecg": 5e-6, "fcg": 5e-6, "cgfcg": 5e-6,
                    "pipefcg_naive": 5e-6, "pipefcg": 5e-6, "gcr": 5e-5, "pcr": 5e-5,
                    "pipegcr": 5e-5, "pipegcr_w": 5e-5, "fgmres": 1e-4, "cgfgmres": 1e-4,
                    "pipefgmres": 1e-4}),
    "noisy-flexible-cli": Workload(
        # the two CG controls sit at both ends of the run, so that one slow
        # stretch of the machine does not hit both
        dims=2, n=128, pc="noisy", eta=1e-4, via_cli=True,
        methods=("pcg", "fcg", "cgfcg", "pipefcg", "pipefcg_naive", "gcr", "pipegcr_w",
                 "fgmres", "pipefgmres", "cgcg"),
        relerr_max={"pcg": 5e-6, "cgcg": 5e-6, "fcg": 5e-6, "cgfcg": 5e-6, "pipefcg": 1e-5,
                    "pipefcg_naive": 1.0, "gcr": 1e-4, "pipegcr_w": 1e-4,
                    "fgmres": 1e-3, "pipefgmres": 1e-3},
        relerr_min={"pipefcg_naive": 1e-4}),
    "poisson3d-large": Workload(
        dims=3, n=40, pc="jacobi", max_it=5000,
        methods=("pcg", "pipecg", "fcg", "pipefcg", "gcr", "fgmres", "pipefgmres"),
        relerr_max={"pcg": 1e-6, "pipecg": 1e-6, "fcg": 1e-6, "pipefcg": 1e-6,
                    "gcr": 1e-5, "fgmres": 1e-5, "pipefgmres": 1e-5}),
}


@dataclass
class Solve:
    method: str
    seconds: float
    iterations: int
    relerr: float
    digest: str = ""


class BenchmarkError(Exception):
    """A run that cannot produce metrics: a command-line process failed."""


class Checks:
    """Counts attempted and failed solves and records every other check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def solve(self, wl: Workload, s: Solve, where: str) -> None:
        self.attempted += 1
        hi = wl.relerr_max[s.method]
        lo = wl.relerr_min.get(s.method, 0.0)
        if s.relerr is None or not lo <= s.relerr <= hi:
            self.failed += 1
            self.problems.append(
                f"{where} {s.method}: relerr {s.relerr!r} outside [{lo:g}, {hi:g}]")

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def describe(name: str, values, unit: str) -> str:
    """Median, sample count, and the highest percentile with at least ten
    samples above it."""
    k = len(values) - 10
    tail = (f"p{100.0 * k / len(values):.1f}={sorted(values)[k - 1]:.6g}" if k >= 1
            else "no tail percentile (n<11)")
    return f"{name}: median={statistics.median(values):.6g} {unit} n={len(values)} {tail}"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --- set-up ---------------------------------------------------------------

def timed_setup(pk, wl: Workload, seed: int, times: list):
    """Build the problem and preconditioner SETUP_BATCH times; append each
    build's seconds to ``times`` and return the last build."""
    for _ in range(SETUP_BATCH):
        t0 = perf_counter()
        problem = pk.make_poisson(wl.dims, wl.n, seed=seed)
        B = pk.make_preconditioner(wl.pc, problem.A, eta=wl.eta, seed=seed)
        times.append(perf_counter() - t0)
    return problem, B


def warm_up(pk, wl: Workload, problem, B) -> None:
    """One untimed solve: the first large solve in a process sometimes
    takes about 1 s against 0.1 s for the same solve later."""
    pk.solve(pk.SolverConfig(method=wl.methods[0], rtol=RTOL, max_it=wl.max_it,
                             monitor_true_residual=False), problem.A, B, problem.b)


# --- command line ---------------------------------------------------------

def cli_argv(wl: Workload, seed: int, csv_path: Path) -> list:
    common = ["--problem", f"poisson{wl.dims}d", "--n", str(wl.n), "--pc", wl.pc,
              "--seed", str(seed)]
    if wl.via_cli:
        methods = ",".join(m.replace("_", "-") for m in wl.methods)
        return (["compare", "--methods", methods] + common
                + ["--eta", repr(wl.eta), "--out", str(csv_path)])
    # library workloads time the command line on their first method
    return (["solve", "--solver", wl.methods[0]] + common
            + ["--rtol", repr(RTOL), "--max-it", str(wl.max_it),
               "--monitor-true-residual", "0"])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, label: str):
    """One command-line process: (wall seconds, its solves, its BLAS threads)."""
    times_path = OUT / f"{label}.times.json"
    with contextlib.suppress(FileNotFoundError):
        times_path.unlink()
    cmd = [sys.executable, str(HERE / "cli_child.py"), str(times_path)] + argv
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"command line ran past {CHILD_TIMEOUT_S:g} s: {argv}") from None
    wall = perf_counter() - t0
    if proc.returncode != 0 or not times_path.exists():
        raise BenchmarkError(f"command line exited {proc.returncode}: {argv}\n"
                             f"{proc.stderr.strip()}")
    data = json.loads(times_path.read_text(encoding="utf-8"))
    solves = [Solve(r["method"], r["s"], r["iterations"], r["relerr"]) for r in data["solves"]]
    return wall, solves, data["blas_threads"]


def import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import pipekrylov.cli; "
            "print(repr(time.perf_counter() - t))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"importing pipekrylov.cli failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def inprocess_cli_pass(pk, wl: Workload, seed: int, csv_path: Path):
    """pipekrylov.cli.main(argv) in this process: (solves, trace rows, CSV bytes)."""
    records = []
    out = io.StringIO()
    with timed_solves(pk.cli, records), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(out):
        code = pk.cli.main(cli_argv(wl, seed, csv_path))
    if code != 0:
        raise BenchmarkError(f"in-process command line exited {code}: {out.getvalue()}")
    text = csv_path.read_text(encoding="utf-8")
    solves = [Solve(r["method"], r["s"], r["iterations"], r["relerr"], digest(text))
              for r in records]
    rows = [row for r in records for row in r["result"].trace]
    return solves, rows, len(text)


# --- library --------------------------------------------------------------

def library_pass(pk, wl: Workload, problem, B, methods=None):
    """Solve each method (by default every method of the workload) once:
    (solves, trace rows, CSV bytes).  The workload writes no CSV, so the
    bytes are 0.  Each trace is rendered outside the timed region, for the
    byte comparison, by the unwrapped writer, so a traced pass does not
    count it under traceio."""
    write_csv = inspect.unwrap(pk.traceio.write_trace_csv)
    solves, rows = [], []
    for method in methods or wl.methods:
        cfg = pk.SolverConfig(method=method, rtol=RTOL, max_it=wl.max_it,
                              monitor_true_residual=False)
        t0 = perf_counter()
        result = pk.solve(cfg, problem.A, B, problem.b)
        seconds = perf_counter() - t0
        buf = io.StringIO()
        write_csv(buf, result.trace)
        text = buf.getvalue()
        solves.append(Solve(method, seconds, result.iterations,
                            relative_error(result.x_final, problem.x_true), digest(text)))
        rows.extend(result.trace)
    return solves, rows, 0


# --- end-to-end run -------------------------------------------------------

def tts_metrics(passes) -> dict:
    """tts_s sums each method's median solve time.  A family's time per
    iteration is its summed median time over its summed iterations; unlike
    its time to solution, it stays put when the seed moves the family's
    iteration count, which tts_s and iters report."""
    by_method = {}
    for solves in passes:
        for s in solves:
            by_method.setdefault(s.method, []).append(s.seconds)
    medians = {m: statistics.median(v) for m, v in by_method.items()}
    out = {"tts_s": sum(medians.values())}
    for fam, members in FAMILIES.items():
        ran = [s for s in passes[0] if s.method in members]
        seconds = sum(medians[s.method] for s in ran)
        out[f"ms_per_iter.{fam}"] = 1e3 * seconds / sum(s.iterations for s in ran)
    return out


def check_repeatable(checks: Checks, passes, what: str) -> None:
    first = [(s.method, s.iterations, s.digest) for s in passes[0]]
    for k, solves in enumerate(passes[1:], 1):
        checks.require([(s.method, s.iterations, s.digest) for s in solves] == first,
                       f"{what}: pass {k} differs from pass 0 in iterations or trace bytes")


def run_untraced(pk, wl: Workload, args, env: dict, checks: Checks, log) -> dict:
    setup = []
    problem, B = timed_setup(pk, wl, args.seed, setup)
    if not wl.via_cli:
        # users of the command line pay the first-solve cost on every
        # call, so the command-line workload is not warmed up
        warm_up(pk, wl, problem, B)
    label = f"{args.workload}.seed{args.seed}"
    csv_path = OUT / f"{label}.compare.csv"
    passes, cli_walls, child_threads = [], [], set()
    deadline = perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        k = len(passes)
        for _ in range(1 if wl.via_cli else LIBRARY_CLI_RUNS):
            wall, child_solves, threads = run_child(cli_argv(wl, args.seed, csv_path), label)
            log(f"pass {k} command line: {wall:.4f} s")
            cli_walls.append(wall)
            child_threads.add(threads)
            if not wl.via_cli:
                for s in child_solves:
                    checks.solve(wl, s, f"pass {k} command line")
        if wl.via_cli:
            text = csv_path.read_text(encoding="utf-8")
            for s in child_solves:
                s.digest = digest(text)
            solves = child_solves
        else:
            solves, _, _ = library_pass(pk, wl, problem, B)
        checks.require([s.method for s in solves] == list(wl.methods),
                       f"pass {k} ran {[s.method for s in solves]}")
        for s in solves:
            checks.solve(wl, s, f"pass {k}")
            log(f"pass {k} {s.method}: {s.seconds:.4f} s iterations={s.iterations} "
                f"relerr={s.relerr!r}")
        passes.append(solves)
        timed_setup(pk, wl, args.seed, setup)
    check_repeatable(checks, passes, "untraced passes")
    for threads in child_threads - {env["blas_threads"]}:
        log(f"FLAG: a command-line process ran {threads} BLAS threads, this process "
            f"{env['blas_threads']}; iteration counts compare only at one thread count")

    metrics = {"setup_s": statistics.median(setup), "cli_s": statistics.median(cli_walls),
               "iters": sum(s.iterations for s in passes[0])}
    metrics.update(tts_metrics(passes))
    usage = resource.RUSAGE_CHILDREN if wl.via_cli else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    log(describe("setup_s", setup, "s"))
    log(describe("cli_s", cli_walls, "s"))
    log(describe("tts_s per pass", [sum(s.seconds for s in p) for p in passes], "s"))
    return metrics


# --- traced run -----------------------------------------------------------

def layer_metrics(summary: dict, rows, written: int):
    """Per-layer metrics of one traced pass, and the summed self time of
    the layers inside solve()."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "vectors": 0.0, "bytes": 0.0, "flops": 0.0}

    def get(layer):
        return summary.get(layer, empty)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    spmv, dot, maxpy = get(tr.SPMV), get(tr.DOT), get(tr.MAXPY)
    solve, pc, gauss, mon = get(tr.SOLVE), get(tr.PC), get(tr.RNG), get(tr.MONITOR)
    iters = sum(1 for row in rows if row.iter > 0)
    metrics = {
        "linalg.spmv.calls": spmv["calls"],
        "linalg.spmv.s": spmv["self_s"],
        "linalg.spmv.gbs_computed": rate(spmv["bytes"], spmv["self_s"]) / 1e9,
        "linalg.dot.calls": dot["calls"],
        "linalg.dot.s": dot["self_s"],
        "linalg.maxpy.calls": maxpy["calls"],
        "linalg.maxpy.vectors": maxpy["vectors"],
        "linalg.maxpy.s": maxpy["self_s"],
        "linalg.maxpy.gbs_computed": rate(maxpy["bytes"], maxpy["self_s"]) / 1e9,
        "preconditioners.apply.calls": pc["calls"],
        "preconditioners.apply.self_s": pc["self_s"],
        "rng.gaussian.calls": gauss["calls"],
        "rng.gaussian.s": gauss["self_s"],
        "solvers.self_s": solve["self_s"],
        "solvers.self_us_per_iter": rate(solve["self_s"], iters) * 1e6,
        "solvers.iters": iters,
        "solvers.restarts": sum(row.restarted for row in rows),
        "solvers.breakdowns": sum(row.breakdown for row in rows),
        "solvers.red_phases.blocking": sum(row.red_blocking for row in rows),
        "solvers.red_phases.overlapped": sum(row.red_overlapped for row in rows),
        "solvers.monitor.calls": mon["calls"],
        "solvers.monitor.self_s": mon["self_s"],
        "traceio.write_s": get(tr.WRITE)["s"],
        "traceio.bytes": written,
        "perfmodel.fit.spmv": rate(spmv["self_s"], spmv["flops"]),
        "perfmodel.fit.dot": rate(dot["self_s"], dot["flops"]),
        "perfmodel.fit.maxpy": rate(maxpy["self_s"], maxpy["flops"]),
    }
    accounted = sum(get(layer)["self_s"] for layer in tr.SOLVE_LAYERS)
    return metrics, accounted


def run_traced(pk, wl: Workload, args, env: dict, checks: Checks, log) -> dict:
    costs = tr.span_costs()
    log("wrapper cost per span: " + ", ".join(
        f"{getattr(work, '__name__', 'plain')}={1e6 * c:.3f} us" for work, c in costs.items()))
    build_tracer = tr.Tracer(costs)
    with tr.installed(build_tracer):
        problem, B = timed_setup(pk, wl, args.seed, [])
    build_times = build_tracer.durations(tr.BUILD)
    # both sides of trace.overhead_frac start warm
    warm_up(pk, wl, problem, B)

    def one_run(methods, tag):
        if wl.via_cli:
            csv_path = OUT / f"{args.workload}.seed{args.seed}.inprocess{tag}.csv"
            return inprocess_cli_pass(pk, wl, args.seed, csv_path)
        return library_pass(pk, wl, problem, B, methods)

    def paired_pass(k):
        """An untraced and a traced pass: (untraced solves, traced pass,
        tracer).  Library workloads alternate the two method by method,
        the command line pass by pass, and each pair flips the order of
        the one before, so that a slow stretch of the machine hits both
        sides alike."""
        tracer = tr.Tracer(costs)
        plain, solves, rows, written = [], [], [], 0
        groups = [wl.methods] if wl.via_cli else [(m,) for m in wl.methods]
        for i, methods in enumerate(groups):
            for trace_it in ((False, True) if (i + k) % 2 == 0 else (True, False)):
                with tr.installed(tracer) if trace_it else contextlib.nullcontext():
                    done, done_rows, done_written = one_run(methods, f"{k}.{trace_it:d}")
                if trace_it:
                    solves += done
                    rows += done_rows
                    written += done_written
                else:
                    plain += done
        return plain, (solves, rows, written), tracer

    untraced, traced, tracers = [], [], []
    deadline = perf_counter() + args.seconds
    while len(traced) < MIN_TRACED_PAIRS or perf_counter() < deadline:
        plain, traced_pass, tracer = paired_pass(len(traced))
        untraced.append(plain)
        traced.append(traced_pass)
        tracers.append(tracer)
    for k, solves in enumerate(untraced + [t[0] for t in traced]):
        for s in solves:
            checks.solve(wl, s, f"pass {k}")
    # untraced and traced passes of one seed must write identical trace bytes
    check_repeatable(checks, untraced + [t[0] for t in traced], "traced vs untraced passes")

    per_pass, tts_traced, gaps = [], [], []
    for tracer, (solves, rows, written), plain in zip(tracers, traced, untraced):
        tts = sum(s.seconds for s in solves)
        tts_plain = sum(s.seconds for s in plain)
        metrics, accounted = layer_metrics(tracer.summary(), rows, written)
        gaps.append((accounted - tts_plain) / tts_plain)
        log(f"traced pass: tts_s={tts:.4f} s; the layers' self times, less the "
            f"wrapper cost, add to {accounted:.4f} s against {tts_plain:.4f} s untraced "
            f"({100 * gaps[-1]:+.2f}%)")
        per_pass.append(metrics)
        tts_traced.append(tts)
    gap = statistics.median(gaps)
    checks.require(abs(gap) <= ACCOUNTING_TOLERANCE,
                   f"layer self times miss the untraced tts_s by {100 * gap:+.2f}%")
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    if wl.via_cli:
        # the command line builds its problem once per method
        build_times = [t for tracer in tracers for t in tracer.durations(tr.BUILD)]
    metrics["problems.build_s"] = statistics.median(build_times)
    metrics["cli.import_s"] = statistics.median(import_seconds() for _ in range(IMPORT_REPEATS))
    metrics["perfmodel.model_flop_time"] = pk.MachineSpec().flop_time
    tts_untraced = statistics.median(sum(s.seconds for s in p) for p in untraced)
    metrics["trace.overhead_frac"] = statistics.median(tts_traced) / tts_untraced - 1.0

    spans = {}
    for k, tracer in enumerate(tracers):
        spans.update({f"pass{k}.{key}": arr for key, arr in tracer.arrays().items()})
        spans[f"pass{k}.layers"] = np.array(tracer.layers)
    np.savez(OUT / f"{args.workload}.seed{args.seed}.spans.npz", **spans)
    return metrics


# --- entry point ----------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be in [0, 2**63)")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read the benchmark definition: {exc}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    try:
        import pipekrylov as pk
        import pipekrylov.cli  # noqa: F401  (traced runs patch it)
    except ImportError as exc:
        print(f"error: cannot import pipekrylov from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(pk.__file__).resolve().parents:
        print(f"error: pipekrylov came from {pk.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    env = environment()
    lines = []

    def log(line):
        lines.append(line)
        print(line, flush=True)

    log(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}")
    log("env " + json.dumps(env, sort_keys=True))
    checks = Checks()
    try:
        run = run_traced if args.trace else run_untraced
        values = run(pk, wl, args, env, checks, log)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in checks.problems:
        log(f"CHECK FAILED: {problem}")
    log(f"failed solves: {checks.failed} of {checks.attempted}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        log(f"metric {name} = {metric['value']!r} {metric['unit']}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics,
              "attempted": checks.attempted, "failed": checks.failed,
              "checks_failed": checks.problems, "log": lines}
    (OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": checks.correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
