"""Span recorder that times pipekrylov's layers from outside the package.

The traced run wraps the public entry points of each module: the vector
kernels (``dot``, ``norm2``, ``maxpy``) wherever a module has bound them
by name, ``SparseOperator.apply``, every ``Preconditioner.apply``,
``SplitMix64.gaussian``, ``TraceRecorder.log``, the ``make_*`` problem
builders, the trace writers and ``solve``.  Each call records one span:
layer id, start, end, the span that caused it, and the computed work
(vectors, bytes, flops) of a kernel call.  Spans stay in memory; the
caller writes them out when the benchmark ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.  The wrapper's own bookkeeping runs outside its span's
start and end stamps, so it would land in the parent's self time;
``span_costs`` measures that cost per wrapped call and ``Tracer.summary``
takes it off each parent's self time.  What remains should add up to the
untraced time to solution, which the benchmark checks.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

import numpy as np

SOLVE = "solvers.solve"
SPMV = "linalg.spmv"
DOT = "linalg.dot"
MAXPY = "linalg.maxpy"
PC = "preconditioners.apply"
RNG = "rng.gaussian"
MONITOR = "solvers.monitor"
BUILD = "problems.build"
WRITE = "traceio.write"

# Layers whose spans run inside solve(); their self times plus the solve
# spans' own self time make up the traced time to solution.
SOLVE_LAYERS = (SOLVE, SPMV, DOT, MAXPY, PC, RNG, MONITOR)


def _spmv_work(op, x):
    c = op.csr
    moved = c.data.nbytes + c.indices.nbytes + c.indptr.nbytes + x.nbytes + op.n_rows * 8
    return 0, moved, 2 * c.nnz


def _dot_work(a, b):
    return 0, a.nbytes + b.nbytes, 2 * a.size


def _norm2_work(a):
    return 0, a.nbytes, 2 * a.size


def _maxpy_work(u, coeffs, vs):
    m = len(vs)
    return m, (m + 2) * u.nbytes, 2 * m * u.size


class Tracer:
    """In-memory span store; one instance per traced pass.

    ``costs`` maps a work function (None for none) to the seconds one
    wrapped call costs beyond a direct call, as ``span_costs`` measures
    them; nearly all of it is spent outside the span's own stamps.
    """

    def __init__(self, costs=None):
        self.costs = costs or {}
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.vectors = array("d")
        self.bytes = array("d")
        self.flops = array("d")
        self.cost = array("d")
        self._stack = [-1]

    def _layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.layers)
            self.layers.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, work=None):
        lid = self._layer_id(name)
        stack = self._stack
        cost = self.costs.get(work, 0.0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(lid)
            self.parent.append(stack[-1])
            self.cost.append(cost)
            if work is None:
                self.vectors.append(0.0)
                self.bytes.append(0.0)
                self.flops.append(0.0)
            else:
                v, b, f = work(*args, **kwargs)
                self.vectors.append(v)
                self.bytes.append(b)
                self.flops.append(f)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()

        return traced

    def arrays(self) -> dict:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
            "vectors": np.frombuffer(self.vectors).copy(),
            "bytes": np.frombuffer(self.bytes).copy(),
            "flops": np.frombuffer(self.flops).copy(),
            "cost": np.frombuffer(self.cost).copy(),
        }

    def durations(self, name: str) -> list:
        """Durations of every span of one layer."""
        lid = self._ids.get(name)
        return [e - s for i, s, e in zip(self.layer, self.start, self.end) if i == lid]

    def summary(self) -> dict:
        """Per-layer calls, total and self seconds and computed work.

        A span's self time excludes its children's spans and the measured
        bookkeeping cost of wrapping each child.  Kernel, preconditioner,
        generator and monitor layers count only spans inside a solve span;
        builds and trace writes count wherever they ran.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent = a["parent"]
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent] + a["cost"][has_parent])
        self_s = dur - child
        solve_id = self._ids.get(SOLVE, -1)
        in_solve = np.zeros(len(dur), dtype=bool)
        layer = a["layer"]
        # parents precede children, so one forward sweep marks each subtree
        for i in range(len(dur)):
            p = parent[i]
            in_solve[i] = layer[i] == solve_id or (p >= 0 and in_solve[p])
        out = {}
        for lid, name in enumerate(self.layers):
            mask = layer == lid
            if name in SOLVE_LAYERS:
                mask &= in_solve
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_s[mask].sum()),
                "vectors": float(a["vectors"][mask].sum()),
                "bytes": float(a["bytes"][mask].sum()),
                "flops": float(a["flops"][mask].sum()),
            }
        return out


def span_costs(calls: int = 20000, repeats: int = 5) -> dict:
    """Seconds one wrapped call costs beyond a direct call, per work function.

    Each work function is timed on small stand-in arguments: its cost
    depends on array attributes, not on array sizes.  The fastest of
    ``repeats`` loops is taken, as for any microbenchmark.
    """
    import scipy.sparse

    v = np.ones(8)
    op = SimpleNamespace(csr=scipy.sparse.identity(8, format="csr"), n_rows=8)
    samples = {None: (), _spmv_work: (op, v), _dot_work: (v, v), _norm2_work: (v,),
               _maxpy_work: (v, [1.0] * 3, [v] * 3)}

    def noop(*args):
        return None

    def loop(fn, args):
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                fn(*args)
            best = min(best, perf_counter() - t0)
        return best

    costs = {}
    for work, args in samples.items():
        wrapped = Tracer().wrap("calibration", noop, work)
        costs[work] = max(0.0, (loop(wrapped, args) - loop(noop, args)) / calls)
    return costs


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pipekrylov" or name.startswith("pipekrylov."))]


@contextmanager
def installed(tracer: Tracer):
    """Wrap the package's layer entry points for the duration of the block.

    Functions are replaced in every pipekrylov module that bound them by
    name; methods are replaced on their class.  Everything is restored on
    exit.
    """
    import pipekrylov.cli  # noqa: F401  (bind its names before patching)
    from pipekrylov import linalg, problems, rng, solvers, traceio
    from pipekrylov.preconditioners import Preconditioner
    from pipekrylov.solvers.common import TraceRecorder

    functions = [
        (linalg.dot, DOT, _dot_work),
        (linalg.norm2, DOT, _norm2_work),
        (linalg.maxpy, MAXPY, _maxpy_work),
        (solvers.solve, SOLVE, None),
        (traceio.write_trace_csv, WRITE, None),
        (traceio.write_compare_csv, WRITE, None),
    ]
    functions += [(getattr(problems, name), BUILD, None)
                  for name in problems.__all__ if name.startswith("make_")]
    methods = [(linalg.SparseOperator, "apply", SPMV, _spmv_work),
               (rng.SplitMix64, "gaussian", RNG, None),
               (TraceRecorder, "log", MONITOR, None)]
    pending = list(Preconditioner.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "apply" in vars(cls):
            methods.append((cls, "apply", PC, None))

    undo = []
    try:
        for fn, name, work in functions:
            wrapped = tracer.wrap(name, fn, work)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, fn))
        for cls, attr, name, work in methods:
            fn = vars(cls)[attr]
            setattr(cls, attr, tracer.wrap(name, fn, work))
            undo.append((cls, attr, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)
