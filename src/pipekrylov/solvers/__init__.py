"""Krylov method drivers and the public solve entry point.

Fourteen method variants are organized in four families (conjugate
gradients, flexible conjugate gradients, conjugate residuals, flexible
minimal residual); :func:`solve` validates the input and dispatches to
the family driver.  One loop serves all 14 methods,
:meth:`~.common.Driver.run`: it logs row 0, finishes each accepted row,
runs the breakdown path (refill, flagged row, restart or stop) and
applies the stopping, stagnation and restart policy.  A method supplies
only its refill and its per-iteration step; the loop reads the method's
per-row counts of blocking and overlappable reduction phases from
:data:`~.common.REDUCTION_LEDGER`.  Each family has two switches,
``fused`` (the reductions batched into one blocking phase) and
``pipelined`` (that phase made overlappable).  The windowed driver
(:mod:`.windowed`) runs the CG, FCG and CR families; all but the
window-free CG family and ``pcr`` keep their retained directions in one
:class:`~.common.DirectionWindow`, a ring of ``numax`` slots in one
block, whose coefficients and new directions are one stacked product
each, the new direction written straight into its slot.  The windowed
steps allocate their vectors once per solve and update them in place;
the iterate alternates between two of them.  The minimal-residual step
(:mod:`.gmres`) adds one column of a restarted cycle; the row that fills
a cycle asks the loop to refill after it.  It keeps its basis and images side by side in the rows of
one block and forms the iterate only on rows the recorder reads
(:attr:`~.common.TraceRecorder.reads_iterate`), before a refill and on
exit.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from ..linalg import SparseOperator, as_vector
from ..preconditioners import Preconditioner
from . import gmres as _gmres
from . import windowed as _windowed
from .common import (
    CG_FAMILY,
    CR_FAMILY,
    FCG_FAMILY,
    GMRES_FAMILY,
    METHODS,
    REDUCTION_LEDGER,
    STAGNATION_RTOL,
    SYMMETRIC_REQUIRED_METHODS,
    THETA_MODES,
    TRUNCATION_STRATEGIES,
    SolveResult,
    SolverConfig,
    TraceRecorder,
    TraceRow,
    estimate_sigma,
    stabilized_m_update,
    truncation_window,
)

__all__ = [
    "CG_FAMILY",
    "FCG_FAMILY",
    "CR_FAMILY",
    "GMRES_FAMILY",
    "METHODS",
    "SYMMETRIC_REQUIRED_METHODS",
    "STAGNATION_RTOL",
    "THETA_MODES",
    "TRUNCATION_STRATEGIES",
    "REDUCTION_LEDGER",
    "SolverConfig",
    "SolveResult",
    "TraceRow",
    "solve",
    "check_operator",
    "estimate_sigma",
    "stabilized_m_update",
    "truncation_window",
]

_DRIVERS = {**_windowed.DRIVERS, **_gmres.DRIVERS}

# A step still allocates some n-vectors afresh: the preconditioner's
# image (the noisy, nested and block-Jacobi applies allocate more inside),
# each operator product, the GMRES step's vectors, and the windowed
# steps' direction when its window is the whole ring; the windowed steps
# update the rest of their vectors in place.  glibc serves a request of
# 128 KiB or more from a mapping of its own, faulted in page by page,
# until the free of such a mapping raises its mapping threshold to that
# size and its trim threshold to twice it.  An unwritten block of this
# many vectors, allocated and freed as a solve starts, makes the heap
# serve those vectors and keep them when freed: without it a fresh
# process solving 3-D Poisson n=40 with pcg took 128-137 ms per solve
# against 104-114 ms on a 2-core Xeon, and the benchmark's poisson3d-large
# command line ran ×1.19 slower (0 of 6 pairs faster).  It is the only
# code that steers glibc: every block that outlives a step is a mapping
# of its own (``linalg.blocks``).
_HEAP_VECTORS = 8


def check_operator(cfg: SolverConfig, A: SparseOperator) -> None:
    """Raise ValueError unless A is square and, for the CG, FCG and CR
    families, flagged symmetric."""
    if A.n_rows != A.n_cols:
        raise ValueError("operator must be square")
    if cfg.method in SYMMETRIC_REQUIRED_METHODS and not A.symmetric:
        raise ValueError(
            f"method {cfg.method!r} requires a symmetric-flagged operator")


def solve(cfg: SolverConfig, A: SparseOperator, B: Preconditioner,
          b, x0=None, x_true=None,
          observer: Optional[Callable] = None, seed: int = 0) -> SolveResult:
    """Run the configured method on A x = b with preconditioner B.

    ``x0`` defaults to the zero vector.  ``x_true``, when known, enables
    the relative-error column of the trace.  ``observer`` receives
    ``(event, iteration, payload)`` callbacks with copies of selected
    internal vectors ("state", "direction", "basis"); it exists for
    verification and costs nothing when None.  ``seed`` feeds the power
    iteration when ``cfg.sigma_auto_power`` > 0.

    With ``cfg.prescale`` the system is symmetrically Jacobi-scaled
    first; B then applies in the scaled space (build it from ``A.scaled``
    when it depends on A) and the trace reports scaled residuals, while
    the returned iterate is mapped back.

    The CG and FCG families and ``pcr`` additionally assume B is linear
    and symmetric positive definite.  This is not checked, and a
    violating preconditioner surfaces as breakdown or stagnation rather
    than an error.
    """
    check_operator(cfg, A)
    b = as_vector(b)
    if b.shape[0] != A.n_rows:
        raise ValueError(
            f"right-hand side has length {b.shape[0]}, operator has {A.n_rows} rows")
    # the solve's own array, which a driver starts from and may reuse
    x0 = np.zeros_like(b) if x0 is None else as_vector(x0).copy()
    if x0.shape[0] != A.n_rows:
        raise ValueError("initial guess length does not match the operator")
    if x_true is not None:
        x_true = as_vector(x_true)
        if x_true.shape[0] != A.n_rows:
            raise ValueError("x_true length does not match the operator")
    for name, v in (("right-hand side", b), ("initial guess", x0), ("x_true", x_true)):
        if v is not None and not np.all(np.isfinite(v)):
            raise ValueError(f"{name} holds NaN or inf")

    np.empty(_HEAP_VECTORS * A.n_rows)       # freed at once: see _HEAP_VECTORS
    unscale = None
    A_run, b_run, x0_run, x_true_run = A, b, x0, x_true
    if cfg.prescale:
        A_run = A.scaled
        isq = 1.0 / np.sqrt(A.diagonal())
        b_run = b * isq
        x0_run = x0 / isq
        x_true_run = None if x_true is None else x_true / isq
        unscale = isq

    if cfg.method in ("cgfgmres", "pipefgmres") and cfg.sigma_auto_power > 0:
        sigma, _ = estimate_sigma(A_run, B, cfg.sigma_auto_power, seed)
        cfg = dataclasses.replace(cfg, sigma=sigma)

    rec = TraceRecorder(A_run, b_run, x_true_run, cfg.monitor_true_residual,
                        observer)
    try:
        x_run, converged, iterations, reason = _DRIVERS[cfg.method](
            cfg, A_run, B, b_run, x0_run, rec)
    except FloatingPointError:
        # Non-finite state escaped the per-driver guards; report the last
        # iterate that produced a finite trace row.
        x_run = rec.last_x if rec.last_x is not None else x0_run
        converged = False
        iterations = rec.trace[-1].iter if rec.trace else 0
        reason = "breakdown_unrecoverable"

    x_final = x_run if unscale is None else x_run * unscale
    return SolveResult(x_final=x_final, converged=converged,
                       iterations=iterations, stop_reason=reason,
                       trace=rec.trace)

