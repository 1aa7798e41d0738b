"""Krylov method drivers and the public solve entry point.

Fourteen method variants are organized in four families (conjugate
gradients, flexible conjugate gradients, conjugate residuals, flexible
minimal residual); :func:`solve` validates the input and dispatches to
the family driver.  One loop serves all 14 methods,
:meth:`~.common.Driver.run`: it logs row 0, finishes each accepted row,
runs the breakdown path (refill, flagged row, restart or stop) and
applies the stopping, stagnation and restart policy.  A method supplies
only its refill, its per-iteration step and its per-row constants, the
counts of blocking and overlappable reduction phases.  Each family has
two switches, ``fused`` (the reductions batched into one blocking phase)
and ``pipelined`` (that phase made overlappable).  The windowed driver
(:mod:`.windowed`) runs the CG, FCG and CR families; all but the
window-free CG family and ``pcr`` keep their retained directions in one
:class:`~.common.DirectionWindow`, a ring of ``numax`` slots in one
block, whose coefficients and new directions are one stacked product
each.  The minimal-residual step (:mod:`.gmres`) adds one column of a
restarted cycle; the row that fills a cycle asks the loop to refill
after it.  It keeps its basis and images side by side in the rows of
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
    STAGNATION_RTOL,
    SYMMETRIC_REQUIRED_METHODS,
    THETA_MODES,
    TRUNCATION_STRATEGIES,
    IterationTrace,
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
    "IterationTrace",
    "TraceRow",
    "solve",
    "check_operator",
    "prescale_operator",
    "estimate_sigma",
    "stabilized_m_update",
    "truncation_window",
]

# Per-iteration reduction-phase constants (blocking, overlappable) and the
# work each overlappable phase hides behind.  Initial rows, restart rows,
# and breakdown rows are flagged in the trace and may add one blocking
# refill phase (the naive variant's flush rows add none).  A GMRES cycle
# that ends early on its first column, right after a full cycle, adds two:
# the previous cycle's residual refill, which its first row carries, and
# its own.
REDUCTION_LEDGER: dict[str, tuple[int, int, frozenset]] = {
    "pcg": (2, 0, frozenset()),
    "cgcg": (1, 0, frozenset()),
    "pipecg": (0, 1, frozenset({"pc", "spmv"})),
    "fcg": (2, 0, frozenset()),
    "cgfcg": (1, 0, frozenset()),
    "pipefcg_naive": (0, 1, frozenset({"pc", "spmv", "local"})),
    "pipefcg": (0, 1, frozenset({"pc", "spmv", "local"})),
    "gcr": (2, 0, frozenset()),
    "pcr": (2, 0, frozenset()),
    "pipegcr": (0, 1, frozenset({"pc", "local"})),
    "pipegcr_w": (0, 1, frozenset({"pc", "spmv", "local"})),
    "fgmres": (2, 0, frozenset()),
    "cgfgmres": (1, 0, frozenset()),
    "pipefgmres": (0, 1, frozenset({"pc", "spmv"})),
}

_DRIVERS = {**_windowed.DRIVERS, **_gmres.DRIVERS}


def prescale_operator(A: SparseOperator) -> SparseOperator:
    """Symmetric Jacobi scaling D^-1/2 A D^-1/2, as ``solve`` applies it
    when ``cfg.prescale`` is set; build a preconditioner that depends on
    A from this operator.  It is :attr:`SparseOperator.scaled`, built once
    per operator, so every call returns the same operator."""
    return A.scaled


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
    first; B then applies in the scaled space (build it from
    :func:`prescale_operator` when it depends on A) and the trace reports
    scaled residuals, while the returned iterate is mapped back.

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
    x0 = np.zeros_like(b) if x0 is None else as_vector(x0)
    if x0.shape[0] != A.n_rows:
        raise ValueError("initial guess length does not match the operator")
    if x_true is not None:
        x_true = as_vector(x_true)
        if x_true.shape[0] != A.n_rows:
            raise ValueError("x_true length does not match the operator")
    for name, v in (("right-hand side", b), ("initial guess", x0), ("x_true", x_true)):
        if v is not None and not np.all(np.isfinite(v)):
            raise ValueError(f"{name} holds NaN or inf")

    unscale = None
    A_run, b_run, x0_run, x_true_run = A, b, x0, x_true
    if cfg.prescale:
        A_run = prescale_operator(A)
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
        iterations = max(len(rec.trace) - 1, 0)
        reason = "breakdown_unrecoverable"

    x_final = x_run if unscale is None else x_run * unscale
    return SolveResult(x_final=x_final, converged=converged,
                       iterations=iterations, stop_reason=reason,
                       trace=rec.trace)

