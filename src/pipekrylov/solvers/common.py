"""Shared solver plumbing: configuration, traces, the run object every
driver ends in (:class:`TraceRecorder`: the loop, its stopping and restart
policy and the trace it logs), and the operations every method family
reuses (the truncated direction window, the stabilized
preconditioned-direction update, and shift estimation).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..linalg import SparseOperator, blocks, dot, mdot, norm2, stacked_maxpy
from ..names import canonical_name
from ..preconditioners import Preconditioner
from ..rng import SplitMix64

__all__ = [
    "METHODS",
    "CG_FAMILY",
    "FCG_FAMILY",
    "CR_FAMILY",
    "GMRES_FAMILY",
    "SYMMETRIC_REQUIRED_METHODS",
    "REDUCTION_LEDGER",
    "STAGNATION_RTOL",
    "SolverConfig",
    "TraceRow",
    "SolveResult",
    "truncation_window",
    "stabilized_m_update",
    "estimate_sigma",
    "TraceRecorder",
    "DirectionWindow",
]

CG_FAMILY = ("pcg", "cgcg", "pipecg")
FCG_FAMILY = ("fcg", "cgfcg", "pipefcg_naive", "pipefcg")
CR_FAMILY = ("gcr", "pcr", "pipegcr", "pipegcr_w")
GMRES_FAMILY = ("fgmres", "cgfgmres", "pipefgmres")
METHODS = CG_FAMILY + FCG_FAMILY + CR_FAMILY + GMRES_FAMILY

# Per-iteration reduction-phase constants (blocking, overlappable) and the
# work each overlappable phase hides behind; every row of a method after
# row 0 carries them, and each method's driver (``solvers._driver``) and
# cost (``perfmodel.iteration_cost``) is bound from them.  Initial rows,
# restart rows, and breakdown rows are flagged in the trace and may add
# one blocking refill phase (the naive variant's flush rows add none).  A
# GMRES cycle that ends early on its first column, right after a full
# cycle, adds two: the previous cycle's residual refill, which its first
# row carries, and its own.  Unflagged rows add one blocking phase in two
# cases: ``theta_mode="exact"`` in ``pipefcg``, ``pipegcr`` and
# ``pipegcr_w`` (every row), and a ``cgfgmres`` or ``pipefgmres`` cycle's
# first column whose Pythagorean remainder is rounding, whose norm is
# then reduced explicitly.
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

# Methods whose recurrences assume a symmetric operator (positive definite
# for the CG and FCG families, possibly indefinite for the CR family).
SYMMETRIC_REQUIRED_METHODS = CG_FAMILY + FCG_FAMILY + CR_FAMILY

# A solve stagnates when the best natural norm fails to improve by this
# relative amount over a full stagnation window.
STAGNATION_RTOL = 1e-4

UNRECOVERABLE = "breakdown_unrecoverable"
NO_TAGS = frozenset()

TRUNCATION_STRATEGIES = ("notay_mod", "standard")
THETA_MODES = ("zero", "one", "exact")


@dataclass(frozen=True)
class SolverConfig:
    """Immutable solve parameters shared by all method families.

    ``method`` accepts the hyphenated spellings (``pipegcr-w``) and stores
    the canonical name (``pipegcr_w``).  ``rtol`` and ``atol`` test the
    method's recurred natural residual norm, the one the trace logs as
    ``rnorm_natural``, not the true residual ``b - A x``.  Near machine
    precision the two drift apart, so a tolerance below what the true
    residual can reach may still stop with ``rtol``.  ``sigma`` is the
    constant shift used by the single-reduction and pipelined GMRES
    variants (``fgmres`` ignores it); setting ``sigma_auto_power`` to k > 0
    replaces it with a k-step power-iteration estimate of the largest
    preconditioned eigenvalue.  ``theta_mode`` is the stabilized update of
    m in ``pipefcg``, ``pipegcr`` and ``pipegcr_w``; ``pipecg`` and
    ``pipefcg_naive`` always use the unstabilized B(w).
    ``stagnation_window = 0`` disables stagnation detection.  The counts
    ``max_it``, ``numax``, ``restart_len``, ``sigma_auto_power`` and
    ``stagnation_window`` must be integers (numpy's included), not floats
    or bools.
    """

    method: str
    rtol: float = 1e-8
    atol: float = 0.0
    max_it: int = 1000
    numax: int = 30
    truncation: str = "notay_mod"
    restart_len: int = 30
    sigma: float = 0.0
    sigma_auto_power: int = 0
    theta_mode: str = "one"
    monitor_true_residual: bool = True
    stagnation_window: int = 50
    prescale: bool = False

    def __post_init__(self):
        object.__setattr__(self, "method", canonical_name(self.method))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not (0.0 < self.rtol < 1.0):
            raise ValueError("rtol must lie in (0, 1)")
        if not (math.isfinite(self.atol) and self.atol >= 0.0):
            raise ValueError("atol must be finite and nonnegative")
        for name in ("max_it", "numax", "restart_len", "sigma_auto_power",
                     "stagnation_window"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.max_it < 1:
            raise ValueError("max_it must be >= 1")
        if self.numax < 1:
            raise ValueError("numax must be >= 1")
        if self.truncation not in TRUNCATION_STRATEGIES:
            raise ValueError(f"unknown truncation strategy {self.truncation!r}")
        if self.restart_len < 1:
            raise ValueError("restart_len must be >= 1")
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if self.sigma_auto_power < 0:
            raise ValueError("sigma_auto_power must be >= 0")
        if self.theta_mode not in THETA_MODES:
            raise ValueError(f"unknown theta mode {self.theta_mode!r}")
        if self.stagnation_window < 0:
            raise ValueError("stagnation_window must be >= 0")


@dataclass(slots=True)
class TraceRow:
    """One iteration record.

    ``red_blocking``/``red_overlapped`` count reduction phases (each phase
    is one batched global reduction); ``overlap_tags`` names the work an
    overlappable phase hides behind.  ``rnorm_true`` and ``relerr`` are
    diagnostic recomputations and are not part of the reduction ledger.
    """

    iter: int
    rnorm_natural: float
    rnorm_true: Optional[float]
    relerr: Optional[float]
    nu_used: int
    red_blocking: int
    red_overlapped: int
    overlap_tags: frozenset
    breakdown: bool = False
    restarted: bool = False


@dataclass
class SolveResult:
    """Outcome of a solve.  ``stop_reason`` is one of ``rtol``, ``atol``
    (converged), ``max_it``, ``stagnation`` or ``breakdown_unrecoverable``.
    """

    x_final: np.ndarray
    converged: bool
    iterations: int
    stop_reason: str
    trace: list[TraceRow]


def truncation_window(i: int, numax: int, strategy: str) -> int:
    """Number of retained directions the i-th new direction orthogonalizes
    against (i >= 1 counts directions built since the last restart).

    The modulo rule periodically shrinks the window to one, which bounds
    both memory and the reduction batch size; the standard rule keeps the
    most recent numax directions.  Callers clamp the result to the history
    actually available.
    """
    if i < 1:
        raise ValueError("direction index must be >= 1")
    if numax < 1:
        raise ValueError("numax must be >= 1")
    if strategy == "notay_mod":
        return min(i, (i % numax) + 1)
    if strategy == "standard":
        return min(i, numax)
    raise ValueError(f"unknown truncation strategy {strategy!r}")


def positive(value: float) -> bool:
    return value > 0.0 and math.isfinite(value)


def accepted_row(square: float, nu: int, r, u, p, s, eta):
    """Row of a windowed method whose natural norm is sqrt(square)."""
    return math.sqrt(square), nu, {"r": r, "u": u}, {"p": p, "s": s, "eta": eta}


def natural_norm(gamma: float, r: np.ndarray) -> float:
    """Natural norm sqrt(gamma) of the CG and FCG families, falling back to
    the residual 2-norm when the coupling scalar gamma is not positive."""
    return math.sqrt(gamma) if positive(gamma) else norm2(r)


class DirectionWindow:
    """Truncated history of direction entries ``(p, s, ..., eta)``.

    A ring of ``numax`` slots allocated once (``max_it + 1`` when fewer):
    one ``(slots, columns, n)`` block, a slot's vectors side by side, and
    an array of energies.  The second column is the operator image the
    coefficients are taken against; the truncation rule sizes the window
    from the entries pushed since the last ``clear``.  Entry j since the
    ``clear`` goes to slot ``(j + 1) % numax``, so the next window is the
    whole ring or one contiguous run of slots under either rule, and
    ``combine`` is one product over it.  The coefficients run in slot
    order: ``betas``, ``combine`` and ``energy`` index the same slots.

    ``combine`` writes the new direction straight into the slot that
    ``push`` gives it, which lies outside every window but the whole ring,
    so that ``push`` only stores the energy.  A window of the whole ring
    (under ``notay_mod`` once in each ``numax`` entries, under
    ``standard`` from entry ``numax`` on) still reads that slot: its
    direction goes to a spare block of the step, as every direction did
    before, which ``push`` copies into place and lets go.  The spare is
    not kept for the solve, because the whole-ring step is the one that
    holds the most vectors.
    """

    def __init__(self, cfg: SolverConfig, columns: int, n: int):
        self._numax = cfg.numax
        self._strategy = cfg.truncation
        slots = min(cfg.numax, cfg.max_it + 1)
        self._ring = blocks(slots, columns, n)
        self._eta = np.empty(slots)
        self._built = 0
        self._spare = None      # the whole-ring combine's direction, until pushed

    def push(self, eta: float) -> np.ndarray:
        """Store the energy of the direction ``combine`` formed last, and
        copy that direction into its slot if it went to a spare block.
        Returns the slot, for the caller to hold in place of the spare."""
        self._built += 1
        slot = self._built % self._numax
        self._eta[slot] = eta
        if self._spare is not None:
            self._ring[slot] = self._spare
            self._spare = None
        return self._ring[slot]

    def clear(self) -> None:
        self._built = 0

    def _slots(self, nu: int) -> slice:
        """The slots of the nu newest entries."""
        start = 0 if nu == self._numax else (self._built - nu + 1) % self._numax
        return slice(start, start + nu)

    def betas(self, v: np.ndarray) -> np.ndarray:
        """Coefficients -<v, s_k>/eta_k over the window allowed for the next
        direction; their count is the window size nu."""
        nu = (truncation_window(self._built, self._numax, self._strategy)
              if self._built else 0)
        rows = self._slots(nu)
        return -mdot(self._ring[rows, 1], v) / self._eta[rows]

    def combine(self, betas: np.ndarray, *heads: np.ndarray) -> np.ndarray:
        """Rows heads[j] + sum_k betas[k] * column_j[k], one per head,
        written into the leading columns of the next entry's slot (the
        spare when the window is the whole ring).  Returns that slot's
        ``(columns, n)`` block, whose further columns the caller fills
        before ``push``."""
        nu = len(betas)
        self._spare = np.empty(self._ring.shape[1:]) if nu == self._numax else None
        entry = (self._ring[(self._built + 1) % self._numax] if self._spare is None
                 else self._spare)
        stacked_maxpy(heads, betas, self._ring[self._slots(nu), :len(heads)],
                      out=entry[:len(heads)])
        return entry

    def energy(self, betas: np.ndarray) -> float:
        """sum_k betas[k]^2 eta_k, the energy the conjugation removes."""
        return float((betas * betas) @ self._eta[self._slots(len(betas))])


def stabilized_m_update(B: Preconditioner, u_tilde: np.ndarray, w: np.ndarray,
                        r: np.ndarray, mode: str, out: Optional[np.ndarray] = None):
    """Preconditioned image of w for the pipelined flexible methods.

    mode "zero" is the naive unrolling B(w); mode "one" projects the
    recurred preconditioned residual back in, u_tilde + B(w - r); mode
    "exact" scales the projection by theta = <r, w>/<r, r>, which costs
    two extra blocking dot products and is intended as a diagnostic.

    Returns m.  Modes "one" and "exact" form it in ``out`` (a new vector
    when None; never u_tilde, w or r), which also holds B's argument;
    mode "zero" returns B's image itself.  In exact mode with a zero
    residual theta is undefined and None is returned, which callers treat
    as a converged signal.
    """
    if mode == "zero":
        return B.apply(w)
    if out is None:
        out = np.empty_like(w)
    if mode == "one":
        return np.add(u_tilde, B.apply(np.subtract(w, r, out=out)), out=out)
    if mode == "exact":
        rr = dot(r, r)
        if rr == 0.0:
            return None
        theta = dot(r, w) / rr
        image = B.apply(np.subtract(w, np.multiply(r, theta, out=out), out=out))
        return np.add(theta * u_tilde, image, out=out)
    raise ValueError(f"unknown theta mode {mode!r}")


def estimate_sigma(A: SparseOperator, B: Preconditioner, k: int, seed: int):
    """Power-iteration estimate of the largest eigenvalue of v -> A B(v).

    Runs k steps from a seeded random start, renormalizing each step, and
    returns (estimate, degenerate).  ``degenerate`` is True when a zero
    vector was encountered, in which case the estimate is 0.
    """
    if k < 1:
        raise ValueError("power iteration count must be >= 1")
    v = SplitMix64(seed).gaussian(A.n_cols)
    vn = norm2(v)
    if vn == 0.0:
        return 0.0, True
    v /= vn
    ratio = 0.0
    for _ in range(k):
        w = A.apply(B.apply(v))
        wn = norm2(w)
        if wn == 0.0:
            return 0.0, True
        ratio = wn
        v = w / wn
    return ratio, False


class TraceRecorder:
    """The run object of every method: runs the loop with its stopping and
    restart policy, builds the iteration trace and runs the per-row
    diagnostics.

    Convergence: natural norm <= max(rtol * initial natural norm, atol).
    Stagnation: the best natural norm fails to improve by STAGNATION_RTOL
    relative over ``stagnation_window`` consecutive iterations (0 disables).
    Breakdown recovery: a restart is allowed only if the best natural norm
    strictly improved since the previous restart.  Every row after row 0
    logs the method's per-row reduction-phase constants, read from
    ``REDUCTION_LEDGER``; ``exact_theta`` adds the blocking phase of the
    exact stabilized update, and a row after a refill, or whose step
    reports an extra phase, adds one more.  A row reads its iterate when
    the true residual is monitored, ``x_true`` is known or an observer
    receives the state.  The recorder keeps a reference to the last
    iterate logged, so a step returns its new iterate in an array other
    than the one it was given and never writes into that one: the windowed
    steps alternate between two buffers of the solve, the GMRES iterate is
    a new array.
    """

    def __init__(self, cfg: SolverConfig, A: SparseOperator, b: np.ndarray,
                 x_true: Optional[np.ndarray], observer: Optional[Callable] = None):
        self.cfg = cfg
        self._A = A
        self._b = b
        self._x_true = x_true
        self._x_true_norm = norm2(x_true) if x_true is not None else None
        self._monitor = cfg.monitor_true_residual
        self._observer = observer
        self._reads = self._monitor or x_true is not None or observer is not None
        self._blocking, self._overlapped, self._tags = REDUCTION_LEDGER[cfg.method]
        # set by a refill that the next row carries, with its blocking phase
        # and, on an accepted row, the restarted flag
        self._carried = False
        self.trace: list[TraceRow] = []     # row 0 is the initial state
        self.last_x: Optional[np.ndarray] = None

    def run(self, x: np.ndarray, refill: Callable, step: Callable,
            formed: Callable = lambda x: x, exact_theta: bool = False):
        """Run a method given as its refill and its step; returns
        ``(x, converged, iterations, stop_reason)``.

        ``refill(x)`` rebuilds the state from the iterate, empties the
        window, and returns ``(natural, ok, state)``; ``ok`` is False when a
        coupling scalar of the new state is not positive.  ``step(x)``
        returns ``(x, row)``: the arguments of :meth:`_accept` after
        ``(i, x)``, or on breakdown None or the keywords of
        :meth:`_recover`.  ``formed(x)`` forms a lazily kept iterate: on an
        accepted row that reads it or fills a cycle, before a breakdown's
        refill, and on exit, each only where no earlier row formed it.
        ``state`` and ``direction`` are the observer payloads.
        """
        cfg = self.cfg
        self._refill, self._formed = refill, formed
        self._blocking += exact_theta
        natural, ok, state = refill(x)
        self._threshold = max(cfg.rtol * natural, cfg.atol)
        self._reached = "atol" if cfg.atol > cfg.rtol * natural else "rtol"
        self._best = [natural]          # the best natural norm after each row
        self._best_at_restart = math.inf
        self.log(0, x, natural, 0, 0, not ok and natural > 0.0, False, state)
        stop = (self._reached if natural <= self._threshold
                else None if ok else UNRECOVERABLE)
        i = 0
        while stop is None and i < cfg.max_it:
            i += 1
            x, row = step(x)
            if isinstance(row, tuple):
                x, stop = self._accept(i, x, *row)
            else:
                x, stop = self._recover(i, x, **(row or {}))
            # drop the row's vectors, so the next step frees each old
            # vector as it replaces it
            del row
        # a step that ends the run on a non-finite refill logs no row
        return (x if self._reads else formed(x), stop == self._reached,
                self.trace[-1].iter, stop or "max_it")

    def _accept(self, i, x, natural, nu, state: dict,
                direction: Optional[dict] = None,
                breakdown=False, restarted=False, fills_cycle=False, extra=0):
        """Log an accepted row; returns ``(x, stop_reason or None)``.
        ``fills_cycle`` marks the row that fills a restart cycle: the state
        is refilled after it with no row of its own, the next row carries
        that refill, and an exact or non-finite refill ends the run here.
        ``extra`` counts blocking phases the step added to the method's."""
        if self._reads:
            x = self._formed(x)
        self.log(i, x, natural, nu, extra, breakdown,
                 restarted or self._carried, state)
        if direction is not None:
            self.observe("direction", i, **direction)
        if natural <= self._threshold:
            return x, self._reached
        stop = self._stagnated(natural)
        if fills_cycle and stop is None:
            if not self._reads:
                x = self._formed(x)
            natural = self._refill(x)[0]
            self._carried = True
            stop = (UNRECOVERABLE if not math.isfinite(natural)
                    else self._reached if natural == 0.0 else None)
        return x, stop

    def _recover(self, i, x, nu=0, breakdown=True):
        """The breakdown path: refill from the formed iterate and log a
        flagged row; returns ``(x, stop_reason or None)``.  A non-finite
        refill ends the run with no row, one that uncovers convergence ends
        it on a row not flagged restarted.  Otherwise the run restarts if
        ``ok`` and the restart policy allow; ``breakdown=False`` marks a
        vanished minimal-residual column, which always restarts."""
        if not self._reads:
            x = self._formed(x)
        natural, ok, state = self._refill(x)
        if not math.isfinite(natural):
            return x, UNRECOVERABLE
        converged = natural <= self._threshold
        restart = not converged and (
            not breakdown or ok and self._best[-1] < self._best_at_restart)
        if restart and breakdown:
            self._best_at_restart = self._best[-1]
        self.log(i, x, natural, nu, 1, breakdown, restart, state)
        if converged:
            return x, self._reached
        return x, self._stagnated(natural) if restart else UNRECOVERABLE

    def _stagnated(self, natural) -> Optional[str]:
        """Record a row's natural norm; "stagnation" when the window trips."""
        best = min(natural, self._best[-1])
        self._best.append(best)
        window = self.cfg.stagnation_window
        if (window and len(self._best) > window
                and best > (1.0 - STAGNATION_RTOL) * self._best[-1 - window]):
            return "stagnation"
        return None

    def log(self, i: int, x: np.ndarray, natural: float, nu_used: int, extra: int,
            breakdown: bool, restarted: bool, state: dict) -> None:
        """Append row i, with its diagnostics and its phase counts (none on
        row 0; after it the method's, ``extra`` and a carried refill's),
        and send its ``state`` event."""
        # rows hold plain floats; numpy scalars repr differently and would
        # leak into summaries
        natural = float(natural)
        if not np.isfinite(natural):
            raise FloatingPointError("non-finite natural residual norm")
        rnorm_true = None
        if self._monitor:
            rnorm_true = norm2(self._b - self._A.apply(x))
            if not np.isfinite(rnorm_true):
                raise FloatingPointError("non-finite true residual norm")
        relerr = None
        if self._x_true is not None and self._x_true_norm:
            relerr = norm2(x - self._x_true) / self._x_true_norm
            if not np.isfinite(relerr):
                raise FloatingPointError("non-finite relative error")
        counts = ((self._blocking + extra + self._carried, self._overlapped, self._tags)
                  if i else (0, 0, NO_TAGS))
        self._carried = False
        self.trace.append(TraceRow(i, natural, rnorm_true, relerr, nu_used, *counts,
                                   breakdown, restarted))
        # a reference, not a copy: no step writes into the array of the
        # last logged iterate
        self.last_x = x
        self.observe("state", i, x=x, **state)

    def observe(self, event: str, i: int, **payload) -> None:
        if self._observer is not None:
            self._observer(event, i, {k: (v.copy() if isinstance(v, np.ndarray) else v)
                                      for k, v in payload.items()})
