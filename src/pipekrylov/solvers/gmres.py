"""Flexible minimal-residual variants with restart cycles.

Each cycle builds an orthonormal residual basis, a set of flexible
(preconditioned) images, and a least-squares system solved through Givens
rotations; the natural residual norm is the magnitude of the rotated
right-hand-side tail.  The iterate is materialized from the flexible
images at every iteration so the trace can monitor the true residual.

* ``fgmres``: classical Gram-Schmidt with a fresh operator application
  per column; the batched projection dots and the new-column norm form
  two blocking phases.
* ``cgfgmres``: shifted-image recurrence; projection coefficients and
  the squared column norm batch into one blocking phase, with the new
  column norm obtained from a Pythagorean identity.  A negative identity
  value signals breakdown and triggers a cycle restart.
* ``pipefgmres``: same fused reduction made overlappable by recurring
  the basis extension from images computed one iteration ahead.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy.linalg import solve_triangular

from ..linalg import dot, maxpy, norm2
from .common import NO_TAGS, UNRECOVERABLE, Driver

PIPEFGMRES_TAGS = frozenset({"pc", "spmv"})


class _LeastSquares:
    """The cycle's Hessenberg system in Givens-rotated triangular form."""

    def __init__(self, mlen: int, beta: float):
        self.R = np.zeros((mlen + 1, mlen))
        self.g = np.zeros(mlen + 1)
        self.g[0] = beta
        self.cs = np.zeros(mlen)
        self.sn = np.zeros(mlen)

    def rotate(self, col: np.ndarray, k: int) -> float:
        """Apply the previous rotations to column k; returns the length d
        that the new rotation folds into the diagonal."""
        cs, sn = self.cs, self.sn
        for j in range(k - 1):
            t = cs[j] * col[j] + sn[j] * col[j + 1]
            col[j + 1] = -sn[j] * col[j] + cs[j] * col[j + 1]
            col[j] = t
        return math.hypot(col[k - 1], col[k])

    def append(self, col: np.ndarray, k: int, d: float) -> float:
        """Store rotated column k (d > 0); returns the new natural norm."""
        cs, sn, g = self.cs, self.sn, self.g
        cs[k - 1] = col[k - 1] / d
        sn[k - 1] = col[k] / d
        col[k - 1] = d
        col[k] = 0.0
        self.R[: k + 1, k - 1] = col
        g[k] = -sn[k - 1] * g[k - 1]
        g[k - 1] = cs[k - 1] * g[k - 1]
        return abs(g[k])

    def iterate(self, x_cycle: np.ndarray, U: list, k: int) -> np.ndarray:
        if k == 0:
            return x_cycle.copy()
        y = solve_triangular(self.R[:k, :k], self.g[:k], lower=False)
        return maxpy(x_cycle, [float(yj) for yj in y], U[:k])


def _new_cycle(drv: Driver, i: int, x, r, beta):
    """Row 0 for the first cycle.  A later cycle's residual refill is
    carried by its first row; a refill that is already exact or
    non-finite ends the run without a row."""
    if drv.ctl is None:
        return drv.start(x, beta, True, {"r": r})
    drv.cycle_restart = True
    if not math.isfinite(beta):
        return x, False, i, UNRECOVERABLE
    if beta == 0.0:
        return x, True, i, drv.ctl.converged_reason
    return None


def _fgmres(cfg, A, B, b, x0, rec):
    drv = Driver(cfg, rec, 2, 0, NO_TAGS)
    x = x0.copy()
    mlen = cfg.restart_len
    i = 0
    while True:
        r = b - A.apply(x)
        beta = norm2(r)
        done = _new_cycle(drv, i, x, r, beta)
        if done:
            return done
        V = [r / beta]
        U: list[np.ndarray] = []
        ls = _LeastSquares(mlen, beta)
        x_cycle = x.copy()
        rec.observe("basis", i, v=V[0])
        k = 0
        while k < mlen:
            if i >= cfg.max_it:
                return x, False, i, "max_it"
            k += 1
            i += 1
            u = B.apply(V[k - 1])
            zu = A.apply(u)
            U.append(u)
            hcol = np.array([dot(zu, vj) for vj in V])  # blocking phase 1
            zbar = maxpy(zu, [-float(hj) for hj in hcol], V)
            hsub = norm2(zbar)                          # blocking phase 2
            col = np.append(hcol, hsub)
            d = ls.rotate(col, k)
            if not math.isfinite(d):
                return x, False, i, UNRECOVERABLE
            if d == 0.0:
                # the new column vanished; finalize this cycle and restart
                x = ls.iterate(x_cycle, U, k - 1)
                done = drv.accept(i, x, abs(ls.g[k - 1]), k, {})
                break
            natural = ls.append(col, k, d)
            x = ls.iterate(x_cycle, U, k)
            done = drv.accept(i, x, natural, k, {})
            if done or hsub == 0.0:
                break
            V.append(zbar / hsub)
            rec.observe("basis", i, v=V[-1])
        if done:
            return done


def _shifted(cfg, A, B, b, x0, rec, pipelined):
    if pipelined:
        drv = Driver(cfg, rec, 0, 1, PIPEFGMRES_TAGS)
    else:
        drv = Driver(cfg, rec, 1, 0, NO_TAGS)
    x = x0.copy()
    mlen = cfg.restart_len
    sigma = cfg.sigma
    i = 0
    prefetched = None
    while True:
        if prefetched is None:
            r = b - A.apply(x)
            beta = norm2(r)
            done = _new_cycle(drv, i, x, r, beta)
            if done:
                return done
        else:
            r, beta = prefetched
            prefetched = None
        V = [r / beta]
        u = B.apply(V[0])
        U = [u]
        ZB = [A.apply(u) - sigma * V[0]]
        QB: list[np.ndarray] = []
        WB: list[np.ndarray] = []
        if pipelined:
            QB.append(B.apply(ZB[0]))
            WB.append(A.apply(QB[0]))
        ls = _LeastSquares(mlen, beta)
        x_cycle = x.copy()
        rec.observe("basis", i, v=V[0])
        k = 0
        while k < mlen:
            if i >= cfg.max_it:
                return x, False, i, "max_it"
            k += 1
            i += 1
            zprev = ZB[k - 1]
            hb = np.array([dot(vj, zprev) for vj in V])
            zeta = dot(zprev, zprev)                # batched into the same phase
            t = zeta - float(hb @ hb)
            failed = not (t >= 0.0 and math.isfinite(t))
            d = 0.0
            if not failed:
                hsub = math.sqrt(t)
                col = np.append(hb, hsub)
                col[k - 1] += sigma
                d = ls.rotate(col, k)
                if not math.isfinite(d):
                    return x, False, i, UNRECOVERABLE
            if failed or d == 0.0:
                # Pythagorean identity lost positivity, or the rotated
                # column vanished: finalize the subspace solution, refresh
                # the residual, and restart the cycle.
                x = ls.iterate(x_cycle, U, k - 1)
                r = b - A.apply(x)
                beta = norm2(r)
                done = drv.recover(i, x, beta, True, {"r": r}, nu=k,
                                   breakdown=failed)
                if done:
                    return done
                prefetched = (r, beta)
                break
            natural = ls.append(col, k, d)
            x = ls.iterate(x_cycle, U, k)
            done = drv.accept(i, x, natural, k, {})
            if done:
                return done
            if hsub == 0.0:
                break
            if k < mlen:
                v = maxpy(zprev, [-float(hj) for hj in hb], V) / hsub
                V.append(v)
                rec.observe("basis", i, v=v)
                if pipelined:
                    unew = maxpy(QB[k - 1], [-float(hj) for hj in hb], U) / hsub
                    U.append(unew)
                    shifted_prev = [ZB[j] + sigma * V[j] for j in range(k)]
                    znew = maxpy(WB[k - 1], [-float(hj) for hj in hb], shifted_prev)
                    znew = znew / hsub - sigma * v
                    ZB.append(znew)
                    QB.append(B.apply(znew))
                    WB.append(A.apply(QB[-1]))
                else:
                    unew = B.apply(v)
                    U.append(unew)
                    ZB.append(A.apply(unew) - sigma * v)


DRIVERS = {
    "fgmres": _fgmres,
    "cgfgmres": partial(_shifted, pipelined=False),
    "pipefgmres": partial(_shifted, pipelined=True),
}
