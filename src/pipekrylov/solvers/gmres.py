"""Flexible minimal-residual variants with restart cycles.

Each cycle builds an orthonormal residual basis V, the flexible
(preconditioned) images U and their operator images AU = A·U, and a
least-squares system solved through Givens rotations; the natural residual
norm is the magnitude of the rotated right-hand-side tail.  The iterate is
materialized from U at every iteration so the trace can monitor the true
residual.  The three variants share one cycle and differ only in their
reductions: column k projects z = AU[k-1] - sigma*V[k-1] onto V.

* ``fgmres``: classical Gram-Schmidt (sigma = 0); the batched projection
  dots and the norm of the reduced column form two blocking phases.
* ``cgfgmres``: the projection and the squared norm of z batch into one
  blocking phase, with the new column norm obtained from a Pythagorean
  identity; the shift sigma keeps that identity well conditioned.
* ``pipefgmres``: the same fused reduction made overlappable by recurring
  U and AU from images computed one iteration ahead.

A failed identity or a vanished rotated column ends the cycle early: the
iterate is finalized, the residual refilled, and the cycle restarts.
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


def _gmres(cfg, A, B, b, x0, rec, fused, pipelined):
    if pipelined:
        drv = Driver(cfg, rec, 0, 1, PIPEFGMRES_TAGS)
    else:
        drv = Driver(cfg, rec, 1 if fused else 2, 0, NO_TAGS)
    sigma = cfg.sigma if fused else 0.0
    mlen = cfg.restart_len
    x = x0.copy()
    r = b - A.apply(x)
    beta = norm2(r)
    done = drv.start(x, beta, True, {"r": r})
    i = 0
    while done is None:
        V = [r / beta]
        U = [B.apply(V[0])]
        AU = [A.apply(U[0])]
        z = AU[0] - sigma * V[0]
        if pipelined:
            QB = [B.apply(z)]
            WB = [A.apply(QB[0])]
        ls = _LeastSquares(mlen, beta)
        x_cycle = x
        rec.observe("basis", i, v=V[0])
        k = 0
        while k < mlen:
            if i >= cfg.max_it:
                return x, False, i, "max_it"
            k += 1
            i += 1
            hb = np.array([dot(vj, z) for vj in V])   # reduction phase 1
            coeffs = [-float(hj) for hj in hb]
            if fused:
                t = dot(z, z) - float(hb @ hb)      # batched into phase 1
                failed = not (t >= 0.0 and math.isfinite(t))
                hsub = 0.0 if failed else math.sqrt(t)
            else:
                zbar = maxpy(z, coeffs, V)
                hsub = norm2(zbar)                  # blocking phase 2
                failed = False
            d = 0.0
            if not failed:
                col = np.append(hb, hsub)
                col[k - 1] += sigma
                d = ls.rotate(col, k)
                if not math.isfinite(d):
                    return x, False, i, UNRECOVERABLE
            if failed or d == 0.0:
                # the Pythagorean identity lost positivity, or the rotated
                # column vanished: finalize the subspace solution, refill
                # the residual, and restart the cycle from it
                x = ls.iterate(x_cycle, U, k - 1)
                r = b - A.apply(x)
                beta = norm2(r)
                done = drv.recover(i, x, beta, True, {"r": r}, nu=k,
                                   breakdown=failed)
                break
            natural = ls.append(col, k, d)
            x = ls.iterate(x_cycle, U, k)
            done = drv.accept(i, x, natural, k, {})
            if done:
                return done
            if k == mlen:
                continue                # the cycle is full: refill below
            if fused:
                zbar = maxpy(z, coeffs, V)
            V.append(zbar / hsub)
            rec.observe("basis", i, v=V[-1])
            if pipelined:
                U.append(maxpy(QB[k - 1], coeffs, U) / hsub)
                AU.append(maxpy(WB[k - 1], coeffs, AU) / hsub)
            else:
                U.append(B.apply(V[-1]))
                AU.append(A.apply(U[-1]))
            z = AU[-1] - sigma * V[-1]
            if pipelined:
                QB.append(B.apply(z))
                WB.append(A.apply(QB[-1]))
        else:
            # a full cycle: its residual refill is carried by the next
            # cycle's first row; an exact or non-finite refill ends the run
            r = b - A.apply(x)
            beta = norm2(r)
            drv.cycle_restart = True
            if not math.isfinite(beta):
                return x, False, i, UNRECOVERABLE
            if beta == 0.0:
                return x, True, i, drv.ctl.converged_reason
    return done


DRIVERS = {
    "fgmres": partial(_gmres, fused=False, pipelined=False),
    "cgfgmres": partial(_gmres, fused=True, pipelined=False),
    "pipefgmres": partial(_gmres, fused=True, pipelined=True),
}
