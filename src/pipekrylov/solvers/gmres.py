"""Flexible minimal-residual variants with restart cycles.

Each cycle builds an orthonormal residual basis V, the flexible
(preconditioned) images U, and a least-squares system solved through
Givens rotations; the natural residual norm is the magnitude of the
rotated right-hand-side tail.  Row k of one (restart_len, 2|3, n) block,
allocated once per solve, holds V[k] and U[k] side by side; column k
projects z = A·U[k-1] - sigma*V[k-1] onto V in one stacked product, and
each update is one product with the block.  The iterate x_cycle + U y is
formed only where it is read: on every row when the recorder reads it,
at the end of a full cycle, on a breakdown and on every exit.

With sigma = 0 (always for ``fgmres``, by default for the other two) the
column takes z = A·U[k-1] itself, with no shift pass.  That is bitwise
equal to subtracting 0·V[k-1]: x - (±0) differs from x only for x = -0,
and A·U[k-1] never holds -0.  It is an SpMV output, summed from +0, or in
``pipefgmres`` a recurred row whose last addend is an SpMV output, divided
by the positive column norm, which gives -0 only by underflowing past the
smallest subnormal.  On a non-finite V[k-1], 0·inf would put a NaN where z
keeps a finite entry.  The Givens rotations run on Python floats, the same
IEEE operations as on numpy scalars at a fraction of the call cost; so does
the back substitution of the triangular system, of order <= restart_len.

* ``fgmres``: classical Gram-Schmidt (sigma = 0); the batched projection
  dots and the norm of the reduced column form two blocking phases.
* ``cgfgmres``: the projection and the squared norm of z batch into one
  blocking phase, with the new column norm obtained from a Pythagorean
  identity; the shift sigma keeps that identity well conditioned.
* ``pipefgmres``: the same fused reduction made overlappable by recurring
  U and A·U (the third column) one iteration ahead: one product over the
  rows before k gives row k.  The others keep only the newest A·U[k-1].

A failed identity or a vanished rotated column ends the cycle early: the
iterate is finalized, the residual refilled, and the cycle restarts.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ..linalg import blocks, dot, maxpy, mdot, norm2, stacked_maxpy
from .common import NO_TAGS, UNRECOVERABLE, Driver

PIPEFGMRES_TAGS = frozenset({"pc", "spmv"})


class _LeastSquares:
    """The cycle's Hessenberg system in Givens-rotated triangular form:
    the rotated columns and right-hand side g as lists of Python floats,
    back-substituted in ``iterate``."""

    def __init__(self, mlen: int, beta: float):
        self.cols = []
        self.g = [0.0] * (mlen + 1)
        self.g[0] = beta
        self.cs = [0.0] * mlen
        self.sn = [0.0] * mlen

    def rotate(self, col: list, k: int) -> float:
        """Apply the previous rotations to column k, a list of floats, in
        place; returns the length d that the new rotation folds into the
        diagonal."""
        cs, sn = self.cs, self.sn
        for j in range(k - 1):
            t = cs[j] * col[j] + sn[j] * col[j + 1]
            col[j + 1] = -sn[j] * col[j] + cs[j] * col[j + 1]
            col[j] = t
        return math.hypot(col[k - 1], col[k])

    def append(self, col: list, k: int, d: float) -> float:
        """Store rotated column k (d > 0); returns the new natural norm."""
        cs, sn, g = self.cs, self.sn, self.g
        cs[k - 1] = col[k - 1] / d
        sn[k - 1] = col[k] / d
        col[k - 1] = d
        col[k] = 0.0
        self.cols.append(col)
        g[k] = -sn[k - 1] * g[k - 1]
        g[k - 1] = cs[k - 1] * g[k - 1]
        return abs(g[k])

    def iterate(self, x_cycle: np.ndarray, U: np.ndarray, k: int) -> np.ndarray:
        """The cycle's minimal-residual iterate over its first k columns."""
        if k == 0:
            return x_cycle
        y = self.g[:k]
        for j in range(k - 1, -1, -1):
            col = self.cols[j]
            y[j] /= col[j]
            for i in range(j):
                y[i] -= y[j] * col[i]
        return maxpy(x_cycle, y, U[:k])


def _gmres(cfg, A, B, b, x0, rec, fused, pipelined):
    if pipelined:
        drv = Driver(cfg, rec, 0, 1, PIPEFGMRES_TAGS)
    else:
        drv = Driver(cfg, rec, 1 if fused else 2, 0, NO_TAGS)
    sigma = cfg.sigma if fused else 0.0
    mlen = cfg.restart_len
    eager = rec.reads_iterate
    cycle = blocks(mlen, 3 if pipelined else 2, b.shape[0])
    V, U = cycle[:, 0], cycle[:, 1]
    x = x0.copy()
    r = b - A.apply(x)
    beta = norm2(r)
    done = drv.start(x, beta, True, {"r": r})
    i = 0
    while done is None:
        V[0] = r / beta
        ls = _LeastSquares(mlen, beta)
        x_cycle = x
        rec.observe("basis", i, v=V[0])
        k = 0
        while k < mlen:
            if i >= cfg.max_it:
                return ls.iterate(x_cycle, U, k), False, i, "max_it"
            if k == 0 or not pipelined:
                # pipefgmres recurs the images of every later column
                U[k] = B.apply(V[k])
                au = A.apply(U[k])
                if pipelined:
                    cycle[0, 2] = au
            z = au - sigma * V[k] if sigma else au
            if pipelined:
                qb = B.apply(z)
                wb = A.apply(qb)
            k += 1
            i += 1
            hb = mdot(V[:k], z)                     # reduction phase 1
            coeffs = -hb
            if fused:
                t = dot(z, z) - float(hb @ hb)      # batched into phase 1
                failed = not (t >= 0.0 and math.isfinite(t))
                hsub = 0.0 if failed else math.sqrt(t)
            else:
                zbar = maxpy(z, coeffs, V[:k])
                hsub = norm2(zbar)                  # blocking phase 2
                failed = False
            d = 0.0
            if not failed:
                col = hb.tolist()
                col.append(hsub)
                col[k - 1] += sigma
                d = ls.rotate(col, k)
                if not math.isfinite(d):
                    return ls.iterate(x_cycle, U, k - 1), False, i, UNRECOVERABLE
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
            # a row that reads no iterate logs the last one formed
            if eager:
                x = ls.iterate(x_cycle, U, k)
            done = drv.accept(i, x, natural, k, {})
            if done:
                return (ls.iterate(x_cycle, U, k),) + done[1:]
            if k == mlen:
                continue                # the cycle is full: refill below
            if pipelined:
                stacked_maxpy((z, qb, wb), coeffs, cycle[:k], out=cycle[k])
                cycle[k] /= hsub
                au = cycle[k, 2]
            else:
                V[k] = (maxpy(z, coeffs, V[:k]) if fused else zbar) / hsub
            rec.observe("basis", i, v=V[k])
        else:
            # a full cycle: its residual refill is carried by the next
            # cycle's first row; an exact or non-finite refill ends the run
            x = ls.iterate(x_cycle, U, mlen)
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
