"""Flexible minimal-residual variants with restart cycles.

Each cycle builds an orthonormal residual basis V, the flexible
(preconditioned) images U, and a least-squares system solved through
Givens rotations; the natural residual norm is the magnitude of the
rotated right-hand-side tail.  Row k of one (restart_len, 2|3, n) block,
allocated once per solve, holds V[k] and U[k] side by side; column k
projects z = A·U[k-1] - sigma*V[k-1] onto V in one stacked product, and
each update is one product with the block.  Each step of the shared loop
adds one column; the row that fills the cycle asks the loop to refill
after it.  The iterate x_cycle + U y is kept lazily, and the loop forms it
only where it is read: on every row that a reader (monitoring, ``x_true``
or an observer) reads, and otherwise only before a refill and on exit.

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
  identity; the shift sigma keeps that identity well conditioned.  On
  the first column of a cycle a remainder <z, z> - |h|^2 below
  ``ROUNDED_REMAINDER``·eps·<z, z> is rounding, of either sign: z lies
  along V[0], as for b on the identity.  A failed identity could not
  progress there (the iterate of no accepted column is the cycle's
  start), so that column takes the reduced column's norm, as ``fgmres``
  does, in one more blocking phase.  It is built from fresh products in
  all three variants, so its rotated norm is the true one.
* ``pipefgmres``: the same fused reduction made overlappable by recurring
  U and A·U (the third column) one iteration ahead: one product over the
  rows before k gives row k.  The others keep only the newest A·U[k-1].

A failed identity or a vanished rotated column ends the cycle early: the
iterate is formed, the residual refilled, and the cycle restarts; a
non-finite column ends the run.
"""

from __future__ import annotations

import math

import numpy as np

from ..linalg import blocks, dot, maxpy, mdot, norm2, stacked_maxpy
from .common import estimate_sigma

EPS = float(np.finfo(np.float64).eps)
# a remainder <z, z> - |h|^2 below this many eps·<z, z> is rounding: the
# rounding of the two reductions is a few eps·<z, z>
ROUNDED_REMAINDER = 64


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


def driver(cfg, A, B, b, x0, rec, fused, pipelined, seed):
    sigma = cfg.sigma if fused else 0.0
    if fused and cfg.sigma_auto_power:
        # before the first cycle applies B, so a noisy B's draws go here first
        sigma = estimate_sigma(A, B, cfg.sigma_auto_power, seed)[0]
    mlen = cfg.restart_len
    cycle = blocks(mlen, 3 if pipelined else 2, b.shape[0])
    V, U = cycle[:, 0], cycle[:, 1]
    x_cycle = r = beta = ls = au = z = qb = wb = coeffs = zbar = None
    k = i = 0       # the cycle's accepted columns; the last row's index
    hsub = d = 0.0  # the last column's subdiagonal entry and rotated length

    def refill(x):
        """Start a new cycle from x; a non-finite column ends the run."""
        nonlocal x_cycle, k, r, beta, ls
        x_cycle, k = x, 0
        if not math.isfinite(d):
            return math.nan, False, {}
        r = b - A.apply(x)
        beta = norm2(r)
        ls = _LeastSquares(mlen, beta)
        return beta, True, {"r": r}

    def step(x):
        nonlocal k, i, au, z, qb, wb, coeffs, zbar, hsub, d
        # the basis vector V[k]: the refilled residual opens a cycle, later
        # ones come from the last accepted column
        if k == 0:
            V[0] = r / beta
        elif pipelined:
            stacked_maxpy((z, qb, wb), coeffs, cycle[:k], out=cycle[k])
            cycle[k] /= hsub
            au = cycle[k, 2]
        else:
            V[k] = (maxpy(z, coeffs, V[:k]) if fused else zbar) / hsub
        rec.observe("basis", i, v=V[k])
        i += 1
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
        j = k + 1
        hb = mdot(V[:j], z)                     # reduction phase 1
        coeffs = -hb
        explicit = not fused
        if fused:
            zz = dot(z, z)                      # batched into phase 1
            t = zz - float(hb @ hb)
            # a first column whose remainder is rounding (see above)
            explicit = k == 0 and t < ROUNDED_REMAINDER * EPS * zz
        failed = not (explicit or t >= 0.0 and math.isfinite(t))
        if explicit:
            zbar = maxpy(z, coeffs, V[:j])
            hsub = norm2(zbar)                  # blocking phase 2
        else:
            hsub = 0.0 if failed else math.sqrt(t)
        d = 0.0
        if not failed:
            col = hb.tolist()
            col.append(hsub)
            col[k] += sigma
            d = ls.rotate(col, j)
        if not 0.0 < d < math.inf:
            # the Pythagorean identity lost positivity, or the rotated
            # column vanished or is not finite: the run restarts from the
            # iterate of the accepted columns
            return x, {"nu": j, "breakdown": failed}
        natural = ls.append(col, j, d)
        k = j
        # a fused method's explicit norm is one more blocking phase
        return x, (natural, k, {}, None, False, False, k == mlen, explicit and fused)

    # the iterate of the cycle's accepted columns, formed where it is read
    return rec.run(x0, refill, step, lambda x: ls.iterate(x_cycle, U, k))
