"""Flexible conjugate gradient variants, one driver for the family.

Each iteration builds a new search direction from the current
preconditioned residual and explicitly conjugates it against a window of
retained directions.  The flexible coupling scalar gamma = <u, r> defines
the natural residual norm sqrt(gamma); it must stay positive, otherwise
the run restarts from a recomputed residual.  Two switches give the
variants, as in the CG family:

* ``fcg``: fresh operator application per direction, two blocking phases.
* ``cgfcg`` (``fused``): recurred operator images and a Pythagorean
  identity for the direction energy, one batched blocking phase.
* ``pipefcg`` (``pipelined``): also recurs the auxiliary pair m = B(w),
  n = A(m), m from the stabilized update of ``cfg.theta_mode``, so the
  one phase overlaps the preconditioner, the operator application and
  local vector work.
* ``pipefcg_naive`` (``naive``): the pipelined loop with m = B(w) and
  natural norm sqrt(|gamma|).  It never resynchronizes: a sign failure
  flushes the window on a flagged row and a non-finite scalar ends the
  run, so preconditioner noise accumulates and convergence stalls near
  the noise level, the stagnation the stabilized update removes.
"""

from __future__ import annotations

import math
from functools import partial

from ..linalg import dot
from .common import (
    NO_TAGS,
    DirectionWindow,
    Driver,
    accepted_row,
    natural_norm,
    positive,
    stabilized_m_update,
)

PIPEFCG_TAGS = frozenset({"pc", "spmv", "local"})


def _fcg(cfg, A, B, b, x0, rec, fused, pipelined, naive=False):
    win = DirectionWindow(cfg, 4 if pipelined else 2, len(b))
    theta_mode = "zero" if naive else cfg.theta_mode
    r = u = w = m = n = gamma = delta = None

    def refill(x):
        nonlocal r, u, w, m, n, gamma, delta
        if naive and gamma is not None:
            # the naive variant never resynchronizes: a non-finite scalar
            # ends the run
            return math.nan, False, {}
        r = b - A.apply(x)
        u = B.apply(r)
        gamma = dot(u, r)
        if fused:
            w = A.apply(u)
            delta = dot(u, w)
        if pipelined:
            m = B.apply(w)
            n = A.apply(m)
        win.clear()
        return natural_norm(gamma, r), positive(gamma), {"r": r, "u": u}

    def step(x):
        nonlocal r, u, w, m, n, gamma, delta
        betas = win.betas(u)
        nu = len(betas)
        if pipelined:
            p, s, q, z = win.combine(betas, u, w, m, n)
        elif fused:
            p, s = win.combine(betas, u, w)
        else:
            p = win.combine(betas, u)[0]
            s = A.apply(p)
        eta = delta - win.energy(betas) if fused else dot(p, s)  # fcg: phase 1
        if naive and eta == 0.0:
            # flush the window on a row flagged breakdown and restarted
            win.clear()
            return x, (math.sqrt(abs(gamma)), nu, {"r": r, "u": u}, None, True, True)
        if not (math.isfinite(eta) if naive else positive(eta)):
            return x, None
        alpha = gamma / eta
        x = x + alpha * p
        r = r - alpha * s
        if pipelined:
            u = u - alpha * q
            w = w - alpha * z
            win.push(p, s, q, z, eta)
        else:
            win.push(p, s, eta)
            u = B.apply(r)
            if fused:
                w = A.apply(u)
        gamma = dot(u, r)                       # the last (fcg) or only phase
        if fused:
            delta = dot(u, w)                   # pipelined, hidden by:
        if pipelined:
            m, _ = stabilized_m_update(B, u, w, r, theta_mode)
            if m is None:
                # exact weighting undefined because the residual vanished
                return x, (0.0, nu, {"r": r, "u": u})
            n = A.apply(m)
        if naive:
            if not (math.isfinite(gamma) and math.isfinite(delta)):
                return x, None
            flush = gamma <= 0.0 or eta < 0.0
            if flush:
                win.clear()
            return x, accepted_row(abs(gamma), nu, r, u, p, s, eta) + (flush, flush)
        if not positive(gamma):
            return x, None
        return x, accepted_row(gamma, nu, r, u, p, s, eta)

    if pipelined:
        blocking = 1 if theta_mode == "exact" else 0
        drv = Driver(cfg, rec, blocking, 1, PIPEFCG_TAGS)
    else:
        drv = Driver(cfg, rec, 1 if fused else 2, 0, NO_TAGS)
    return drv.run(x0.copy(), refill, step)


DRIVERS = {
    "fcg": partial(_fcg, fused=False, pipelined=False),
    "cgfcg": partial(_fcg, fused=True, pipelined=False),
    "pipefcg_naive": partial(_fcg, fused=True, pipelined=True, naive=True),
    "pipefcg": partial(_fcg, fused=True, pipelined=True),
}
