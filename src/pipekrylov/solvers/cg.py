"""Non-flexible conjugate gradient variants, one driver for the family.

All three methods assume a symmetric positive definite operator and log
the natural residual norm sqrt(<B(r), r>).  They are one loop with two
switches, the paper's two transformations of the standard method:

* ``pcg``: the step length comes from a fresh operator image of the
  direction; its dot product and the one for the new residual form two
  blocking phases.
* ``cgcg`` (``fused``): the direction image s = A p is recurred from
  w = A u, and the step length from the recurrence
  alpha = gamma / (delta - beta * gamma / alpha_prev), so both dot
  products batch into one blocking phase.
* ``pipecg`` (``pipelined``): also recurs m = B(w) and n = A(m), so that
  one phase overlaps their application in the same iteration.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ..linalg import dot
from .common import NO_TAGS, Driver, natural_norm, positive

PIPECG_TAGS = frozenset({"pc", "spmv"})


def _cg(cfg, A, B, b, x0, rec, fused, pipelined):
    r = u = w = m = n = p = s = q = z = None
    gamma = delta = alpha = beta = fresh = None

    def refill(x):
        nonlocal r, u, w, m, n, p, s, q, z, gamma, delta, alpha, beta, fresh
        r = b - A.apply(x)
        u = B.apply(r)
        gamma = dot(r, u)
        ok = positive(gamma)
        if fused:
            w = A.apply(u)
            delta = dot(w, u)
            if pipelined:
                m = B.apply(w)
                n = A.apply(m)
            ok = ok and positive(delta)
            if ok:
                alpha = gamma / delta
        beta, fresh = 0.0, True
        p, s, q, z = (np.zeros_like(b) for _ in range(4))
        return natural_norm(gamma, r), ok, {"r": r, "u": u}

    def step(x):
        nonlocal r, u, w, m, n, p, s, q, z, gamma, delta, alpha, beta, fresh
        p = u + beta * p
        if fused:
            s = w + beta * s
        else:
            s = A.apply(p)
            delta = dot(s, p)                   # blocking phase 1
            if not positive(delta):
                return x, None
            alpha = gamma / delta
        x = x + alpha * p
        r = r - alpha * s
        if pipelined:
            q = m + beta * q
            z = n + beta * z
            u = u - alpha * q
            w = w - alpha * z
        else:
            u = B.apply(r)
            if fused:
                w = A.apply(u)
        gamma_new = dot(r, u)                   # the last (pcg) or only phase
        if fused:
            delta = dot(w, u)                   # pipelined, hidden by:
            if pipelined:
                m = B.apply(w)
                n = A.apply(m)
        if not positive(gamma_new):
            return x, None
        beta = gamma_new / gamma
        if fused:
            denom = delta - beta * gamma_new / alpha
            if not positive(denom):
                return x, None
            alpha = gamma_new / denom
        gamma = gamma_new
        nu, fresh = 0 if fresh else 1, False
        return x, (math.sqrt(gamma), nu, {"r": r, "u": u, "p": p})

    if pipelined:
        drv = Driver(cfg, rec, 0, 1, PIPECG_TAGS)
    else:
        drv = Driver(cfg, rec, 1 if fused else 2, 0, NO_TAGS)
    return drv.run(x0.copy(), refill, step)


DRIVERS = {
    "pcg": partial(_cg, fused=False, pipelined=False),
    "cgcg": partial(_cg, fused=True, pipelined=False),
    "pipecg": partial(_cg, fused=True, pipelined=True),
}
