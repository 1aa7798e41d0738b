"""Non-flexible conjugate gradient variants.

All three methods assume a symmetric positive definite operator and log
the natural residual norm sqrt(<B(r), r>).  The standard method uses two
blocking reduction phases per iteration; the fused-recurrence variant
batches both dot products into one phase; the pipelined variant makes
that single phase overlappable with the preconditioner and operator
application of the same iteration.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ..linalg import dot
from .common import NO_TAGS, Driver, natural_norm, positive

PIPECG_TAGS = frozenset({"pc", "spmv"})


def _pcg(cfg, A, B, b, x0, rec):
    r = u = gamma = beta = fresh = None
    p = np.zeros_like(b)

    def refill(x):
        nonlocal r, u, gamma, beta, fresh
        r = b - A.apply(x)
        u = B.apply(r)
        gamma = dot(u, r)
        beta, fresh = 0.0, True
        return natural_norm(gamma, r), positive(gamma), {"r": r, "u": u}

    def step(x):
        nonlocal p, r, u, gamma, beta, fresh
        p = u + beta * p
        s = A.apply(p)
        delta = dot(s, p)                       # blocking phase 1
        if not positive(delta):
            return x, None
        alpha = gamma / delta
        x = x + alpha * p
        r = r - alpha * s
        u = B.apply(r)
        gamma_new = dot(u, r)                   # blocking phase 2
        if not positive(gamma_new):
            return x, None
        beta = gamma_new / gamma
        gamma = gamma_new
        nu, fresh = 0 if fresh else 1, False
        return x, (math.sqrt(gamma), nu, {"r": r, "u": u, "p": p})

    return Driver(cfg, rec, 2, 0, NO_TAGS).run(x0.copy(), refill, step)


def _cgcg(cfg, A, B, b, x0, rec, pipelined):
    """Fused-recurrence CG; pipelined, it also recurs m = B(w) and
    n = A(m), so its one reduction phase overlaps their application."""
    r = u = w = m = n = p = s = q = z = None
    gamma = delta = alpha = beta = fresh = None

    def refill(x):
        nonlocal r, u, w, m, n, p, s, q, z, gamma, delta, alpha, beta, fresh
        r = b - A.apply(x)
        u = B.apply(r)
        w = A.apply(u)
        gamma = dot(r, u)
        delta = dot(w, u)
        if pipelined:
            m = B.apply(w)
            n = A.apply(m)
        ok = positive(gamma) and positive(delta)
        if ok:
            alpha = gamma / delta
        beta, fresh = 0.0, True
        p, s, q, z = (np.zeros_like(b) for _ in range(4))
        return natural_norm(gamma, r), ok, {"r": r, "u": u}

    def step(x):
        nonlocal r, u, w, m, n, p, s, q, z, gamma, delta, alpha, beta, fresh
        p = u + beta * p
        s = w + beta * s
        x = x + alpha * p
        r = r - alpha * s
        if pipelined:
            q = m + beta * q
            z = n + beta * z
            u = u - alpha * q
            w = w - alpha * z
        else:
            u = B.apply(r)
            w = A.apply(u)
        gamma_new = dot(r, u)
        delta = dot(w, u)                       # the one phase; pipelined, hidden by:
        if pipelined:
            m = B.apply(w)
            n = A.apply(m)
        if not positive(gamma_new):
            return x, None
        beta = gamma_new / gamma
        denom = delta - beta * gamma_new / alpha
        if not positive(denom):
            return x, None
        alpha = gamma_new / denom
        gamma = gamma_new
        nu, fresh = 0 if fresh else 1, False
        return x, (math.sqrt(gamma), nu, {"r": r, "u": u, "p": p})

    if pipelined:
        return Driver(cfg, rec, 0, 1, PIPECG_TAGS).run(x0.copy(), refill, step)
    return Driver(cfg, rec, 1, 0, NO_TAGS).run(x0.copy(), refill, step)


DRIVERS = {
    "pcg": _pcg,
    "cgcg": partial(_cgcg, pipelined=False),
    "pipecg": partial(_cgcg, pipelined=True),
}
