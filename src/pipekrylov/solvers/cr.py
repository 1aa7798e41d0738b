"""Conjugate residual variants that minimize the true residual norm.

All four methods keep the residual 2-norm as the natural norm and update
its square through the identity |r_new|^2 = |r|^2 - gamma^2 / eta, where
gamma couples the residual to the new operator-image direction and eta is
that image's squared norm.  Loss of positivity in either quantity signals
a recurrence breakdown and triggers a restart.

* ``gcr``: explicit conjugation window with a fresh operator application
  per direction, two blocking phases.
* ``pcr``: short two-term recurrence (symmetric operators), two blocking
  phases with one dot product each.
* ``pipegcr``: window variant with recurred direction images; its single
  reduction phase overlaps the preconditioner and local vector work, the
  operator application stays blocking.
* ``pipegcr_w``: additionally recurs the operator image of the working
  vector, so the operator application overlaps as well.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ..linalg import dot, norm2
from .common import (
    NO_TAGS,
    DirectionWindow,
    Driver,
    accepted_row,
    positive,
    stabilized_m_update,
)

PIPEGCR_TAGS = frozenset({"pc", "local"})
PIPEGCR_W_TAGS = frozenset({"pc", "spmv", "local"})


def _reduced(nat2: float, gamma: float, eta: float):
    """|r_new|^2 = |r|^2 - gamma^2/eta, or None once the identity fails."""
    nat2_new = nat2 - gamma * gamma / eta
    return nat2_new if nat2_new >= 0.0 and math.isfinite(nat2_new) else None


def _gcr(cfg, A, B, b, x0, rec):
    win = DirectionWindow(cfg, 2, len(b))
    r = nat2 = None

    def refill(x):
        nonlocal r, nat2
        r = b - A.apply(x)
        natural = norm2(r)
        nat2 = natural * natural
        win.clear()
        return natural, True, {"r": r}

    def step(x):
        nonlocal r, nat2
        u = B.apply(r)
        w = A.apply(u)
        betas = win.betas(w)                    # blocking phase 1
        p = win.combine(betas, u)[0]
        s = A.apply(p)
        gamma = dot(r, s)
        eta = dot(s, s)                         # blocking phase 2
        if not positive(eta):
            return x, None
        alpha = gamma / eta
        x = x + alpha * p
        r = r - alpha * s
        nat2_new = _reduced(nat2, gamma, eta)
        if nat2_new is None:
            return x, None
        nat2 = nat2_new
        win.push(p, s, eta)
        return x, accepted_row(nat2, len(betas), r, u, p, s, eta)

    return Driver(cfg, rec, 2, 0, NO_TAGS).run(x0.copy(), refill, step)


def _pcr(cfg, A, B, b, x0, rec):
    r = p = s = nat2 = gamma_prev = fresh = None

    def refill(x):
        nonlocal r, p, s, nat2, fresh
        r = b - A.apply(x)
        natural = norm2(r)
        nat2 = natural * natural
        p, s = np.zeros_like(b), np.zeros_like(b)
        fresh = True
        return natural, True, {"r": r}

    def step(x):
        nonlocal r, p, s, nat2, gamma_prev, fresh
        u = B.apply(r)
        w = A.apply(u)
        gamma = dot(r, w)                       # blocking phase 1
        if not (math.isfinite(gamma) and gamma != 0.0):
            return x, None
        beta = 0.0 if fresh else gamma / gamma_prev
        p = u + beta * p
        s = w + beta * s
        eta = dot(s, s)                         # blocking phase 2
        if not positive(eta):
            return x, None
        alpha = gamma / eta
        x = x + alpha * p
        r = r - alpha * s
        nat2_new = _reduced(nat2, gamma, eta)
        if nat2_new is None:
            return x, None
        nat2 = nat2_new
        gamma_prev = gamma
        nu, fresh = 0 if fresh else 1, False
        return x, accepted_row(nat2, nu, r, u, p, s, eta)

    return Driver(cfg, rec, 2, 0, NO_TAGS).run(x0.copy(), refill, step)


def _pipegcr(cfg, A, B, b, x0, rec, recur_w):
    win = DirectionWindow(cfg, 4 if recur_w else 3, len(b))
    r = ut = w = nat2 = None

    def refill(x):
        nonlocal r, ut, w, nat2
        r = b - A.apply(x)
        ut = B.apply(r)
        w = A.apply(ut)
        natural = norm2(r)
        nat2 = natural * natural
        win.clear()
        return natural, True, {"r": r, "u": ut}

    def step(x):
        nonlocal r, ut, w, nat2
        gamma = dot(r, w)
        delta = dot(w, w)
        betas = win.betas(w)                    # overlappable phase
        m, _ = stabilized_m_update(B, ut, w, r, cfg.theta_mode)
        if m is None:
            return x, (0.0, len(betas), {"r": r, "u": ut})
        heads = (ut, w, m, A.apply(m)) if recur_w else (ut, w, m)
        dirs = win.combine(betas, *heads)
        p, s, q = dirs[:3]
        eta = delta - win.energy(betas)
        if not positive(eta):
            return x, None
        alpha = gamma / eta
        x = x + alpha * p
        r = r - alpha * s
        ut = ut - alpha * q
        nat2_new = _reduced(nat2, gamma, eta)
        if nat2_new is None:
            return x, None
        nat2 = nat2_new
        # pipegcr_w recurs the operator image; pipegcr applies the operator,
        # the one application its reduction does not overlap
        w = w - alpha * dirs[3] if recur_w else A.apply(ut)
        win.push(*dirs, eta)
        return x, accepted_row(nat2, len(betas), r, ut, p, s, eta)

    blocking = 1 if cfg.theta_mode == "exact" else 0
    tags = PIPEGCR_W_TAGS if recur_w else PIPEGCR_TAGS
    return Driver(cfg, rec, blocking, 1, tags).run(x0.copy(), refill, step)


DRIVERS = {
    "gcr": _gcr,
    "pcr": _pcr,
    "pipegcr": partial(_pipegcr, recur_w=False),
    "pipegcr_w": partial(_pipegcr, recur_w=True),
}
