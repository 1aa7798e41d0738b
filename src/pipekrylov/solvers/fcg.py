"""Flexible conjugate gradient variants with truncated direction windows.

Each iteration builds a new search direction from the current
preconditioned residual and explicitly conjugates it against a window of
retained directions.  The flexible coupling scalar gamma = <u, r> defines
the natural residual norm sqrt(gamma); it must stay positive, otherwise
the run restarts from a recomputed residual.

Variants differ in how the conjugation scalars are obtained:

* ``fcg``: fresh operator application per direction, two blocking phases.
* ``cgfcg``: recurred operator images and a Pythagorean identity for the
  direction energy, one batched blocking phase.
* ``pipefcg`` / ``pipefcg_naive``: recurred images plus an auxiliary
  preconditioned pair, one overlappable phase hidden behind the
  preconditioner, operator application, and local vector work.  The
  naive variant rebuilds the auxiliary vector without the stabilizing
  correction and takes its steps without the safeguard recovery, so
  inexact-preconditioner noise accumulates in the recurrences; it is
  retained to demonstrate the stagnation the stabilized update removes.
"""

from __future__ import annotations

import math

from ..linalg import dot
from .common import (
    NO_TAGS,
    UNRECOVERABLE,
    DirectionWindow,
    Driver,
    accepted_row,
    natural_norm,
    positive,
    stabilized_m_update,
)

PIPEFCG_TAGS = frozenset({"pc", "spmv", "local"})


def _fcg(cfg, A, B, b, x0, rec):
    win = DirectionWindow(cfg, 3)
    r = u = gamma = None

    def refill(x):
        nonlocal r, u, gamma
        r = b - A.apply(x)
        u = B.apply(r)
        gamma = dot(u, r)
        win.clear()
        return natural_norm(gamma, r), positive(gamma), {"r": r, "u": u}

    def step(x):
        nonlocal r, u, gamma
        betas = win.betas(u)
        p = win.combine(betas, u)[0]
        s = A.apply(p)
        eta = dot(p, s)                         # blocking phase 1
        if not positive(eta):
            return x, None
        alpha = gamma / eta
        x = x + alpha * p
        r = r - alpha * s
        win.push(p, s, eta)
        u = B.apply(r)
        gamma = dot(u, r)                       # blocking phase 2
        if not positive(gamma):
            return x, None
        return x, accepted_row(gamma, len(betas), r, u, p, s, eta)

    return Driver(cfg, rec, 2, 0, NO_TAGS).run(x0.copy(), refill, step)


def _cgfcg(cfg, A, B, b, x0, rec):
    win = DirectionWindow(cfg, 3)
    r = u = w = gamma = delta = None

    def refill(x):
        nonlocal r, u, w, gamma, delta
        r = b - A.apply(x)
        u = B.apply(r)
        w = A.apply(u)
        gamma = dot(u, r)
        delta = dot(u, w)
        win.clear()
        return natural_norm(gamma, r), positive(gamma), {"r": r, "u": u}

    def step(x):
        nonlocal r, u, w, gamma, delta
        betas = win.betas(u)
        p, s = win.combine(betas, u, w)
        eta = delta - win.energy(betas)
        if not positive(eta):
            return x, None
        alpha = gamma / eta
        x = x + alpha * p
        r = r - alpha * s
        win.push(p, s, eta)
        u = B.apply(r)
        w = A.apply(u)
        gamma = dot(u, r)
        delta = dot(u, w)                       # one batched blocking phase
        if not positive(gamma):
            return x, None
        return x, accepted_row(gamma, len(betas), r, u, p, s, eta)

    return Driver(cfg, rec, 1, 0, NO_TAGS).run(x0.copy(), refill, step)


def _pipefcg_state(A, B, b, x):
    """Residual, preconditioned pair and their images, from the iterate."""
    r = b - A.apply(x)
    u = B.apply(r)
    w = A.apply(u)
    gamma = dot(u, r)
    delta = dot(u, w)
    m = B.apply(w)
    n = A.apply(m)
    return r, u, w, m, n, gamma, delta


def _pipefcg(cfg, A, B, b, x0, rec):
    win = DirectionWindow(cfg, 5)
    r = u = w = m = n = gamma = delta = None

    def refill(x):
        nonlocal r, u, w, m, n, gamma, delta
        r, u, w, m, n, gamma, delta = _pipefcg_state(A, B, b, x)
        win.clear()
        return natural_norm(gamma, r), positive(gamma), {"r": r, "u": u}

    def step(x):
        nonlocal r, u, w, m, n, gamma, delta
        betas = win.betas(u)
        p, s, q, z = win.combine(betas, u, w, m, n)
        eta = delta - win.energy(betas)
        if not positive(eta):
            return x, None
        alpha = gamma / eta
        x = x + alpha * p
        r = r - alpha * s
        u = u - alpha * q
        w = w - alpha * z
        win.push(p, s, q, z, eta)
        gamma = dot(u, r)
        delta = dot(u, w)                       # overlappable phase, hidden by:
        m, _ = stabilized_m_update(B, u, w, r, cfg.theta_mode)
        if m is None:
            # exact weighting undefined because the residual vanished
            return x, (0.0, len(betas), {"r": r, "u": u})
        n = A.apply(m)
        if not positive(gamma):
            return x, None
        return x, accepted_row(gamma, len(betas), r, u, p, s, eta)

    blocking = 1 if cfg.theta_mode == "exact" else 0
    return Driver(cfg, rec, blocking, 1, PIPEFCG_TAGS).run(x0.copy(), refill, step)


def _pipefcg_naive(cfg, A, B, b, x0, rec):
    """Naive pipelining without the stabilizing correction.

    The auxiliary vector is rebuilt from the recurred operator image
    alone, steps are taken whatever the sign of the coupling scalars,
    and recovery only drops the conjugation window.  The recurred
    quantities are never resynchronized against the true residual; that
    correction is exactly the stabilization this variant omits, so
    preconditioner noise accumulates and convergence stalls near the
    preconditioner's noise level.
    """
    x = x0.copy()
    r, u, w, m, n, gamma, delta = _pipefcg_state(A, B, b, x)
    drv = Driver(cfg, rec, 0, 1, PIPEFCG_TAGS)
    done = drv.start(x, natural_norm(gamma, r), positive(gamma), {"r": r, "u": u})
    win = DirectionWindow(cfg, 5)
    i = 0
    while done is None and i < cfg.max_it:
        i += 1
        betas = win.betas(u)
        p, s, q, z = win.combine(betas, u, w, m, n)
        eta = delta - win.energy(betas)
        if not math.isfinite(eta):
            return x, False, i, UNRECOVERABLE
        if eta == 0.0:
            rec.log(i, x, math.sqrt(abs(gamma)), len(betas), 0, 1, PIPEFCG_TAGS,
                    breakdown=True, restarted=True)
            win.clear()
            continue
        alpha = gamma / eta
        x = x + alpha * p
        r = r - alpha * s
        u = u - alpha * q
        w = w - alpha * z
        win.push(p, s, q, z, eta)
        gamma = dot(u, r)
        delta = dot(u, w)                       # overlappable phase, hidden by:
        m = B.apply(w)
        n = A.apply(m)
        if not (math.isfinite(gamma) and math.isfinite(delta)):
            return x, False, i, UNRECOVERABLE
        flush = gamma <= 0.0 or eta < 0.0
        done = drv.accept(i, x, math.sqrt(abs(gamma)), len(betas), {"r": r, "u": u},
                          {"p": p, "s": s, "eta": eta}, breakdown=flush, restarted=flush)
        if flush:
            win.clear()
    return done or (x, False, i, "max_it")


DRIVERS = {
    "fcg": _fcg,
    "cgfcg": _cgfcg,
    "pipefcg_naive": _pipefcg_naive,
    "pipefcg": _pipefcg,
}
