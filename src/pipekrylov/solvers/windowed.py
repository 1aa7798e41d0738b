"""The CG, flexible CG and conjugate residual variants on one driver.

Each iteration builds a new search direction from the current
preconditioned residual u = B(r).  The families differ in the vector v
their inner products are taken with and in how a direction is
conjugated; gamma = <v, r> and delta = <v, w> are taken at the end of a
step or in the refill:

* FCG (v = u): each direction is explicitly conjugated against a window
  of retained directions, with coefficients -<v, s_k>/eta_k.  The
  natural residual norm is sqrt(gamma); gamma must stay positive,
  otherwise the run restarts from a recomputed residual.
* GCR (``residual``, v = w = A u): the same window, A^T A-conjugate, the
  GCR of Eisenstat, Elman & Schultz (SINUM 1983).  The natural norm is
  the residual 2-norm, whose square is updated through
  |r_new|^2 = |r|^2 - gamma^2 / eta; loss of that identity, like a
  nonpositive eta, triggers a restart.
* CG (``short``, v = u): no window.  The coefficient is the
  Fletcher-Reeves beta = gamma/gamma_prev, each direction column is the
  two-term update head + beta * previous column, and the fused energy is
  eta = delta - beta^2 eta_prev.  The natural norm is sqrt(gamma), as in
  FCG, and the fused refill also needs delta > 0.
* CR (``short`` and ``residual``, ``pcr``): no window; preconditioned CR
  in the B inner product (Saad, Iterative Methods for Sparse Linear
  Systems, 2nd ed., 6.8 and ch. 9).  The phase at the end of a step holds
  gamma = <u, w> and |r|^2; beta = gamma/gamma_prev updates p = u + beta p
  and s = w + beta s, and eta = <s, B(s)> is the step's first phase.  The
  natural norm is the computed |r|.  u = B(r) is applied afresh, not
  recurred as u - alpha B(s), so that preconditioner noise does not
  accumulate in it.  A zero or non-finite gamma, like a nonpositive eta,
  triggers a restart.

Two switches give the variants of each family; ``solve`` binds them, and
``recur_w``, from the method's ``REDUCTION_LEDGER`` row:

* ``pcg``, ``fcg``, ``gcr``: fresh operator application per direction,
  two blocking phases.  ``gcr`` keeps gamma = <r, A p> from the second
  one.
* ``cgcg``, ``cgfcg`` (``fused``): recurred operator images and a
  Pythagorean identity for the direction energy, one batched blocking
  phase.
* ``pipecg``, ``pipefcg``, ``pipegcr_w`` (``pipelined``): also recur the
  auxiliary pair m = B(w), n = A(m), so the one phase overlaps the
  preconditioner and the operator application.  ``pipecg`` always takes
  m = B(w).  The flexible methods take m from the stabilized update of
  ``cfg.theta_mode`` and overlap local vector work as well; the CR refill
  takes m from the same update, the FCG refill takes B(w).
* ``pipegcr`` (``pipelined`` without ``recur_w``): keeps three window
  columns and applies the operator, w = A u, the one application its
  reduction does not overlap.
* ``pipefcg_naive`` (``naive``): the pipelined FCG loop with m = B(w) and
  natural norm sqrt(|gamma|).  It never resynchronizes: a sign failure
  flushes the window on a flagged row and a non-finite scalar ends the
  run, so preconditioner noise accumulates and convergence stalls near
  the noise level, the stagnation the stabilized update removes.

``pcr`` has two blocking phases, like ``pcg``; per step it applies B
twice, to r and to s, and the operator once.  Like the CG family, and
unlike the flexible FCG and CR methods, it assumes a linear SPD B.
"""

from __future__ import annotations

import math

import numpy as np

from ..linalg import blocks, dot, norm2
from .common import (
    DirectionWindow,
    accepted_row,
    natural_norm,
    positive,
    stabilized_m_update,
)


def _reduced(nat2: float, gamma: float, eta: float):
    """|r_new|^2 = |r|^2 - gamma^2/eta, or None once the identity fails."""
    nat2_new = nat2 - gamma * gamma / eta
    return nat2_new if nat2_new >= 0.0 and math.isfinite(nat2_new) else None


def driver(cfg, A, B, b, x0, rec, fused, pipelined, residual, recur_w, naive, short):
    size = len(b)
    width = (4 if recur_w else 3) if pipelined else 2
    win = None if short else DirectionWindow(cfg, width, size)
    theta_mode = "zero" if naive or short else cfg.theta_mode
    cr = short and residual             # pcr: preconditioned CR, B-inner product
    recur_s = fused or cr               # s recurred, not applied to each p
    # The vectors of the solve, allocated once and updated in place.  The
    # iterate alternates between x0, the solve's own, and one more vector,
    # so that a step never writes into the last one logged (see TraceRecorder).
    # t holds alpha times a direction column; the pipelined methods also
    # form m in it, which the combination reads before t is needed again.
    # The operator's images (w, n, and s where it is applied) are new
    # vectors from A.apply, which the solve owns: a recurred w is updated
    # in place.  u is B's image of r, copied into a vector of the solve
    # where it is recurred, since B may hand back an array it keeps; m is
    # B's own image in the "zero" mode.
    xs = (x0, np.empty(size))
    r, t = np.empty(size), np.empty(size)
    u = np.empty(size) if pipelined else None
    w = n = None
    # short: the recurred direction columns, in a block of their own like
    # a window's ring, and gamma and eta of the previous step, gamma None
    # after a refill
    cols = blocks(width if recur_s else 1, size) if short else None
    m = gamma = delta = nat2 = gamma_prev = None
    eta_prev = 0.0

    def couple(mode):
        """gamma, delta and the pipelined pair for the current r, u and w;
        False when the exact weighting is undefined (r vanished)."""
        nonlocal gamma, delta, m, n
        v = w if residual else u
        if cr:
            gamma = dot(w, u)                   # with |r|^2, the last phase
        elif fused or not residual:
            gamma = dot(v, r)                   # the last (fcg) or only phase
        if fused:
            delta = dot(v, w)                   # pipelined, hidden by:
        if pipelined:
            m = stabilized_m_update(B, u, w, r, mode, out=t)
            if m is None:
                return False
            if recur_w:
                n = A.apply(m)
        return True

    def refill(x):
        nonlocal u, w, nat2, gamma_prev
        if naive and gamma is not None:
            # the naive variant never resynchronizes: a non-finite scalar
            # ends the run
            return math.nan, False, {}
        np.subtract(b, A.apply(x), out=r)
        if pipelined:
            np.copyto(u, B.apply(r))
        else:
            u = B.apply(r)
        if fused or residual:
            w = A.apply(u)
        # the CR refill keeps the stabilized m, the FCG and CG refills take B(w)
        couple(theta_mode if residual else "zero")
        if short:
            gamma_prev = None
        else:
            win.clear()
        if residual:
            natural = norm2(r)
            nat2 = natural * natural
            return natural, True, {"r": r, "u": u}
        # a nonpositive delta breaks the first step; CG flags it on this row
        ok = positive(gamma) and (not (short and fused) or positive(delta))
        return natural_norm(gamma, r), ok, {"r": r, "u": u}

    def step(x):
        nonlocal u, w, gamma, nat2, gamma_prev, eta_prev
        if cr and not (math.isfinite(gamma) and gamma != 0.0):
            return x, None
        heads = (u, w, m, n)[:width] if recur_s else (u,)
        if not short:
            betas = win.betas(w if residual else u)
            nu = len(betas)
            dirs = win.combine(betas, *heads)
        elif gamma_prev is None:
            nu, beta, dirs = 0, 0.0, cols
            for col, head in zip(dirs, heads):
                np.copyto(col, head)
        else:
            # Fletcher-Reeves: beta = gamma/gamma_prev, one direction back;
            # each column becomes head + beta * column, as in p = u + beta p
            nu, beta, dirs = 1, gamma / gamma_prev, cols
            for col, head in zip(dirs, heads):
                np.add(head, np.multiply(col, beta, out=col), out=col)
        p = dirs[0]
        if recur_s:
            s = dirs[1]
        else:
            s = A.apply(p)
            if not short:
                dirs[1] = s                     # the window keeps the image
        if fused:
            eta = delta - (beta * beta * eta_prev if short else win.energy(betas))
        elif cr:
            eta = dot(s, B.apply(s))            # pcr: phase 1
        else:
            if residual:
                gamma = dot(r, s)
            eta = dot(s if residual else p, s)  # fcg: phase 1
        if naive and eta == 0.0:
            # flush the window on a row flagged breakdown and restarted
            win.clear()
            return x, (math.sqrt(abs(gamma)), nu, {"r": r, "u": u}, None, True, True)
        if not (math.isfinite(eta) if naive else positive(eta)):
            return x, None
        alpha = gamma / eta
        new = xs[1] if x is xs[0] else xs[0]      # not the last logged x
        x = np.add(x, np.multiply(p, alpha, out=new), out=new)
        np.subtract(r, np.multiply(s, alpha, out=t), out=r)
        if cr:
            nat2 = dot(r, r)                    # in gamma's phase
        elif residual:
            nat2 = _reduced(nat2, gamma, eta)
            if nat2 is None:
                return x, None
        if short:
            gamma_prev, eta_prev = gamma, eta
        else:
            # the entry's slot, so that a spare block or an applied s is freed
            dirs = win.push(eta)
            p, s = dirs[:2]
        if pipelined:
            np.subtract(u, np.multiply(dirs[2], alpha, out=t), out=u)
            if recur_w:
                np.subtract(w, np.multiply(dirs[3], alpha, out=t), out=w)
            else:
                w = A.apply(u)
        else:
            u = B.apply(r)
            if fused or residual:
                w = A.apply(u)
        if not couple(theta_mode):
            return x, (0.0, nu, {"r": r, "u": u})
        if residual:
            return x, accepted_row(nat2, nu, r, u, p, s, eta)
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

    return rec.run(x0, refill, step, exact_theta=pipelined and theta_mode == "exact")
