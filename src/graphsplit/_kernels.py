"""The iteration drivers: one per algorithm, shared by every problem.

A driver owns the loop of a run -- relaxation, residual, stop rule,
divergence guard and optional per-iteration records -- and is handed the
node sweep as ``step``: a map from a governing-sized input y, an
(n-1, d) block array, to the shadow blocks x, an (n, d) array.  The
reduced iteration steps on y = v and the expanded one on y = Z^T w + v
(see :mod:`graphsplit.engine` for why one map serves both).  The engine
passes either the cached linear sweep map of a subspace problem or the
per-node forward sweep, so the drivers never look at the node operators.

Each driver returns the last shadow blocks, the final state, the
residuals, a status code and the records (empty unless
``record_states``).  Status codes: 0 = stop rule hit, 1 = every entry of
``thetas`` used, 2 = non-finite residual.
"""

from __future__ import annotations

import math

import numpy as np

STATUS_CONVERGED = 0
STATUS_MAX_ITERS = 1
STATUS_DIVERGED = 2

#: this build has no compiled backend; kept as a stamp for benchmark records
USING_NUMBA = False


def alg2_sweep(step, zt, v0, thetas, tol, record_states=False):
    """Reduced iteration v <- v - theta_k Z^T x, x = step(v).

    Stops when ||Z^T x|| <= tol * max(1, ||v||).  Records are
    ``(x, v_new, residual)`` tuples.
    """
    v = v0.copy()
    x = None
    residuals = np.empty(len(thetas))
    records = []
    status = STATUS_MAX_ITERS
    k_end = len(thetas)
    for k, theta in enumerate(thetas):
        x = step(v)
        g = zt @ x
        res = math.sqrt(np.vdot(g, g))
        residuals[k] = res
        if not math.isfinite(res):
            status = STATUS_DIVERGED
            k_end = k + 1
            break
        scale = max(1.0, math.sqrt(np.vdot(v, v)))
        v = v - theta * g
        if record_states:
            records.append((x.copy(), v.copy(), res))
        if res <= tol * scale:
            status = STATUS_CONVERGED
            k_end = k + 1
            break
    return x, v, residuals[:k_end], status, records


def alg1_sweep(step, zt, w0, v0, thetas, tol, record_states=False):
    """Expanded iteration from (w0, v0), x = step(Z^T w + v):

        v <- v + theta_k Z^T (w - 2x),   w <- (1 - theta_k) w + theta_k x

    both reading the pre-update w.  Stops when ||Z^T (w - 2x)|| <=
    tol * max(1, ||v||) and ||x - w|| <= tol * max(1, ||w||): a small
    v-change alone does not make w a fixed point.  Records are
    ``(x, v_new, residual, w_new)`` tuples.
    """
    w = w0.copy()
    v = v0.copy()
    x = None
    residuals = np.empty(len(thetas))
    records = []
    status = STATUS_MAX_ITERS
    k_end = len(thetas)
    for k, theta in enumerate(thetas):
        x = step(zt @ w + v)
        g = zt @ (w - 2.0 * x)
        res = math.sqrt(np.vdot(g, g))
        residuals[k] = res
        if not math.isfinite(res):
            status = STATUS_DIVERGED
            k_end = k + 1
            break
        scale = max(1.0, math.sqrt(np.vdot(v, v)))
        done = False
        if res <= tol * scale:
            dw = x - w
            done = (math.sqrt(np.vdot(dw, dw))
                    <= tol * max(1.0, math.sqrt(np.vdot(w, w))))
        v = v + theta * g
        w = (1.0 - theta) * w + theta * x
        if record_states:
            records.append((x.copy(), v.copy(), res, w.copy()))
        if done:
            status = STATUS_CONVERGED
            k_end = k + 1
            break
    return x, w, v, residuals[:k_end], status, records
