"""The iteration driver: one loop shared by both algorithms and every problem.

The loop owns a run -- relaxation, residual, stop rule, divergence guard
and optional per-iteration records -- and is handed the node sweep as
``step``: a map from a governing-sized input y, an (n-1, d) block array,
to the shadow blocks x, an (n, d) array; either the cached linear sweep
map of a subspace problem or the per-node forward sweep.  The expanded
run carries w next to v and steps on y = Z^T w + v; the reduced run is
the same loop without w and steps on y = v (see :mod:`graphsplit.engine`
for why one map serves both).

``alg1_sweep`` and ``alg2_sweep`` are the entry points; each enters the
loop itself, so a timer wrapped around one never also times the other.
"""

from __future__ import annotations

import math

import numpy as np

#: this build has no compiled backend; kept as a stamp for benchmark records
USING_NUMBA = False


def _drive(step, zt, w0, v0, thetas, tol, record_states):
    """Iterate from (w0, v0), or from v0 alone when ``w0`` is None.

    Expanded, x = step(Z^T w + v) and both lines read the pre-update w:

        v <- v + theta_k Z^T (w - 2x),   w <- (1 - theta_k) w + theta_k x

    Reduced, x = step(v): the v-line with g = Z^T x and the step
    -theta_k, which is v - theta_k Z^T x bit for bit.  The residual is
    ||g||.  A run stops when it is at most tol * max(1, ||v||); the
    expanded run also needs ||x - w|| <= tol * max(1, ||w||), since a
    small v-change alone does not make w a fixed point.

    Returns x, w (None when reduced), v, the residuals, the stop reason
    -- ``tol``, ``end`` (every theta used) or ``diverged`` (the last
    residual is not finite) -- and, with ``record_states``, the records
    ``(x, v, residual, w)`` after each iteration.  Each step and update
    makes new arrays, so the records keep the iterates without copies.
    """
    w, v, x = w0, v0, None
    residuals = np.empty(len(thetas))
    records = []
    reason, k = "end", -1
    for k, theta in enumerate(thetas):
        if w is None:
            x = step(v)
            g = zt @ x
            theta = -theta
        else:
            x = step(zt @ w + v)
            g = zt @ (w - 2.0 * x)
        res = math.sqrt(np.vdot(g, g))
        residuals[k] = res
        if not math.isfinite(res):
            reason = "diverged"
            break
        done = res <= tol * max(1.0, math.sqrt(np.vdot(v, v)))
        if done and w is not None:
            dw = x - w
            done = (math.sqrt(np.vdot(dw, dw))
                    <= tol * max(1.0, math.sqrt(np.vdot(w, w))))
        v = v + theta * g
        if w is not None:
            w = (1.0 - theta) * w + theta * x
        if record_states:
            records.append((x, v, res, w))
        if done:
            reason = "tol"
            break
    return x, w, v, residuals[:k + 1], reason, records


def alg2_sweep(step, zt, v0, thetas, tol, record_states=False):
    """Reduced iteration from ``v0``; see :func:`_drive`."""
    return _drive(step, zt, None, v0, thetas, tol, record_states)


def alg1_sweep(step, zt, w0, v0, thetas, tol, record_states=False):
    """Expanded iteration from ``(w0, v0)``; see :func:`_drive`."""
    return _drive(step, zt, w0, v0, thetas, tol, record_states)
