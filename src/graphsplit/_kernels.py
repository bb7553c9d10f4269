"""The iteration driver: one loop shared by both algorithms and every problem.

The loop owns a run -- relaxation, residual, stop rule, divergence guard
and optional per-iteration records -- and is handed its iterate as
``step``: either the per-node forward sweep, a map from a governing-sized
input y, an (n-1, d) block array, to the shadow blocks x, an (n, d)
array; or the :class:`LinearMap` of a subspace problem, on which the run
iterates the residual in a basis of its range instead of the blocks.  The
expanded run carries w next to v and steps on y = Z^T w + v; the reduced
run is the same loop without w and steps on y = v (see
:mod:`graphsplit.engine` for why one map serves both).  ``thetas`` is any
iterable, a repeated constant or a finite schedule, and the residuals grow
in a list, so the loop holds nothing sized by the run's budget.

``alg1_sweep`` and ``alg2_sweep`` are the entry points; each enters the
loop itself, so a timer wrapped around one never also times the other.
"""

from __future__ import annotations

import math

import numpy as np

#: this build has no compiled backend; kept as a stamp for benchmark records
USING_NUMBA = False

#: relative slack of the upper bound on ||v|| that decides when the loop
#: forms v; it covers the rounding of the bound, so no stop is missed
_BOUND_SLACK = 1.0 + 1e-9


class LinearMap:
    """The residual map of a subspace problem, where y -> x = S y is linear.

    Every residual Z^T x = Z^T S y lies in range(q), for q an orthonormal
    basis of R = (Z^T (x) I_d) blockdiag(B_i) and B_i bases of the node
    subspaces, and S vanishes on its complement, so S = S q q^T.  ``g`` is
    q^T Z^T S q (m x m), so e = q^T Z^T x steps as e <- e - theta g e.
    ``kq`` holds the node coordinates of S q: row (i, j) is the j-th
    coordinate of node i in ``basis``, the B_i padded with zero columns
    to one (n, d, r) array, so S q = blockdiag(B_i) kq.
    """

    def __init__(self, q: np.ndarray, g: np.ndarray, kq: np.ndarray,
                 basis: np.ndarray):
        self.q, self.g, self.kq, self.basis = q, g, kq, basis

    def blocks(self, c: np.ndarray) -> np.ndarray:
        """The flat blocks B_i c_i of node coordinates c, (..., n r)."""
        n, d, r = self.basis.shape
        lead = c.shape[:-1]
        return (self.basis @ c.reshape(*lead, n, r, 1)).reshape(*lead, n * d)


class _Blocks:
    """A run on the blocks themselves, stepping through the node sweep."""

    def __init__(self, step, zt, w0, v0):
        self.step, self.zt, self.w, self.v = step, zt, w0, v0
        self.expanded = w0 is not None
        self.x = self.g = None
        self.records = []

    def residual(self) -> float:
        w, v, zt = self.w, self.v, self.zt
        if w is None:
            self.x = x = self.step(v)
            self.g = g = zt @ x
        else:
            self.x = x = self.step(zt @ w + v)
            self.g = g = zt @ (w - 2.0 * x)
        return math.sqrt(np.vdot(g, g))

    def v_norm(self) -> float:
        return math.sqrt(np.vdot(self.v, self.v))

    def gap_closed(self, tol: float) -> bool:
        w = self.w
        dw = self.x - w
        return (math.sqrt(np.vdot(dw, dw))
                <= tol * max(1.0, math.sqrt(np.vdot(w, w))))

    def update(self, theta: float) -> None:
        # reduced: v - theta Z^T x, as v + (-theta) g bit for bit
        if self.w is None:
            self.v = self.v + -theta * self.g
        else:
            self.v = self.v + theta * self.g
            self.w = (1.0 - theta) * self.w + theta * self.x

    def record(self) -> None:
        # each step and update makes new arrays, so no copies
        self.records.append((self.x, self.v, self.w))

    def result(self):
        return self.x, self.w, self.v, self.records


#: the update of the state rows, [g e; state] -> state, is M0 + theta M1.
#: Reduced, the rows are e and sigma = sum theta_j e_j.  Expanded, they are
#: e; r = q^T Z^T (w - 2x); sigma; tau, which relaxes towards sigma; and
#: rho = sum theta_j r_j.
_REDUCED = (np.eye(2, 3, 1), np.array([[-1.0, 0, 0], [0, 1, 0]]))
_EXPANDED = (np.eye(5, 6, 1),
             np.array([[-1.0, 0, 0, 0, 0, 0], [2, -1, -1, 0, 0, 0],
                       [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, -1, 0],
                       [0, 0, 1, 0, 0, 0]]))


class _Linear:
    """A run of a subspace problem in the coordinates of its residuals.

    With y_k = y0 - q sigma_k the governing input (y = v reduced,
    Z^T w + v expanded) and u0 = q^T y0, the shadow is x_k = B c_k with
    c_k = kq (u0 - sigma_k).  Reduced, the residual is -q e and
    v = v0 - q sigma.  Expanded, with a_k = prod (1 - theta_j),
    b_k = sum theta_j a_j and Z^T w0 = q omega0 + qp, qp orthogonal to q,

        Z^T (w - 2x) = q r + a qp,     v = v0 + q rho + b qp,
        w = a w0 + B kq ((1 - a) u0 - tau).

    Each step is the product g e and one product [g e; state] -> state,
    into the other of two buffers, which so keep the state before the
    step.  v, x and w are formed only for the stop test and the result,
    and a theta of 0 leaves them exactly as they were.
    """

    def __init__(self, lin: LinearMap, zt, w0, v0):
        q, g = lin.q, lin.g
        self.lin, self.g = lin, g
        self.shape = v0.shape
        self.v0 = v0.reshape(-1)
        self.expanded = w0 is not None
        self.m0, self.m1 = _EXPANDED if self.expanded else _REDUCED
        self.cur, self.prev = np.zeros((2, len(self.m0) + 1, q.shape[1]))
        self.a = 1.0
        self.b = self.qp2 = 0.0
        self.theta = self.mat = None
        # the running sums, sigma (tau, rho), are the last rows
        self.sums = slice(3 if self.expanded else 2, None)
        self.records = []
        if not self.expanded:
            self.u0 = q.T @ self.v0
            self.cur[1] = g @ self.u0
            self.res = self.cur[1]
            return
        self.w0 = w0.reshape(-1)
        zw = (zt @ w0).reshape(-1)
        omega0, u0 = np.array([zw, self.v0]) @ q
        self.u0 = u0 + omega0
        self.qp = zw - q @ omega0
        self.qp2 = float(np.dot(self.qp, self.qp))
        e = self.cur[1] = g @ self.u0
        self.cur[2] = omega0 - 2.0 * e
        self.res = self.cur[2]

    def residual(self) -> float:
        r = self.res
        return math.sqrt(np.dot(r, r) + self.a * self.a * self.qp2)

    def update(self, theta: float) -> None:
        if theta != self.theta:
            self.theta, self.mat = theta, self.m0 + theta * self.m1
        cur, prev = self.cur, self.prev
        np.dot(self.g, cur[1], out=cur[0])
        np.dot(self.mat, cur, out=prev[1:])
        self.cur, self.prev = prev, cur
        self.res = self.cur[2 if self.expanded else 1]
        self.b += theta * self.a
        self.a *= 1.0 - theta

    def _v(self, sums, b):
        """v, flat, from the running sums (..., 1 or 3, m) after a step."""
        if not self.expanded:
            return self.v0 - sums[..., 0, :] @ self.lin.q.T
        b = np.asarray(b)[..., None]
        return self.v0 + sums[..., 2, :] @ self.lin.q.T + b * self.qp

    def _blocks(self, sigma, sums, a, b):
        """x at ``sigma`` before a step, and v and w (None when reduced)
        after it, flat; stacks (k, ...) of states give stacks of blocks."""
        lin = self.lin
        x = lin.blocks((self.u0 - sigma) @ lin.kq.T)
        v = self._v(sums, b)
        if not self.expanded:
            return x, v, None
        a = np.asarray(a)[..., None]
        w = lin.blocks(((1.0 - a) * self.u0 - sums[..., 1, :]) @ lin.kq.T)
        return x, v, w + a * self.w0

    def v_norm(self) -> float:
        v = self._v(self.cur[self.sums], self.b)
        return math.sqrt(np.dot(v, v))

    def gap_closed(self, tol: float) -> bool:
        sums = self.cur[self.sums]
        x, _, w = self._blocks(sums[0], sums, self.a, self.b)
        dw = x - w
        return (math.sqrt(np.dot(dw, dw))
                <= tol * max(1.0, math.sqrt(np.dot(w, w))))

    def record(self) -> None:
        self.records.append((self.cur[self.sums].copy(), self.a, self.b))

    def result(self):
        """The blocks of the last step and of each recorded step, rebuilt
        after the loop by one product per kind of block."""
        recorded = bool(self.records)
        if recorded:
            sums, a, b = map(np.array, zip(*self.records))
            self.records = None
            sigma = np.concatenate([np.zeros_like(sums[:1, 0]), sums[:-1, 0]])
        else:
            sums, a, b = self.cur[None, self.sums], [self.a], [self.b]
            sigma = self.prev[None, self.sums.start]
        n1, d = self.shape
        x, v, w = self._blocks(sigma, sums, np.array(a), np.array(b))
        x, v = x.reshape(-1, n1 + 1, d), v.reshape(-1, n1, d)
        w = [None] * len(x) if w is None else w.reshape(-1, n1 + 1, d)
        return x[-1], w[-1], v[-1], list(zip(x, v, w)) if recorded else []


def _drive(it, thetas, tol, record_states):
    """Iterate the run ``it`` (a :class:`_Blocks` or :class:`_Linear`).

    Expanded, x = step(Z^T w + v) and both lines read the pre-update w:

        v <- v + theta_k Z^T (w - 2x),   w <- (1 - theta_k) w + theta_k x

    Reduced, x = step(v) and v <- v - theta_k Z^T x.  The residual is
    ||Z^T (w - 2x)||, or ||Z^T x|| reduced.  A run stops when it is at
    most tol * max(1, ||v||); the expanded run also needs ||x - w|| <=
    tol * max(1, ||w||), since a small v-change alone does not make w a
    fixed point.  ||v|| is formed only when the residual passes the test
    against an upper bound of it, ||v_j|| + sum_{l >= j} theta_l res_l
    from the last v formed, so every stop is the one the exact test
    gives.

    Returns x, w (None when reduced), v, the residuals, the stop reason
    -- ``tol``, ``end`` (every theta used) or ``diverged`` (the last
    residual is not finite, and no blocks are returned) -- and, with
    ``record_states``, the records ``(x, v, residual, w)`` after each
    iteration.
    """
    residuals = []
    reason = "end"
    bound = math.inf
    for theta in thetas:
        res = it.residual()
        residuals.append(res)
        if not math.isfinite(res):
            return None, None, None, np.array(residuals), "diverged", []
        done = False
        # the first test always passes: bound is inf, also when tol is 0
        if res / max(1.0, bound * _BOUND_SLACK) <= tol:
            bound = it.v_norm()
            done = (res <= tol * max(1.0, bound)
                    and (not it.expanded or it.gap_closed(tol)))
        bound += theta * res
        it.update(theta)
        if record_states:
            it.record()
        if done:
            reason = "tol"
            break
    x, w, v, blocks = it.result()
    records = [(bx, bv, res, bw) for (bx, bv, bw), res in zip(blocks, residuals)]
    return x, w, v, np.array(residuals), reason, records


def _start(step, zt, w0, v0):
    """The run from (w0, v0), or from v0 alone when ``w0`` is None."""
    return (_Linear if isinstance(step, LinearMap) else _Blocks)(step, zt, w0, v0)


def alg2_sweep(step, zt, v0, thetas, tol, record_states=False):
    """Reduced iteration from ``v0``; see :func:`_drive`."""
    return _drive(_start(step, zt, None, v0), thetas, tol, record_states)


def alg1_sweep(step, zt, w0, v0, thetas, tol, record_states=False):
    """Expanded iteration from ``(w0, v0)``; see :func:`_drive`."""
    return _drive(_start(step, zt, w0, v0), thetas, tol, record_states)
