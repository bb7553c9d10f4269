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

A run on a :class:`LinearMap` takes its first 32 steps at a theta one at a
time, then computes its residuals 32 steps ahead in blocks, one matrix
product per block once it holds (I - theta g)^32, and answers the loop's
per-step questions from them (see :class:`_Linear`).  It does only its own
arithmetic, so it runs with numpy's overflow and invalid warnings off: a
divergence is reported by its non-finite residual, and the rows a block
computes past it raise nothing.  A node sweep calls the node resolvents,
which keep the caller's error state.

``alg1_sweep`` and ``alg2_sweep`` are the entry points; each enters the
loop itself, so a timer wrapped around one never also times the other.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: this build has no compiled backend; kept as a stamp for benchmark records
USING_NUMBA = False

#: relative slack of the upper bound on ||v|| that decides when the loop
#: forms v; it covers the rounding of the bound, so no stop is missed
_BOUND_SLACK = 1.0 + 1e-9
#: a block advances 2^_SQUARINGS iterations, the power of I - theta g that
#: squaring builds
_SQUARINGS = 5
_S = 1 << _SQUARINGS
#: the most powers of I - theta g a residual map keeps, one per theta
_POWERS = 3


class LinearMap:
    """The residual map of a subspace problem, where y -> x = S y is linear.

    Every residual Z^T x = Z^T S y lies in range(q), for q an orthonormal
    basis of R = (Z^T (x) I_d) blockdiag(B_i) and B_i bases of the node
    subspaces, and S vanishes on its complement, so S = S q q^T.  ``g`` is
    q^T Z^T S q (m x m), so e = q^T Z^T x steps as e <- e - theta g e.
    ``kq`` holds the node coordinates of S q: row (i, j) is the j-th
    coordinate of node i in ``basis``, the B_i padded with zero columns
    to one (n, d, r) array, so S q = blockdiag(B_i) kq.

    ``powers`` keeps (I - theta g)^32 for the last ``_POWERS`` thetas whose
    runs built it, least recently used first: at most 3 m^2 entries, no
    more than q, g and kq hold, since m is at most both (n-1) d and n r.
    """

    def __init__(self, q: np.ndarray, g: np.ndarray, kq: np.ndarray,
                 basis: np.ndarray):
        self.q, self.g, self.kq, self.basis = q, g, kq, basis
        self.powers = {}

    def power(self, theta: float) -> np.ndarray | None:
        """The cached (I - theta g)^32, now the most recently used, or None."""
        p = self.powers.pop(theta, None)
        if p is not None:
            self.powers[theta] = p
        return p

    def keep_power(self, theta: float, p: np.ndarray) -> np.ndarray:
        """Cache ``p`` as the power for ``theta``, dropping the least
        recently used beyond ``_POWERS``; returns ``p``."""
        self.powers[theta] = p
        if len(self.powers) > _POWERS:
            del self.powers[next(iter(self.powers))]
        return p

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


@functools.lru_cache(maxsize=16)
def _tables(theta: float, expanded: bool):
    """The state of a block at each position, as coefficients of the
    block, and the powers of 1 - theta: ``(t, pw)``, read-only.

    A block holds e_0 .. e_s (s = 32) of a stretch at one theta, then the
    state rows after e at position 0: r_0 (expanded) and the running sums.
    ``t[j] @ block`` is the state [e; (r;) sums] at position j.  t is the
    single step's update applied to coefficients, its g e column fed
    theta g e_l = e_l - e_(l+1).  a_j = a_0 pw_j, b_j = b_0 + a_0 (1 - pw_j).
    """
    m0, m1 = _EXPANDED if expanded else _REDUCED
    mat = m0 + theta * m1
    mat[:, 0] = m1[:, 0]
    k = len(m0)
    rows = np.eye(_S + 1, _S + k)
    state = np.zeros((k, _S + k))
    state[0, 0] = 1.0
    state[1:, _S + 1:] = np.eye(k - 1)
    t = [state]
    for j in range(_S):
        state = mat @ np.vstack([rows[j] - rows[j + 1], state])
        t.append(state)
    t, pw = np.array(t), (1.0 - theta) ** np.arange(_S + 1.0)
    t.flags.writeable = pw.flags.writeable = False
    return t, pw


def _fill(block, step) -> None:
    """Rows 1 .. s of ``block`` from row 0, by s products with ``step``."""
    for i in range(_S):
        np.dot(step, block[i], out=block[i + 1])


class _Linear:
    """A run of a subspace problem in the coordinates of its residuals.

    With y_k = y0 - q sigma_k the governing input (y = v reduced,
    Z^T w + v expanded) and u0 = q^T y0, the shadow is x_k = B c_k with
    c_k = kq (u0 - sigma_k).  Reduced, the residual is -q e and
    v = v0 - q sigma.  Expanded, with a_k = prod (1 - theta_j),
    b_k = sum theta_j a_j and Z^T w0 = q omega0 + qp, qp orthogonal to q,

        Z^T (w - 2x) = q r + a qp,     v = v0 + q rho + b qp,
        w = a w0 + B kq ((1 - a) u0 - tau).

    A step is the product g e and one product [g e; state] -> state, into
    the other of two buffers, which so keep the state before the step.
    The first 32 steps at each theta are such single steps; after them the
    run moves in blocks (see :func:`_tables`): e_k .. e_(k+32) are 32
    products with I - theta g or, once P = (I - theta g)^32 exists, one
    product of the last block's rows with P.  A run builds P by five
    squarings after 2m steps at its theta, when the products it saves
    repay them, and keeps it on the map for the runs that follow.  The
    residuals of a block are the norms of its rows, expanded after one
    product with a table.  Its sums are formed at the block's end, and at
    every position only for a stop candidate, records or a change of
    theta, one product each; a change of theta goes back to single steps
    from the current position.  The block and its spare hold at most
    2 x 37 m entries, and I - theta g m^2 until P exists.  v, x and w are
    formed only for the stop test and the result, and a theta of 0 leaves
    them exactly as they were.
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
        # steps at theta; the block, None while stepping one at a time,
        # that is for the first _S steps at each theta
        self.steps, self.block = 0, None
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
        if self.block is not None:
            return self.norms[self.j]
        r = self.res
        return math.sqrt(np.dot(r, r) + self.a * self.a * self.qp2)

    def update(self, theta: float) -> None:
        if theta != self.theta:
            if self.block is not None:
                self._leave()
            self.theta, self.steps = theta, 0
            self.mat = self.m0 + theta * self.m1
        self.steps += 1
        if self.steps > _S:
            if self.block is None:
                self._enter()
            elif self.j == _S:
                self._roll()
            self.j += 1
            return
        cur, prev = self.cur, self.prev
        np.dot(self.g, cur[1], out=cur[0])
        np.dot(self.mat, cur, out=prev[1:])
        self.cur, self.prev = prev, cur
        self.res = self.cur[2 if self.expanded else 1]
        self.b += theta * self.a
        self.a *= 1.0 - theta

    def _enter(self) -> None:
        """Blocks from the current state, the first one by single products."""
        theta, m = float(self.theta), len(self.g)
        self.tables = _tables(theta, self.expanded)
        step = self.g * -theta
        step.flat[::m + 1] += 1.0
        self.power = self.lin.power(theta)
        # I - theta g, kept only until the power exists
        self.step = step if self.power is None else None
        block = self.block = np.empty((_S + len(self.cur) - 1, m))
        block[0] = self.cur[1]
        block[_S + 1:] = self.cur[2:]
        self.spare = np.empty_like(block)
        _fill(block, step)
        self._start_block()

    def _roll(self) -> None:
        """The next block, which starts at the last position of this one."""
        s, block, new = _S, self.block, self.spare
        new[0] = block[s]
        new[s + 1:] = self.tables[0][s, 1:] @ block
        if self.power is None and self.steps > 2 * len(self.g):
            p, self.step = self.step, None
            for _ in range(_SQUARINGS):
                p = p @ p
            self.power = self.lin.keep_power(float(self.theta), p)
        if self.power is None:
            _fill(new, self.step)
        else:
            np.dot(block[1:s + 1], self.power.T, out=new[1:s + 1])
        pw = self.tables[1][s]
        self.a, self.b = self.a * pw, self.b + self.a * (1.0 - pw)
        self.block, self.spare = new, block
        self._start_block()

    def _start_block(self) -> None:
        """The residuals at every position of a new block."""
        self.j = 0
        self.filled = self.stops = None
        block = self.block
        if self.expanded:
            r = self.tables[0][:, 1] @ block
            a = self.a * self.tables[1]
            sq = np.einsum("ij,ij->i", r, r) + a * a * self.qp2
        else:
            sq = np.einsum("ij,ij->i", block[:_S + 1], block[:_S + 1])
        self.norms = np.sqrt(sq).tolist()

    def _filled(self):
        """The sums, a and b at every position of the block."""
        if self.filled is None:
            t, pw = self.tables
            t = t[:, self.sums.start - 1:]
            sums = (t.reshape(-1, t.shape[2]) @ self.block).reshape(
                *t.shape[:2], len(self.g))
            self.filled = sums, self.a * pw, self.b + self.a * (1.0 - pw)
        return self.filled

    def _stop_norms(self) -> list:
        """||v||, and expanded ||x - w|| and ||w||, at each position from
        the first stop candidate of the block to its end."""
        if self.stops is None:
            self.first = j = self.j
            sums, a, b = (t[j:] for t in self._filled())
            if self.expanded:
                x, v, w = self._blocks(sums[:, 0], sums, a, b)
                rows = (v, x - w, w)
            else:
                rows = (self._v(sums, b),)
            self.stops = [np.sqrt(np.einsum("ij,ij->i", u, u)).tolist()
                          for u in rows]
        return self.stops

    def _leave(self) -> None:
        """Single steps again, from the current position of the block."""
        self.cur[1:] = self.tables[0][self.j] @ self.block
        pw = self.tables[1][self.j]
        self.a, self.b = float(self.a * pw), float(self.b + self.a * (1 - pw))
        self.block = None

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
        if self.block is not None:
            return self._stop_norms()[0][self.j - self.first]
        v = self._v(self.cur[self.sums], self.b)
        return math.sqrt(np.dot(v, v))

    def gap_closed(self, tol: float) -> bool:
        if self.block is not None:
            _, gap, w_norm = self._stop_norms()
            i = self.j - self.first
            return gap[i] <= tol * max(1.0, w_norm[i])
        sums = self.cur[self.sums]
        x, _, w = self._blocks(sums[0], sums, self.a, self.b)
        dw = x - w
        return (math.sqrt(np.dot(dw, dw))
                <= tol * max(1.0, math.sqrt(np.dot(w, w))))

    def record(self) -> None:
        if self.block is None:
            self.records.append((self.cur[self.sums].copy(), self.a, self.b))
        else:
            sums, a, b = self._filled()
            self.records.append((sums[self.j], a[self.j], b[self.j]))

    def result(self):
        """The blocks of the last step and of each recorded step, rebuilt
        after the loop by one product per kind of block."""
        recorded = bool(self.records)
        if recorded:
            sums, a, b = map(np.array, zip(*self.records))
            self.records = None
            sigma = np.concatenate([np.zeros_like(sums[:1, 0]), sums[:-1, 0]])
        elif self.block is None:
            sums, a, b = self.cur[None, self.sums], self.a, self.b
            sigma = self.prev[None, self.sums.start]
        else:
            j = self.j
            sums, a, b = self._filled()
            sigma = sums[j - 1:j, 0]
            sums, a, b = sums[j:j + 1], a[j:j + 1], b[j:j + 1]
        n1, d = self.shape
        x, v, w = self._blocks(sigma, sums, a, b)
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


@np.errstate(over="ignore", invalid="ignore")
def _drive_linear(lin, zt, w0, v0, thetas, tol, record_states):
    """:func:`_drive` on a run of ``lin``, with numpy's overflow and invalid
    warnings off: all its arithmetic is the run's own.  A node sweep calls
    the node resolvents, so its run keeps the caller's error state."""
    return _drive(_Linear(lin, zt, w0, v0), thetas, tol, record_states)


def _start(step, zt, w0, v0, thetas, tol, record_states):
    """The run from (w0, v0), or from v0 alone when ``w0`` is None, driven
    to its end."""
    if isinstance(step, LinearMap):
        return _drive_linear(step, zt, w0, v0, thetas, tol, record_states)
    return _drive(_Blocks(step, zt, w0, v0), thetas, tol, record_states)


def alg2_sweep(step, zt, v0, thetas, tol, record_states=False):
    """Reduced iteration from ``v0``; see :func:`_drive`."""
    return _start(step, zt, None, v0, thetas, tol, record_states)


def alg1_sweep(step, zt, w0, v0, thetas, tol, record_states=False):
    """Expanded iteration from ``(w0, v0)``; see :func:`_drive`."""
    return _start(step, zt, w0, v0, thetas, tol, record_states)
