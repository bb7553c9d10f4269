"""The iteration driver: one loop shared by both algorithms and every problem.

The loop owns a run -- relaxation, residual, stop rule, divergence guard
and optional per-iteration records -- and is handed its iterate as
``step``: either the per-node forward sweep, a map from a governing-sized
input y, an (n-1, d) block array, to the shadow blocks x, an (n, d)
array; or the :class:`LinearMap` of a subspace problem, on which the run
iterates the residual in a basis of its range instead of the blocks.  The
expanded run carries w next to v and steps on y = Z^T w + v; the reduced
run is the same loop without w and steps on y = v (see
:mod:`graphsplit.engine` for why one map serves both).  The thetas come
as stretches ``(theta, count)`` of equal theta, and the loop takes a block
of steps at a time: one step on the node sweep, 1, 2, 4, 25 and then 32
steps per stretch on a :class:`LinearMap` (see :class:`_Linear`), where every
block past the first 32 steps comes from the power (I - theta g)^32 in the
map's record for theta once the map's runs have taken enough steps at
theta.  The residuals grow in a list, so the loop holds nothing sized by
the budget.

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
#: a full block advances 2^_SQUARINGS iterations, the power of I - theta g
#: that squaring builds
_SQUARINGS = 5
_S = 1 << _SQUARINGS
#: the ramp, the blocks a stretch starts with, by the step each starts at:
#: 1, 2 and 4 steps, then the rest of the first 32, so the first full
#: block can read the 32 rows before it.  A block's e row sums its first e
#: and its g e rows, which are largest in a stretch's first steps; where
#: they cancel, the rounding they leave in a mode that I - theta g keeps
#: drifts into sigma and rho at every later step, so those blocks are short.
_RAMP = {0: 1, 1: 2, 3: 4, 7: 25}
#: the most thetas a residual map keeps a record for, each with its power
#: of I - theta g
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

    ``gp`` is g with a zero row and column appended, and ``g`` a view of
    it, for the runs' extra column (see :class:`_Linear`).  ``thetas``
    holds one record per theta for the last ``_POWERS`` thetas the map's
    runs used, least recently used first, each touched as a stretch at its
    theta starts: ``[steps, P]``, the steps the runs have taken at theta
    and P = (I - theta g)^32, padded alike, or None until a run builds it,
    once the record's steps with its own there pass 2m.  A run adds a
    stretch's steps as it leaves the stretch.  The powers hold at most
    3 (m + 1)^2 entries, about what q, g and kq hold, since m is at most
    both (n-1) d and n r.
    """

    def __init__(self, q: np.ndarray, g: np.ndarray, kq: np.ndarray,
                 basis: np.ndarray):
        m = len(g)
        self.gp = np.zeros((m + 1, m + 1))
        self.gp[:m, :m] = g
        self.q, self.g, self.kq, self.basis = q, self.gp[:m, :m], kq, basis
        self.thetas = {}

    def blocks(self, c: np.ndarray) -> np.ndarray:
        """The flat blocks B_i c_i of node coordinates c, (..., n r).  Runs
        form blocks only for their records and result; the stop test reads
        its norms from node coordinates (see :meth:`_Linear.gap_norms`)."""
        n, d, r = self.basis.shape
        lead = c.shape[:-1]
        return (self.basis @ c.reshape(*lead, n, r, 1)).reshape(*lead, n * d)


class _Blocks:
    """A run on the blocks themselves, one step of the node sweep per
    block."""

    def __init__(self, step, zt, w0, v0, record):
        self.step, self.zt, self.w, self.v = step, zt, w0, v0
        self.expanded = w0 is not None
        self.v0_norm = math.sqrt(np.vdot(v0, v0))
        self.record, self.records = record, []
        self.x = None

    def block(self, theta: float, left: int) -> list:
        if self.x is not None:
            self._update()
        self.theta = theta
        w, v, zt = self.w, self.v, self.zt
        if w is None:
            self.x = x = self.step(v)
            self.g = g = zt @ x
        else:
            self.x = x = self.step(zt @ w + v)
            self.g = g = zt @ (w - 2.0 * x)
        return [math.sqrt(np.vdot(g, g))]

    def v_norms(self) -> list:
        return [math.sqrt(np.vdot(self.v, self.v))]

    def gap_norms(self):
        w = self.w
        dw = self.x - w
        return [math.sqrt(np.vdot(dw, dw))], [math.sqrt(np.vdot(w, w))]

    def _update(self) -> None:
        """Take the step of the block."""
        theta = self.theta
        # reduced: v - theta Z^T x, as v + (-theta) g bit for bit
        if self.w is None:
            self.v = self.v + -theta * self.g
        else:
            self.v = self.v + theta * self.g
            self.w = (1.0 - theta) * self.w + theta * self.x
        if self.record:
            # each step and update makes new arrays, so no copies
            self.records.append((self.x, self.v, self.w))

    def result(self, end: int):
        self._update()
        return self.x, self.w, self.v, self.records


#: a step at theta maps the state rows and then g e to the state rows
#: after it by A0 + theta A1.  Reduced, the rows are sigma = sum theta_j
#: e_j and e.  Expanded, they are sigma; e; tau, which relaxes towards
#: sigma; rho = sum theta_j r_j; and r = q^T Z^T (w - 2x).  The residual's
#: row is the last.
_REDUCED = (np.eye(2, 3), np.array([[0.0, 1, 0], [0, 0, -1]]))
_EXPANDED = (np.eye(5, 6),
             np.array([[0.0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, -1],
                       [1, 0, -1, 0, 0, 0], [0, 0, 0, 0, 1, 0],
                       [0, -1, 0, 0, -1, 2]]))


@functools.lru_cache(maxsize=64)
def _tables(theta: float, expanded: bool, s: int):
    """The states of a block of s steps at theta as coefficients of its
    rows, read-only: ``(t, head, stop)``.

    A block holds the k state rows at its first position, then
    g e_0 .. g e_(s-1).  ``t[j] @ block`` is the state at position j, and
    ``head`` the block's one product: the rows of its state at position s
    and of its residual at positions s - 1 .. 1.  ``stop @ block`` is the
    rows the stop test reads at positions 0 .. s - 1: sigma reduced;
    sigma - tau, tau and rho expanded, s rows of each.
    """
    a0, a1 = _EXPANDED if expanded else _REDUCED
    step = a0 + theta * a1
    k = len(step)
    t = np.zeros((s + 1, k, k + s))
    t[0, :, :k] = np.eye(k)
    for j in range(s):
        np.dot(step[:, :k], t[j], out=t[j + 1])
        t[j + 1, :, k + j] = step[:, k]
    head = np.concatenate([t[s], t[s - 1:0:-1, -1]])
    stop = (np.concatenate([t[:s, 0] - t[:s, 2], t[:s, 2], t[:s, 3]])
            if expanded else t[:s, 0].copy())
    t.flags.writeable = head.flags.writeable = stop.flags.writeable = False
    return t, head, stop


def _head(theta: float, expanded: bool, s: int) -> np.ndarray:
    """``head`` of :func:`_tables`.  A block of one step's is the step
    matrix, built without a table, so a run whose theta changes at every
    step builds none."""
    if s > 1:
        return _tables(theta, expanded, s)[1]
    a0, a1 = _EXPANDED if expanded else _REDUCED
    return a0 + theta * a1


class _Linear:
    """A run of a subspace problem in the coordinates of its residuals.

    With y_k = y0 - q sigma_k the governing input (y = v reduced,
    Z^T w + v expanded) and u0 = q^T y0, the shadow is x_k = B c_k with
    c_k = kq (u0 - sigma_k).  Reduced, the residual is -q e and
    v = v0 - q sigma.  Expanded, with a_k = prod (1 - theta_j),
    b_k = sum theta_j a_j and Z^T w0 = q omega0 + qp, qp orthogonal to q,

        Z^T (w - 2x) = q r + a qp,     v = v0 + q rho + b qp,
        w = a w0 + B kq ((1 - a) u0 - tau).

    A stretch of equal theta moves in blocks of 1, 2, 4, 25 and then 32
    steps, the last cut to the stretch (see ``_RAMP``).  A block of s steps
    holds the state rows at its first position and g e_0 .. g e_(s-1).
    Every block after the first 32 steps of its stretch takes them from
    the 32 rows before it in one product with P = (I - theta g)^32, since
    P g e_j is g e_(j+32): the rows of the full block before it, or for the
    first full block the ramp's rows, which the run keeps in ``ramp``.  P
    comes from the map's record for theta or, once the map's runs have
    taken more than 2m steps at theta, from five squarings (see
    :meth:`_power`).
    Every other block steps g e_0 by products with I - theta g.  One
    product with the block's head (see :func:`_tables`) gives its residual
    rows and the next block's first rows.  The stop test reads ||v||,
    ||x - w|| and ||w|| from the rows of sigma (and expanded tau and rho)
    and from the splits of v0 over q and of w0 over the node bases, made
    when the run starts, as sums of squares of orthogonal parts; v, x and
    w are formed only for records and the result, and a theta of 0 leaves
    them exactly as they were.
    Every row has one more column, m, which the steps carry as they carry
    the others: 1 in sigma, 1 - a in tau, b |qp| in rho and a |qp| in r,
    0 in e and g e.  So a residual is the norm of its row.  The two blocks
    and the ramp hold 2 x 37 (m + 1) + 32 (m + 1) entries, and
    I - theta g (m + 1)^2.
    """

    def __init__(self, lin: LinearMap, zt, w0, v0, record):
        q, g = lin.q, lin.g
        self.lin, self.m = lin, len(g)
        self.shape = v0.shape
        self.v0 = v0.reshape(-1)
        self.v0_norm = math.sqrt(np.dot(self.v0, self.v0))
        self.expanded = w0 is not None
        # the state rows: sigma, e (, tau, rho, r)
        self.k = 5 if self.expanded else 2
        # the rows of this block and of the one before it
        self.buf, self.last = np.zeros((2, self.k + _S, self.m + 1))
        # the g e rows of the ramp, read by the stretch's first full block
        self.ramp = np.empty((_S, self.m + 1))
        # the steps of the block that the run takes, 0 before the first
        self.theta, self.steps, self.end = None, 0, 0
        self.record, self.records = record, []
        if not self.expanded:
            self.u0 = self.uv = q.T @ self.v0
            e = self.buf[1, :-1] = g @ self.u0
            self.res = math.sqrt(np.dot(e, e))
            self._split_v()
            return
        self.w0 = w0.reshape(-1)
        zw = (zt @ w0).reshape(-1)
        omega0, self.uv = np.array([zw, self.v0]) @ q
        self.u0 = self.uv + omega0
        qp = zw - q @ omega0
        qn = math.sqrt(np.dot(qp, qp))
        # qp / |qp|, the direction b |qp| in rho scales
        self.qp = qp / qn if qn else qp
        self.buf[0, -1] = 1.0
        self.buf[1, :-1] = g @ self.u0
        r = self.buf[4]
        r[:-1], r[-1] = omega0 - 2.0 * self.buf[1, :-1], qn
        self.res = math.sqrt(np.dot(r, r))
        self._split_v()
        self._split_w()

    def block(self, theta: float, left: int) -> list:
        """The residuals at the positions of the next block: the next
        steps at ``theta``, at most ``left`` of them."""
        if self.end:
            # move to the end of the last block
            if self.record:
                self._keep()
            self.buf, self.last = self.last, self.buf
        if theta != self.theta:
            if self.steps:
                self._leave()
            self.theta, self.steps, self.step = theta, 0, None
            # the map's record for theta, now the most recently used
            thetas = self.lin.thetas
            self.rec = thetas[theta] = thetas.pop(theta, None) or [0, None]
            if len(thetas) > _POWERS:
                del thetas[next(iter(thetas))]
        steps = self.steps
        s = self.s = min(left, _RAMP.get(steps, _S))
        head = _head(theta, self.expanded, s)
        k, buf = self.k, self.buf
        if steps >= _S and self._power() is not None:
            before = self.last[k:] if steps > _S else self.ramp
            np.dot(before[:s], self.rec[1].T, out=buf[k:k + s])
        else:
            ge = np.dot(self.lin.gp, buf[1], out=buf[k])
            if s > 1:
                step = self._step()
                for i in range(k + 1, k + s):
                    ge = np.dot(step, ge, out=buf[i])
            if steps < _S and s < left:
                self.ramp[steps:steps + s] = buf[k:k + s]
        self.steps, self.end = steps + s, s
        rows = self.rows = buf[:k + s]
        rows = np.dot(head, rows, out=self.last[:k + s - 1])[k - 1:]
        # squares at positions s .. 1; the last is the next block's first
        sq = np.vecdot(rows, rows).tolist()
        res = [self.res, *map(math.sqrt, reversed(sq))]
        self.res = res.pop()
        return res

    def _step(self):
        """I - theta g, built at its first use at theta."""
        if self.step is None:
            m = self.m
            self.step = self.lin.gp * -self.theta
            # the first m entries of the diagonal
            self.step.ravel()[:m * (m + 2):m + 2] += 1.0
        return self.step

    def _power(self):
        """P from the map's record for this theta, built into it once the
        record's steps and this stretch's pass 2m; None before then."""
        rec = self.rec
        if rec[1] is None and rec[0] + self.steps > 2 * self.m:
            p = self._step()
            for _ in range(_SQUARINGS):
                p = p @ p
            rec[1] = p
        return rec[1]

    def _leave(self) -> None:
        """Add the steps the run took in its stretch to the map's record
        for its theta."""
        self.rec[0] += self.steps - self.s + self.end

    def _states(self, first: int, stop: int) -> np.ndarray:
        """The states at positions ``first`` .. ``stop - 1`` of the block."""
        t = _tables(self.theta, self.expanded, self.s)[0]
        return t[first:stop] @ self.rows

    def v_norms(self) -> list:
        """||v|| at each position of the block before its end, from the
        split of v0: ||v||^2 = ||uv - sigma||^2 + c2 reduced (sigma's extra
        column is 0), and ||uv + rho||^2 + (h + rho_m)^2 + c2 expanded,
        rho_m the extra column."""
        s = self.s
        st = _tables(self.theta, self.expanded, s)[2] @ self.rows
        self.stop_states = st
        dv = self.vc + st[2 * s:] if self.expanded else self.vc - st
        return np.sqrt(np.vecdot(dv, dv) + self.c2).tolist()

    def gap_norms(self):
        """||x - w|| and ||w|| at the positions of :meth:`v_norms`, from
        the split of w0.  With B orthonormal per node, a = 1 - tau_m the
        extra column of sigma - tau, ku = kq u0 and dk = ku - c0,

            ||x - w||^2 = ||kq (sigma - tau) - a dk||^2 + a^2 w2,
            ||w||^2 = ||kq tau + a dk - ku||^2 + a^2 w2."""
        s, m = self.s, self.m
        st = self.stop_states
        c = st[:2 * s, :m] @ self.lin.kq.T
        a = st[:s, m:]
        ad = a * self.dk
        c[:s] -= ad
        c[s:] += ad
        c[s:] -= self.ku
        sq = np.vecdot(c, c)
        aw = np.square(a[:, 0]) * self.w2
        return np.sqrt(sq[:s] + aw).tolist(), np.sqrt(sq[s:] + aw).tolist()

    def _split_v(self) -> None:
        """Split v0 into q uv, h p (expanded, p the unit qp; else h = 0) and
        a remainder, whose squared norm is c2, and keep vc = [uv, h].  h is
        taken from v0 - q uv, not v0: where Z^T w0 lies in range(q), qp is
        rounding, and p is not orthogonal to q."""
        rem = self.v0 - self.lin.q @ self.uv
        h = 0.0
        if self.expanded:
            h = np.dot(self.qp, rem)
            rem -= h * self.qp
        self.vc = np.append(self.uv, h)
        self.c2 = np.dot(rem, rem)

    def _split_w(self) -> None:
        """Split w0 into B c0, c0 its node coordinates over the padded
        bases, and a remainder orthogonal to every B_i: keep w2, the
        remainder's squared norm, ku = kq u0 and dk = ku - c0."""
        lin = self.lin
        n, d, r = lin.basis.shape
        c0 = (self.w0.reshape(n, 1, d) @ lin.basis).reshape(n * r)
        rem = self.w0 - lin.blocks(c0)
        self.w2 = np.dot(rem, rem)
        self.ku = lin.kq @ self.u0
        self.dk = self.ku - c0

    def _keep(self) -> None:
        """Record the states after each step of the block the run takes."""
        states = self._states(0, self.end + 1)
        self.records.append((states[:-1, 0], states[1:]))

    def _v(self, states):
        """v at ``states``, flat; stacks of states give stacks of v."""
        q, m = self.lin.q, self.m
        if not self.expanded:
            return self.v0 - states[:, 0, :m] @ q.T
        rho = states[:, 3]
        return self.v0 + rho[:, :m] @ q.T + rho[:, m:] * self.qp

    def _xw(self, sigma, states):
        """x at ``sigma`` and w (None when reduced) at ``states``, flat."""
        lin, m = self.lin, self.m
        x = lin.blocks((self.u0 - sigma[:, :m]) @ lin.kq.T)
        if not self.expanded:
            return x, None
        tau = states[:, 2]
        # 1 - a
        one = tau[:, m:]
        w = lin.blocks((one * self.u0 - tau[:, :m]) @ lin.kq.T)
        return x, w + (1.0 - one) * self.w0

    def result(self, end: int):
        """The blocks after the first ``end`` steps of the last block, and
        of each recorded step, rebuilt by one product per kind of block."""
        self.end = end
        self._leave()
        if self.record:
            self._keep()
            sigma, states = map(np.concatenate, zip(*self.records))
        else:
            states = self._states(end - 1, end + 1)
            sigma, states = states[:1, 0], states[1:]
        n1, d = self.shape
        (x, w), v = self._xw(sigma, states), self._v(states)
        x, v = x.reshape(-1, n1 + 1, d), v.reshape(-1, n1, d)
        w = [None] * len(x) if w is None else w.reshape(-1, n1 + 1, d)
        return x[-1], w[-1], v[-1], list(zip(x, v, w)) if self.record else []


def _drive(it, stretches, tol):
    """Iterate the run ``it`` (a :class:`_Blocks` or :class:`_Linear`)
    through ``stretches`` of (theta, count), a block of steps at a time.

    Expanded, x = step(Z^T w + v) and both lines read the pre-update w:

        v <- v + theta_k Z^T (w - 2x),   w <- (1 - theta_k) w + theta_k x

    Reduced, x = step(v) and v <- v - theta_k Z^T x.  The residual is
    ||Z^T (w - 2x)||, or ||Z^T x|| reduced.  A run stops when it is at
    most tol * max(1, ||v||); the expanded run also needs ||x - w|| <=
    tol * max(1, ||w||), since a small v-change alone does not make w a
    fixed point.  ||v|| is asked of the run only for a block whose least
    residual passes the test against an upper bound of ||v||, ||v_j|| +
    sum_{l >= j} theta_l res_l from v0 or the last ||v|| asked; then the
    exact test runs at each position of the block, so every stop is the
    exact test's.  A :class:`_Linear` run answers from the splits of v0
    and w0, without forming v, x or w.  The first non-finite residual
    ends the run as a divergence.

    Returns x, w (None when reduced), v, the residuals, the stop reason
    -- ``tol``, ``end`` (every theta used) or ``diverged`` (the last
    residual is not finite, and no blocks are returned) -- and, for a run
    that records, the records ``(x, v, residual, w)`` after each step.
    """
    residuals = []
    bound = it.v0_norm
    for theta, count in stretches:
        while count:
            res = it.block(theta, count)
            s = len(res)
            count -= s
            total = sum(res)
            if not math.isfinite(total):
                bad = [j for j, r in enumerate(res) if not math.isfinite(r)]
                if bad:
                    residuals += res[:bad[0] + 1]
                    return None, None, None, np.array(residuals), "diverged", []
            # no residual of the block can pass when the least fails
            # against the bound at its end; NaN, from an unbounded ||v||
            # and tol 0, passes
            if min(res) > tol * max(_BOUND_SLACK * (bound + theta * total), 1.0):
                bound += theta * total
            else:
                v = it.v_norms()
                done = [j for j, (r, vj) in enumerate(zip(res, v))
                        if r <= tol * max(1.0, vj)]
                if done and it.expanded:
                    gap, w = it.gap_norms()
                    done = [j for j in done if gap[j] <= tol * max(1.0, w[j])]
                if done:
                    s = done[0] + 1
                    return _result(it, s, residuals + res[:s], "tol")
                bound = v[-1] + theta * res[-1]
            residuals += res
    return _result(it, s, residuals, "end")


def _result(it, end, residuals, reason):
    """What :func:`_drive` returns, ``end`` steps into the last block."""
    x, w, v, blocks = it.result(end)
    records = [(bx, bv, res, bw) for (bx, bv, bw), res in zip(blocks, residuals)]
    return x, w, v, np.array(residuals), reason, records


def _start(step, zt, w0, v0, stretches, tol, record_states):
    """The run from (w0, v0), or from v0 alone when ``w0`` is None, driven
    to its end.  A run of a :class:`LinearMap` has numpy's overflow and
    invalid warnings off: all its arithmetic is its own, a divergence shows
    as a non-finite residual, and the rows a block computes past it raise
    nothing.  A node sweep calls the node resolvents, so its run keeps the
    caller's error state."""
    if isinstance(step, LinearMap):
        with np.errstate(over="ignore", invalid="ignore"):
            return _drive(_Linear(step, zt, w0, v0, record_states),
                          stretches, tol)
    return _drive(_Blocks(step, zt, w0, v0, record_states), stretches, tol)


def alg2_sweep(step, zt, v0, stretches, tol, record_states=False):
    """Reduced iteration from ``v0``; see :func:`_drive`."""
    return _start(step, zt, None, v0, stretches, tol, record_states)


def alg1_sweep(step, zt, w0, v0, stretches, tol, record_states=False):
    """Expanded iteration from ``(w0, v0)``; see :func:`_drive`."""
    return _start(step, zt, w0, v0, stretches, tol, record_states)
