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
the budget.  On a :class:`LinearMap` the state rows start from the splits
of v0 and w0, so the stop test reads its norms from them, and ||x - w||
only where the residual passes; x, w and v are formed only at the end.

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
    to one (n, d, r) array, so S q = blockdiag(B_i) kq; ``kqe`` is kq with
    a zero row appended, and ``kq`` a view of it.  ``perp`` holds the node
    complements, padded to d - min r_i columns: n d^2 entries at most, not
    counted against the size cap.

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
                 basis: np.ndarray, perp: np.ndarray):
        m = len(g)
        self.gp = np.zeros((m + 1, m + 1))
        self.gp[:m, :m] = g
        self.kqe = np.vstack([kq, np.zeros(m)])
        self.q, self.g, self.kq = q, self.gp[:m, :m], self.kqe[:-1]
        self.basis, self.perp = basis, perp
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

    def gap_norms(self, done):
        dw, w = self.x - self.w, self.w
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
#: after it by A0 + theta A1.  Reduced, the rows are xi = u0 - sum theta_j
#: e_j and e.  Expanded, they are xi; e; tau, which relaxes towards xi;
#: rho = [uv, h] + sum theta_j r_j; and r = q^T Z^T (w - 2x).  The
#: residual's row is the last.
_REDUCED = (np.eye(2, 3), np.array([[0.0, -1, 0], [0, 0, -1]]))
_EXPANDED = (np.eye(5, 6),
             np.array([[0.0, -1, 0, 0, 0, 0], [0, 0, 0, 0, 0, -1],
                       [1, 0, -1, 0, 0, 0], [0, 0, 0, 0, 1, 0],
                       [0, -1, 0, 0, -1, 2]]))


@functools.lru_cache(maxsize=64)
def _tables(theta: float, expanded: bool, s: int):
    """The states of a block of s steps at theta as coefficients of its
    rows, read-only: ``(t, head, stop, out)``.

    A block holds the k state rows at its first position, then
    g e_0 .. g e_(s-1).  ``t[j] @ block`` is the state at position j, and
    ``head`` the block's one product: the rows of its state at position s
    and of its residual at positions s - 1 .. 1.  ``stop @ block`` is the
    rows the stop test reads at positions 0 .. s - 1: the row of v (xi
    reduced, rho expanded), and expanded then xi - tau and tau, the rows
    of x - w and w, s rows of each.  ``out[i] @ block`` are the rows of the
    blocks after each step: i = 0 xi at positions 0 .. s - 1, for x, then
    at positions 1 .. s tau (expanded), for w, and the row of v.
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
    i = 3 if expanded else 0
    stop, out = [t[:s, i]], [t[:s, 0]]
    if expanded:
        stop += [t[:s, 0] - t[:s, 2], t[:s, 2]]
        out += [t[1:, 2]]
    stop, out = np.concatenate(stop), np.stack(out + [t[1:, i]])
    for a in (t, head, stop, out):
        a.flags.writeable = False
    return t, head, stop, out


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
    Z^T w + v expanded) and u0 = q^T y0, the shadow is x_k = B kq xi_k
    with xi_k = u0 - sigma_k, and Z^T x_k = q e_k with e_k = g xi_k, the
    reduced residual.  Split v0 = q uv + h p + v_r, with h = 0 reduced,
    Z^T w0 = q omega0 + qp, p = qp / |qp| and v_r orthogonal to q and p;
    reduced, v = v0 - q sigma = v_r + q xi.  Expanded, with
    a_k = prod (1 - theta_j) and w0 = B c0 + w_r, w_r orthogonal to every
    B_i (c0 the node coordinates over the padded bases),

        Z^T (w - 2x) = q r + a qp,     v = v_r + q rho + rho_m p,
        w = a w0 + B kq tau.

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
    rows and the next block's first rows.
    Every row has one more column, m, which the steps carry as they carry
    the others: 0 in xi, -a in tau, h + b |qp| in rho (b = sum theta_j
    a_j) and a |qp| in r, 0 in e and g e.  So a residual is the norm of
    its row, and ||v||^2 is the squared norm of the row of v (xi reduced,
    rho expanded) plus ||v_r||^2.
    The set-up writes the state rows at the start from the splits of v0
    and, expanded, Z^T w0 over q (one product with q, one with q^T) and of
    w0 over each node's padded basis and complement (``basis``, ``perp``).
    A tested block gives ||v|| at every position from one product, and
    ||x - w|| and ||w|| only where the residual passes, from one product
    of its rows with kq (see :meth:`gap_norms`).  x and w are formed, for
    records and the result only, by one product with kq and one with the
    bases; a theta of 0 leaves v, x and w exactly as they were.  The two
    blocks and the ramp hold 2 x 37 (m + 1) + 32 (m + 1) entries.
    """

    def __init__(self, lin: LinearMap, zt, w0, v0, record):
        q, m = lin.q, len(lin.g)
        self.lin, self.m, self.shape = lin, m, v0.shape
        self.v0 = v0 = v0.reshape(-1)
        self.v0_norm = math.sqrt(v0.dot(v0))
        self.expanded = w0 is not None
        # the state rows: xi, e (, tau, rho, r)
        k = self.k = 5 if self.expanded else 2
        # the rows of this block and of the one before it
        self.buf, self.last = np.empty((2, k + _S, m + 1))
        # the g e rows of the ramp, read by the stretch's first full block
        self.ramp = np.empty((_S, m + 1))
        # the steps of the block that the run takes, 0 before the first
        self.theta, self.steps, self.end = None, 0, 0
        self.record, self.records = record, []
        rows = self.buf
        if self.expanded:
            # Z^T w0 and v0, less their parts in range(q): qp and v0 - q uv
            y = np.empty((2, len(v0)))
            zt.dot(w0, out=y[0].reshape(self.shape))
            y[1] = v0
            c = y.dot(q)
            y -= c.dot(q.T)
            qp, rem = y
            qn = math.sqrt(qp.dot(qp))
            self.p = p = qp / qn if qn else qp
            # h from v0 - q uv, not v0: where Z^T w0 lies in range(q), qp
            # is rounding and p is not orthogonal to q
            h = p.dot(rem)
            rem -= h * p
            rows[:k, m] = 0.0, 0.0, -1.0, h, qn
            np.add(c[0], c[1], out=rows[0, :m])
            rows[2, :m] = 0.0
            rows[3, :m] = c[1]
            lin.gp.dot(rows[0], out=rows[1])
            np.subtract(c[0], 2.0 * rows[1, :m], out=rows[4, :m])
            # w0's node coordinates c0, then the norm of the rest of w0
            n, d, r = lin.basis.shape
            w0 = w0.reshape(n, 1, d)
            self.c0 = np.empty(n * r + 1)
            np.matmul(w0, lin.basis, out=self.c0[:-1].reshape(n, 1, r))
            wr = (w0 @ lin.perp).reshape(-1)
            self.c0[-1] = math.sqrt(wr.dot(wr))
            self.w0 = w0.reshape(-1)
        else:
            rows[:k, m] = 0.0
            v0.dot(q, out=rows[0, :m])
            lin.gp.dot(rows[0], out=rows[1])
            rem = v0 - q.dot(rows[0, :m])
        # the row of v at the start, [uv, h]
        self.vc = rows[3 if self.expanded else 0].copy()
        self.c2 = rem.dot(rem)
        self.res = math.sqrt(rows[k - 1].dot(rows[k - 1]))

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
            before[:s].dot(self.rec[1].T, out=buf[k:k + s])
        else:
            ge = self.lin.gp.dot(buf[1], out=buf[k])
            if s > 1:
                step = self._step()
                for i in range(k + 1, k + s):
                    ge = step.dot(ge, out=buf[i])
            if steps < _S and s < left:
                self.ramp[steps:steps + s] = buf[k:k + s]
        self.steps, self.end = steps + s, s
        rows = self.rows = buf[:k + s]
        rows = head.dot(rows, out=self.last[:k + s - 1])[k - 1:]
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
                p = p.dot(p)
            rec[1] = p
        return rec[1]

    def _leave(self) -> None:
        """Add the steps the run took in its stretch to the map's record
        for its theta."""
        self.rec[0] += self.steps - self.s + self.end

    def v_norms(self) -> np.ndarray:
        """||v|| at each position of the block before its end."""
        s = self.s
        st = _tables(self.theta, self.expanded, s)[2][:s].dot(self.rows)
        return np.sqrt(np.vecdot(st, st) + self.c2)

    def gap_norms(self, done: np.ndarray) -> np.ndarray:
        """||x - w|| and ||w|| at the positions ``done`` of the block, as
        the two rows of one array.  With B orthonormal per node, for d the
        row of x - w (xi - tau, extra column a) or of w (tau, extra
        column -a),

            ||B (kq d - d_m c0) - d_m w_r||^2
                = ||kq d - d_m c0||^2 + d_m^2 ||w_r||^2,

        the squared norm of kqe d - d_m [c0, ||w_r||], linear in d: taken
        of the block's k + s rows, then combined per position, it costs
        fewer flops than of the 2 len(done) rows once 2 len(done) > k + s."""
        s, m, rows = self.s, self.m, self.rows
        stop = _tables(self.theta, True, s)[2][s:].reshape(2, s, -1)
        kr = rows[:, :m].dot(self.lin.kqe.T)
        kr -= rows[:, m:] * self.c0
        c = stop[:, done].reshape(2 * len(done), -1).dot(kr)
        return np.sqrt(np.vecdot(c, c)).reshape(2, -1)

    def _keep(self) -> None:
        """Record the rows of the blocks after each step of the block the
        run takes."""
        out = _tables(self.theta, self.expanded, self.s)[3]
        self.records.append(out[:, :self.end] @ self.rows)

    def _blocks(self, rows):
        """x, w (None when reduced) and v, flat, from their rows, stacked
        on the first axis: xi, then tau (expanded), then the row of v, each
        one row or a stack of them.  One product with kq and one with the
        bases form x and w."""
        lin, m = self.lin, self.m
        xw = lin.blocks(rows[:-1, ..., :m] @ lin.kq.T)
        dv = rows[-1] - self.vc
        v = self.v0 + dv[..., :m].dot(lin.q.T)
        if not self.expanded:
            return xw[0], None, v
        v += dv[..., m:] * self.p
        return xw[0], xw[1] - rows[1, ..., m:] * self.w0, v

    def result(self, end: int):
        """The blocks after the first ``end`` steps of the last block, and
        of each recorded step, rebuilt from their rows at once."""
        self.end = end
        self._leave()
        if self.record:
            self._keep()
            rows = np.concatenate(self.records, axis=1)
        else:
            out = _tables(self.theta, self.expanded, self.s)[3]
            rows = out[:, end - 1].dot(self.rows)
        x, w, v = self._blocks(rows)
        n1, d = self.shape
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
    exact test's: its residual part on every position at once, and
    expanded ||x - w|| and ||w|| only at the positions that pass it.  A
    :class:`_Linear` run answers from the splits of v0 and w0, without
    forming v, x or w.  The first non-finite residual ends the run as a
    divergence.

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
                # fmax, as max(1.0, v) would, takes 1 for a NaN ||v||
                done = (np.array(res) <= tol * np.fmax(v, 1.0)).nonzero()[0]
                if done.size and it.expanded:
                    gap, w = it.gap_norms(done)
                    done = done[gap <= tol * np.fmax(w, 1.0)]
                if done.size:
                    s = int(done[0]) + 1
                    return _result(it, s, residuals + res[:s], "tol")
                bound = float(v[-1]) + theta * res[-1]
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
