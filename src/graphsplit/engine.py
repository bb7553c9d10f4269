"""Splitting-problem container, operator applications and the two
fixed-point iterations.

Block vectors live in (R^d)^n or (R^d)^{n-1} and are stored as plain
numpy arrays of shape (n, d) / (n-1, d), so applying a coefficient matrix
K across blocks is the product ``K @ blocks``.

The preconditioner M = [[Lap(G'), Z], [Z^T, I]] and the block operator it
preconditions are never materialized.  Every application reduces to one
node sweep on node inputs t,

    x_i = J_{A_i/d_i}((t_i + 2 sum_{(h,i) in E} x_h) / d_i),

which is well defined because every edge (h, i) has h < i.  Applying
(M + A)^{-1} sweeps on t = w; the reduced operator sweeps on t = Z v; and
the expanded operator, whose node input Lap(G') w + Z v equals
Z (Z^T w + v) because Z Z^T = Lap(G'), sweeps on t = Z (Z^T w + v).  So
both iterations step through one map y -> x on governing-sized inputs:
y = v (reduced) and y = Z^T w + v (expanded).

Iterations follow the two relaxed schemes

    w <- (1 - theta) w + theta x,   v <- v + theta Z^T (w - 2 x)     (expanded)
    v <- v - theta Z^T x                                             (reduced)

where x is the sweep output at the pre-update state.  The recorded
residual is the norm of the unrelaxed v-change (equal to ||dv|| / theta
for theta > 0), so it is invariant under relaxation scaling and is still
meaningful at theta = 0.  Both run in the one loop of ``_kernels``, the
reduced one as the expanded loop without w.  A run stops on its stop rule
(``tol``) or at the end of its thetas (``max_iters``, or ``schedule`` for
a finite schedule); a non-finite residual raises ``DivergenceError``.  The
loop takes the thetas as stretches of equal theta: a constant is one
stretch of ``max_iters`` steps, a schedule its runs of equal values.  The
residuals grow with the run, so no array of a run is sized by its budget.

When every node operator is the normal cone of a subspace U_i, y -> x is
linear, x = S y.  A subspace problem whose residual map holds at most
``LINEAR_MAP_MAX_ENTRIES`` entries builds that map at its first run and
keeps it, and its runs iterate the residual on it instead of the blocks
(see ``_kernels.LinearMap`` and ``_kernels._Linear``).  Every other
problem steps through the node sweep.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .factor import OntoDecomposition
from .graphs import GraphPair, degrees, laplacian
from .operators import NormalConeOp, _dimension, real_array

log = logging.getLogger("graphsplit")

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 100_000
#: largest residual map (q, g and kq), in float64 entries (2 MiB), that a
#: subspace problem caches; larger problems keep sweeping node by node.  The
#: cap bounds memory and build time: q, g and kq hold ((n-1) d + n r + m) m
#: entries, r = max r_i and m = min(sum r_i, (n-1) d), so on complete G with
#: n = 60, d = 24 and r_i = 12 they would hold (1416 + 720 + 720) 720, about
#: 2.06 M entries or 16 MB, where the node sweep needs a few kilobytes.  The
#: powers (I - theta g)^32 the map keeps for up to three thetas add at most
#: as many again.
LINEAR_MAP_MAX_ENTRIES = 1 << 18


class DivergenceError(RuntimeError):
    """The residual of iteration ``iteration`` is not finite;
    ``residuals`` holds the run's residuals up to and including it."""

    def __init__(self, residuals: np.ndarray):
        self.iteration = len(residuals)
        self.residuals = residuals
        super().__init__(f"non-finite iterate at iteration {self.iteration}")


class SplittingProblem:
    """Graph pair + Laplacian decomposition + one resolvent per node.

    Parameters
    ----------
    pair : GraphPair
        The graphs (G, G') driving the sweep and the governing update.
    dec : OntoDecomposition
        Onto decomposition of Lap(G').
    ops : sequence of ResolventOp
        One operator per node, each with a callable ``resolvent``: a
        callback is consumed through it, a normal cone through the
        projector onto its subspace, which must live in R^d.  The operators
        are read at the first sweep and cached; do not replace them
        afterwards.
    d : int
        Ambient dimension of each block: an int or numpy integer >= 1,
        never a bool or a float.
    """

    def __init__(self, pair: GraphPair, dec: OntoDecomposition, ops, d: int):
        d, n = _dimension(d), pair.g.n
        ops = list(ops)
        if len(ops) != n:
            raise ValueError(f"expected {n} operators, got {len(ops)}")
        for i, op in enumerate(ops):
            if not callable(getattr(op, "resolvent", None)):
                raise ValueError(f"operator {i + 1} has no callable "
                                 f"resolvent: {op!r}")
            if isinstance(op, NormalConeOp) and op.subspace.dim_ambient != d:
                raise ValueError(f"operator {i + 1}: subspace lives in "
                                 f"R^{op.subspace.dim_ambient}, expected R^{d}")
        mismatch = np.abs(dec.z @ dec.z.T - laplacian(pair.sub)).max()
        if mismatch > 1e-10:
            raise ValueError(f"decomposition does not factor Lap(G'): max "
                             f"deviation {mismatch:.3e}")
        self.pair, self.dec, self.ops, self.d, self.n = pair, dec, ops, d, n
        self._dinv = 1.0 / degrees(pair.g)[2]
        self.z = np.ascontiguousarray(dec.z)
        self.zt = np.ascontiguousarray(dec.z.T)

    @property
    def all_subspace(self) -> bool:
        return all(isinstance(op, NormalConeOp) for op in self.ops)

    @cached_property
    def _node_maps(self) -> list:
        """Per node, built at the first sweep: its in-neighbours in G (h
        with (h, i) in E, 0-based, in edge order) and the map s ->
        J_{A_i/d_i}(s / d_i); a subspace node applies its scaled projector
        to the last axis, so it also takes batches."""
        preds = [[] for _ in range(self.n)]
        for h, i in self.pair.g.edges:
            preds[i - 1].append(h - 1)
        maps = []
        for op, dinv in zip(self.ops, self._dinv.tolist()):
            if isinstance(op, NormalConeOp):
                q = dinv * op.subspace.projector()
                maps.append(lambda s, q=q: s @ q)
            else:
                maps.append(lambda s, op=op, g=dinv: op.resolvent(s * g, g))
        return list(zip(preds, maps))

    @cached_property
    def _linear_map(self) -> _kernels.LinearMap | None:
        """The residual map of a subspace problem whose q, g and kq have at
        most ``LINEAR_MAP_MAX_ENTRIES`` entries, else None; see
        :class:`_kernels.LinearMap`."""
        if not self.all_subspace:
            return None
        n, d = self.n, self.d
        subs = [op.subspace for op in self.ops]
        dims = [u.dim for u in subs]
        r, nd1 = max(dims), (n - 1) * d
        m = min(sum(dims), nd1)
        if (nd1 + n * r + m) * m > LINEAR_MAP_MAX_ENTRIES:
            return None
        # per node its basis and its complement, padded with zero columns
        basis, perp = np.zeros((n, d, r)), np.zeros((n, d, d - min(dims)))
        for b, c, u, k in zip(basis, perp, subs, dims):
            b[:, :k], c[:, :d - k] = u.basis, u.perp
        live = (np.arange(r) < np.array(dims)[:, None]).reshape(-1)
        # R = (Z^T (x) I_d) blockdiag(B_i), one column per basis vector
        rr = (self.zt[:, None, :, None] * basis.transpose(1, 0, 2))
        q, rf = np.linalg.qr(rr.reshape(nd1, n * r)[:, live])
        # sweep q's columns at once, on node inputs Z y of shape (n, m, d)
        x = node_sweep(self, (self.z @ q.reshape(n - 1, d * m))
                       .reshape(n, d, m).transpose(0, 2, 1))
        kq = (x @ basis).transpose(0, 2, 1).reshape(n * r, m)
        # Z^T S q = R kq, and q^T R = rf
        return _kernels.LinearMap(q, rf @ kq[live], kq, basis, perp)


def node_sweep(p: SplittingProblem, t: np.ndarray) -> np.ndarray:
    """The forward sweep x_i = J_{A_i/d_i}((t_i + 2 sum_{(h,i) in E} x_h)
    / d_i) on node inputs t of shape (n, d), or (n, batch, d) for subspace
    problems."""
    x = np.empty_like(t)
    for i, (preds, node_map) in enumerate(p._node_maps):
        s = t[i]
        for h in preds:
            s = s + 2.0 * x[h]
        try:
            x[i] = node_map(s)
        except Exception as exc:
            raise RuntimeError(f"resolvent failed at node {i + 1}: {exc}") from exc
    return x


def _step(p: SplittingProblem):
    """What the driver iterates: the residual map when cached, else the
    node sweep y -> x on t = Z y."""
    return p._linear_map or (lambda y: node_sweep(p, p.z @ y))


def solve_m_plus_a(p: SplittingProblem, w, v):
    """Apply (M + A)^{-1} to the block pair (w, v).

    The n upper blocks come from the node sweep on t = w; the lower
    blocks are ``y = v - 2 Z^T x``.
    """
    w = real_array(w, "w", (p.n, p.d))
    v = real_array(v, "v", (p.n - 1, p.d))
    x = node_sweep(p, w)
    return x, v - 2.0 * (p.zt @ x)


def apply_T(p: SplittingProblem, w, v):
    """One application of the expanded fixed-point operator.

    Returns the shadow blocks x and the updated governing blocks
    ``v + Z^T (w - 2x)``.
    """
    w = real_array(w, "w", (p.n, p.d))
    v = real_array(v, "v", (p.n - 1, p.d))
    x = node_sweep(p, p.z @ (p.zt @ w + v))
    return x, v + p.zt @ (w - 2.0 * x)


def apply_T_tilde(p: SplittingProblem, v):
    """One application of the reduced fixed-point operator.

    Returns the shadow blocks x and ``v - Z^T x``.
    """
    v = real_array(v, "v", (p.n - 1, p.d))
    x = node_sweep(p, p.z @ v)
    return x, v - p.zt @ x


@dataclass
class StopRule:
    """Relative stop rule, or the iteration budget.

    A run converges when its residual is at most tol * max(1, ||v||_F);
    the expanded run must also have ||x - w||_F <= tol * max(1, ||w||_F).
    ``tol`` is a real number >= 0 that passes ``operators.real_array``,
    and ``max_iters`` an integer in [1, sys.maxsize], never bool or float.
    """

    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS


@dataclass
class TraceRecord:
    k: int
    x: np.ndarray
    v: np.ndarray
    residual: float
    w: np.ndarray | None = None


@dataclass
class Trace:
    """Outcome of a run: final blocks, per-iteration residuals, and full
    per-iteration records when state recording was requested.

    ``stop_reason`` is ``tol`` (converged), ``max_iters`` (budget used),
    or ``schedule`` (a finite relaxation schedule ran out first).
    """

    x: np.ndarray
    v: np.ndarray
    residuals: np.ndarray
    converged: bool
    stop_reason: str
    w: np.ndarray | None = None
    iterations: list[TraceRecord] = field(default_factory=list)

    @property
    def k_final(self) -> int:
        return len(self.residuals)


def _schedule(theta, stop: StopRule):
    """The thetas of a run as stretches ``(theta, count)`` of equal theta,
    a constant for ``stop.max_iters`` steps or the runs of a finite
    schedule cut to the budget, and its tol as a float.  The one check of a
    run's theta, tol and max_iters."""
    m = stop.max_iters
    if (isinstance(m, bool) or not isinstance(m, numbers.Integral)
            or not 1 <= m <= sys.maxsize):
        raise ValueError(f"max_iters must be an integer in [1, {sys.maxsize}], "
                         f"got {m!r}")
    tol = float(real_array(stop.tol, "stop tolerance", ()))
    if tol < 0.0:
        raise ValueError(f"stop tolerance must be >= 0, got {stop.tol!r}")
    flat = isinstance(theta, (list, tuple)) or np.ndim(theta) > 0
    arr = real_array(theta, "relaxation parameter (a number in [0, 2] or a "
                     "flat list of them)", (len(theta),) if flat else ())
    if not flat:
        th = float(arr)
        if not 0.0 <= th <= 2.0:
            raise ValueError(f"relaxation parameter must lie in [0, 2], got {th}")
        if th == 0.0 or th == 2.0:
            log.warning("constant relaxation %.1f gives no convergence "
                        "guarantee", th)
        return [(th, m)], tol
    if arr.size == 0:
        raise ValueError("relaxation schedule is empty")
    if not ((0.0 <= arr) & (arr <= 2.0)).all():
        raise ValueError("relaxation schedule must lie in [0, 2]")
    arr = arr[:m]
    # where theta changes, with the two ends
    edges = [0, *(np.flatnonzero(arr[1:] != arr[:-1]) + 1).tolist(), arr.size]
    values = arr.tolist()
    return [(values[a], b - a) for a, b in zip(edges, edges[1:])], tol


def _run(p: SplittingProblem, w0, v0, theta, stop: StopRule | None,
         record_states: bool) -> Trace:
    """The expanded run from (w0, v0), or the reduced run from v0 when
    ``w0`` is None, through its own entry point into the driver."""
    stop = stop or StopRule()
    stretches, tol = _schedule(theta, stop)
    w0 = None if w0 is None else real_array(w0, "w0", (p.n, p.d))
    v0 = real_array(v0, "v0", (p.n - 1, p.d))
    for what, start in (("w0", w0), ("v0", v0)):
        # the stop test squares the norm, so no run could start from it
        if start is not None and not math.isfinite(np.vdot(start, start)):
            raise ValueError(f"{what} is too large: its squared norm overflows")
    if w0 is None:
        x, w, v, residuals, reason, recs = _kernels.alg2_sweep(
            _step(p), p.zt, v0, stretches, tol, record_states)
    else:
        x, w, v, residuals, reason, recs = _kernels.alg1_sweep(
            _step(p), p.zt, w0, v0, stretches, tol, record_states)
    if reason == "diverged":
        raise DivergenceError(residuals)
    if reason == "end":
        reason = "schedule" if len(residuals) < stop.max_iters else "max_iters"
    records = [TraceRecord(k + 1, *rec) for k, rec in enumerate(recs)]
    return Trace(x, v, residuals, reason == "tol", reason, w=w,
                 iterations=records)


def run_alg2(p: SplittingProblem, v0, theta=1.0, stop: StopRule | None = None,
             record_states: bool = False) -> Trace:
    """Run the reduced iteration v <- v - theta_k Z^T x from ``v0``.

    ``theta`` is a real constant in [0, 2], never expanded to the budget,
    or a flat list of them, a finite schedule that also caps the iteration
    count.  ``stop`` (``StopRule()`` when None) takes the tol and
    max_iters of :class:`StopRule`.  ``v0``, theta and tol pass
    ``operators.real_array``, so bool, str, None, wrong nesting and
    non-finite values raise ``ValueError``, as does a start whose squared
    norm overflows float64.  With ``record_states`` the
    trace keeps every iterate.  Subspace problems within the memory cap
    iterate their residual on the cached residual map (see
    ``_kernels._Linear``), with numpy's overflow and invalid warnings off;
    all others step on the node sweep.
    A non-finite residual raises :class:`DivergenceError`.
    """
    return _run(p, None, v0, theta, stop, record_states)


def run_alg1(p: SplittingProblem, w0, v0, theta=1.0,
             stop: StopRule | None = None,
             record_states: bool = False) -> Trace:
    """Run the expanded iteration from ``(w0, v0)``.

    The governing update reads the pre-update w (the v-line uses w^k, not
    the freshly relaxed w^{k+1}).  The run stops on tolerance only when
    both the v-change residual and the shadow gap ||x - w|| are small; the
    recorded residual is the v-change.  The other arguments, ``w0``'s check,
    the sweep, its blocks and the divergence guard are as in
    :func:`run_alg2`.
    """
    return _run(p, w0, v0, theta, stop, record_states)


# ---------------------------------------------------------------------------
# trace serialization

def trace_header(n: int, d: int) -> list[str]:
    cols = ["k", "residual"]
    cols += [f"x{i}_{c}" for i in range(1, n + 1) for c in range(d)]
    cols += [f"v{j}_{c}" for j in range(1, n) for c in range(d)]
    return cols


def trace_to_csv(trace: Trace, path, n: int, d: int) -> None:
    """Write per-iteration records as CSV (requires a trace produced with
    ``record_states=True``): the rows ``csv.writer`` writes for k, the
    residual and the x and v entries at 17 significant digits, one
    ``%``-format per row."""
    row = "%d," + ",".join(["%.17g"] * (1 + (2 * n - 1) * d)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(trace_header(n, d)) + "\r\n")
        fh.writelines(row % (rec.k, rec.residual, *rec.x.ravel().tolist(),
                             *rec.v.ravel().tolist())
                      for rec in trace.iterations)


#: a number's slot in a template, written by json.dumps as a string
_SLOT = "%s"


@lru_cache(maxsize=64)
def _json_record_template(shapes: tuple) -> str:
    """One record as ``json.dump(indent=2)`` writes it inside the trace
    document, with a ``%s`` slot per number; ``shapes`` are those of x, v
    and w (None for no w)."""
    x, v, w = (None if s is None else np.full(s, _SLOT, dtype=object).tolist()
               for s in shapes)
    text = json.dumps({"k": _SLOT, "residual": _SLOT, "x": x, "v": v, "w": w},
                      indent=2)
    return text.replace("\n", "\n    ").replace(json.dumps(_SLOT), _SLOT)


def _json_records(records):
    sep = ""
    for rec in records:
        w = () if rec.w is None else rec.w.ravel().tolist()
        nums = [rec.k, rec.residual, *rec.x.ravel().tolist(),
                *rec.v.ravel().tolist(), *w]
        # %s writes a finite number as json.dumps does, but not NaN or inf
        if not math.isfinite(sum(nums)):
            nums = [json.dumps(x) for x in nums]
        shapes = (rec.x.shape, rec.v.shape,
                  None if rec.w is None else rec.w.shape)
        yield sep + _json_record_template(shapes) % tuple(nums)
        sep = ",\n    "


def trace_to_json(trace: Trace, path) -> None:
    """JSON mirror of the CSV records plus the run outcome.

    The file is byte for byte what ``json.dump(doc, fh, indent=2)``
    followed by a newline writes.  ``json`` encodes an indented document
    in pure Python, one call per number; this writer fills a per-shape
    template, cut from ``json.dumps`` output, with each record's numbers
    in one ``%`` and streams the records, so the document is never held
    whole.  Non-finite numbers get json's tokens NaN, Infinity and
    -Infinity.
    """
    doc = {"converged": trace.converged, "stop_reason": trace.stop_reason,
           "iterations": trace.k_final,
           "records": [_SLOT] if trace.iterations else []}
    head, *tail = json.dumps(doc, indent=2).split(json.dumps(_SLOT))
    with open(path, "w") as fh:
        fh.write(head)
        fh.writelines(_json_records(trace.iterations))
        fh.write("".join(tail) + "\n")
