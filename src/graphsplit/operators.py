"""Node operators through their resolvents.

The engines only ever evaluate resolvents J_{gamma A}(x).  Two operator
kinds are supported:

* :class:`NormalConeOp` -- the normal cone of a closed linear subspace,
  whose resolvent is the orthogonal projection onto the subspace for every
  scale gamma.  This is the fully analyzed case.
* :class:`CallbackOp` -- a user-supplied resolvent callback, accepted by
  the iteration engines but rejected by the closed-form analysis.

Subspaces are represented by an orthonormal basis (possibly with zero
columns, for the trivial subspace) together with an orthonormal basis of
the orthogonal complement.  Every rank is decided on SVD singular values:
one counts as zero when it is at most 1e-10 times the largest one (or
1e-10 when the largest is below 1).  A subspace's basis and complement
come from one SVD of its unit spanners, keeping all d left singular
vectors: those up to the rank are the basis and the rest the complement,
so :func:`complement` factors nothing.  Each spanner is scaled to unit
length first, so the rank does not depend on the spanners' relative
scales, and the scaling neither overflows nor underflows: only an
all-zero spanner is dropped.

A config's nodes are built together, by ``_subspaces``: when every node
has k spanners and none is all zero, all of them are checked as one
(n, k, d) stack, scaled at once and factored by one stacked SVD, which
gives each node the bytes of its own; any other config is built node by
node.  :func:`subspace_from_spanners` is the one-node case of the same
check, scaling and factor.

:func:`real_array` is the one check of real-number input, for spanners,
runs, operator applications, predictions and the CLI; it coerces nothing.
Spanners pass it once, as one stack; only when that fails are a node's
spanners checked one by one, so the error names the first bad spanner.
Every constructor of a subspace takes d as an int or numpy integer >= 1
and stores it as an int.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

log = logging.getLogger("graphsplit")

_DROP_TOL = 1e-10


@dataclass(frozen=True)
class LinearSubspace:
    """Closed linear subspace of R^d, stored as an orthonormal basis and
    an orthonormal basis of its orthogonal complement.

    ``basis`` has shape (d, r) and ``perp`` shape (d, d - r); r = 0
    encodes the zero subspace and r = d the whole space.  Both come from
    one factorisation, so ``[basis, perp]`` is an orthogonal matrix.
    """

    dim_ambient: int
    basis: np.ndarray
    perp: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Dense projection matrix basis @ basis.T."""
        return self.basis @ self.basis.T


def _shape_text(shape: tuple) -> str:
    return f"length {shape[0]}" if len(shape) == 1 else f"shape {shape}"


def real_array(value, what: str, shape: tuple):
    """``value`` as finite float64 of exactly ``shape`` (a numpy scalar for
    shape ()).  An int or float ndarray is converted whole, a float64 one
    without a copy; any other value must nest int or float entries, numpy's
    included, exactly as ``shape``.  bool, str, None, other nesting,
    non-finite values and integers beyond the float range raise
    ``ValueError`` naming ``what``."""
    if shape == () and (type(value) is float or type(value) is int):
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{what} is not finite: {value!r}")
        return np.float64(value)
    arr = value
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        arr = np.array(value, dtype=object)
        real = (int, float, np.integer, np.floating)
        if not all(t is not bool and issubclass(t, real)
                   for t in set(map(type, arr.flat))):
            if any(isinstance(x, (list, tuple, np.ndarray)) for x in arr.flat):
                raise ValueError(f"{what} must have {_shape_text(shape)}, "
                                 f"got a ragged nesting: {value!r}")
            raise ValueError(f"{what} must be real numbers (int or float), "
                             f"got {value!r}")
    if arr.shape != shape:
        raise ValueError(f"{what} must have {_shape_text(shape)}, "
                         f"got shape {arr.shape}")
    try:
        arr = arr.astype(np.float64, copy=False)
        # count_nonzero takes a fraction of .all()'s time on small arrays
        finite = np.count_nonzero(np.isfinite(arr)) == arr.size
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{what} is not finite: {value!r}")
    return arr[()] if shape == () else arr


def _rank(s: np.ndarray) -> int:
    """Rank from singular values in descending order.  The tolerance is
    formed from the Python float ``s.item(0)``, the same double as ``s[0]``
    at a fraction of a numpy scalar's cost."""
    return np.count_nonzero(s > _DROP_TOL * max(s.item(0), 1.0))


def _range_split(mat: np.ndarray) -> list:
    """Orthonormal bases of the range of each d x k matrix of the (m, d, k)
    stack ``mat`` and of its complement, as a list of m pairs in order: all
    d left singular vectors, split at the rank, from one SVD of the stack.
    Only a matrix with fewer than d columns needs the full factor; with
    k >= d the thin one already has d columns and skips the k x k right
    one."""
    m, d, k = mat.shape
    if k == 0:
        return [(np.zeros((d, 0)), np.eye(d)) for _ in range(m)]
    u, s, _ = np.linalg.svd(mat, full_matrices=k < d)
    pairs = []
    for i in range(m):
        r = _rank(s[i])
        pairs.append((u[i, :, :r], u[i, :, r:]))
    return pairs


def _dimension(d) -> int:
    """``d`` as an int: an int or numpy integer >= 1, never a bool."""
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    return int(d)


def _stack(nodes: list[list], d: int) -> np.ndarray:
    """The spanners of n nodes with k each as one (n, k, d) float64 stack,
    checked by one :func:`real_array` call: when every spanner is an int or
    float ndarray of shape (d,) they are stacked with ``np.array``, and any
    other input is checked as one nested list."""
    shape = (len(nodes), len(nodes[0]), d)
    if shape[1] == 0:
        return np.zeros(shape)
    stack = nodes
    if all(type(v) is np.ndarray and v.dtype.kind in "iuf" and v.shape == (d,)
           for rows in nodes for v in rows):
        stack = np.array(nodes)
    return real_array(stack, "spanners", shape)


def _unit_columns(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The spanners of the (..., k, d) stack ``mat`` scaled to unit length,
    as the columns of a (..., d, k) array, and the mask of the nonzero ones.
    An all-zero spanner stays a zero column, for the caller to drop.  Each
    spanner is divided by its largest |entry| before its norm is taken, so
    no finite spanner overflows or underflows to a zero or infinite norm."""
    peak = np.abs(mat).max(axis=-1)
    keep = peak.astype(bool)  # peak > 0, at a third of its cost
    dropped = np.count_nonzero(keep) < keep.size
    if dropped:
        peak[~keep] = 1.0
    mat = mat / peak[..., None]
    norm = np.sqrt(np.einsum("...j,...j->...", mat, mat))
    if dropped:
        norm[~keep] = 1.0
    mat /= norm[..., None]
    return mat.swapaxes(-1, -2), keep


def _node_columns(rows: list, d: int) -> np.ndarray:
    """One node's nonzero spanners scaled to unit length, as the columns of
    a (d, k) array.  The spanners pass :func:`real_array` once, as one
    (k, d) stack (see :func:`_stack`).  Only when that check fails is each
    spanner checked on its own, as d numbers named by its 0-based index, so
    the error names the first bad one."""
    try:
        mat = _stack([rows], d)[0]
    except (ValueError, RuntimeWarning):
        # each spanner's own check raises the first bad one's error, a
        # RuntimeWarning too (an overflowing cast under -W error), or
        # passes where only the stack fails: a masked array hides its
        # masked entries from its own check
        mat = np.array([real_array(v, f"spanner {j}", (d,))
                        for j, v in enumerate(rows)])
    cols, keep = _unit_columns(mat)
    return cols if np.count_nonzero(keep) == keep.size else cols[:, keep]


def orthonormalize(vectors, d: int) -> np.ndarray:
    """Orthonormal basis of span(vectors), as columns.

    ``d`` is checked as by :func:`subspace_from_spanners`.  Zero vectors
    are dropped and the others scaled to unit length; the basis is the
    leading left singular vectors of their stack, from the thin SVD, so a
    vector 1e-12 times smaller than the others still counts.  The vectors
    are checked once, as one stack (see :func:`_node_columns`); an error
    names the first bad one by its 0-based index.
    """
    d = _dimension(d)
    cols = _node_columns(list(vectors), d)
    if cols.shape[1] == 0:
        return np.zeros((d, 0))
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :_rank(s)]


def subspace_from_spanners(d: int, spanners) -> LinearSubspace:
    """Subspace of R^d spanned by the given vectors (an empty list gives
    the zero subspace), with its complement from the same SVD of the unit
    spanners.  ``d`` must be an int or numpy integer >= 1 and is stored as
    an int.  The spanners are checked once, as one stack, and scaled as by
    :func:`orthonormalize`.  This is the one-node case of
    :func:`_subspaces`, through the same check, scaling and factor."""
    d = _dimension(d)
    cols = _node_columns(list(spanners), d)
    return LinearSubspace(d, *_range_split(cols[None])[0])


def _subspaces(d: int, nodes) -> list[LinearSubspace] | None:
    """The subspaces of R^d spanned by each node's spanners, built as one
    stack: when every node has k spanners, they pass one check as one
    (n, k, d) stack (see :func:`_stack`), one scaling and one SVD, and each
    node gets the bytes :func:`subspace_from_spanners` gives it.  None when
    the nodes differ in k, a spanner is all zero or the stack fails its
    check: the caller then builds each node on its own, so an error names
    the first bad spanner."""
    d = _dimension(d)
    nodes = [list(rows) for rows in nodes]
    if len({len(rows) for rows in nodes}) != 1:
        return None
    try:
        mat = _stack(nodes, d)
    except (ValueError, RuntimeWarning):
        # RuntimeWarning: an overflowing cast under -W error
        return None
    cols, keep = _unit_columns(mat)
    if np.count_nonzero(keep) < keep.size:
        return None
    return [LinearSubspace(d, *pair) for pair in _range_split(cols)]


def full_space(d: int) -> LinearSubspace:
    d = _dimension(d)
    return LinearSubspace(d, np.eye(d), np.zeros((d, 0)))


def zero_space(d: int) -> LinearSubspace:
    d = _dimension(d)
    return LinearSubspace(d, np.zeros((d, 0)), np.eye(d))


def complement(u: LinearSubspace) -> LinearSubspace:
    """Orthogonal complement: ``u`` with its two bases swapped; nothing is
    factored."""
    return LinearSubspace(u.dim_ambient, u.perp, u.basis)


def project(u: LinearSubspace, x) -> np.ndarray:
    """Orthogonal projection of ``x`` (a point of R^d or a stack of them,
    passing :func:`real_array`) onto ``u``."""
    shape = np.shape(x)
    if shape[-1:] != (u.dim_ambient,):
        raise ValueError(f"dimension mismatch: point of shape {shape}, "
                         f"subspace in R^{u.dim_ambient}")
    x = real_array(x, "point", shape)
    return (x @ u.basis) @ u.basis.T


class NormalConeOp:
    """Normal cone of a linear subspace; resolvent = projection, for every
    gamma."""

    def __init__(self, subspace: LinearSubspace):
        self.subspace = subspace

    def resolvent(self, x: np.ndarray, gamma: float) -> np.ndarray:
        return project(self.subspace, x)


class CallbackOp:
    """User-supplied resolvent ``fn(x, gamma) -> J_{gamma A}(x)``.

    The callback must be a pure function of its inputs, and return an int
    or float array of the shape of x; any other dtype, bool and complex
    included, raises ``ValueError`` rather than being coerced.  With
    GRAPH_SPLIT_LOG=debug, consecutive evaluations at the same gamma are
    checked for firm nonexpansiveness, which every resolvent of a
    maximally monotone operator satisfies.  The variable is read once,
    when the operator is constructed; setting it later does not turn the
    checks on or off for that operator.
    """

    def __init__(self, fn: Callable[[np.ndarray, float], np.ndarray]):
        self.fn = fn
        self._debug = os.environ.get("GRAPH_SPLIT_LOG", "").lower() == "debug"
        self._last: tuple[np.ndarray, np.ndarray, float] | None = None

    def resolvent(self, x: np.ndarray, gamma: float) -> np.ndarray:
        out = np.asarray(self.fn(x, gamma))
        if out.dtype.kind not in "iuf":
            raise ValueError(f"callback resolvent returned dtype {out.dtype}, "
                             "expected int or float")
        out = out.astype(np.float64, copy=False)
        if out.shape != x.shape:
            raise ValueError(
                f"callback resolvent returned shape {out.shape}, "
                f"expected {x.shape}"
            )
        if self._debug:
            if self._last is not None and self._last[2] == gamma:
                xp, outp, _ = self._last
                diff = out - outp
                slack = diff @ diff - (x - xp) @ diff
                if slack > 1e-10:
                    log.warning(
                        "callback resolvent violates firm nonexpansiveness "
                        "(slack %.3e)", slack,
                    )
            self._last = (x.copy(), out.copy(), gamma)
        return out


ResolventOp = NormalConeOp | CallbackOp


def resolvent(op: ResolventOp, x, gamma: float) -> np.ndarray:
    """Evaluate J_{gamma A}(x) for the node operator ``op``; ``x`` and
    ``gamma`` pass :func:`real_array`."""
    gamma = real_array(gamma, "resolvent scale gamma", ())
    if gamma <= 0:
        raise ValueError(f"resolvent scale gamma must be positive, got {gamma}")
    return op.resolvent(real_array(x, "x", np.shape(x)), gamma)
