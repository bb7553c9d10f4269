"""Node operators through their resolvents.

The engines only ever evaluate resolvents J_{gamma A}(x).  Two operator
kinds are supported:

* :class:`NormalConeOp` -- the normal cone of a closed linear subspace,
  whose resolvent is the orthogonal projection onto the subspace for every
  scale gamma.  This is the fully analyzed case.
* :class:`CallbackOp` -- a user-supplied resolvent callback, accepted by
  the iteration engines but rejected by the closed-form analysis.

Subspaces are represented by an orthonormal basis (possibly with zero
columns, for the trivial subspace).  Orthonormalization is twice-applied
Gram-Schmidt with a drop tolerance of 1e-10 relative to the input norm,
which keeps ranks reproducible without an SVD.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

log = logging.getLogger("graphsplit")

_DROP_TOL = 1e-10


def _debug_checks_enabled() -> bool:
    return os.environ.get("GRAPH_SPLIT_LOG", "").lower() == "debug"


@dataclass(frozen=True)
class LinearSubspace:
    """Closed linear subspace of R^d, stored as an orthonormal basis.

    ``basis`` has shape (d, r); r = 0 encodes the zero subspace and r = d
    the whole space.
    """

    dim_ambient: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Dense projection matrix basis @ basis.T."""
        return self.basis @ self.basis.T


def orthonormalize(vectors, d: int, against: np.ndarray | None = None) -> np.ndarray:
    """Orthonormal basis of span(vectors), optionally within the orthogonal
    complement of the columns of ``against``.

    Gram-Schmidt applied twice per vector; a vector is dropped when its
    residual norm falls below 1e-10 times its input norm.
    """
    fixed = against if against is not None else np.zeros((d, 0))
    cols: list[np.ndarray] = []
    for vec in vectors:
        v = np.asarray(vec, dtype=np.float64).reshape(-1)
        if v.shape[0] != d:
            raise ValueError(f"expected vectors of length {d}, got {v.shape[0]}")
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        r = v.copy()
        for _ in range(2):
            r -= fixed @ (fixed.T @ r)
            for b in cols:
                r -= (b @ r) * b
        norm_r = np.linalg.norm(r)
        if norm_r > _DROP_TOL * norm0:
            cols.append(r / norm_r)
    if not cols:
        return np.zeros((d, 0))
    return np.column_stack(cols)


def subspace_from_spanners(d: int, spanners) -> LinearSubspace:
    """Subspace spanned by the given vectors (an empty list gives the zero
    subspace)."""
    return LinearSubspace(d, orthonormalize(spanners, d))


def full_space(d: int) -> LinearSubspace:
    return LinearSubspace(d, np.eye(d))


def zero_space(d: int) -> LinearSubspace:
    return LinearSubspace(d, np.zeros((d, 0)))


def complement(u: LinearSubspace) -> LinearSubspace:
    """Orthogonal complement, via Gram-Schmidt of the identity columns
    against the basis of ``u``."""
    d = u.dim_ambient
    basis = orthonormalize(np.eye(d), d, against=u.basis)
    return LinearSubspace(d, basis)


def project(u: LinearSubspace, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``x`` onto ``u``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != u.dim_ambient:
        raise ValueError(
            f"dimension mismatch: point in R^{x.shape[-1]}, "
            f"subspace in R^{u.dim_ambient}"
        )
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

    The callback must be a pure function of its inputs.  With
    GRAPH_SPLIT_LOG=debug, consecutive evaluations at the same gamma are
    checked for firm nonexpansiveness, which every resolvent of a
    maximally monotone operator satisfies.
    """

    def __init__(self, fn: Callable[[np.ndarray, float], np.ndarray]):
        self.fn = fn
        self._last: tuple[np.ndarray, np.ndarray, float] | None = None

    def resolvent(self, x: np.ndarray, gamma: float) -> np.ndarray:
        out = np.asarray(self.fn(x, gamma), dtype=np.float64)
        if out.shape != x.shape:
            raise ValueError(
                f"callback resolvent returned shape {out.shape}, "
                f"expected {x.shape}"
            )
        if _debug_checks_enabled():
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


def resolvent(op: ResolventOp, x: np.ndarray, gamma: float) -> np.ndarray:
    """Evaluate J_{gamma A}(x) for the node operator ``op``."""
    if gamma <= 0:
        raise ValueError(f"resolvent scale gamma must be positive, got {gamma}")
    return op.resolvent(np.asarray(x, dtype=np.float64), gamma)
