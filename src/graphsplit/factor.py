"""Onto decompositions of subgraph Laplacians.

An onto decomposition of Lap(G') is a full-column-rank matrix Z of shape
(n, n-1) with Z Z^T = Lap(G').  Four constructions are provided:

* ``factor_tree``       -- Z is the incidence matrix (G' must be a tree);
* ``factor_circulant``  -- trigonometric closed form when Lap(G') is
  circulant;
* ``factor_complete_sparse`` -- sparse lower-triangular form for the
  complete graph, for which Z^+ = Z^T / n;
* ``factor_eigen``      -- generic construction from the positive
  eigenpairs of the Laplacian.

Every decomposition carries its Moore-Penrose pseudoinverse ``z_dagger``;
for full column rank this is (Z^T Z)^{-1} Z^T, so z_dagger @ z = I.
The vector alpha = Z^+ delta is the unique solution of Z alpha = delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    AlgorithmicGraph,
    DegreeBalance,
    GraphError,
    _order,
    incidence,
    is_circulant,
    is_complete,
    is_tree,
    laplacian,
)
from .operators import real_array

#: factor methods selectable by name
METHODS = ("tree_incidence", "circulant", "complete_sparse", "eigen")

_EIGEN_GAP_TOL = 1e-10
_CIRCULANT_LAMBDA_TOL = 1e-12


class FactorError(ValueError):
    """The requested decomposition does not apply to the given graph."""


@dataclass(frozen=True)
class OntoDecomposition:
    """Matrix Z with Z Z^T = Lap(G'), plus its pseudoinverse."""

    z: np.ndarray         # (n, n-1)
    z_dagger: np.ndarray  # (n-1, n)
    method: str

    @property
    def n(self) -> int:
        return self.z.shape[0]


@dataclass(frozen=True)
class AlphaVector:
    """The unique alpha with Z alpha = delta, and its squared norm."""

    alpha: np.ndarray
    norm_sq: float


def _pinv_full_column_rank(z: np.ndarray) -> np.ndarray:
    # normal equations are benign here: n <= a few dozen and Z^T Z inherits
    # the subgraph Laplacian's conditioning
    return np.linalg.solve(z.T @ z, z.T)


def factor_tree(sub: AlgorithmicGraph) -> OntoDecomposition:
    """Incidence-matrix decomposition; valid when G' is a tree."""
    if not is_tree(sub):
        raise FactorError(
            f"tree factor requires a tree: got {len(sub.edges)} edges "
            f"for n = {sub.n}"
        )
    z = incidence(sub).astype(np.float64)
    return OntoDecomposition(z, _pinv_full_column_rank(z), "tree_incidence")


def _circulant_eigenvalues(lap: np.ndarray) -> np.ndarray:
    n = lap.shape[0]
    c = lap[0].astype(np.float64)
    j = np.arange(1, n)[:, None]
    k = np.arange(n)[None, :]
    return (c[None, :] * np.cos(2.0 * np.pi * j * k / n)).sum(axis=1)


def factor_circulant(sub: AlgorithmicGraph) -> OntoDecomposition:
    """Trigonometric decomposition for circulant Laplacians.

    Z[i, j] = cos(2 pi i (j+1) / n - pi/4) * sqrt(2 lambda_{j+1} / n)
    (0-based i, j), where lambda_j are the positive Laplacian eigenvalues
    obtained from the first-row cosine series.  The pseudoinverse rescales
    rows of Z^T by 1 / lambda_j.
    """
    if not is_circulant(sub):
        raise FactorError("Laplacian is not circulant")
    n = sub.n
    lam = _circulant_eigenvalues(laplacian(sub))
    if np.any(lam <= _CIRCULANT_LAMBDA_TOL):
        raise FactorError(
            f"degenerate circulant spectrum: min positive eigenvalue "
            f"{lam.min():.3e}"
        )
    i = np.arange(n)[:, None]
    j = np.arange(1, n)[None, :]
    phase = np.cos(2.0 * np.pi * i * j / n - np.pi / 4.0)
    z = phase * np.sqrt(2.0 * lam / n)[None, :]
    z_dagger = z.T / lam[:, None]
    return OntoDecomposition(z, z_dagger, "circulant")


def factor_complete_sparse(n: int) -> OntoDecomposition:
    """Sparse lower-triangular decomposition of the complete-graph
    Laplacian, with t_j = sqrt(n / ((n-j)(n-j+1))) and Z^+ = Z^T / n, for
    an integer n >= 2."""
    n = _order(n)
    t = complete_t_values(n)
    z = np.tril(np.broadcast_to(-t, (n, n - 1)), -1)
    np.fill_diagonal(z, (n - np.arange(1, n)) * t)
    return OntoDecomposition(z, z.T / n, "complete_sparse")


def complete_t_values(n: int) -> np.ndarray:
    """The scaling constants t_j of the sparse complete-graph factor, for
    an integer n >= 2."""
    n = _order(n)
    j = np.arange(1, n, dtype=np.float64)
    return np.sqrt(n / ((n - j) * (n - j + 1)))


def factor_eigen(lap: np.ndarray) -> OntoDecomposition:
    """Generic decomposition from the n-1 positive eigenpairs.

    ``lap`` must be a real (n, n) array with n >= 2 (see
    :func:`operators.real_array`), symmetric, with rows that sum to 0
    within 1e-12 of its largest entry; anything else raises
    ``FactorError``.  Eigenvalues are sorted ascending and each
    eigenvector's sign is fixed by making its first non-negligible
    component positive, so the result is deterministic for a given
    platform.
    """
    try:
        n = len(lap)
    except TypeError:  # a scalar
        n = 0
    if n < 2:
        raise FactorError(f"Laplacian must be an (n, n) array with n >= 2, "
                          f"got {lap!r}")
    try:
        lap = real_array(lap, "Laplacian", (n, n))
    except ValueError as exc:
        raise FactorError(str(exc)) from None
    if np.abs(lap - lap.T).max() > 1e-12:
        raise FactorError("Laplacian must be square symmetric")
    if np.abs(lap.sum(axis=1)).max() > 1e-12 * np.abs(lap).max():
        raise FactorError("Laplacian rows must sum to 0")
    vals, vecs = np.linalg.eigh(lap)
    if vals[1] <= _EIGEN_GAP_TOL:
        raise FactorError(
            f"second-smallest eigenvalue {vals[1]:.3e} <= {_EIGEN_GAP_TOL}: "
            "graph numerically disconnected"
        )
    lam = vals[1:]
    v = vecs[:, 1:].copy()
    for col in range(n - 1):
        nz = np.nonzero(np.abs(v[:, col]) > 1e-8)[0]
        if nz.size and v[nz[0], col] < 0:
            v[:, col] = -v[:, col]
    z = v * np.sqrt(lam)[None, :]
    z_dagger = v.T / np.sqrt(lam)[:, None]
    return OntoDecomposition(z, z_dagger, "eigen")


def default_factor(sub: AlgorithmicGraph) -> OntoDecomposition:
    """Pick the closed-form factor when one applies: tree incidence for
    trees, the sparse form for complete graphs, the trigonometric form for
    circulant Laplacians, and the eigen construction otherwise."""
    if is_tree(sub):
        return factor_tree(sub)
    if is_complete(sub):
        return factor_complete_sparse(sub.n)
    if is_circulant(sub):
        return factor_circulant(sub)
    return factor_eigen(laplacian(sub).astype(np.float64))


def factorize(sub: AlgorithmicGraph, method: str | None = None) -> OntoDecomposition:
    """Decompose Lap(G') by name, or via :func:`default_factor` if
    ``method`` is None."""
    if method is None:
        return default_factor(sub)
    if method == "tree_incidence":
        return factor_tree(sub)
    if method == "circulant":
        return factor_circulant(sub)
    if method == "complete_sparse":
        if not is_complete(sub):
            raise FactorError("complete_sparse factor requires a complete graph")
        return factor_complete_sparse(sub.n)
    if method == "eigen":
        return factor_eigen(laplacian(sub).astype(np.float64))
    raise FactorError(f"unknown factor method {method!r}; choose from {METHODS}")


def alpha(dec: OntoDecomposition, delta: DegreeBalance) -> AlphaVector:
    """Solve Z alpha = delta through the pseudoinverse.

    Raises
    ------
    FactorError
        If the residual ||Z alpha - delta|| exceeds 1e-8, which signals
        inconsistent inputs (e.g. a degree balance from a different n).
    """
    d = np.asarray(delta.delta, dtype=np.float64)
    if d.shape[0] != dec.n:
        raise FactorError(
            f"dimension mismatch: delta has length {d.shape[0]}, "
            f"decomposition has n = {dec.n}"
        )
    a = dec.z_dagger @ d
    residual = np.linalg.norm(dec.z @ a - d)
    if residual > 1e-8:
        raise FactorError(
            f"Z alpha = delta unsolvable: residual {residual:.3e} "
            "(inconsistent graph/decomposition inputs)"
        )
    return AlphaVector(a, float(a @ a))
