"""Closed-form fixed-point analysis when every node operator is the
normal cone of a linear subspace.

With U = U_1 cap ... cap U_n, the fixed points of the reduced operator
form the orthogonal sum  alpha (x) U  (+)  E,  where

    E = Z^+ applied blockwise to { a : a_i in U_i^perp, sum_i a_i = 0 }.

From this the projection onto the fixed-point set, the M-projection onto
the expanded fixed-point set, and the exact limit points of both
iterations follow.  Long block vectors in (R^d)^{n-1} flatten block-major
(block index outer), so ``v.reshape(-1)`` of an (n-1, d) array matches
the basis layout used here.

All operations in this module require subspace operators; problems built
on callback resolvents are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import SplittingProblem
from .factor import (
    AlphaVector,
    OntoDecomposition,
    alpha as compute_alpha,
    complete_t_values,
)
from .graphs import GraphError, GraphPair, degree_balance, named_graph
from .operators import (
    LinearSubspace,
    NormalConeOp,
    _null_space,
    complement,
    orthonormalize,
    project,
    resolvent,
)

E_ROUTES = ("complete", "sequential", "ring", "parallel_up", "parallel_down")

_ROUTE_METHODS = {
    "complete": "complete_sparse",
    "sequential": "tree_incidence",
    "ring": "circulant",
    "parallel_up": "tree_incidence",
    "parallel_down": "tree_incidence",
}


@dataclass(frozen=True)
class EBasis:
    """Orthonormal basis of E, stored as flattened block vectors."""

    n_blocks: int
    d: int
    basis: np.ndarray  # ((n_blocks) * d, dim)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Project blocks (n_blocks, d) onto E."""
        flat = np.asarray(v, dtype=np.float64).reshape(-1)
        out = self.basis @ (self.basis.T @ flat)
        return out.reshape(self.n_blocks, self.d)

    def contains(self, v: np.ndarray, tol: float = 1e-10) -> bool:
        v = np.asarray(v, dtype=np.float64)
        return float(np.abs(self.project(v) - v).max()) <= tol


@dataclass(frozen=True)
class LimitPrediction:
    """Predicted limits: common shadow limit, dual component, and the
    governing limit v_bar = alpha * u_bar + e_bar."""

    u_bar: np.ndarray  # (d,)
    e_bar: np.ndarray  # (n-1, d)
    v_bar: np.ndarray  # (n-1, d)


class SubspaceProblem:
    """A splitting problem whose node operators are all subspace normal
    cones, together with the quantities the closed forms need."""

    def __init__(self, base: SplittingProblem, subspaces: list[LinearSubspace],
                 alpha: AlphaVector):
        self.base = base
        self.subspaces = subspaces
        self.alpha = alpha

    @staticmethod
    def from_problem(base: SplittingProblem) -> "SubspaceProblem":
        if not base.all_subspace:
            raise ValueError("analysis requires subspace operators")
        subspaces = [op.subspace for op in base.ops]
        a = compute_alpha(base.dec, degree_balance(base.pair.g))
        return SubspaceProblem(base, subspaces, a)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def d(self) -> int:
        return self.base.d

    @cached_property
    def u_common(self) -> LinearSubspace:
        return intersection(self.subspaces)

    @cached_property
    def e_basis(self) -> EBasis:
        return build_E(self)


def subspace_problem(pair: GraphPair, dec: OntoDecomposition,
                     subspaces: list[LinearSubspace]) -> SubspaceProblem:
    """Assemble the splitting problem with normal-cone operators for the
    given subspaces (all in the same ambient dimension)."""
    dims = {u.dim_ambient for u in subspaces}
    if len(dims) != 1:
        raise ValueError(f"subspaces live in different ambient dimensions: {dims}")
    d = dims.pop()
    base = SplittingProblem(pair, dec, [NormalConeOp(u) for u in subspaces], d)
    return SubspaceProblem.from_problem(base)


def intersection(subspaces: list[LinearSubspace]) -> LinearSubspace:
    """Intersection of subspaces: the null space of the stacked I - P_i."""
    dims = {u.dim_ambient for u in subspaces}
    if len(dims) != 1:
        raise ValueError(f"subspaces live in different ambient dimensions: {dims}")
    d = dims.pop()
    stack = np.vstack([np.eye(d) - u.projector() for u in subspaces])
    return LinearSubspace(d, _null_space(stack))


def _block_images(bases: list[np.ndarray], coeffs: np.ndarray) -> np.ndarray:
    """Blocks a_i = bases[i] c_i for every column c of ``coeffs``, where c_i
    is the slice of c that belongs to node i; shape (len(bases), d, q)."""
    out = np.empty((len(bases), bases[0].shape[0], coeffs.shape[1]))
    offset = 0
    for i, b in enumerate(bases):
        np.matmul(b, coeffs[offset:offset + b.shape[1]], out=out[i])
        offset += b.shape[1]
    return out


def _orthonormal_images(images: np.ndarray) -> EBasis:
    """E from images of shape (n-1, d, q) with linearly independent
    columns: the Q factor A R^-1 of their reduced QR.

    Multiplying by R^-1 holds two fewer copies of A than numpy's
    Householder accumulation of Q, with which predict-large peaked at
    125 MB instead of 99 MB.  Orthogonality is lost as cond(A) eps, and
    cond(A) is at most that of the map from coefficients to images.
    """
    blocks, d, q = images.shape
    a = images.reshape(blocks * d, q)
    return EBasis(blocks, d, a @ np.linalg.inv(np.linalg.qr(a, mode="r")))


def build_E(sp: SubspaceProblem) -> EBasis:
    """Assemble E from its definition.

    Block vectors a with a_i in U_i^perp are parametrized through bases of
    the complements; the zero-sum constraint is the null space of their
    horizontal concatenation; the solutions map through Z^+ and the images
    are orthonormalized by a reduced QR.  The map from coefficients to
    images has full column rank (orthonormal coefficients, isometric
    complement bases, and Z^+ injective on zero-sum blocks because G' is
    connected), so no rank decision is needed there.
    """
    comp = [complement(u).basis for u in sp.subspaces]
    a = _block_images(comp, _null_space(np.hstack(comp)))
    images = np.tensordot(sp.base.dec.z_dagger, a, axes=1)
    del a  # the QR is the memory peak; on complete n=60 d=24 this is 8 MB
    return _orthonormal_images(images)


def _membership_rows(blocks: list[tuple[int, float]], basis: np.ndarray,
                     n_blocks: int, d: int) -> np.ndarray:
    """Constraint rows expressing  sum_j coef_j e_{block_j}  in  U^perp,
    i.e. basis(U)^T applied to that combination equals zero."""
    r = basis.shape[1]
    rows = np.zeros((r, n_blocks * d))
    for blk, coef in blocks:
        rows[:, blk * d:(blk + 1) * d] += coef * basis.T
    return rows


def closed_form_E(name: str, sp: SubspaceProblem) -> EBasis:
    """Per-graph closed form of E.

    ``name`` selects the graph family of G'; the problem's subgraph and
    decomposition method must match (incidence factor for the tree
    families, the sparse factor for complete, the trigonometric factor
    for ring).
    """
    if name not in E_ROUTES:
        raise ValueError(f"unknown E route {name!r}; choose from {E_ROUTES}")
    n, d = sp.n, sp.d
    sub = sp.base.pair.sub
    try:
        reference = named_graph(name, n)
    except GraphError:
        reference = None
    if sub != reference:
        raise ValueError(f"subgraph is not the {name} graph of order {n}")
    method = sp.base.dec.method
    if method != _ROUTE_METHODS[name]:
        raise ValueError(
            f"E route {name!r} requires the {_ROUTE_METHODS[name]} "
            f"decomposition, got {method!r}"
        )

    if name == "ring":
        # no shortcut beyond the circulant pseudoinverse itself
        return build_E(sp)

    if name == "complete":
        return _closed_form_E_complete(sp)

    # tree families: blockwise membership constraints on e itself
    bases = [u.basis for u in sp.subspaces]
    rows = []
    if name == "sequential":
        rows.append(_membership_rows([(0, 1.0)], bases[0], n - 1, d))
        for i in range(1, n - 1):
            rows.append(_membership_rows([(i, 1.0), (i - 1, -1.0)], bases[i],
                                         n - 1, d))
        rows.append(_membership_rows([(n - 2, -1.0)], bases[n - 1], n - 1, d))
    elif name == "parallel_up":
        for j in range(n - 1):
            rows.append(_membership_rows([(j, 1.0)], bases[j + 1], n - 1, d))
        rows.append(_membership_rows([(j, 1.0) for j in range(n - 1)],
                                     bases[0], n - 1, d))
    else:  # parallel_down
        for j in range(n - 1):
            rows.append(_membership_rows([(j, 1.0)], bases[j], n - 1, d))
        rows.append(_membership_rows([(j, 1.0) for j in range(n - 1)],
                                     bases[n - 1], n - 1, d))
    k_mat = np.vstack(rows) if rows else np.zeros((0, (n - 1) * d))
    return EBasis(n - 1, d, _null_space(k_mat))


def _closed_form_E_complete(sp: SubspaceProblem) -> EBasis:
    # parametrization e_j = t_j ((n-j+1) u_j + u_1 + ... + u_{j-1}) with
    # u_j in U_j^perp and u_1 + ... + u_{n-1} in U_n^perp; the map from u to
    # e is triangular with a nonzero diagonal, so a reduced QR of the images
    # is an orthonormal basis of E
    comp = [complement(u).basis for u in sp.subspaces[:-1]]
    u = _block_images(comp, _null_space(sp.subspaces[-1].basis.T @ np.hstack(comp)))
    e = np.cumsum(u, axis=0)
    u *= np.arange(sp.n - 1, 0, -1)[:, None, None]
    e += u
    del u  # as in build_E, before the QR
    e *= complete_t_values(sp.n)[:, None, None]
    return _orthonormal_images(e)


def predict_limits_alg2(sp: SubspaceProblem, v0) -> LimitPrediction:
    """Exact limit of the reduced iteration started at v0 (constant
    relaxation in (0, 2) assumed for the run itself)."""
    v0 = np.asarray(v0, dtype=np.float64).reshape(sp.n - 1, sp.d)
    a = sp.alpha.alpha
    u_tilde = project(sp.u_common, a @ v0) / sp.alpha.norm_sq
    e_tilde = sp.e_basis.project(v0)
    return LimitPrediction(u_tilde, e_tilde, np.outer(a, u_tilde) + e_tilde)


def predict_limits_alg1(sp: SubspaceProblem, w0, v0) -> LimitPrediction:
    """Exact limit of the expanded iteration started at (w0, v0); all
    shadow and w blocks converge to u_bar."""
    w0 = np.asarray(w0, dtype=np.float64).reshape(sp.n, sp.d)
    v0 = np.asarray(v0, dtype=np.float64).reshape(sp.n - 1, sp.d)
    a = sp.alpha.alpha
    delta = degree_balance(sp.base.pair.g).delta.astype(np.float64)
    y = sp.base.zt @ w0 + v0
    s = delta @ w0 + a @ v0
    # the two stated forms of the projected seed agree because Z alpha = delta
    gap = np.abs(s - a @ y).max()
    if gap > 1e-9 * max(1.0, np.abs(s).max()):
        raise ValueError(
            f"alpha does not match the degree balance: delta^T w + alpha^T v "
            f"and alpha^T (Z^T w + v) differ by {gap:.3e}"
        )
    u_bar = project(sp.u_common, s) / sp.alpha.norm_sq
    e_bar = sp.e_basis.project(y)
    return LimitPrediction(u_bar, e_bar, np.outer(a, u_bar) + e_bar)


def proj_fix_T_tilde(sp: SubspaceProblem, v) -> np.ndarray:
    """Projection onto the reduced fixed-point set,
    alpha * P_U(alpha^T v) / ||alpha||^2 + P_E(v)."""
    v = np.asarray(v, dtype=np.float64).reshape(sp.n - 1, sp.d)
    a = sp.alpha.alpha
    u = project(sp.u_common, a @ v) / sp.alpha.norm_sq
    return np.outer(a, u) + sp.e_basis.project(v)


def m_proj_fix_T(sp: SubspaceProblem, w, v):
    """M-projection onto the expanded fixed-point set.

    Returns (w_bar, v_bar) where every block of w_bar equals the common
    zero u and v_bar = alpha * u + P_E(y), with y = Z^T w + v.
    """
    w = np.asarray(w, dtype=np.float64).reshape(sp.n, sp.d)
    v = np.asarray(v, dtype=np.float64).reshape(sp.n - 1, sp.d)
    a = sp.alpha.alpha
    y = sp.base.zt @ w + v
    u = project(sp.u_common, a @ y) / sp.alpha.norm_sq
    w_bar = np.tile(u, (sp.n, 1))
    v_bar = np.outer(a, u) + sp.e_basis.project(y)
    return w_bar, v_bar


def x_from_v(sp: SubspaceProblem, v) -> np.ndarray:
    """The unique zero associated with a governing vector: the first
    node's resolvent at (Z v)_1 / d_1.  For v in the fixed-point set this
    lies in U."""
    v = np.asarray(v, dtype=np.float64).reshape(sp.n - 1, sp.d)
    zv1 = sp.base.z[0] @ v
    return resolvent(sp.base.ops[0], zv1 * sp.base._dinv[0], sp.base._dinv[0])


def assemble_fix_basis(sp: SubspaceProblem) -> np.ndarray:
    """Orthonormal basis of the reduced fixed-point set, by concatenating
    {alpha (x) u} over a basis of U with the E basis.  Serves as the
    brute-force oracle for the projection formulas."""
    cols = np.hstack([np.kron(sp.alpha.alpha[:, None], sp.u_common.basis),
                      sp.e_basis.basis])
    return orthonormalize(cols.T, (sp.n - 1) * sp.d)
