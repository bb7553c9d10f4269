"""Closed-form fixed-point analysis when every node operator is the
normal cone of a linear subspace.

With U = U_1 cap ... cap U_n, the fixed points of the reduced operator
form the orthogonal sum  alpha (x) U  (+)  E,  where

    E = Z^+ applied blockwise to { a : a_i in U_i^perp, sum_i a_i = 0 }.

Two identities carry the rest of the module:

* Membership.  Z maps (R^d)^{n-1} one-to-one onto the zero-sum blocks
  (Z Z^T = Lap(G') and G' is connected), so  e in E  iff  (Z e)_i in
  U_i^perp  at every node i.  ``closed_form_E`` solves it through
  Z_top^-1, Z_top the first n-1 rows of Z; ``build_E`` keeps the Z^+
  definition, so the two check each other.
* Limit formula.  The projection of y onto the reduced fixed-point set is
  alpha (x) u + e with u = P_U(alpha^T y) / ||alpha||^2 and e = P_E(y).
  The reduced iteration started at v0 converges to it at y = v0.  The
  expanded scheme reduces to the reduced one through y = Z^T w + v: its
  M-projection and its limit from (w0, v0) are the formula at that y,
  with every shadow and w block equal to u.

Long block vectors in (R^d)^{n-1} flatten block-major (block index
outer), so ``v.reshape(-1)`` of an (n-1, d) array matches the basis
layout used here.

All operations in this module require subspace operators; problems built
on callback resolvents are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import SplittingProblem, _as_blocks
from .factor import AlphaVector, OntoDecomposition, alpha as compute_alpha
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


def closed_form_E(name: str, sp: SubspaceProblem) -> EBasis:
    """Per-graph closed form of E, through the membership identity.

    ``name`` selects the graph family of G'; the problem's subgraph and
    decomposition method must match (incidence factor for the tree
    families, the sparse factor for complete, the trigonometric factor
    for ring).

    The blocks a = Z e range over a_i in U_i^perp for i < n with their sum
    in U_n^perp (a_n is minus it, as Z^T 1 = 0), and e = Z_top^-1 a for
    Z_top the first n-1 rows of Z, invertible as Z has full column rank.
    Z_top^-1 is a cumulative sum for sequential, e_j = -a_{j+1} (a_n as
    above) for parallel_up, the identity for parallel_down, the triangular
    e_j = t_j ((n-j+1) a_j + a_1 + ... + a_{j-1}) / n of the sparse factor
    for complete, and dense for ring.  The map from coefficients to images
    has full column rank, so a reduced QR of the images is a basis of E.
    """
    if name not in E_ROUTES:
        raise ValueError(f"unknown E route {name!r}; choose from {E_ROUTES}")
    n = sp.n
    try:
        reference = named_graph(name, n)
    except GraphError:
        reference = None
    if sp.base.pair.sub != reference:
        raise ValueError(f"subgraph is not the {name} graph of order {n}")
    method = sp.base.dec.method
    if method != _ROUTE_METHODS[name]:
        raise ValueError(
            f"E route {name!r} requires the {_ROUTE_METHODS[name]} "
            f"decomposition, got {method!r}"
        )
    comp = [complement(u).basis for u in sp.subspaces[:-1]]
    a = _block_images(comp, _null_space(sp.subspaces[-1].basis.T @ np.hstack(comp)))
    e = np.tensordot(np.linalg.inv(sp.base.z[:-1]), a, axes=1)
    del a  # as in build_E, before the QR
    return _orthonormal_images(e)


def _limit(sp: SubspaceProblem, y: np.ndarray) -> LimitPrediction:
    """The limit formula at y of shape (n-1, d): u = P_U(alpha^T y) /
    ||alpha||^2, e = P_E(y) and v_bar = alpha (x) u + e."""
    a = sp.alpha.alpha
    u = project(sp.u_common, a @ y) / sp.alpha.norm_sq
    e = sp.e_basis.project(y)
    return LimitPrediction(u, e, np.outer(a, u) + e)


def predict_limits_alg2(sp: SubspaceProblem, v0) -> LimitPrediction:
    """Exact limit of the reduced iteration started at v0 (constant
    relaxation in (0, 2) assumed for the run itself)."""
    return _limit(sp, _as_blocks(v0, sp.n - 1, sp.d, "v0"))


def predict_limits_alg1(sp: SubspaceProblem, w0, v0) -> LimitPrediction:
    """Exact limit of the expanded iteration started at (w0, v0): the
    limit formula at y = Z^T w0 + v0; all shadow and w blocks converge to
    u_bar."""
    w0 = _as_blocks(w0, sp.n, sp.d, "w0")
    v0 = _as_blocks(v0, sp.n - 1, sp.d, "v0")
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
    return _limit(sp, y)


def proj_fix_T_tilde(sp: SubspaceProblem, v) -> np.ndarray:
    """Projection onto the reduced fixed-point set: the limit formula at v."""
    return _limit(sp, _as_blocks(v, sp.n - 1, sp.d, "v")).v_bar


def m_proj_fix_T(sp: SubspaceProblem, w, v):
    """M-projection onto the expanded fixed-point set: (w_bar, v_bar) with
    every block of w_bar the u and v_bar the limit formula at Z^T w + v."""
    y = (sp.base.zt @ _as_blocks(w, sp.n, sp.d, "w")
         + _as_blocks(v, sp.n - 1, sp.d, "v"))
    lim = _limit(sp, y)
    return np.tile(lim.u_bar, (sp.n, 1)), lim.v_bar


def x_from_v(sp: SubspaceProblem, v) -> np.ndarray:
    """The unique zero associated with a governing vector: the first
    node's resolvent at (Z v)_1 / d_1.  For v in the fixed-point set this
    lies in U."""
    zv1 = sp.base.z[0] @ _as_blocks(v, sp.n - 1, sp.d, "v")
    return resolvent(sp.base.ops[0], zv1 * sp.base._dinv[0], sp.base._dinv[0])


def assemble_fix_basis(sp: SubspaceProblem) -> np.ndarray:
    """Orthonormal basis of the reduced fixed-point set, by concatenating
    {alpha (x) u} over a basis of U with the E basis.  Serves as the
    brute-force oracle for the projection formulas."""
    cols = np.hstack([np.kron(sp.alpha.alpha[:, None], sp.u_common.basis),
                      sp.e_basis.basis])
    return orthonormalize(cols.T, (sp.n - 1) * sp.d)
