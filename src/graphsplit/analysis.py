"""Closed-form fixed-point analysis when every node operator is the
normal cone of a linear subspace.

With U = U_1 cap ... cap U_n, the fixed points of the reduced operator
form the orthogonal sum  alpha (x) U  (+)  E,  where

    E = Z^+ applied blockwise to { a : a_i in U_i^perp, sum_i a_i = 0 }.

Two identities carry the rest of the module:

* Membership.  Z maps (R^d)^{n-1} one-to-one onto the zero-sum blocks
  (Z Z^T = Lap(G') and G' is connected), so  e in E  iff  (Z e)_i in
  U_i^perp  at every node i.  ``closed_form_E`` solves it through
  Z_top^-1, Z_top the first n-1 rows of Z, for every onto factor: as
  1^T Z = 0, any n-1 rows of Z are independent.  ``build_E`` keeps the
  Z^+ definition, so the two check each other.  Neither decides a rank:
  both take dim E = (n-1) d - sum_i r_i + dim U from the node ranks and
  dim U (``_dim_E``), so the only rank decisions are each node's and the
  one on H = [C_1 ... C_n] that gives U.  Both orthonormalise the
  images of orthonormal coefficients under Z^+ or Z_top^-1, so the
  squared condition number of that map, fixed by G', bounds the images'
  and picks how their triangular factor is taken (``_orthonormal_images``).
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
on callback resolvents are rejected.  Every block argument passes
``operators.real_array``, so it is finite float64 of the block shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import SplittingProblem
from .factor import OntoDecomposition, alpha as compute_alpha
from .graphs import (
    NAMED_KINDS,
    GraphError,
    GraphPair,
    degree_balance,
    named_graph,
)
from .operators import (
    LinearSubspace,
    NormalConeOp,
    _range_split,
    orthonormalize,
    real_array,
    resolvent,
)

#: the graph families ``closed_form_E`` takes by name
E_ROUTES = NAMED_KINDS


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
        """Project float64 blocks (n_blocks, d) onto E."""
        out = self.basis @ (self.basis.T @ v.reshape(-1))
        return out.reshape(self.n_blocks, self.d)


@dataclass(frozen=True)
class LimitPrediction:
    """Predicted limits: common shadow limit, dual component, and the
    governing limit v_bar = alpha * u_bar + e_bar."""

    u_bar: np.ndarray  # (d,)
    e_bar: np.ndarray  # (n-1, d)
    v_bar: np.ndarray  # (n-1, d)


class SubspaceProblem:
    """A splitting problem whose node operators are all subspace normal
    cones, together with the quantities the closed forms need.

    The node subspaces and alpha, the solution of Z alpha = delta, are
    read off the base problem.  U and the E basis are computed at their
    first use and kept.  The orthonormal bases of the node complements
    U_i^perp, which ``intersection``, ``build_E`` and ``closed_form_E`` all
    read, are the subspaces' ``perp``, from the one SVD of each node, so a
    problem factors no node again however many E routes it takes.
    """

    def __init__(self, base: SplittingProblem):
        if not base.all_subspace:
            raise ValueError("analysis requires subspace operators")
        self.base = base
        self.subspaces = [op.subspace for op in base.ops]
        self.alpha = compute_alpha(base.dec, degree_balance(base.pair.g))

    @staticmethod
    def from_problem(base: SplittingProblem) -> "SubspaceProblem":
        return SubspaceProblem(base)

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
    d = _ambient(subspaces)
    base = SplittingProblem(pair, dec, [NormalConeOp(u) for u in subspaces], d)
    return SubspaceProblem.from_problem(base)


def _ambient(subspaces: list[LinearSubspace]) -> int:
    """The one ambient dimension of a nonempty list of subspaces."""
    if not subspaces:
        raise ValueError("need at least one subspace, got none")
    dims = {u.dim_ambient for u in subspaces}
    if len(dims) != 1:
        raise ValueError(f"subspaces live in different ambient dimensions: {dims}")
    return dims.pop()


def intersection(subspaces: list[LinearSubspace]) -> LinearSubspace:
    """Intersection of subspaces: the left null space of the stacked
    complement bases H = [C_1 ... C_n], whose range is U^perp.

    H H^T = sum_i (I - P_i), so H has the singular values of the stack of
    the I - P_i and ``operators._rank`` decides the same rank on either.
    All d left singular vectors are kept: past the rank they span U, and
    up to it U^perp.
    """
    d = _ambient(subspaces)
    perp, basis = _range_split(np.hstack([u.perp for u in subspaces])[None])[0]
    return LinearSubspace(d, basis, perp)


def _block_images(bases: list[np.ndarray], coeffs: np.ndarray) -> np.ndarray:
    """Blocks a_i = bases[i] c_i for every column c of ``coeffs``, where c_i
    is the slice of c that belongs to node i; shape (len(bases), d, q)."""
    out = np.empty((len(bases), bases[0].shape[0], coeffs.shape[1]))
    offset = 0
    for i, b in enumerate(bases):
        np.matmul(b, coeffs[offset:offset + b.shape[1]], out=out[i])
        offset += b.shape[1]
    return out


#: column block of the back-substitution in ``_orthonormal_images``
_Q_BLOCK = 64
#: largest bound on cond(A)^2 at which ``_orthonormal_images`` takes R from
#: a Cholesky factor of A^T A, cond(A) <= 45: there Q lost at most 9.5e-14
#: of orthogonality in the draws measured, against 1.3e-13 at 2^12
_CHOLESKY_MAX_COND_SQ = 2.0 ** 11


def _gram_cond(z: np.ndarray) -> float:
    """cond(z^T z) = cond(z)^2 for z of full column rank, from the
    eigenvalues of the Gram matrix; inf where rounding leaves the least of
    them at or below zero."""
    lam = np.linalg.eigvalsh(z.T @ z)
    return lam[-1] / lam[0] if lam[0] > 0 else np.inf


def _orthonormal_images(images: np.ndarray, cond_sq: float) -> EBasis:
    """E from images of shape (n-1, d, q) with linearly independent
    columns: the Q factor A R^-1 of their reduced QR, where ``cond_sq``
    bounds cond(A)^2.

    R comes from one of two routes, chosen by that bound:

    * up to ``_CHOLESKY_MAX_COND_SQ``, the upper Cholesky factor of
      A^T A (CholeskyQR).  It costs about m q^2 flops for the Gram matrix
      and q^3 / 3 for its factor, where Householder's costs about
      2 m q^2 - 2 q^3 / 3, and it holds no m x q copy of A.  Q = A R^-1
      then loses orthogonality as about cond(A)^2 eps (Yamamoto,
      Nakatsukasa, Yanagisawa and Fukaya, ETNA 44, 2015): measured, at
      most 0.21 cond(A)^2 eps, so about 1e-13 at the gate's top;
    * above it, the Householder R of ``np.linalg.qr``, whose Q loses
      orthogonality as about cond(A) eps.

    The callers know the bound before they form A, from the graph alone:
    their images are M a with a of orthonormal columns and M the map
    Z^+ (x) I on the zero-sum blocks or Z_top^-1 (x) I, so cond(A)^2 <=
    cond(Z^T Z) or cond(Z_top^T Z_top), (n-1) x (n-1) Gram matrices whose
    eigenvalues ``_gram_cond`` takes.  The two routes' R differ only in
    the signs of their rows and in rounding, so E's projector does not
    depend on the route beyond rounding.

    Q is solved from Q R = A by back-substitution over blocks of 64
    columns [j, k):  Q[:, j:k] = (A[:, j:k] - Q[:, :j] R[:j, j:k])
    R[j:k, j:k]^-1.  For A of shape m x q that is about m q^2 flops of
    matrix products and q/64 inverses of 64 x 64 blocks, where A inv(R)
    costs about 2 q^3 for the general inverse (an LU of R against the
    identity) and 2 m q^2 for the product.  With q <= 64 there is one
    block, and the result is the product A inv(R), bit for bit.

    Q goes into a new array rather than over A: with Q written over A,
    the benchmark's predict-large workload peaked at 114 MB of RSS
    against 95 MB with the new array, though the op then holds one array
    fewer, so the rise comes from how later, larger arrays are placed.
    Solving for Q also holds two fewer copies of A than numpy's
    Householder accumulation of Q, with which predict-large peaked at
    125 MB instead of 99 MB.  Q's array is taken before R is, so that the
    Gram matrix and the factor's work arrays are freed above it: taken
    after R, it left a 15 MB hole below it on complete n=60 d=24, and
    predict-large peaked at 110 MB instead of 95 MB.
    """
    blocks, d, q = images.shape
    a = images.reshape(blocks * d, q)
    # before R, see above
    out = np.empty_like(a)
    if cond_sq <= _CHOLESKY_MAX_COND_SQ:
        r = np.linalg.cholesky(a.T @ a, upper=True)
    else:
        r = np.linalg.qr(a, mode="r")
    for j in range(0, q, _Q_BLOCK):
        k = min(j + _Q_BLOCK, q)
        # on the first block the product is an exact zero, so the
        # difference is A[:, :k] bit for bit
        out[:, j:k] = ((a[:, j:k] - out[:, :j] @ r[:j, j:k])
                       @ np.linalg.inv(r[j:k, j:k]))
    return EBasis(blocks, d, out)


def _dim_E(sp: SubspaceProblem) -> int:
    """dim E = (n-1) d - sum_i r_i + dim U, from the node ranks r_i and
    dim U alone.  The blocks a_i in U_i^perp span sum_i (d - r_i)
    dimensions, and their sum maps them onto U^perp, of dimension
    d - dim U; E is the image of that map's kernel under Z^+, which is
    one-to-one on zero-sum blocks."""
    return (sp.n - 1) * sp.d - sum(u.dim for u in sp.subspaces) + sp.u_common.dim


def _kernel(mat: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis of the k-dimensional kernel of ``mat``, k known
    beforehand: its last k right singular vectors, from one SVD, with no
    rank decision.  Only a wide matrix needs the full factor; a tall one
    would build an m x m left factor for nothing.  numpy's SVD of an
    empty matrix gives the identity or an empty right factor."""
    m, n = mat.shape
    return np.linalg.svd(mat, full_matrices=m < n)[2][n - k:].T


def build_E(sp: SubspaceProblem) -> EBasis:
    """Assemble E from its definition.

    Block vectors a with a_i in U_i^perp are parametrized through bases of
    the complements; the zero-sum constraint is the null space of their
    horizontal concatenation H = [C_1 ... C_n]; the solutions map through
    Z^+ and the images are orthonormalized by a reduced QR.  ker H has
    dimension dim E (``_dim_E``), as H has the rank d - dim U that
    ``intersection`` decided on it, so its basis is the last dim E right
    singular vectors of H and no second rank decision is taken.  The map
    from coefficients to images has full column rank (orthonormal
    coefficients, isometric complement bases, and Z^+ injective on
    zero-sum blocks because G' is connected), so no rank decision is
    needed there either.  On the zero-sum
    blocks Z^+ has the singular values 1 / sqrt(lambda_i), for the nonzero
    eigenvalues lambda_i of Lap(G') = Z Z^T, which are those of Z^T Z; so
    cond(Z^T Z) bounds the squared condition number of the images.
    """
    comp = [u.perp for u in sp.subspaces]
    a = _block_images(comp, _kernel(np.hstack(comp), _dim_E(sp)))
    images = np.tensordot(sp.base.dec.z_dagger, a, axes=1)
    del a  # the QR is the memory peak; on complete n=60 d=24 this is 8 MB
    return _orthonormal_images(images, _gram_cond(sp.base.z))


def closed_form_E(name: str, sp: SubspaceProblem) -> EBasis:
    """E through the membership identity, for a problem whose subgraph is
    the ``name`` graph of its order; the onto factor of Lap(G') may be any
    that applies to it."""
    if name not in E_ROUTES:
        raise ValueError(f"unknown E route {name!r}; choose from {E_ROUTES}")
    n = sp.n
    try:
        reference = named_graph(name, n)
    except GraphError:
        reference = None
    if sp.base.pair.sub != reference:
        raise ValueError(f"subgraph is not the {name} graph of order {n}")
    return _membership_E(sp)


def _membership_E(sp: SubspaceProblem) -> EBasis:
    """E by the membership identity, on any connected pair and any onto
    factor Z.

    The blocks a = Z e range over a_i in U_i^perp for i < n with their sum
    in U_n^perp (a_n is minus it, as 1^T Z = 0), and e = Z_top^-1 a for
    Z_top the first n-1 rows of Z.  Any n-1 rows of Z are independent: if
    Z_top c = 0, then (Z c)_n = -sum_{i<n} (Z c)_i = 0, so Z c = 0, and
    c = 0 as Z has full column rank.  The coefficients are the kernel of
    B_n^T [C_1 ... C_{n-1}], of dimension dim E (``_dim_E``), taken as its
    last dim E right singular vectors with no rank decision: deciding the
    rank of that matrix apart from U's could disagree with it on nearly
    aligned nodes and give an E one dimension short.  The map from
    coefficients to images has full column rank, so a reduced QR of the
    images is a basis of E.
    The coefficients are orthonormal, so cond(Z_top^T Z_top) bounds the
    squared condition number of the images.
    """
    comp = [u.perp for u in sp.subspaces[:-1]]
    h = sp.subspaces[-1].basis.T @ np.hstack(comp)
    a = _block_images(comp, _kernel(h, _dim_E(sp)))
    z_top = sp.base.z[:-1]
    e = np.tensordot(np.linalg.inv(z_top), a, axes=1)
    del a  # as in build_E, before the QR
    return _orthonormal_images(e, _gram_cond(z_top))


@np.errstate(over="ignore", invalid="ignore")
def _limit(sp: SubspaceProblem, y: np.ndarray) -> LimitPrediction:
    """The limit formula at y of shape (n-1, d): u = P_U(alpha^T y) /
    ||alpha||^2, e = P_E(y) and v_bar = alpha (x) u + e.  A y whose limit
    overflows float64 raises ``ValueError``."""
    a, b = sp.alpha.alpha, sp.u_common.basis
    u = ((a @ y) @ b) @ b.T / sp.alpha.norm_sq
    e = sp.e_basis.project(y)
    v_bar = np.outer(a, u) + e
    # alpha != 0, so a non-finite u or e leaves v_bar non-finite
    if not np.isfinite(v_bar).all():
        raise ValueError("the predicted limit is not finite: it overflows "
                         "float64")
    return LimitPrediction(u, e, v_bar)


def predict_limits_alg2(sp: SubspaceProblem, v0) -> LimitPrediction:
    """Exact limit of the reduced iteration started at v0 (constant
    relaxation in (0, 2) assumed for the run itself)."""
    return _limit(sp, real_array(v0, "v0", (sp.n - 1, sp.d)))


@np.errstate(over="ignore", invalid="ignore")
def predict_limits_alg1(sp: SubspaceProblem, w0, v0) -> LimitPrediction:
    """Exact limit of the expanded iteration started at (w0, v0): the
    limit formula at y = Z^T w0 + v0; all shadow and w blocks converge to
    u_bar."""
    w0 = real_array(w0, "w0", (sp.n, sp.d))
    v0 = real_array(v0, "v0", (sp.n - 1, sp.d))
    a = sp.alpha.alpha
    delta = degree_balance(sp.base.pair.g).delta.astype(np.float64)
    y = sp.base.zt @ w0 + v0
    # first, so a y that overflows is reported as such, not as a gap
    lim = _limit(sp, y)
    s = delta @ w0 + a @ v0
    # the two stated forms of the projected seed agree because Z alpha =
    # delta; their rounding follows the size of the terms, not of s, which
    # cancels to 0 when every w0 block is the same
    gap = np.abs(s - a @ y).max()
    size = np.abs(delta) @ np.abs(w0) + np.abs(a) @ np.abs(v0)
    if gap > 1e-9 * max(1.0, size.max()):
        raise ValueError(
            f"alpha does not match the degree balance: delta^T w + alpha^T v "
            f"and alpha^T (Z^T w + v) differ by {gap:.3e}"
        )
    return lim


def proj_fix_T_tilde(sp: SubspaceProblem, v) -> np.ndarray:
    """Projection onto the reduced fixed-point set: the limit formula at v."""
    return _limit(sp, real_array(v, "v", (sp.n - 1, sp.d))).v_bar


@np.errstate(over="ignore", invalid="ignore")
def m_proj_fix_T(sp: SubspaceProblem, w, v):
    """M-projection onto the expanded fixed-point set: (w_bar, v_bar) with
    every block of w_bar the u and v_bar the limit formula at Z^T w + v."""
    y = (sp.base.zt @ real_array(w, "w", (sp.n, sp.d))
         + real_array(v, "v", (sp.n - 1, sp.d)))
    lim = _limit(sp, y)
    return np.tile(lim.u_bar, (sp.n, 1)), lim.v_bar


def x_from_v(sp: SubspaceProblem, v) -> np.ndarray:
    """The unique zero associated with a governing vector: the first
    node's resolvent at (Z v)_1 / d_1.  For v in the fixed-point set this
    lies in U."""
    zv1 = sp.base.z[0] @ real_array(v, "v", (sp.n - 1, sp.d))
    return resolvent(sp.base.ops[0], zv1 * sp.base._dinv[0], sp.base._dinv[0])


def assemble_fix_basis(sp: SubspaceProblem) -> np.ndarray:
    """Orthonormal basis of the reduced fixed-point set, by concatenating
    {alpha (x) u} over a basis of U with the E basis.  Serves as the
    brute-force oracle for the projection formulas."""
    cols = np.hstack([np.kron(sp.alpha.alpha[:, None], sp.u_common.basis),
                      sp.e_basis.basis])
    return orthonormalize(cols.T, (sp.n - 1) * sp.d)
