import numpy as np
import pytest

from graphsplit import analysis
from graphsplit.analysis import (
    E_ROUTES,
    SubspaceProblem,
    assemble_fix_basis,
    build_E,
    closed_form_E,
    intersection,
    m_proj_fix_T,
    predict_limits_alg1,
    predict_limits_alg2,
    proj_fix_T_tilde,
    subspace_problem,
    x_from_v,
)
from graphsplit.engine import (
    SplittingProblem,
    StopRule,
    apply_T_tilde,
    run_alg1,
    run_alg2,
)
from graphsplit.factor import (
    METHODS,
    AlphaVector,
    FactorError,
    alpha,
    factorize,
    factor_circulant,
    factor_eigen,
    factor_tree,
)
from graphsplit.graphs import (
    degree_balance,
    laplacian,
    named_graph,
    new_graph,
    validate_pair,
)
from graphsplit.operators import (
    CallbackOp,
    NormalConeOp,
    complement,
    full_space,
    project,
    subspace_from_spanners,
)
from graphsplit.presets import preset

from conftest import (
    accepted_factors,
    apply_C_star,
    lstsq_project,
    membership_gap,
    membership_null_space,
    projector_gap,
    random_graph_pair,
    random_problem,
    random_subspace,
    span_residual,
)

E1 = [1.0, 0.0]
E2 = [0.0, 1.0]


def drs_subspace_problem(u1, u2, d=2):
    ps = preset("douglas_rachford", 2)
    return subspace_problem(ps.pair, ps.dec,
                            [subspace_from_spanners(d, u1),
                             subspace_from_spanners(d, u2)])


class TestIntersection:
    def test_identical_lines(self):
        u = intersection([subspace_from_spanners(2, [E1]),
                          subspace_from_spanners(2, [E1])])
        assert u.dim == 1
        assert np.abs(project(u, [5.0, 7.0]) - [5.0, 0.0]).max() < 1e-12

    def test_crossing_lines(self):
        u = intersection([subspace_from_spanners(2, [E1]),
                          subspace_from_spanners(2, [E2])])
        assert u.dim == 0

    def test_three_hyperplanes_through_common_vector(self, rng):
        # hyperplanes built to contain q meet exactly in span{q}
        d = 4
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        planes = []
        for _ in range(3):
            normal = rng.standard_normal(d)
            normal -= (normal @ q) * q
            planes.append(complement(subspace_from_spanners(d, [normal])))
        u = intersection(planes)
        assert u.dim == 1
        assert np.abs(project(u, q) - q).max() < 1e-10

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError, match="ambient"):
            intersection([full_space(2), full_space(3)])

    def test_no_subspaces_rejected(self):
        with pytest.raises(ValueError, match="at least one subspace"):
            intersection([])
        ps = preset("douglas_rachford", 2)
        with pytest.raises(ValueError, match="at least one subspace"):
            subspace_problem(ps.pair, ps.dec, [])

    @pytest.mark.parametrize("n,d", [(1, 4), (2, 5), (3, 7), (3, 3)])
    def test_fewer_normals_than_dimensions(self, n, d, rng):
        # n hyperplanes give H n columns, fewer than d but in (3, 3), and
        # U has d - n dimensions: all d left singular vectors of H count
        normals = rng.standard_normal((n, d))
        u = intersection([complement(subspace_from_spanners(d, [a]))
                          for a in normals])
        assert u.dim == d - n
        assert np.abs(normals @ u.basis).max(initial=0.0) < 1e-12
        perp = complement(u)
        assert perp.dim == n
        assert np.abs(u.projector() + perp.projector() - np.eye(d)).max() < 1e-12

    def test_full_spaces_meet_in_the_full_space(self):
        u = intersection([full_space(3), full_space(3)])
        assert u.dim == 3 and complement(u).dim == 0

    @pytest.mark.parametrize("n,d,planted", [(2, 3, 0), (5, 8, 1), (5, 8, 3),
                                             (12, 16, 2), (20, 16, 0)])
    def test_matches_scipy_null_space(self, n, d, planted, rng, scipy_linalg):
        common = rng.standard_normal((planted, d))
        subs = []
        for _ in range(n):
            extra = int(rng.integers(0, d - planted))
            subs.append(subspace_from_spanners(
                d, np.vstack([common, rng.standard_normal((extra, d))])))
        u = intersection(subs)
        stack = np.vstack([np.eye(d) - s.projector() for s in subs])
        ker = scipy_linalg.null_space(stack)
        assert u.dim == ker.shape[1] >= planted
        assert np.abs(u.projector() - ker @ ker.T).max() < 1e-10
        for s in subs:
            assert np.abs(project(s, u.basis.T) - u.basis.T).max(
                initial=0.0) < 1e-10


class TestBuildE:
    def test_crossing_lines_give_zero(self):
        sp = drs_subspace_problem([E1], [E2])
        assert sp.e_basis.dim == 0

    def test_aligned_lines_give_common_complement(self):
        sp = drs_subspace_problem([E1], [E1])
        eb = sp.e_basis
        assert eb.dim == 1
        assert abs(abs(eb.basis[1, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("name,n", [("generalized_ryu", 3),
                                        ("malitsky_tam", 4),
                                        ("complete", 4),
                                        ("parallel_up", 4)])
    def test_membership_of_basis_images(self, name, n, rng):
        # Z e must land in the product of the complements with zero block sum
        sp = random_problem(name, n, rng, d=3)
        z = sp.base.z
        for j in range(sp.e_basis.dim):
            e = sp.e_basis.basis[:, j].reshape(n - 1, 3)
            a = z @ e
            assert np.abs(a.sum(axis=0)).max() < 1e-10
            for i in range(n):
                assert np.abs(project(sp.subspaces[i], a[i])).max() < 1e-10


def _orthogonality_loss(q):
    return np.abs(q.T @ q - np.eye(q.shape[1])).max(initial=0.0)


#: the bound on cond(A)^2 that sends ``_orthonormal_images`` to each route:
#: the largest that takes the Cholesky R, and the next double, which takes
#: the Householder one
ROUTE_BOUNDS = {
    "cholesky": analysis._CHOLESKY_MAX_COND_SQ,
    "householder": np.nextafter(analysis._CHOLESKY_MAX_COND_SQ, np.inf),
}


class TestOrthonormalImages:
    """The Q factor of E's images, by blocked back-substitution on R."""

    @pytest.mark.parametrize("q", [1, 63, 64, 65, 130, 697])
    def test_orthonormal_with_the_span_of_the_images(self, q, rng):
        blocks, d = -(-2 * q // 24), 24
        images = rng.standard_normal((blocks, d, q))
        a = images.reshape(blocks * d, q)
        qr = np.linalg.qr(a)[0]
        # a Gaussian matrix twice as tall as wide has cond(A)^2 near 30
        for cond_sq in (np.linalg.cond(a) ** 2, np.inf):
            e = analysis._orthonormal_images(images, cond_sq)
            assert e.basis.shape == a.shape
            assert _orthogonality_loss(e.basis) < 1e-12
            assert np.abs(e.basis @ e.basis.T - qr @ qr.T).max() < 1e-12

    @pytest.mark.parametrize("q", [0, 1, 7, 42, 63, 64])
    def test_one_block_is_the_product_with_inv_r(self, q, rng):
        # up to one block the result is bit for bit the single product
        # A inv(R), for the R of the route taken, so E on small problems
        # does not change with the blocking
        images = rng.standard_normal((5, 16, q))
        a = images.reshape(80, q)
        routes = {"cholesky": np.linalg.cholesky(a.T @ a, upper=True),
                  "householder": np.linalg.qr(a, mode="r")}
        for route, r in routes.items():
            got = analysis._orthonormal_images(images, ROUTE_BOUNDS[route])
            assert np.array_equal(got.basis, a @ np.linalg.inv(r)), route

    @pytest.mark.parametrize("q", [0, 1, 65, 130])
    def test_orthogonal_images_are_only_scaled(self, q, rng, r_routes):
        # a bound of 1 takes no triangular factor: Q is each column over
        # its norm, in a new array
        blocks, d = -(-2 * q // 24) or 1, 24
        left = np.linalg.qr(rng.standard_normal((blocks * d, q)))[0]
        scales = rng.uniform(0.1, 10.0, q)
        images = (left * scales).reshape(blocks, d, q)
        r_routes.clear()
        e = analysis._orthonormal_images(images, 1.0)
        assert not np.shares_memory(e.basis, images)
        assert np.allclose(e.basis, left, rtol=0, atol=1e-15)
        assert _orthogonality_loss(e.basis) < 1e-14
        assert r_routes == []

    def test_graded_images_lose_no_more_than_inv_r(self, rng):
        # a column space graded from 1 to 1e-6: both ways lose orthogonality
        # as cond(A) eps, each with its own rounding (in 16 random draws
        # the ratio of the losses lay between 0.7 and 2.4); cond(A)^2 of
        # 1e12 sends the images to the Householder R
        m, q = 520, 130
        left = np.linalg.qr(rng.standard_normal((m, q)))[0]
        right = np.linalg.qr(rng.standard_normal((q, q)))[0]
        a = (left * np.logspace(0, -6, q)) @ right.T
        blocked = _orthogonality_loss(analysis._orthonormal_images(
            a.reshape(m // 4, 4, q), np.linalg.cond(a) ** 2).basis)
        direct = _orthogonality_loss(a @ np.linalg.inv(np.linalg.qr(a, mode="r")))
        assert blocked <= 4 * direct
        assert blocked <= np.linalg.cond(a) * np.finfo(float).eps

    @pytest.mark.parametrize("name", ["complete", "malitsky_tam", "parallel_up"])
    def test_one_svd_per_node_and_three_per_problem(self, name, monkeypatch,
                                                    rng):
        # one SVD per node gives its basis and complement, one gives U,
        # and each E route takes one null space
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        n, d = 6, 4
        ps = preset(name, n)
        monkeypatch.setattr(np.linalg, "svd", counted)
        subs = [subspace_from_spanners(d, rng.standard_normal((int(r), d)))
                for r in rng.integers(1, d, size=n)]
        sp = subspace_problem(ps.pair, ps.dec, subs)
        sp.u_common
        sp.e_basis
        closed_form_E(ps.e_route, sp)
        assert len(calls) <= n + 3


#: the (preset, n, d) rungs of the benchmark's predict-large workload
PREDICT_LARGE_RUNGS = [
    ("complete", 60, 24), ("malitsky_tam", 30, 16),
    ("generalized_ryu", 20, 16), ("parallel_down", 20, 16),
    ("malitsky_tam", 20, 16), ("sequential", 20, 16),
    ("malitsky_tam", 16, 12), ("sequential", 16, 12), ("complete", 16, 12),
    ("parallel_up", 16, 12), ("generalized_ryu", 16, 12),
    ("parallel_down", 16, 12),
]


@pytest.fixture
def r_routes(monkeypatch):
    """The triangular factors taken, in call order: "cholesky" or "qr",
    read by spying on numpy's."""
    calls = []
    for name in ("cholesky", "qr"):
        def spy(*args, real=getattr(np.linalg, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


#: the presets whose bounds on cond(images)^2 read 1 up to rounding, so
#: that ``_orthonormal_images`` only scales the images: (build_E's,
#: the membership construction's); complete G' has one nonzero Laplacian
#: eigenvalue, and Z_top Z_top^T is the identity for a star centred on
#: node n, the G' of generalized_ryu and parallel_down
ORTHOGONAL_BOUNDS = {
    "douglas_rachford": [True, True],
    "complete": [True, False],
    "generalized_ryu": [False, True],
    "parallel_down": [False, True],
}


def reads_one(bound):
    return bound - 1 <= analysis._ORTHOGONAL_MAX_SLACK


def three_node_sequential_problem(second):
    """Nodes span{e1}, ``second`` and R^2 on the 3-node sequential
    preset, whose bounds are 3 and 6.85: dim E is 0 for crossing lines
    and 1 for aligned ones."""
    ps = preset("sequential", 3)
    return subspace_problem(ps.pair, ps.dec,
                            [subspace_from_spanners(2, [E1]),
                             subspace_from_spanners(2, second),
                             full_space(2)])


class TestERoute:
    """Both E constructions against a null-space oracle, on graphs whose
    bound on cond(images)^2 reads 1 or lies on either side of the
    Cholesky gate."""

    @staticmethod
    def check_against_oracle(sp, null_space):
        ref = membership_null_space(sp.base.z, sp.subspaces, null_space)
        for eb in (build_E(sp), analysis._membership_E(sp)):
            assert eb.dim == ref.shape[1]
            assert _orthogonality_loss(eb.basis) <= 1e-13
            assert np.abs(eb.basis @ eb.basis.T
                          - ref @ ref.T).max(initial=0.0) <= 1e-12

    # (preset, n, whether build_E's bound cond(Z^T Z) and the membership
    # bound cond(Z_top^T Z_top) are at most the gate): the sequential and
    # malitsky_tam membership bounds cross it between n = 36 and 37,
    # parallel_up's between 45 and 46 and the sequential build_E bound
    # between 71 and 72; on the other presets both bounds are at most n
    @pytest.mark.parametrize("name,n,build_below,membership_below", [
        ("douglas_rachford", 2, True, True),
        ("generalized_ryu", 40, True, True),
        ("parallel_down", 40, True, True),
        ("complete", 40, True, True),
        ("parallel_up", 45, True, True),
        ("parallel_up", 46, True, False),
        ("malitsky_tam", 36, True, True),
        ("malitsky_tam", 37, True, False),
        ("sequential", 36, True, True),
        ("sequential", 37, True, False),
        ("sequential", 71, True, False),
        ("sequential", 72, False, False),
    ])
    def test_presets_on_both_sides_of_the_gate(self, name, n, build_below,
                                               membership_below, rng,
                                               scipy_linalg):
        z = preset(name, n).dec.z
        bounds = analysis._gram_cond(z), analysis._gram_cond(z[:-1])
        assert [b <= analysis._CHOLESKY_MAX_COND_SQ for b in bounds] == [
            build_below, membership_below]
        assert list(map(reads_one, bounds)) == ORTHOGONAL_BOUNDS.get(
            name, [False, False])
        for planted in (False, True):
            sp = random_problem(name, n, rng, d=3, planted=planted)
            self.check_against_oracle(sp, scipy_linalg.null_space)

    @pytest.mark.parametrize("kind", ["tree", "chords", "ring", "complete"])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_pairs_every_method(self, kind, seed, scipy_linalg):
        rng = np.random.default_rng([seed, 23])
        n, d = int(rng.integers(3, 12)), int(rng.integers(2, 5))
        g_edges, sub_edges = random_graph_pair(rng, n, kind)
        pair = validate_pair(new_graph(n, g_edges), new_graph(n, sub_edges))
        spanners = random_spanners(rng, n, d)
        for method in METHODS:
            try:
                dec = factorize(pair.sub, method)
            except FactorError:
                continue
            sp = problem_from_spanners(pair, dec, spanners, d)
            self.check_against_oracle(sp, scipy_linalg.null_space)

    @pytest.mark.parametrize("second,dim", [([E2], 0), ([E1], 1)],
                             ids=["crossing", "aligned"])
    def test_dim_e_zero_and_one_through_cholesky(self, second, dim, r_routes,
                                                 scipy_linalg):
        sp = three_node_sequential_problem(second)
        self.check_against_oracle(sp, scipy_linalg.null_space)
        assert build_E(sp).dim == dim
        assert set(r_routes) == {"cholesky"}

    @pytest.mark.parametrize("second,dim", [([E2], 0), ([E1], 1)],
                             ids=["crossing", "aligned"])
    def test_dim_e_zero_and_one_without_a_factor(self, second, dim, r_routes,
                                                 scipy_linalg):
        # douglas_rachford's one edge leaves both bounds at exactly 1
        sp = drs_subspace_problem([E1], second)
        self.check_against_oracle(sp, scipy_linalg.null_space)
        assert build_E(sp).dim == dim
        assert r_routes == []

    @pytest.mark.parametrize("name,n,d", PREDICT_LARGE_RUNGS)
    def test_every_predict_large_rung_takes_cholesky(self, name, n, d, rng,
                                                     r_routes):
        # a Cholesky factor for each bound above 1, none for one that
        # reads 1: complete rungs take it in the membership construction
        # only, generalized_ryu and parallel_down in build_E only
        sp = random_problem(name, n, rng, d=d, planted=True)
        build_E(sp)
        built = r_routes[:]
        closed_form_E(preset(name, n).e_route, sp)
        expected = [[] if one else ["cholesky"]
                    for one in ORTHOGONAL_BOUNDS.get(name, [False, False])]
        assert [built, r_routes[len(built):]] == expected

    @pytest.mark.parametrize("n,edges", [
        # Lap(K_n - e) has the nonzero eigenvalues n - 2 and n, so
        # build_E's bound is n / (n - 2)
        (8, [(i, j) for i in range(1, 9) for j in range(i + 1, 9)
             if (i, j) != (1, 2)]),
        # a star centred on node 2: Z_top Z_top^T is not the identity, so
        # the membership bound is above 1, as build_E's, n, is on any star
        (7, [(1, 2)] + [(2, j) for j in range(3, 8)]),
    ], ids=["complete_minus_one_edge", "star_off_node_n"])
    def test_graphs_beside_the_orthogonal_ones_take_cholesky(
            self, n, edges, rng, r_routes, scipy_linalg):
        pair = validate_pair(new_graph(n, edges), new_graph(n, edges))
        dec = factorize(pair.sub)
        assert not any(map(reads_one, (analysis._gram_cond(dec.z),
                                       analysis._gram_cond(dec.z[:-1]))))
        spanners = [rng.standard_normal((3, int(r)))
                    for r in rng.integers(1, 3, size=n)]
        sp = problem_from_spanners(pair, dec, spanners, 3)
        self.check_against_oracle(sp, scipy_linalg.null_space)
        assert r_routes == ["cholesky", "cholesky"]

    def test_the_oracle_catches_the_orthogonal_route_where_it_fails(
            self, rng, monkeypatch, scipy_linalg):
        # admitting every bound scales images that are not orthogonal:
        # sequential n=6 has bounds 13.9 and 45.5, and its scaled images
        # are no orthonormal basis
        monkeypatch.setattr(analysis, "_ORTHOGONAL_MAX_SLACK", np.inf)
        sp = random_problem("sequential", 6, rng, d=3)
        with pytest.raises(AssertionError):
            self.check_against_oracle(sp, scipy_linalg.null_space)

    @pytest.mark.parametrize("name,n,routes", [
        ("sequential", 36, ["cholesky", "cholesky"]),
        ("sequential", 37, ["cholesky", "qr"]),
        ("parallel_up", 46, ["cholesky", "qr"]),
        ("sequential", 72, ["qr", "qr"]),
    ])
    def test_a_graph_above_the_gate_takes_householder(self, name, n, routes,
                                                      rng, r_routes):
        sp = random_problem(name, n, rng, d=3)
        build_E(sp)
        closed_form_E(preset(name, n).e_route, sp)
        assert r_routes == routes

    def test_a_singular_gram_matrix_takes_householder(self):
        # rounding may leave the least eigenvalue of a singular Gram matrix
        # below zero (here -1.9e-15 with OpenBLAS), and a negative ratio
        # must not pass the gate
        z = np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        assert analysis._gram_cond(z) > analysis._CHOLESKY_MAX_COND_SQ


class TestClosedFormE:
    def test_sequential_hand_constraints(self):
        # U1 = U3 = R^2 and U2 = span{e1}: every constraint pins e to zero
        ps = preset("sequential", 3)
        sp = subspace_problem(ps.pair, ps.dec,
                              [full_space(2), subspace_from_spanners(2, [E1]),
                               full_space(2)])
        assert closed_form_E("sequential", sp).dim == 0

    def test_parallel_down_full_spaces(self):
        ps = preset("parallel_down", 3)
        sp = subspace_problem(ps.pair, ps.dec, [full_space(2)] * 3)
        assert closed_form_E("parallel_down", sp).dim == 0

    def test_route_mismatch_rejected(self):
        sp = drs_subspace_problem([E1], [E2])
        with pytest.raises(ValueError, match="not the ring graph"):
            closed_form_E("ring", sp)
        with pytest.raises(ValueError, match="unknown E route"):
            closed_form_E("star", sp)

    @pytest.mark.parametrize("name,n", [
        ("sequential", 2), ("sequential", 3), ("sequential", 5),
        ("parallel_up", 3), ("parallel_up", 5),
        ("parallel_down", 3), ("parallel_down", 5),
        ("complete", 2), ("complete", 3), ("complete", 5),
    ])
    def test_matches_generic_construction(self, name, n, rng):
        for trial in range(4):
            d = int(rng.integers(2, 5))
            sp = random_problem(name, n, rng, d=d, planted=trial % 2 == 0)
            got = closed_form_E(name, sp)
            ref = build_E(sp)
            assert got.dim == ref.dim
            assert span_residual(got.basis, ref.basis) <= 1e-8

    @pytest.mark.parametrize("route", E_ROUTES)
    @pytest.mark.parametrize("n,d", [(4, 3), (10, 8), (20, 16), (60, 4)])
    def test_every_route_matches_generic_construction(self, route, n, d, rng):
        # E against its definition, with every factor that applies: Z e has
        # blocks in U_i^perp summing to zero, and closed form and generic
        # construction give the same projector
        sub = named_graph(route, n)
        pair = validate_pair(sub, sub)
        common = rng.standard_normal(d)
        subs = [random_subspace(rng, d, int(r), contains=common)
                for r in rng.integers(1, d, size=n)]
        for dec in accepted_factors(sub):
            sp = subspace_problem(pair, dec, subs)
            got, ref = closed_form_E(route, sp), build_E(sp)
            assert got.dim == ref.dim > 0, dec.method
            for eb in (got, ref):
                assert np.abs(eb.basis.T @ eb.basis
                              - np.eye(eb.dim)).max() < 1e-12, dec.method
                assert membership_gap(dec.z, subs, eb) < 1e-10, dec.method
            assert projector_gap(got, ref) < 1e-10, dec.method

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ring_route_via_circulant(self, n, rng):
        ring = named_graph("ring", n)
        pair = validate_pair(ring, ring)
        dec = factor_circulant(ring)
        d = 3
        subs = [random_subspace(rng, d, int(rng.integers(1, d)))
                for _ in range(n)]
        sp = subspace_problem(pair, dec, subs)
        got = closed_form_E("ring", sp)
        ref = build_E(sp)
        assert span_residual(got.basis, ref.basis) <= 1e-8


def random_spanners(rng, n, d):
    """Spanner matrices (d, r_i) with r_i in [0, d]; in half the draws a
    common vector is planted in every nonzero one, and in a quarter node 2
    repeats node 1, so dim U and the sum of the ranks vary."""
    common = rng.standard_normal(d) if rng.random() < 0.5 else None
    out = []
    for _ in range(n):
        r = int(rng.integers(0, d + 1))
        cols = [rng.standard_normal(d) for _ in range(r)]
        if common is not None and r:
            cols[0] = common
        out.append(np.array(cols).reshape(r, d).T)
    if rng.random() < 0.25:
        out[1] = out[0].copy()
    return out


def dim_E_by_count(spanners, d):
    """(n-1) d - sum_i dim U_i + dim U from numpy ranks alone: dim U_i is
    the rank of the spanners, dim U the corank of the stacked I - S S^+.
    This shares no code with build_E or closed_form_E."""
    n = len(spanners)
    eye = np.eye(d)
    residuals = [eye - s @ np.linalg.pinv(s) if s.shape[1] else eye
                 for s in spanners]
    dim_u = d - np.linalg.matrix_rank(np.vstack(residuals))
    ranks = sum(np.linalg.matrix_rank(s) if s.shape[1] else 0 for s in spanners)
    return (n - 1) * d - ranks + dim_u


def problem_from_spanners(pair, dec, spanners, d):
    return subspace_problem(pair, dec, [subspace_from_spanners(d, list(s.T))
                                        for s in spanners])


class TestEDimension:
    """dim E = (n-1) d - sum_i dim U_i + dim U, the kernel dimension of
    the sum map on the U_i^perp, counted by numpy ranks."""

    @pytest.mark.parametrize("route", E_ROUTES)
    @pytest.mark.parametrize("n,d", [(3, 2), (5, 3), (8, 4)])
    def test_every_route_and_build_E(self, route, n, d, rng):
        sub = named_graph(route, n)
        decs = accepted_factors(sub)
        for _ in range(4):
            spanners = random_spanners(rng, n, d)
            expected = dim_E_by_count(spanners, d)
            for dec in decs:
                sp = problem_from_spanners(validate_pair(sub, sub), dec,
                                           spanners, d)
                assert build_E(sp).dim == expected, dec.method
                assert closed_form_E(route, sp).dim == expected, dec.method

    @pytest.mark.parametrize("kind", ["tree", "chords", "ring", "complete"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs_every_method(self, kind, seed, networkx):
        # connectivity, the Laplacian and the degree balance come from
        # networkx, the dimension count from numpy ranks
        nx = networkx
        rng = np.random.default_rng([seed, 77])
        n, d = int(rng.integers(3, 9)), int(rng.integers(2, 5))
        g_edges, sub_edges = random_graph_pair(rng, n, kind)
        g_nx, sub_nx = nx.Graph(g_edges), nx.Graph(sub_edges)
        assert nx.is_connected(sub_nx) and sub_nx.number_of_nodes() == n
        assert all(g_nx.has_edge(i, j) for i, j in sub_edges)
        lap = nx.laplacian_matrix(sub_nx, nodelist=range(1, n + 1)).toarray()
        directed = nx.DiGraph(g_edges)
        delta = np.array([directed.out_degree(i) - directed.in_degree(i)
                          for i in range(1, n + 1)], dtype=np.float64)
        pair = validate_pair(new_graph(n, g_edges), new_graph(n, sub_edges))
        spanners = random_spanners(rng, n, d)
        expected = dim_E_by_count(spanners, d)
        accepted = []
        for method in METHODS:
            try:
                dec = factorize(pair.sub, method)
            except FactorError:
                continue
            accepted.append(method)
            assert np.abs(dec.z @ dec.z.T - lap).max() < 1e-10
            a = alpha(dec, degree_balance(pair.g)).alpha
            assert np.abs(dec.z @ a - delta).max() < 1e-10
            sp = problem_from_spanners(pair, dec, spanners, d)
            ref, got = build_E(sp), analysis._membership_E(sp)
            assert ref.dim == got.dim == expected, method
            assert projector_gap(got, ref) < 1e-10, method
        assert "eigen" in accepted
        assert {"tree": "tree_incidence", "chords": "eigen",
                "ring": "circulant", "complete": "complete_sparse"}[kind] in accepted


class TestNearlyAlignedNodes:
    """Nodes spanned by c + eps noise and two random vectors, with eps
    where the near-common vector flips between common and not.  There a
    rank decided on the membership rows can disagree with U's, so both E
    constructions must take dim E from the node ranks and dim U."""

    @pytest.mark.parametrize("name,n,d", [("generalized_ryu", 6, 6),
                                          ("complete", 5, 4)])
    def test_both_routes_follow_the_dimension_formula(self, name, n, d):
        ps = preset(name, n)
        for seed in range(5):
            for eps in (3e-11, 1e-10, 3e-10, 1e-9):
                rng = np.random.default_rng([seed, 7])
                c = rng.standard_normal(d)
                subs = [subspace_from_spanners(
                    d, [c + eps * rng.standard_normal(d),
                        rng.standard_normal(d), rng.standard_normal(d)])
                        for _ in range(n)]
                sp = subspace_problem(ps.pair, ps.dec, subs)
                want = ((n - 1) * d - sum(u.dim for u in subs)
                        + sp.u_common.dim)
                got = closed_form_E(ps.e_route, sp)
                assert sp.e_basis.dim == got.dim == want, (seed, eps)
                # 3.0e-7 measured: the nodes are ill-conditioned by design
                assert projector_gap(got, sp.e_basis) <= 1e-6, (seed, eps)


class TestPredictLimits:
    def test_drs_aligned(self):
        sp = drs_subspace_problem([E1], [E1])
        pred = predict_limits_alg2(sp, np.array([[3.0, 4.0]]))
        assert np.abs(pred.u_bar - [3.0, 0.0]).max() < 1e-12
        assert np.abs(pred.e_bar - [[0.0, 4.0]]).max() < 1e-12
        assert np.abs(pred.v_bar - [[3.0, 4.0]]).max() < 1e-12

    def test_drs_crossing(self):
        sp = drs_subspace_problem([E1], [E2])
        pred = predict_limits_alg2(sp, np.array([[1.0, 1.0]]))
        assert np.abs(pred.u_bar).max() == 0.0
        assert np.abs(pred.v_bar).max() == 0.0

    def test_zero_start(self):
        sp = drs_subspace_problem([E1], [E2])
        pred = predict_limits_alg2(sp, np.zeros((1, 2)))
        assert np.abs(pred.v_bar).max() == 0.0

    def test_alg1_with_diagonal_w0_matches_alg2(self, rng):
        sp = random_problem("malitsky_tam", 4, rng, d=3, planted=True)
        v0 = rng.standard_normal((3, 3))
        w0 = np.tile(rng.standard_normal(3), (4, 1))
        p1 = predict_limits_alg1(sp, w0, v0)
        p2 = predict_limits_alg2(sp, v0)
        assert np.abs(p1.u_bar - p2.u_bar).max() < 1e-12
        assert np.abs(p1.v_bar - p2.v_bar).max() < 1e-12

    def test_alg1_with_zero_w0_matches_alg2(self, rng):
        sp = random_problem("complete", 4, rng, d=3)
        v0 = rng.standard_normal((3, 3))
        p1 = predict_limits_alg1(sp, np.zeros((4, 3)), v0)
        p2 = predict_limits_alg2(sp, v0)
        assert np.abs(p1.v_bar - p2.v_bar).max() < 1e-14

    def test_two_seed_forms_agree(self, rng):
        # delta^T w0 + alpha^T v0 equals alpha^T (Z^T w0 + v0)
        from graphsplit.graphs import degree_balance

        for name, n in [("generalized_ryu", 4), ("sequential", 5)]:
            sp = random_problem(name, n, rng, d=3)
            delta = degree_balance(sp.base.pair.g).delta.astype(float)
            a = sp.alpha.alpha
            for _ in range(10):
                w0 = rng.standard_normal((n, 3))
                v0 = rng.standard_normal((n - 1, 3))
                s1 = delta @ w0 + a @ v0
                s2 = a @ (sp.base.zt @ w0 + v0)
                assert np.abs(s1 - s2).max() < 1e-12

    def test_large_equal_w0_blocks_predict(self, rng):
        # every w0 block the same: delta^T w0 + alpha^T v0 cancels while
        # the rounding of Z^T w0 grows with ||w0||, so the degree-balance
        # gap is scaled by the size of the terms
        ps = preset("complete", 3)
        sp = subspace_problem(ps.pair, ps.dec, [
            subspace_from_spanners(2, [s])
            for s in ([1.0, 0.0], [1.0, 1.0], [1.0, 0.0])])
        w0 = np.full((3, 2), 1e8)
        for v0 in (np.zeros((2, 2)), rng.standard_normal((2, 2))):
            got = predict_limits_alg1(sp, w0, v0).v_bar
            want = predict_limits_alg2(sp, sp.base.zt @ w0 + v0).v_bar
            scale = max(1.0, np.linalg.norm(want))
            assert np.abs(got - want).max() <= 1e-12 * scale

    def test_alpha_off_the_degree_balance_raises(self, rng):
        # a checked condition, not an assert, so it holds under python -O
        sp = random_problem("generalized_ryu", 4, rng, d=3)
        a = sp.alpha.alpha + 0.5
        sp.alpha = AlphaVector(a, float(a @ a))
        w0 = rng.standard_normal((4, 3))
        v0 = rng.standard_normal((3, 3))
        with pytest.raises(ValueError, match="degree balance"):
            predict_limits_alg1(sp, w0, v0)
        # and with a large w0, whose terms scale the gap
        with pytest.raises(ValueError, match="degree balance"):
            predict_limits_alg1(sp, 1e8 * w0, v0)


class TestProjFixTTilde:
    def test_member_unchanged(self, rng):
        sp = random_problem("malitsky_tam", 3, rng, d=3, planted=True)
        basis = assemble_fix_basis(sp)
        coef = rng.standard_normal(basis.shape[1])
        v = (basis @ coef).reshape(2, 3)
        assert np.abs(proj_fix_T_tilde(sp, v) - v).max() <= 1e-10

    def test_drs_skew_lines_give_zero(self):
        sp = drs_subspace_problem([E1], [[1.0, 1.0]])
        got = proj_fix_T_tilde(sp, np.array([[1.0, 0.0]]))
        assert np.abs(got).max() < 1e-12

    def test_idempotent(self, rng):
        sp = random_problem("complete", 3, rng, d=4)
        v = rng.standard_normal((2, 4))
        once = proj_fix_T_tilde(sp, v)
        assert np.abs(proj_fix_T_tilde(sp, once) - once).max() <= 1e-10

    @pytest.mark.parametrize("name,n", [("douglas_rachford", 2),
                                        ("generalized_ryu", 3),
                                        ("parallel_up", 4),
                                        ("complete", 4)])
    def test_equals_least_squares_onto_assembled_basis(self, name, n, rng):
        for trial in range(10):
            sp = random_problem(name, n, rng, d=3, planted=trial % 2 == 0)
            basis = assemble_fix_basis(sp)
            v = rng.standard_normal((n - 1, 3))
            got = proj_fix_T_tilde(sp, v).reshape(-1)
            ref = lstsq_project(basis, v.reshape(-1))
            assert np.abs(got - ref).max() <= 1e-8

    def test_fixed_point_certification(self, rng):
        for name, n in [("malitsky_tam", 4), ("complete", 3),
                        ("parallel_down", 4)]:
            sp = random_problem(name, n, rng, d=3, planted=True)
            v_bar = proj_fix_T_tilde(sp, rng.standard_normal((n - 1, 3)))
            _, v_new = apply_T_tilde(sp.base, v_bar)
            assert np.abs(v_new - v_bar).max() <= 1e-9
            x = x_from_v(sp, v_bar)
            assert np.abs(project(sp.u_common, x) - x).max() <= 1e-9


class TestMProjFixT:
    def test_drs_three_block_formula(self, rng):
        for trial in range(10):
            d = 3
            planted = rng.standard_normal(d) if trial % 2 == 0 else None
            u1 = random_subspace(rng, d, 2, contains=planted)
            u2 = random_subspace(rng, d, 2, contains=planted)
            ps = preset("douglas_rachford", 2)
            sp = subspace_problem(ps.pair, ps.dec, [u1, u2])
            w = rng.standard_normal((2, d))
            v = rng.standard_normal((1, d))
            w_bar, v_bar = m_proj_fix_T(sp, w, v)
            y = w[0] - w[1] + v[0]
            u_both = intersection([u1, u2])
            u_perp = intersection([complement(u1), complement(u2)])
            py = project(u_both, y)
            assert np.abs(w_bar[0] - py).max() <= 1e-10
            assert np.abs(w_bar[1] - py).max() <= 1e-10
            assert np.abs(v_bar[0] - (py + project(u_perp, y))).max() <= 1e-10

    def test_ryu_first_blocks(self, rng):
        # order 3: all w blocks collapse to P_U(y_1) / 2
        sp = random_problem("generalized_ryu", 3, rng, d=3, planted=True)
        w = rng.standard_normal((3, 3))
        v = rng.standard_normal((2, 3))
        w_bar, v_bar = m_proj_fix_T(sp, w, v)
        y1 = w[0] - w[2] + v[0]
        expected = project(sp.u_common, y1) / 2.0
        for i in range(3):
            assert np.abs(w_bar[i] - expected).max() <= 1e-10
        y = sp.base.zt @ w + v
        assert np.abs(v_bar - proj_fix_T_tilde(sp, y)).max() <= 1e-12

    def test_certificate_unchanged(self, rng):
        sp = random_problem("sequential", 4, rng, d=3, planted=True)
        v_bar = proj_fix_T_tilde(sp, rng.standard_normal((3, 3)))
        x = x_from_v(sp, v_bar)
        w_bar = np.tile(x, (4, 1))
        w_out, v_out = m_proj_fix_T(sp, w_bar, v_bar)
        assert np.abs(w_out - w_bar).max() <= 1e-10
        assert np.abs(v_out - v_bar).max() <= 1e-10

    @pytest.mark.parametrize("name,n", [("douglas_rachford", 2),
                                        ("malitsky_tam", 3),
                                        ("complete", 4)])
    def test_c_star_image_identity(self, name, n, rng):
        # C^* P^M_{Fix T} = P_{Fix T~} C^*
        for trial in range(5):
            sp = random_problem(name, n, rng, d=3, planted=trial % 2 == 0)
            w = rng.standard_normal((n, 3))
            v = rng.standard_normal((n - 1, 3))
            w_bar, v_bar = m_proj_fix_T(sp, w, v)
            lhs = apply_C_star(sp.base, w_bar, v_bar)
            rhs = proj_fix_T_tilde(sp, apply_C_star(sp.base, w, v))
            assert np.abs(lhs - rhs).max() <= 1e-10


class TestXFromV:
    def test_zero(self):
        sp = drs_subspace_problem([E1], [E2])
        assert np.abs(x_from_v(sp, np.zeros((1, 2)))).max() == 0.0

    def test_projected_v_gives_u_tilde(self, rng):
        sp = random_problem("parallel_up", 4, rng, d=3, planted=True)
        v0 = rng.standard_normal((3, 3))
        v_bar = proj_fix_T_tilde(sp, v0)
        pred = predict_limits_alg2(sp, v0)
        assert np.abs(x_from_v(sp, v_bar) - pred.u_bar).max() <= 1e-10

    def test_malitsky_tam_identity_ops_scaled_constant(self, rng):
        # with v = alpha c the seed reduces to delta_1 c / d_1 = c
        ps = preset("malitsky_tam", 3)
        sp = subspace_problem(ps.pair, ps.dec, [full_space(2)] * 3)
        c = rng.standard_normal(2)
        v = np.outer(sp.alpha.alpha, c)
        assert np.abs(x_from_v(sp, v) - c).max() < 1e-12


class TestAssembleFixBasis:
    def test_aligned_drs_spans_everything(self):
        sp = drs_subspace_problem([E1], [E1])
        basis = assemble_fix_basis(sp)
        assert basis.shape == (2, 2)
        assert np.abs(basis @ basis.T - np.eye(2)).max() < 1e-12

    def test_trivial_case_is_empty(self):
        sp = drs_subspace_problem([E1], [[1.0, 1.0]])
        assert assemble_fix_basis(sp).shape[1] == 0

    def test_alpha_u_orthogonal_to_e(self, rng):
        for name, n in [("generalized_ryu", 4), ("complete", 3)]:
            sp = random_problem(name, n, rng, d=3, planted=True)
            a = sp.alpha.alpha
            ub = sp.u_common.basis
            eb = sp.e_basis.basis
            for j in range(ub.shape[1]):
                au = np.kron(a, ub[:, j])
                for k in range(eb.shape[1]):
                    assert abs(au @ eb[:, k]) <= 1e-10


class TestConvergenceToPredictions:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.5])
    def test_alg2_converges_to_prediction(self, theta, rng):
        sp = random_problem("generalized_ryu", 4, rng, d=4, planted=True)
        v0 = rng.standard_normal((3, 4))
        pred = predict_limits_alg2(sp, v0)
        trace = run_alg2(sp.base, v0, theta)
        assert trace.converged
        assert np.linalg.norm(trace.v - pred.v_bar) <= 1e-6
        for i in range(4):
            assert np.linalg.norm(trace.x[i] - pred.u_bar) <= 1e-6

    @pytest.mark.parametrize("theta", [0.5, 1.0, 1.5])
    def test_alg1_converges_to_prediction(self, theta, rng):
        sp = random_problem("parallel_down", 4, rng, d=4)
        w0 = rng.standard_normal((4, 4))
        v0 = rng.standard_normal((3, 4))
        pred = predict_limits_alg1(sp, w0, v0)
        trace = run_alg1(sp.base, w0, v0, theta)
        assert trace.converged
        assert np.linalg.norm(trace.v - pred.v_bar) <= 1e-6
        for i in range(4):
            assert np.linalg.norm(trace.x[i] - pred.u_bar) <= 1e-6
            assert np.linalg.norm(trace.w[i] - pred.u_bar) <= 1e-6


class TestOrthogonalFactorInvariance:
    def test_shadow_limit_independent_of_decomposition(self, rng):
        # re-factoring Z -> Z O transforms v-coordinates but not u_bar
        sub = named_graph("sequential", 4)
        pair = validate_pair(named_graph("ring", 4), sub)
        dec_t = factor_tree(sub)
        dec_e = factor_eigen(laplacian(sub).astype(float))
        o = dec_t.z_dagger @ dec_e.z
        d = 3
        q = rng.standard_normal(d)
        subs = [random_subspace(rng, d, 2, contains=q) for _ in range(4)]
        sp_t = subspace_problem(pair, dec_t, subs)
        sp_e = subspace_problem(pair, dec_e, subs)
        v0 = rng.standard_normal((3, d))
        pred_t = predict_limits_alg2(sp_t, v0)
        pred_e = predict_limits_alg2(sp_e, o.T @ v0)
        assert np.abs(pred_t.u_bar - pred_e.u_bar).max() <= 1e-8
        # the governing limit transforms with the same orthogonal factor
        assert np.abs(o.T @ pred_t.v_bar - pred_e.v_bar).max() <= 1e-8


class TestRejectsCallbacks:
    def test_from_problem(self):
        ps = preset("douglas_rachford", 2)
        ops = [NormalConeOp(full_space(2)),
               CallbackOp(lambda x, gamma: x / (1 + gamma))]
        base = SplittingProblem(ps.pair, ps.dec, ops, 2)
        with pytest.raises(ValueError, match="analysis requires subspace"):
            SubspaceProblem.from_problem(base)


#: every analysis entry point that takes blocks: the rows of the argument
#: under test (v has n-1 = 3, w has n = 4) and the call, zeros elsewhere
BLOCK_CALLS = {
    "alg2-v0": (3, lambda sp, x: predict_limits_alg2(sp, x)),
    "alg1-v0": (3, lambda sp, x: predict_limits_alg1(sp, np.zeros((4, 2)), x)),
    "alg1-w0": (4, lambda sp, x: predict_limits_alg1(sp, x, np.zeros((3, 2)))),
    "proj-v": (3, lambda sp, x: proj_fix_T_tilde(sp, x)),
    "mproj-v": (3, lambda sp, x: m_proj_fix_T(sp, np.zeros((4, 2)), x)),
    "mproj-w": (4, lambda sp, x: m_proj_fix_T(sp, x, np.zeros((3, 2)))),
    "x-from-v": (3, lambda sp, x: x_from_v(sp, x)),
}


class TestBlockShapes:
    """Blocks of the wrong shape are rejected, as by the iterations, not
    reshaped into a different start."""

    @pytest.mark.parametrize("layout", ["transposed", "flat"])
    @pytest.mark.parametrize("call", BLOCK_CALLS)
    def test_reshaped_blocks_rejected(self, call, layout, rng):
        sp = random_problem("sequential", 4, rng, d=2)
        rows, fn = BLOCK_CALLS[call]
        blocks = rng.standard_normal((rows, 2))
        fn(sp, blocks)
        with pytest.raises(ValueError, match="must have shape"):
            fn(sp, blocks.T if layout == "transposed" else blocks.reshape(-1))
