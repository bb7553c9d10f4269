import math
import warnings

import numpy as np
import pytest

from graphsplit.operators import (
    CallbackOp,
    NormalConeOp,
    _null_space,
    complement,
    full_space,
    orthonormalize,
    project,
    real_array,
    resolvent,
    subspace_from_spanners,
    zero_space,
)

from conftest import lstsq_project, random_subspace

def oracle_projector(scipy_linalg, rows: np.ndarray) -> np.ndarray:
    """Projector onto the span of the rows, as the complement of their
    null space, both from scipy."""
    d = rows.shape[1]
    ker = scipy_linalg.null_space(rows) if rows.shape[0] else np.eye(d)
    return np.eye(d) - ker @ ker.T


class TestSubspaceFromSpanners:
    def test_single_axis(self):
        u = subspace_from_spanners(2, [[1.0, 0.0]])
        assert u.dim == 1
        assert np.abs(np.abs(u.basis[:, 0]) - [1, 0]).max() < 1e-15

    def test_dependent_spanners_collapse(self):
        u = subspace_from_spanners(2, [[1.0, 1.0], [2.0, 2.0]])
        assert u.dim == 1
        assert np.abs(np.abs(u.basis[:, 0]) - 1 / np.sqrt(2)).max() < 1e-12

    def test_empty_gives_zero_subspace(self):
        u = subspace_from_spanners(3, [])
        assert u.dim == 0
        assert np.abs(u.projector()).max() == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length 3"):
            subspace_from_spanners(3, [[1.0, 0.0]])

    def test_float64_array_passes_the_check_without_a_copy(self):
        a = np.arange(6.0).reshape(2, 3)
        assert real_array(a, "a", (2, 3)) is a
        ints = np.arange(6).reshape(2, 3)
        assert real_array(ints, "a", (2, 3)).dtype == np.float64

    def test_plain_scalars_take_the_direct_path(self):
        # a Python float or int: the value and type of the general path,
        # and the same errors
        for value in (1.5, -0.0, 7, 2 ** 60 + 1, 1e308):
            got = real_array(value, "t", ())
            want = np.array(value, dtype=object).astype(np.float64)[()]
            assert type(got) is np.float64
            assert np.array_equal(np.array([got]).view(np.int64),
                                  np.array([want]).view(np.int64))
        for bad, match in ((True, "real numbers"), (math.inf, "not finite"),
                           (math.nan, "not finite"),
                           (10 ** 400, "not finite")):
            with pytest.raises(ValueError, match=f"t (must be|is) {match}"):
                real_array(bad, "t", ())
        with pytest.raises(ValueError, match="shape"):
            real_array(1.0, "t", (1,))

    def test_zero_vectors_dropped(self):
        u = subspace_from_spanners(2, [[0.0, 0.0], [0.0, 3.0]])
        assert u.dim == 1

    def test_basis_orthonormal(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            u = random_subspace(rng, d, int(rng.integers(1, d + 1)))
            gram = u.basis.T @ u.basis
            assert np.abs(gram - np.eye(u.dim)).max() < 1e-12


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_spanner_rejected(self, bad):
        with pytest.raises(ValueError, match="spanner 1 is not finite"):
            subspace_from_spanners(2, [[0.0, 1.0], [bad, 1.0]])

    @pytest.mark.parametrize("scale", [1e200, 1.7e308, 1e-170, 1e-320])
    def test_spanners_whose_square_leaves_the_float_range_count(self, scale):
        # the squares overflow to inf or underflow to 0; the scaled rows
        # do neither, and no warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = subspace_from_spanners(2, [[scale, 0.0]])
            plane = subspace_from_spanners(2, [[scale, scale], [1.0, 0.0]])
            cols = orthonormalize([[0.0, -scale]], 2)
        assert line.dim == 1
        assert np.abs(np.abs(line.basis[:, 0]) - [1, 0]).max() < 1e-15
        assert plane.dim == 2
        assert cols.shape == (2, 1)
        assert np.abs(np.abs(cols[:, 0]) - [0, 1]).max() < 1e-15


class TestRankRevealingPrimitive:
    """Bases from the SVD primitive against scipy's null space, which
    shares no code with it, and against projector identities."""

    def check_span(self, scipy_linalg, rows, expected_dim):
        rows = np.asarray(rows, dtype=np.float64)
        u = subspace_from_spanners(rows.shape[1], rows)
        assert u.dim == expected_dim
        assert np.abs(u.basis.T @ u.basis - np.eye(u.dim)).max(initial=0.0) < 1e-12
        p = u.projector()
        assert np.abs(p - oracle_projector(scipy_linalg, rows)).max() < 1e-10
        # every spanner lies in the span
        assert np.abs(p @ rows.T - rows.T).max() < 1e-10 * max(
            1.0, np.abs(rows).max())

    def test_rank_deficient_spanners(self, rng, scipy_linalg):
        for _ in range(20):
            d = int(rng.integers(2, 12))
            r = int(rng.integers(1, d))
            k = r + int(rng.integers(1, 4))
            rows = rng.standard_normal((k, r)) @ rng.standard_normal((r, d))
            self.check_span(scipy_linalg, rows, r)

    def test_zero_vectors_among_spanners(self, rng, scipy_linalg):
        rows = rng.standard_normal((5, 6))
        rows[[0, 3]] = 0.0
        self.check_span(scipy_linalg, rows, 3)
        self.check_span(scipy_linalg, np.zeros((2, 4)), 0)

    def test_mixed_scale_spanners_keep_both(self, rng, scipy_linalg):
        for scale in (1e-12, 1e12):
            v, w = rng.standard_normal(5), rng.standard_normal(5)
            self.check_span(scipy_linalg, np.array([v, scale * w]), 2)

    def test_complement_matches_scipy_null_space(self, rng, scipy_linalg):
        for _ in range(20):
            d = int(rng.integers(1, 12))
            u = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            c = complement(u)
            ker = scipy_linalg.null_space(u.basis.T) if u.dim else np.eye(d)
            assert c.dim == ker.shape[1] == d - u.dim
            assert np.abs(c.basis.T @ c.basis - np.eye(c.dim)).max(initial=0.0) < 1e-12
            assert np.abs(c.projector() - ker @ ker.T).max() < 1e-10


class TestComplement:
    def test_axis(self):
        c = complement(subspace_from_spanners(2, [[1.0, 0.0]]))
        assert c.dim == 1
        assert abs(abs(c.basis[1, 0]) - 1) < 1e-12

    def test_zero_subspace(self):
        c = complement(zero_space(3))
        assert c.dim == 3

    def test_involution(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            u = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            cc = complement(complement(u))
            assert np.abs(cc.projector() - u.projector()).max() < 1e-10

    def test_projectors_sum_to_identity(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            u = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            c = complement(u)
            assert u.dim + c.dim == d
            assert np.abs(u.projector() + c.projector() - np.eye(d)).max() < 1e-10


class TestSingleFactorisation:
    """The complement is kept from the SVD that gives the basis."""

    @staticmethod
    def cases(rng):
        d = 6
        r = rng.standard_normal((2, 3)) @ rng.standard_normal((3, d))
        spanners = {
            "zero": [],
            "zero vectors": np.zeros((2, d)),
            "full": rng.standard_normal((d, d)),
            "more than d": rng.standard_normal((d + 3, d)),
            "partial": rng.standard_normal((2, d)),
            "rank-deficient": np.vstack([r, r[0] - 2 * r[1]]),
        }
        subs = {name: subspace_from_spanners(d, rows)
                for name, rows in spanners.items()}
        subs["full_space"], subs["zero_space"] = full_space(d), zero_space(d)
        return subs

    def test_double_complement_is_the_same_subspace(self, rng):
        for u in self.cases(rng).values():
            cc = complement(complement(u))
            assert cc.basis is u.basis and cc.perp is u.perp

    def test_stored_complement_is_the_null_space(self, rng):
        dims = {"zero": 0, "zero vectors": 0, "full": 6, "more than d": 6,
                "partial": 2, "rank-deficient": 2, "full_space": 6,
                "zero_space": 0}
        for name, u in self.cases(rng).items():
            ker = _null_space(u.basis.T)
            assert u.dim == dims[name], name
            assert u.perp.shape == ker.shape == (6, 6 - u.dim), name
            assert np.abs(u.perp @ u.perp.T - ker @ ker.T).max() < 1e-12, name
            q = np.hstack([u.basis, u.perp])
            assert np.abs(q.T @ q - np.eye(6)).max() < 1e-12, name


class TestProject:
    def test_axis(self):
        u = subspace_from_spanners(2, [[1.0, 0.0]])
        assert np.abs(project(u, [3.0, 4.0]) - [3.0, 0.0]).max() < 1e-15

    def test_full_space_identity(self, rng):
        x = rng.standard_normal(4)
        assert np.array_equal(project(full_space(4), x), x)

    def test_diagonal_line(self):
        # frozen from the least-squares oracle: min ||x - B c|| at c = 1/sqrt(2)
        u = subspace_from_spanners(2, [[1.0, 1.0]])
        got = project(u, [1.0, 0.0])
        oracle = lstsq_project(u.basis, np.array([1.0, 0.0]))
        assert np.abs(got - oracle).max() < 1e-14
        assert np.abs(got - [0.5, 0.5]).max() < 1e-14

    def test_idempotent_and_orthogonal_residual(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            u = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            x = rng.standard_normal(d)
            px = project(u, x)
            assert np.abs(project(u, px) - px).max() < 1e-10
            assert abs((x - px) @ px) < 1e-10

    def test_projector_symmetric_idempotent(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 6))
            u = random_subspace(rng, d, int(rng.integers(0, d + 1)))
            p = u.projector()
            assert np.abs(p - p.T).max() < 1e-10
            assert np.abs(p @ p - p).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            project(full_space(3), np.ones(2))

    @pytest.mark.parametrize("bad", [["1", "0"], [True, False], [None, 0.0],
                                     [[1.0, 0.0], [1.0]], [np.inf, 0.0]])
    def test_non_real_points_rejected(self, bad):
        # under -W error, so no coercion warning stands in for the check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                project(full_space(2), bad)


class TestResolvent:
    def test_normal_cone_projects(self):
        op = NormalConeOp(subspace_from_spanners(2, [[1.0, 0.0]]))
        assert np.abs(resolvent(op, [3.0, 4.0], 1.0) - [3.0, 0.0]).max() < 1e-15

    def test_scale_invariance_is_exact(self):
        op = NormalConeOp(subspace_from_spanners(2, [[1.0, 0.0]]))
        x = np.array([3.0, 4.0])
        base = resolvent(op, x, 1.0)
        for d in (1, 2, 3):
            assert np.array_equal(resolvent(op, x, 1.0 / d), base)

    def test_identity_operator_callback(self):
        # A = Id gives J_{gamma A}(x) = x / (1 + gamma)
        op = CallbackOp(lambda x, gamma: x / (1.0 + gamma))
        assert np.abs(resolvent(op, [2.0, 0.0], 1.0) - [1.0, 0.0]).max() < 1e-15

    def test_callback_wrong_dimension(self):
        op = CallbackOp(lambda x, gamma: np.zeros(x.shape[0] + 1))
        with pytest.raises(ValueError, match="shape"):
            resolvent(op, np.ones(2), 1.0)

    @pytest.mark.parametrize("op", [NormalConeOp(full_space(2)),
                                    CallbackOp(lambda x, gamma: x)])
    @pytest.mark.parametrize("x,gamma", [([True, False], 1.0),
                                         (["1", "0"], 1.0),
                                         ([1.0, 0.0], True),
                                         ([1.0, 0.0], "1")])
    def test_non_real_input_rejected(self, op, x, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                resolvent(op, x, gamma)

    def test_gamma_must_be_positive(self):
        op = NormalConeOp(full_space(2))
        with pytest.raises(ValueError, match="positive"):
            resolvent(op, np.ones(2), 0.0)

    def test_degenerate_subspaces(self):
        x = np.array([1.0, -2.0])
        assert np.abs(resolvent(NormalConeOp(zero_space(2)), x, 0.5)).max() == 0
        assert np.array_equal(resolvent(NormalConeOp(full_space(2)), x, 0.5), x)

    def test_debug_mode_flags_expansive_callback(self, monkeypatch, caplog):
        monkeypatch.setenv("GRAPH_SPLIT_LOG", "debug")
        op = CallbackOp(lambda x, gamma: 3.0 * x)
        with caplog.at_level("WARNING", logger="graphsplit"):
            resolvent(op, np.array([1.0, 0.0]), 1.0)
            resolvent(op, np.array([0.0, 0.0]), 1.0)
        assert any("firm nonexpansiveness" in r.message for r in caplog.records)

    def test_debug_mode_read_at_construction(self, monkeypatch, caplog):
        monkeypatch.delenv("GRAPH_SPLIT_LOG", raising=False)
        op = CallbackOp(lambda x, gamma: 3.0 * x)
        monkeypatch.setenv("GRAPH_SPLIT_LOG", "debug")
        with caplog.at_level("WARNING", logger="graphsplit"):
            resolvent(op, np.array([1.0, 0.0]), 1.0)
            resolvent(op, np.array([0.0, 0.0]), 1.0)
        assert not caplog.records


class TestFirmNonexpansiveness:
    @pytest.mark.parametrize("make_op", [
        lambda rng, d: NormalConeOp(random_subspace(rng, d,
                                                    int(rng.integers(0, d + 1)))),
        lambda rng, d: CallbackOp(lambda x, gamma: x / (1.0 + gamma)),
    ])
    def test_hundred_random_pairs(self, rng, make_op):
        d = 4
        op = make_op(rng, d)
        for _ in range(100):
            x, y = rng.standard_normal(d), rng.standard_normal(d)
            jx = resolvent(op, x, 0.5)
            jy = resolvent(op, y, 0.5)
            diff = jx - jy
            assert diff @ diff <= (x - y) @ diff + 1e-10
