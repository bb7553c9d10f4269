import numpy as np
import pytest

from graphsplit import factor
from graphsplit.factor import (
    FactorError,
    alpha,
    factor_circulant,
    factor_complete_sparse,
    factor_eigen,
    factor_tree,
    factorize,
)
from graphsplit.graphs import degree_balance, laplacian, named_graph, new_graph
from graphsplit.presets import PRESET_NAMES, preset


def all_factors(sub):
    """Every decomposition method applicable to a given subgraph."""
    out = [factor_eigen(laplacian(sub).astype(np.float64))]
    if len(sub.edges) == sub.n - 1:
        out.append(factor_tree(sub))
    if len(sub.edges) == sub.n * (sub.n - 1) // 2:
        out.append(factor_complete_sparse(sub.n))
    try:
        out.append(factor_circulant(sub))
    except FactorError:
        pass
    return out


def preset_cases(n_max=8):
    for name in PRESET_NAMES:
        lo = {"douglas_rachford": 2, "generalized_ryu": 3,
              "malitsky_tam": 3}.get(name, 2)
        hi = 2 if name == "douglas_rachford" else n_max
        for n in range(lo, hi + 1):
            yield name, n


class TestFactorTree:
    def test_sequential_3(self):
        dec = factor_tree(named_graph("sequential", 3))
        assert dec.z.tolist() == [[1, 0], [-1, 1], [0, -1]]

    def test_parallel_down_3(self):
        # the paper-facing block form [I; -1^T]
        dec = factor_tree(named_graph("parallel_down", 3))
        assert dec.z.tolist() == [[1, 0], [0, 1], [-1, -1]]

    @pytest.mark.parametrize("kind", ["sequential", "parallel_down"])
    def test_left_inverse(self, kind):
        dec = factor_tree(named_graph(kind, 3))
        assert np.abs(dec.z_dagger @ dec.z - np.eye(2)).max() < 1e-12
        # cross-check the dagger against numpy's SVD pseudoinverse
        assert np.abs(dec.z_dagger - np.linalg.pinv(dec.z)).max() < 1e-12

    def test_rejects_non_tree(self):
        with pytest.raises(FactorError, match="tree"):
            factor_tree(named_graph("ring", 4))


class TestFactorCirculant:
    def test_ring_4_eigenvalues(self):
        lam = factor._circulant_eigenvalues(laplacian(named_graph("ring", 4)))
        assert np.abs(lam - np.array([2.0, 4.0, 2.0])).max() < 1e-12

    def test_ring_3_eigenvalues(self):
        lam = factor._circulant_eigenvalues(laplacian(named_graph("ring", 3)))
        assert np.abs(lam - np.array([3.0, 3.0])).max() < 1e-12

    @pytest.mark.parametrize("n", range(3, 9))
    def test_ring_eigenvalue_closed_form(self, n):
        lam = factor._circulant_eigenvalues(laplacian(named_graph("ring", n)))
        j = np.arange(1, n)
        assert np.abs(lam - 4.0 * np.sin(np.pi * j / n) ** 2).max() < 1e-12

    @pytest.mark.parametrize("n", range(3, 9))
    def test_factors_ring_laplacian(self, n):
        sub = named_graph("ring", n)
        dec = factor_circulant(sub)
        assert np.abs(dec.z @ dec.z.T - laplacian(sub)).max() < 1e-10

    def test_rejects_non_circulant(self):
        with pytest.raises(FactorError, match="not circulant"):
            factor_circulant(named_graph("sequential", 3))


class TestFactorCompleteSparse:
    def test_n3_values(self):
        dec = factor_complete_sparse(3)
        t1, t2 = 1 / np.sqrt(2), np.sqrt(1.5)
        expected = np.array([[2 * t1, 0], [-t1, t2], [-t1, -t2]])
        assert np.abs(dec.z - expected).max() < 1e-15
        assert np.abs(dec.z @ dec.z.T - laplacian(named_graph("complete", 3))
                      ).max() < 1e-10

    def test_n2_is_incidence(self):
        dec = factor_complete_sparse(2)
        assert np.abs(dec.z - np.array([[1.0], [-1.0]])).max() < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 7, 60])
    def test_matches_column_loop(self, n):
        # column j: (n - j) t_j on the diagonal, -t_j below it (1-based j)
        t = np.sqrt(n / ((n - np.arange(1.0, n)) * (n - np.arange(1.0, n) + 1)))
        ref = np.zeros((n, n - 1))
        for j in range(n - 1):
            ref[j, j] = (n - (j + 1)) * t[j]
            ref[j + 1:, j] = -t[j]
        assert np.array_equal(factor_complete_sparse(n).z, ref)

    def test_dagger_is_scaled_transpose(self):
        dec = factor_complete_sparse(3)
        assert np.array_equal(dec.z_dagger, dec.z.T / 3)

    def test_pseudoinverse_axioms_n3(self):
        z, zd = factor_complete_sparse(3).z, factor_complete_sparse(3).z_dagger
        assert np.abs(z @ zd @ z - z).max() < 1e-12
        assert np.abs(zd @ z @ zd - zd).max() < 1e-12


class TestFactorEigen:
    def test_order_two(self):
        dec = factor_eigen(laplacian(new_graph(2, [(1, 2)])).astype(float))
        assert np.abs(dec.z @ dec.z.T - np.array([[1, -1], [-1, 1]])).max() < 1e-12

    @pytest.mark.parametrize("kind,n", [(k, n) for k in
                                        ("sequential", "ring", "complete",
                                         "parallel_up", "parallel_down")
                                        for n in range(3, 9)])
    def test_factors_preset_laplacians(self, kind, n):
        lap = laplacian(named_graph(kind, n)).astype(float)
        dec = factor_eigen(lap)
        assert np.abs(dec.z @ dec.z.T - lap).max() < 1e-10

    def test_orthogonal_freedom_vs_tree(self):
        # two factors of the same Laplacian differ by a right orthogonal map
        sub = named_graph("sequential", 5)
        zt = factor_tree(sub)
        ze = factor_eigen(laplacian(sub).astype(float))
        o = zt.z_dagger @ ze.z
        assert np.abs(o.T @ o - np.eye(4)).max() < 1e-10
        assert np.abs(ze.z - zt.z @ o).max() < 1e-8

    def test_rejects_disconnected(self):
        lap = np.array([[1., -1, 0, 0], [-1, 1, 0, 0],
                        [0, 0, 1, -1], [0, 0, -1, 1]])
        with pytest.raises(FactorError, match="disconnected"):
            factor_eigen(lap)

    def test_rejects_asymmetric(self):
        with pytest.raises(FactorError, match="symmetric"):
            factor_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestDecompositionIdentities:
    @pytest.mark.parametrize("name,n", list(preset_cases()))
    def test_all_methods_all_presets(self, name, n):
        ps = preset(name, n)
        lap = laplacian(ps.pair.sub)
        delta = degree_balance(ps.pair.g)
        ones = np.ones(n)
        for dec in all_factors(ps.pair.sub):
            assert np.abs(dec.z @ dec.z.T - lap).max() <= 1e-10
            assert np.abs(dec.z_dagger @ dec.z - np.eye(n - 1)).max() <= 1e-10
            assert np.linalg.norm(dec.z.T @ ones) <= 1e-10
            a = alpha(dec, delta)
            assert np.linalg.norm(dec.z @ a.alpha - delta.delta) <= 1e-10


class TestAlpha:
    @pytest.mark.parametrize("kind", ["sequential", "parallel_up",
                                      "parallel_down"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_trees_give_ones(self, kind, n):
        g = named_graph(kind, n)
        a = alpha(factor_tree(g), degree_balance(g))
        assert np.abs(a.alpha - 1.0).max() < 1e-12

    def test_ryu_order_3(self):
        dec = factor_tree(named_graph("parallel_down", 3))
        a = alpha(dec, degree_balance(named_graph("complete", 3)))
        assert np.abs(a.alpha - np.array([2.0, 0.0])).max() < 1e-12

    def test_complete_3_surds(self):
        dec = factor_complete_sparse(3)
        a = alpha(dec, degree_balance(named_graph("complete", 3)))
        assert np.abs(a.alpha - np.array([np.sqrt(2), np.sqrt(2 / 3)])
                      ).max() < 1e-12
        assert abs(a.norm_sq - 8 / 3) < 1e-12

    @pytest.mark.parametrize("n", range(3, 9))
    def test_malitsky_tam(self, n):
        dec = factor_tree(named_graph("sequential", n))
        a = alpha(dec, degree_balance(named_graph("ring", n)))
        assert np.abs(a.alpha - 2.0).max() < 1e-12
        assert abs(a.norm_sq - 4 * (n - 1)) < 1e-10

    def test_orthogonal_transformation_rule(self):
        sub = named_graph("sequential", 5)
        g = named_graph("ring", 5)
        zt = factor_tree(sub)
        ze = factor_eigen(laplacian(sub).astype(float))
        o = zt.z_dagger @ ze.z
        a_t = alpha(zt, degree_balance(g)).alpha
        a_e = alpha(ze, degree_balance(g)).alpha
        assert np.abs(a_e - o.T @ a_t).max() < 1e-8

    def test_dimension_mismatch(self):
        dec = factor_tree(named_graph("sequential", 3))
        with pytest.raises(FactorError, match="dimension mismatch"):
            alpha(dec, degree_balance(named_graph("sequential", 4)))


class TestFactorize:
    def test_default_ladder(self):
        assert factorize(named_graph("sequential", 4)).method == "tree_incidence"
        assert factorize(named_graph("complete", 4)).method == "complete_sparse"
        assert factorize(named_graph("ring", 4)).method == "circulant"
        # connected, non-tree, non-complete, non-circulant
        g = new_graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
        assert factorize(g).method == "eigen"

    def test_by_name(self):
        assert factorize(named_graph("ring", 4), "eigen").method == "eigen"
        with pytest.raises(FactorError, match="unknown factor method"):
            factorize(named_graph("ring", 4), "cholesky")
        with pytest.raises(FactorError, match="complete"):
            factorize(named_graph("ring", 4), "complete_sparse")
