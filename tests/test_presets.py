import numpy as np
import pytest

from graphsplit.engine import run_alg2, StopRule
from graphsplit.analysis import subspace_problem
from graphsplit.factor import (
    alpha as compute_alpha,
    complete_t_values,
    factor_complete_sparse,
)
from graphsplit.graphs import degree_balance, named_graph
from graphsplit.operators import subspace_from_spanners
from graphsplit.presets import PRESET_NAMES, preset, preset_table, ryu_norm_sq


def preset_orders(name, n_max=8):
    lo = {"douglas_rachford": 2, "generalized_ryu": 3, "malitsky_tam": 3}.get(name, 2)
    hi = 2 if name == "douglas_rachford" else n_max
    return range(lo, hi + 1)


class TestTableValues:
    def test_douglas_rachford(self):
        ps = preset("douglas_rachford", 2)
        assert ps.alpha_closed.alpha.tolist() == [1.0]
        assert ps.pair.g == named_graph("sequential", 2)
        assert ps.pair.sub == named_graph("sequential", 2)

    def test_generalized_ryu_order_3(self):
        ps = preset("generalized_ryu", 3)
        assert ps.alpha_closed.alpha.tolist() == [2.0, 0.0]
        assert ps.pair.sub.edges == ((1, 3), (2, 3))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_generalized_ryu_general(self, n):
        ps = preset("generalized_ryu", n)
        expected = [n + 1 - 2 * j for j in range(1, n)]
        assert ps.alpha_closed.alpha.tolist() == expected
        assert abs(ps.alpha_closed.norm_sq - ryu_norm_sq(n)) < 1e-12

    def test_malitsky_tam_order_5(self):
        ps = preset("malitsky_tam", 5)
        assert ps.alpha_closed.alpha.tolist() == [2.0] * 4
        assert ps.alpha_closed.norm_sq == 16.0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_malitsky_tam_norm(self, n):
        assert preset("malitsky_tam", n).alpha_closed.norm_sq == 4 * (n - 1)

    @pytest.mark.parametrize("name", ["parallel_up", "parallel_down",
                                      "sequential"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_tree_presets_have_unit_alpha(self, name, n):
        assert preset(name, n).alpha_closed.alpha.tolist() == [1.0] * (n - 1)

    def test_complete_order_3(self):
        ps = preset("complete", 3)
        assert abs(ps.alpha_closed.norm_sq - 8 / 3) < 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_surds_and_norm(self, n):
        ps = preset("complete", n)
        j = np.arange(1, n)
        expected = np.sqrt((n - j) * (n - j + 1) / n)
        assert np.abs(ps.alpha_closed.alpha - expected).max() < 1e-15
        assert abs(ps.alpha_closed.norm_sq - (n * n - 1) / 3) < 1e-12

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_closed_alpha_matches_pseudoinverse_route(self, name):
        for n in preset_orders(name):
            ps = preset(name, n)
            computed = compute_alpha(ps.dec, degree_balance(ps.pair.g))
            assert np.abs(ps.alpha_closed.alpha - computed.alpha).max() <= 1e-12


class TestValidation:
    def test_douglas_rachford_is_order_two(self):
        with pytest.raises(ValueError, match="order-2"):
            preset("douglas_rachford", 3)

    @pytest.mark.parametrize("name", ["generalized_ryu", "malitsky_tam"])
    def test_minimum_order_three(self, name):
        with pytest.raises(ValueError, match="n >= 3"):
            preset(name, 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("forward_backward", 3)

    @pytest.mark.parametrize("n", [None, "4", 2.5, 3.0, True])
    @pytest.mark.parametrize("build", [
        lambda n: preset("sequential", n), ryu_norm_sq,
        factor_complete_sparse, complete_t_values,
    ], ids=["preset", "ryu_norm_sq", "factor_complete_sparse",
            "complete_t_values"])
    def test_order_must_be_an_integer(self, build, n):
        with pytest.raises(ValueError, match="node count n must be an integer"):
            build(n)

    def test_numpy_integer_order_is_stored_as_int(self):
        assert type(preset("sequential", np.int64(3)).n) is int


class TestRyuNormSq:
    def test_known_values(self):
        assert ryu_norm_sq(3) == 4.0
        assert ryu_norm_sq(2) == 1.0
        assert ryu_norm_sq(5) == 24.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_brute_force_sum(self, n):
        assert ryu_norm_sq(n) == sum((n + 1 - 2 * j) ** 2 for j in range(1, n))


class TestBehavior:
    def test_drs_identity_on_common_subspace(self, rng):
        # identical subspaces make the reduced operator the identity:
        # one unrelaxed step leaves v untouched
        ps = preset("douglas_rachford", 2)
        u = subspace_from_spanners(3, [rng.standard_normal(3),
                                       rng.standard_normal(3)])
        sp = subspace_problem(ps.pair, ps.dec, [u, u])
        v0 = rng.standard_normal((1, 3))
        trace = run_alg2(sp.base, v0, 1.0, StopRule(max_iters=1))
        assert np.abs(trace.v - v0).max() <= 1e-12

    def test_ryu_order_3_dependency_structure(self):
        # node 3 consumes both earlier shadows and both governing blocks;
        # nodes 1 and 2 each touch exactly one governing block
        ps = preset("generalized_ryu", 3)
        sp = None
        base_z = ps.dec.z
        assert base_z.tolist() == [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
        preds = {j: [i for i, jj in ps.pair.g.edges if jj == j]
                 for j in (1, 2, 3)}
        assert preds[3] == [1, 2]
        assert preds[2] == [1]
        assert preds[1] == []

    def test_preset_table_lists_all(self):
        rows = preset_table()
        assert [r[0] for r in rows] == list(PRESET_NAMES)
        assert rows[1][1:] == ("complete", "parallel_down", "n+1-2j")
