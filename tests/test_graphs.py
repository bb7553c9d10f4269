import numpy as np
import pytest

from graphsplit import graphs
from graphsplit.graphs import (
    AlgorithmicGraph,
    GraphError,
    degree_balance,
    degrees,
    incidence,
    laplacian,
    named_graph,
    new_graph,
    p_matrix,
    validate_pair,
)

ALL_KINDS = graphs.NAMED_KINDS


def preset_graphs(n_max=8):
    for kind in ALL_KINDS:
        for n in range(3 if kind == "ring" else 2, n_max + 1):
            yield kind, n


class TestNewGraph:
    def test_order_two(self):
        g = new_graph(2, [(1, 2)])
        assert g.n == 2 and g.edges == ((1, 2),)

    def test_k3(self):
        g = new_graph(3, [(1, 2), (1, 3), (2, 3)])
        assert g.edges == ((1, 2), (1, 3), (2, 3))

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="disconnected"):
            new_graph(3, [(1, 2)])

    def test_small_n_rejected(self):
        with pytest.raises(GraphError, match="at least 2"):
            new_graph(1, [])

    def test_orientation_rejected(self):
        with pytest.raises(GraphError, match="i < j"):
            new_graph(2, [(2, 1)])

    def test_range_rejected(self):
        with pytest.raises(GraphError, match="outside node range"):
            new_graph(2, [(1, 3)])

    @pytest.mark.parametrize("edges", [
        [(1.7, 2), (2, 3)],
        [(2, 2.5), (1, 2)],
        [(1, float("nan")), (2, 3)],
        [(True, 2), (2, 3)],
        [(1, 2, 3), (2, 3)],
    ])
    def test_non_integer_labels_rejected(self, edges):
        with pytest.raises(GraphError, match="pair of integer node labels"):
            new_graph(3, edges)

    @pytest.mark.parametrize("edges", [[1, (2, 3)], None, 5])
    def test_non_iterable_edges_rejected(self, edges):
        with pytest.raises(GraphError, match="iterable of"):
            new_graph(3, edges)

    def test_numpy_integer_labels_accepted(self):
        g = new_graph(3, [(np.int64(1), np.int32(2)), (2, 3)])
        assert g.edges == ((1, 2), (2, 3))

    def test_integer_valued_float_labels_accepted(self):
        # a JSON graph written from a float array carries labels like 2.0
        g = new_graph(3, [(1.0, 2.0), (np.float64(2.0), 3)])
        assert g.edges == ((1, 2), (2, 3))

    def test_dedup_and_sort(self):
        g = new_graph(3, [(2, 3), (1, 2), (2, 3), (1, 3)])
        assert g.edges == ((1, 2), (1, 3), (2, 3))

    @pytest.mark.parametrize("n", [10 ** 12, 2 ** 40, 10 ** 400])
    def test_too_few_edges_for_a_huge_order_rejected(self, n):
        # fewer than n - 1 edges cannot connect n nodes; decided before any
        # per-node work, which at these orders would not fit in memory
        with pytest.raises(GraphError, match="disconnected"):
            new_graph(n, [(1, 2)])


class TestNamedGraph:
    def test_sequential(self):
        assert named_graph("sequential", 3).edges == ((1, 2), (2, 3))

    def test_ring(self):
        assert named_graph("ring", 4).edges == ((1, 2), (1, 4), (2, 3), (3, 4))

    def test_parallel_down(self):
        # the subgraph configuration behind Ryu-style methods at order 3
        assert named_graph("parallel_down", 3).edges == ((1, 3), (2, 3))

    def test_parallel_up(self):
        assert named_graph("parallel_up", 4).edges == ((1, 2), (1, 3), (1, 4))

    def test_unknown_kind(self):
        with pytest.raises(GraphError, match="unknown graph kind"):
            named_graph("wheel", 4)

    def test_ring_needs_three(self):
        with pytest.raises(GraphError, match="n >= 3"):
            named_graph("ring", 2)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_validated_graph(self, kind):
        # the families skip new_graph's checks; they must pass them anyway
        for n in range(3 if kind == "ring" else 2, 41):
            g = named_graph(kind, n)
            assert g == new_graph(n, list(reversed(g.edges)))
            assert type(g.n) is int

    @pytest.mark.parametrize("n", [1, 0, 2.0, True, "4"])
    def test_order_checked(self, n):
        with pytest.raises(GraphError, match="node count"):
            named_graph("sequential", n)

    def test_numpy_order_accepted(self):
        g = named_graph("complete", np.int64(4))
        assert type(g.n) is int and g == named_graph("complete", 4)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [2 ** 40, 10 ** 400])
    def test_huge_order_rejected_before_building(self, kind, n):
        # n (n-1), the entry count of Z, is past numpy's index range
        with pytest.raises(GraphError, match="too large"):
            named_graph(kind, n)


class TestDegrees:
    def test_k3(self):
        _, _, d = degrees(named_graph("complete", 3))
        assert d.tolist() == [2, 2, 2]

    def test_sequential(self):
        _, _, d = degrees(named_graph("sequential", 3))
        assert d.tolist() == [1, 2, 1]

    def test_ring(self):
        _, _, d = degrees(named_graph("ring", 4))
        assert d.tolist() == [2, 2, 2, 2]

    @pytest.mark.parametrize("kind,n", preset_graphs())
    def test_all_positive(self, kind, n):
        d_in, d_out, d = degrees(named_graph(kind, n))
        assert (d >= 1).all()
        assert np.array_equal(d, d_in + d_out)


class TestDegreeBalance:
    def test_complete_4(self):
        assert degree_balance(named_graph("complete", 4)).delta.tolist() == \
            [3, 1, -1, -3]

    def test_ring_4(self):
        assert degree_balance(named_graph("ring", 4)).delta.tolist() == \
            [2, 0, 0, -2]

    def test_parallel_up_4(self):
        assert degree_balance(named_graph("parallel_up", 4)).delta.tolist() == \
            [3, -1, -1, -1]

    @pytest.mark.parametrize("kind,n", preset_graphs())
    def test_sign_structure(self, kind, n):
        delta = degree_balance(named_graph(kind, n)).delta
        assert delta.sum() == 0
        assert delta[0] > 0
        assert delta[-1] < 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_table_rows(self, n):
        # closed forms of the degree balance for every named family
        expected = {
            "complete": [n + 1 - 2 * i for i in range(1, n + 1)],
            "sequential": [1] + [0] * (n - 2) + [-1],
            "parallel_up": [n - 1] + [-1] * (n - 1),
            "parallel_down": [1] * (n - 1) + [1 - n],
        }
        if n >= 3:
            expected["ring"] = [2] + [0] * (n - 2) + [-2]
        for kind, row in expected.items():
            assert degree_balance(named_graph(kind, n)).delta.tolist() == row


class TestIncidence:
    def test_sequential_3(self):
        assert incidence(named_graph("sequential", 3)).tolist() == \
            [[1, 0], [-1, 1], [0, -1]]

    def test_order_two(self):
        assert incidence(new_graph(2, [(1, 2)])).tolist() == [[1], [-1]]

    @pytest.mark.parametrize("kind,n", preset_graphs())
    def test_columns_sum_to_zero(self, kind, n):
        assert (incidence(named_graph(kind, n)).sum(axis=0) == 0).all()


class TestLaplacian:
    def test_sequential_3(self):
        assert laplacian(named_graph("sequential", 3)).tolist() == \
            [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]

    def test_k3(self):
        assert laplacian(named_graph("complete", 3)).tolist() == \
            [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]

    @pytest.mark.parametrize("kind,n", preset_graphs())
    def test_incidence_identity(self, kind, n):
        g = named_graph(kind, n)
        inc = incidence(g)
        assert np.array_equal(laplacian(g), inc @ inc.T)

    @pytest.mark.parametrize("kind,n", preset_graphs())
    def test_rows_sum_to_zero(self, kind, n):
        assert (laplacian(named_graph(kind, n)).sum(axis=1) == 0).all()


class TestPMatrix:
    def test_sequential_3(self):
        assert p_matrix(named_graph("sequential", 3)).tolist() == \
            [[1, 0, 0], [-2, 2, 0], [0, -2, 1]]

    def test_order_two(self):
        assert p_matrix(new_graph(2, [(1, 2)])).tolist() == [[1, 0], [-2, 1]]

    def test_symmetrization_identity_k3(self):
        # P + P^T - 2 Diag(d) recovers -2 * adjacency, entry by entry
        g = named_graph("complete", 3)
        _, _, d = degrees(g)
        adjacency = np.zeros((3, 3), dtype=np.int64)
        for i, j in g.edges:
            adjacency[i - 1, j - 1] = 1
            adjacency[j - 1, i - 1] = 1
        pg = p_matrix(g)
        assert np.array_equal(pg + pg.T - 2 * np.diag(d), -2 * adjacency)

    @pytest.mark.parametrize("kind,n", preset_graphs())
    def test_strictly_lower_triangular_off_diagonal(self, kind, n):
        pg = p_matrix(named_graph(kind, n))
        assert np.array_equal(np.triu(pg, 1), np.zeros_like(pg))


class TestValidatePair:
    def test_ryu_configuration(self):
        pair = validate_pair(named_graph("complete", 3),
                             named_graph("parallel_down", 3))
        assert pair.sub.edges == ((1, 3), (2, 3))

    def test_malitsky_tam_configuration(self):
        pair = validate_pair(named_graph("ring", 4),
                             named_graph("sequential", 4))
        assert len(pair.sub.edges) == 3

    def test_not_a_subgraph(self):
        with pytest.raises(GraphError, match="not a subgraph"):
            validate_pair(named_graph("sequential", 3), named_graph("ring", 3))

    def test_order_mismatch(self):
        with pytest.raises(GraphError, match="node counts differ"):
            validate_pair(named_graph("sequential", 3),
                          named_graph("sequential", 4))

    @pytest.mark.parametrize("edges", [
        ((1, 2), (3, 4)),
        ((1, 2), (1, 3), (2, 3)),  # n - 1 edges, one of them closing a cycle
    ])
    def test_directly_built_disconnected_sub_rejected(self, edges):
        # a directly built graph skips new_graph's checks
        with pytest.raises(GraphError, match="subgraph is disconnected"):
            validate_pair(named_graph("complete", 4), AlgorithmicGraph(4, edges))


class TestJson:
    def test_round_trip(self):
        g = named_graph("ring", 5)
        assert AlgorithmicGraph.from_dict(g.to_dict()) == g

    def test_missing_field(self):
        with pytest.raises(GraphError, match="'n' and 'edges'"):
            AlgorithmicGraph.from_dict({"nodes": 3})


class TestStructureTests:
    def test_is_tree(self):
        assert graphs.is_tree(named_graph("sequential", 5))
        assert not graphs.is_tree(named_graph("ring", 5))

    def test_is_complete(self):
        assert graphs.is_complete(named_graph("complete", 4))
        assert not graphs.is_complete(named_graph("ring", 4))

    def test_is_circulant(self):
        assert graphs.is_circulant(named_graph("ring", 5))
        assert graphs.is_circulant(named_graph("complete", 4))
        assert graphs.is_circulant(new_graph(2, [(1, 2)]))
        assert not graphs.is_circulant(named_graph("sequential", 4))
