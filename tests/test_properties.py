"""Properties of the runs over arbitrary connected graph pairs.

Pairs are drawn as in ``TestEDimension``: G' a spanning tree, a tree
plus chords, a ring or the complete graph, and G adds random chords.
Every factor method that accepts G' is used.  Each node gets a random
subspace through one planted common vector, so U is not {0}.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from graphsplit.analysis import (
    predict_limits_alg1,
    predict_limits_alg2,
    subspace_problem,
)
from graphsplit.engine import StopRule, run_alg1, run_alg2
from graphsplit.factor import METHODS, FactorError, factorize
from graphsplit.graphs import new_graph, validate_pair

from conftest import callback_twin, random_graph_pair, random_subspace

#: fixed examples, no example database and no per-example deadline
PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, database=None,
                             deadline=None)


def planted_problems(seed, n, d, kind):
    """``(method, problem)`` for each factor method that accepts the drawn
    G', all on one pair and one set of node subspaces; the subspaces; and
    random starts ``(w0, v0)``."""
    rng = np.random.default_rng(seed)
    g_edges, sub_edges = random_graph_pair(rng, n, kind)
    pair = validate_pair(new_graph(n, g_edges), new_graph(n, sub_edges))
    common = rng.standard_normal(d)
    subs = [random_subspace(rng, d, int(rng.integers(1, d + 1)),
                            contains=common) for _ in range(n)]
    starts = rng.standard_normal((n, d)), rng.standard_normal((n - 1, d))
    problems = []
    for method in METHODS:
        try:
            dec = factorize(pair.sub, method)
        except FactorError:
            continue
        problems.append((method, subspace_problem(pair, dec, subs)))
    return problems, subs, starts


pairs = st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(3, 7),
                  st.integers(2, 4),
                  st.sampled_from(["tree", "chords", "ring", "complete"]))


@PROPERTY_SETTINGS
@given(pairs)
def test_run_limits_equal_the_predictions(draw):
    problems, _, (w0, v0) = planted_problems(*draw)
    assert any(method == "eigen" for method, _ in problems)
    for method, sp in problems:
        t2 = run_alg2(sp.base, v0, 1.0)
        t1 = run_alg1(sp.base, w0, v0, 1.0)
        p2 = predict_limits_alg2(sp, v0)
        p1 = predict_limits_alg1(sp, w0, v0)
        assert t2.converged and t1.converged, method
        assert np.abs(t2.v - p2.v_bar).max() <= 1e-7, method
        assert np.abs(t2.x - p2.u_bar).max() <= 1e-7, method
        assert np.abs(t1.v - p1.v_bar).max() <= 1e-7, method
        assert np.abs(t1.w - p1.u_bar).max() <= 1e-7, method


@PROPERTY_SETTINGS
@given(pairs)
def test_node_sweep_twin_matches_the_sweep_map(draw):
    # a callback with the same projections steps on the node sweep, and so
    # on the in-neighbour lists of the node table, iterate by iterate; a
    # run may stop early only where both residuals are at round-off
    problems, subs, (w0, v0) = planted_problems(*draw)
    stop = StopRule(tol=0.0, max_iters=50)
    for method, sp in problems:
        p = sp.base
        twin = callback_twin(p, subs)
        for run in (lambda q: run_alg2(q, v0, 1.3, stop, record_states=True),
                    lambda q: run_alg1(q, w0, v0, 1.3, stop,
                                       record_states=True)):
            ref, got = run(p), run(twin)
            assert p._sweep_map is not None and twin._sweep_map is None
            k = min(got.k_final, ref.k_final)
            assert k == 50 or max(got.residuals[k - 1],
                                  ref.residuals[k - 1]) <= 1e-12, method
            for r_ref, r_got in zip(ref.iterations, got.iterations):
                assert np.abs(r_got.x - r_ref.x).max() <= 1e-12, method
                assert np.abs(r_got.v - r_ref.v).max() <= 1e-12, method
