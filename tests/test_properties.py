"""Properties of the runs over arbitrary connected graph pairs, and of
the boundary every numeric entry point shares.

Pairs are drawn as in ``TestEDimension``: G' a spanning tree, a tree
plus chords, a ring or the complete graph, and G adds random chords.
Every factor method that accepts G' is used.  Each node gets a random
subspace through one planted common vector, so U is not {0}.
"""

import functools
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st

from graphsplit import analysis
from graphsplit.analysis import (
    build_E,
    m_proj_fix_T,
    predict_limits_alg1,
    predict_limits_alg2,
    proj_fix_T_tilde,
    subspace_problem,
    x_from_v,
)
from graphsplit.engine import (
    StopRule,
    apply_T,
    apply_T_tilde,
    run_alg1,
    run_alg2,
    solve_m_plus_a,
)
from graphsplit.factor import METHODS, FactorError, factorize
from graphsplit.graphs import new_graph, validate_pair
from graphsplit.operators import subspace_from_spanners

from conftest import (
    callback_twin,
    limit_from_map,
    membership_gap,
    projector_gap,
    random_graph_pair,
    random_problem,
    random_subspace,
)

#: fixed examples, no example database and no per-example deadline; no
#: shrinking, so a failure reports the example as drawn, which the fixed
#: seed reproduces, in seconds rather than minutes
PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, database=None,
                             deadline=None,
                             phases=[p for p in Phase if p != Phase.shrink])


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
    # from a cold map, then from one with (I - g)^32 cached: 100 steps at
    # theta 1 pass 2m, as m <= (n - 1) d = 24, unless a residual of exactly
    # 0 stops them first
    problems, _, (w0, v0) = planted_problems(*draw)
    assert any(method == "eigen" for method, _ in problems)
    for method, sp in problems:
        p2 = predict_limits_alg2(sp, v0)
        p1 = predict_limits_alg1(sp, w0, v0)
        for cached in (False, True):
            if cached:
                warm = run_alg2(sp.base, v0, 1.0,
                                StopRule(tol=0.0, max_iters=100))
                p = sp.base._linear_map.thetas[1.0][1]
                assert warm.stop_reason == "tol" or p is not None, method
            t2 = run_alg2(sp.base, v0, 1.0)
            t1 = run_alg1(sp.base, w0, v0, 1.0)
            assert t2.converged and t1.converged, method
            assert np.abs(t2.v - p2.v_bar).max() <= 1e-7, method
            assert np.abs(t2.x - p2.u_bar).max() <= 1e-7, method
            assert np.abs(t1.v - p1.v_bar).max() <= 1e-7, method
            assert np.abs(t1.w - p1.u_bar).max() <= 1e-7, method


def limit_error(got, ref):
    """Largest entry of ``got - ref`` relative to max(1, ||ref||), the
    scale of the stop rule."""
    return np.abs(got - ref).max() / max(1.0, np.linalg.norm(ref))


@PROPERTY_SETTINGS
@given(pairs)
def test_reduced_limit_equals_the_limit_from_the_map(draw):
    # the closed form through U and E against the spectral projector of
    # the run's own matrix at 0, which shares no code with it
    problems, _, (_, v0) = planted_problems(*draw)
    for method, sp in problems:
        v_bar = predict_limits_alg2(sp, v0).v_bar
        assert limit_error(v_bar, limit_from_map(sp.base, v0)) <= 1e-12, method


@PROPERTY_SETTINGS
@given(pairs)
def test_expanded_limit_equals_the_limit_from_the_map(draw):
    # y = Z^T w + v steps by y <- y - theta Z^T S y, the reduced recursion,
    # and Z^T 1 = 0 with w-bar = 1 (x) u-bar, so v-bar = y-bar is the map's
    # limit from Z^T w0 + v0
    problems, _, (w0, v0) = planted_problems(*draw)
    for method, sp in problems:
        v_bar = predict_limits_alg1(sp, w0, v0).v_bar
        ref = limit_from_map(sp.base, sp.base.zt @ w0 + v0)
        assert limit_error(v_bar, ref) <= 1e-12, method


def test_limit_from_the_map_sees_a_scaled_limit():
    problems, _, (w0, v0) = planted_problems(7, 5, 3, "tree")
    assert len(problems) >= 2
    for method, sp in problems:
        for v_bar, ref in (
                (predict_limits_alg2(sp, v0).v_bar,
                 limit_from_map(sp.base, v0)),
                (predict_limits_alg1(sp, w0, v0).v_bar,
                 limit_from_map(sp.base, sp.base.zt @ w0 + v0))):
            assert limit_error(v_bar, ref) <= 1e-12, method
            assert limit_error((1 + 1e-5) * v_bar, ref) > 1e-12, method


@PROPERTY_SETTINGS
@given(pairs)
def test_every_E_construction_gives_the_same_projector(draw):
    # the membership construction through Z_top^-1 against the definition
    # through Z^+, each inside E by its definition
    problems, subs, _ = planted_problems(*draw)
    for method, sp in problems:
        ref, got = build_E(sp), analysis._membership_E(sp)
        assert got.dim == ref.dim, method
        assert projector_gap(got, ref) <= 1e-10, method
        for eb in (got, ref):
            assert membership_gap(sp.base.dec.z, subs, eb) <= 1e-10, method


@PROPERTY_SETTINGS
@given(pairs)
def test_node_sweep_twin_matches_the_sweep_map(draw):
    # a callback with the same projections steps on the node sweep, and so
    # on the in-neighbour lists of the node table, iterate by iterate; a
    # run may stop early only where both residuals are at round-off.  130
    # iterations are blocks of 1 .. 32 steps, then two full blocks from the
    # power and a block cut short; the second run on the residual map finds
    # the power the first built
    problems, subs, (w0, v0) = planted_problems(*draw)
    stop = StopRule(tol=0.0, max_iters=130)
    for method, sp in problems:
        p = sp.base
        twin = callback_twin(p, subs)
        for run in (lambda q: run_alg2(q, v0, 1.3, stop, record_states=True),
                    lambda q: run_alg1(q, w0, v0, 1.3, stop,
                                       record_states=True)):
            ref = run(twin)
            for got in (run(p), run(p)):
                assert p._linear_map is not None and twin._linear_map is None
                k = min(got.k_final, ref.k_final)
                assert k == 130 or max(got.residuals[k - 1],
                                       ref.residuals[k - 1]) <= 1e-12, method
                for r_ref, r_got in zip(ref.iterations, got.iterations):
                    assert np.abs(r_got.x - r_ref.x).max() <= 1e-12, method
                    assert np.abs(r_got.v - r_ref.v).max() <= 1e-12, method
            assert p._linear_map.thetas[1.3][1] is not None, method


# ---------------------------------------------------------------------------
# the real-number boundary

N, D = 3, 2
#: a short budget, so runs from any valid start stay cheap
SHORT = StopRule(tol=1e-10, max_iters=200)


@functools.cache
def boundary_problem():
    return random_problem("sequential", N, np.random.default_rng(11), d=D,
                          planted=True)


def block_calls():
    """``name -> (shape, call)``: every entry point that takes blocks or
    spanners, with the other arguments valid."""
    sp = boundary_problem()
    p, w, v = sp.base, np.ones((N, D)), np.ones((N - 1, D))
    blocks, gov = (N, D), (N - 1, D)
    return {
        "run_alg1-w0": (blocks, lambda x: run_alg1(p, x, v, 1.0, SHORT)),
        "run_alg1-v0": (gov, lambda x: run_alg1(p, w, x, 1.0, SHORT)),
        "run_alg2-v0": (gov, lambda x: run_alg2(p, x, 1.0, SHORT)),
        "apply_T-w": (blocks, lambda x: apply_T(p, x, v)),
        "apply_T-v": (gov, lambda x: apply_T(p, w, x)),
        "apply_T_tilde-v": (gov, lambda x: apply_T_tilde(p, x)),
        "solve_m_plus_a-w": (blocks, lambda x: solve_m_plus_a(p, x, v)),
        "solve_m_plus_a-v": (gov, lambda x: solve_m_plus_a(p, w, x)),
        "predict_limits_alg1-w0": (blocks,
                                   lambda x: predict_limits_alg1(sp, x, v)),
        "predict_limits_alg1-v0": (gov,
                                   lambda x: predict_limits_alg1(sp, w, x)),
        "predict_limits_alg2-v0": (gov, lambda x: predict_limits_alg2(sp, x)),
        "proj_fix_T_tilde-v": (gov, lambda x: proj_fix_T_tilde(sp, x)),
        "m_proj_fix_T-w": (blocks, lambda x: m_proj_fix_T(sp, x, v)),
        "m_proj_fix_T-v": (gov, lambda x: m_proj_fix_T(sp, w, x)),
        "x_from_v-v": (gov, lambda x: x_from_v(sp, x)),
        "subspace_from_spanners": ((2, D),
                                   lambda x: subspace_from_spanners(D, x)),
    }


def schedule_calls():
    """``name -> (shapes, call)``: the theta of each run, a number or a
    flat list, and its tol, a number."""
    p, w, v = boundary_problem().base, np.ones((N, D)), np.ones((N - 1, D))
    return {
        "run_alg2-theta": ([(), (3,)], lambda x: run_alg2(p, v, x, SHORT)),
        "run_alg1-theta": ([(), (3,)], lambda x: run_alg1(p, w, v, x, SHORT)),
        "run_alg2-tol": ([()], lambda x: run_alg2(p, v, 1.0, StopRule(x, 200))),
        "run_alg1-tol": ([()], lambda x: run_alg1(p, w, v, 1.0,
                                                  StopRule(x, 200))),
    }


def _nested(flat: list, shape: tuple):
    """``flat`` as nested lists of ``shape`` (its only entry for ())."""
    if not shape:
        return flat[0]
    step = len(flat) // shape[0]
    return [_nested(flat[k * step:(k + 1) * step], shape[1:])
            for k in range(shape[0])]


#: entries that are not real numbers, or not finite ones
BAD_ENTRIES = (st.sampled_from([True, False, np.bool_(True), "1", "nan",
                                None, float("nan"), float("inf"),
                                -float("inf")])
               | st.integers(min_value=2 ** 1024)
               | st.integers(max_value=-2 ** 1024))


@st.composite
def malformed(draw, shape: tuple):
    """A value of ``shape`` made malformed in one place: a bad entry, a
    ragged row (an entry nested one level deeper for shapes of fewer than
    two axes), a nested entry, or a float64 array with a non-finite
    entry."""
    size = int(np.prod(shape))
    flat = draw(st.lists(st.floats(0.0, 2.0), min_size=size, max_size=size))
    at = draw(st.integers(0, size - 1))
    kind = draw(st.sampled_from(["entry", "ragged", "nested", "array"]))
    if kind == "array":
        flat[at] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        return np.array(flat).reshape(shape)
    if kind == "ragged" and len(shape) == 2:
        value = _nested(flat, shape)
        row = value[at // shape[1]]
        if draw(st.booleans()):
            row.append(1.0)
        else:
            row.pop()
        return value
    flat[at] = draw(BAD_ENTRIES) if kind == "entry" else [flat[at]]
    return _nested(flat, shape)


def assert_refused(call, value):
    """``call(value)`` raises ValueError, with no warning on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError):
            call(value)
    assert not caught, [str(c.message) for c in caught]


def bits(result):
    """Every array of a result, with its dtype and shape, as bytes; other
    fields as they are."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, (tuple, list)):
        return tuple(map(bits, result))
    if hasattr(result, "__dict__"):
        return bits(list(vars(result).values()))
    return result


@st.composite
def valid_forms(draw, shape: tuple, low=-4, high=4):
    """``(value, reference)``: real numbers of ``shape`` as an int list, a
    list of np.float64, or an int or float32 array, and the float64 array
    of the same values."""
    size = int(np.prod(shape))
    form = draw(st.sampled_from(["int list", "float64 list", "int array",
                                 "float32 array"]))
    if form.startswith("int"):
        entries = st.integers(low, high)
    else:
        entries = st.floats(low, high, width=32 if form.startswith("float32")
                            else 64)
    flat = draw(st.lists(entries, min_size=size, max_size=size))
    if form == "float64 list":
        value = _nested([np.float64(x) for x in flat], shape)
    elif form == "int list":
        value = _nested(flat, shape)
    else:
        value = np.array(flat, dtype=np.int64 if form == "int array"
                         else np.float32).reshape(shape)
    return value, np.asarray(value, dtype=np.float64)


@PROPERTY_SETTINGS
@given(st.data())
def test_malformed_blocks_and_spanners_are_refused(data):
    for name, (shape, call) in block_calls().items():
        assert_refused(call, data.draw(malformed(shape), label=name))


@PROPERTY_SETTINGS
@given(st.data())
def test_malformed_theta_and_tol_are_refused(data):
    for name, (shapes, call) in schedule_calls().items():
        bad = st.one_of([malformed(shape) for shape in shapes])
        if len(shapes) > 1:
            # a nested number [x] is a schedule of one theta
            bad = bad.filter(lambda x: not (isinstance(x, list)
                                            and len(x) == 1))
        assert_refused(call, data.draw(bad, label=name))


@PROPERTY_SETTINGS
@given(st.data())
def test_valid_forms_give_the_float64_result_bit_for_bit(data):
    for name, (shape, call) in block_calls().items():
        value, ref = data.draw(valid_forms(shape), label=name)
        assert bits(call(value)) == bits(call(ref)), name
    for name, (shapes, call) in schedule_calls().items():
        shape = data.draw(st.sampled_from(shapes))
        value, ref = data.draw(valid_forms(shape, 0, 2), label=name)
        assert bits(call(value)) == bits(call(ref)), name
