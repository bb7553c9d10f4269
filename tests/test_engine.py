import csv
import json
import math
import sys
import types

import numpy as np
import pytest

from graphsplit import engine
from graphsplit.engine import (
    DivergenceError,
    SplittingProblem,
    StopRule,
    apply_T,
    apply_T_tilde,
    run_alg1,
    run_alg2,
    solve_m_plus_a,
    trace_to_csv,
)
from graphsplit.factor import factor_tree
from graphsplit.graphs import named_graph, validate_pair
from graphsplit.analysis import (
    predict_limits_alg1,
    predict_limits_alg2,
    subspace_problem,
)
from graphsplit.operators import (
    CallbackOp,
    NormalConeOp,
    full_space,
    subspace_from_spanners,
    zero_space,
)
from graphsplit.presets import preset

from conftest import (
    PRESET_CASES,
    apply_M,
    assemble_T_matrix,
    callback_twin,
    dense_m_plus_a_solve,
    random_problem,
    random_subspace,
    trace_records_from_csv,
)


def drs_problem(u1_spanners, u2_spanners, d=2):
    ps = preset("douglas_rachford", 2)
    subs = [subspace_from_spanners(d, u1_spanners),
            subspace_from_spanners(d, u2_spanners)]
    return SplittingProblem(ps.pair, ps.dec, [NormalConeOp(u) for u in subs], d)


def identity_ops_problem(name, n, d):
    ps = preset(name, n)
    ops = [NormalConeOp(full_space(d)) for _ in range(n)]
    return SplittingProblem(ps.pair, ps.dec, ops, d)


class TestProblemValidation:
    def test_wrong_operator_count(self):
        ps = preset("sequential", 3)
        with pytest.raises(ValueError, match="expected 3 operators"):
            SplittingProblem(ps.pair, ps.dec, [NormalConeOp(full_space(2))], 2)

    def test_mismatched_decomposition(self):
        pair = validate_pair(named_graph("ring", 4), named_graph("sequential", 4))
        wrong_dec = factor_tree(named_graph("parallel_up", 4))
        ops = [NormalConeOp(full_space(2)) for _ in range(4)]
        with pytest.raises(ValueError, match="does not factor"):
            SplittingProblem(pair, wrong_dec, ops, 2)

    def test_subspace_of_wrong_size(self):
        ps = preset("sequential", 3)
        ops = [NormalConeOp(full_space(4)), NormalConeOp(full_space(3)),
               NormalConeOp(full_space(4))]
        with pytest.raises(ValueError, match="operator 2.*R\\^3, expected R\\^4"):
            SplittingProblem(ps.pair, ps.dec, ops, 4)

    @pytest.mark.parametrize("ops", [
        [1, 2, 3],
        [NormalConeOp(full_space(2)), types.SimpleNamespace(resolvent=1),
         NormalConeOp(full_space(2))],
    ])
    def test_operator_without_a_callable_resolvent(self, ops):
        # refused at construction, not at the first sweep
        ps = preset("sequential", 3)
        bad = next(i for i, op in enumerate(ops)
                   if not isinstance(op, NormalConeOp))
        with pytest.raises(ValueError, match=f"operator {bad + 1} has no "
                                             "callable resolvent"):
            SplittingProblem(ps.pair, ps.dec, ops, 2)

    @pytest.mark.parametrize("d", [2.0, True, np.True_, 0, -1, "2", None])
    def test_d_must_be_a_positive_integer(self, d):
        # refused at construction: a float d would first fail inside a run,
        # and a bool would run as d = 0 or 1
        ps = preset("sequential", 3)
        for ops in ([NormalConeOp(full_space(2))] * 3,
                    [CallbackOp(lambda x, g: x)] * 3):
            with pytest.raises(ValueError, match="d must be an integer >= 1"):
                SplittingProblem(ps.pair, ps.dec, ops, d)

    def test_numpy_integer_d_accepted(self):
        ps = preset("sequential", 3)
        p = SplittingProblem(ps.pair, ps.dec, [NormalConeOp(full_space(2))] * 3,
                             np.int64(2))
        assert type(p.d) is int and p.d == 2
        assert run_alg2(p, np.ones((2, 2)), 1.0).converged


class TestSolveMPlusA:
    def test_zero_input_identity_ops(self, rng):
        p = identity_ops_problem("sequential", 3, 2)
        v = rng.standard_normal((2, 2))
        x, y = solve_m_plus_a(p, np.zeros((3, 2)), v)
        assert np.abs(x).max() == 0.0
        assert np.array_equal(y, v)

    def test_order_two_identity_ops_hand_sweep(self, rng):
        # degrees are (1, 1): x1 = w1, x2 = w2 + 2 w1, y = v + 2(w1 + w2)
        p = identity_ops_problem("douglas_rachford", 2, 2)
        w = rng.standard_normal((2, 2))
        v = rng.standard_normal((1, 2))
        x, y = solve_m_plus_a(p, w, v)
        assert np.abs(x[0] - w[0]).max() < 1e-14
        assert np.abs(x[1] - (w[1] + 2 * w[0])).max() < 1e-14
        assert np.abs(y - (v + 2 * (w[0] + w[1]))).max() < 1e-14

    def test_drs_subspace_hand_example(self):
        p = drs_problem([[1.0, 0.0]], [[1.0, 0.0]])
        w = np.array([[0.0, 2.0], [0.0, 2.0]])
        x, y = solve_m_plus_a(p, w, np.zeros((1, 2)))
        assert np.abs(x).max() == 0.0
        assert np.abs(y).max() == 0.0

    @pytest.mark.parametrize("name,n", PRESET_CASES)
    def test_against_dense_solve_oracle(self, name, n, rng):
        sp = random_problem(name, n, rng, d=3)
        p = sp.base
        for _ in range(5):
            w = rng.standard_normal((n, 3))
            v = rng.standard_normal((n - 1, 3))
            x, y = solve_m_plus_a(p, w, v)
            x_ref, y_ref = dense_m_plus_a_solve(p, w, v)
            assert np.abs(x - x_ref).max() < 1e-10
            assert np.abs(y - y_ref).max() < 1e-10

    def test_resolvent_failure_names_node(self):
        ps = preset("sequential", 3)
        bad = CallbackOp(lambda x, gamma: np.zeros(len(x) + 1))
        ops = [NormalConeOp(full_space(2)), bad, NormalConeOp(full_space(2))]
        p = SplittingProblem(ps.pair, ps.dec, ops, 2)
        with pytest.raises(RuntimeError, match="node 2"):
            solve_m_plus_a(p, np.zeros((3, 2)), np.zeros((2, 2)))


class TestApplyT:
    def test_fixed_point_unchanged(self):
        # w constant at a point of U1 = U2, with the matching certificate
        p = drs_problem([[1.0, 0.0]], [[1.0, 0.0]])
        w = np.array([[3.0, 0.0], [3.0, 0.0]])
        v = np.array([[3.0, 0.0]])
        x, v_new = apply_T(p, w, v)
        assert np.abs(x - w).max() < 1e-10
        assert np.abs(v_new - v).max() < 1e-10

    @pytest.mark.parametrize("name,n", PRESET_CASES)
    def test_consistency_with_preconditioner_route(self, name, n, rng):
        # T = (M + A)^{-1} M, evaluated through the explicit M application
        sp = random_problem(name, n, rng, d=3)
        p = sp.base
        for _ in range(5):
            w = rng.standard_normal((n, 3))
            v = rng.standard_normal((n - 1, 3))
            x, v_new = apply_T(p, w, v)
            mw, mv = apply_M(p, w, v)
            x_ref, y_ref = solve_m_plus_a(p, mw, mv)
            assert np.abs(x - x_ref).max() < 1e-10
            assert np.abs(v_new - y_ref).max() < 1e-10


class TestApplyTTilde:
    def test_aligned_subspaces_fixed(self):
        p = drs_problem([[1.0, 0.0]], [[1.0, 0.0]])
        x, v_new = apply_T_tilde(p, np.array([[3.0, 4.0]]))
        assert np.abs(x - [[3.0, 0.0], [3.0, 0.0]]).max() < 1e-14
        assert np.abs(v_new - [[3.0, 4.0]]).max() < 1e-14

    def test_crossing_subspaces(self):
        p = drs_problem([[1.0, 0.0]], [[0.0, 1.0]])
        x, v_new = apply_T_tilde(p, np.array([[1.0, 1.0]]))
        assert np.abs(x - [[1.0, 0.0], [0.0, -1.0]]).max() < 1e-14
        assert np.abs(v_new).max() < 1e-14

    @pytest.mark.parametrize("name,n", PRESET_CASES)
    def test_reduction_identity(self, name, n, rng):
        # T~(v) = Z^T x + (v - 2 Z^T x) with x from (M+A)^{-1}(Z v, v)
        sp = random_problem(name, n, rng, d=3)
        p = sp.base
        for _ in range(5):
            v = rng.standard_normal((n - 1, 3))
            _, v_new = apply_T_tilde(p, v)
            x, y = solve_m_plus_a(p, p.z @ v, v)
            assert np.abs(v_new - (p.zt @ x + y)).max() < 1e-10

    @pytest.mark.parametrize("name,n", PRESET_CASES[:5])
    def test_firmly_nonexpansive(self, name, n, rng):
        sp = random_problem(name, n, rng, d=3)
        p = sp.base
        for _ in range(20):
            u = rng.standard_normal((n - 1, 3))
            v = rng.standard_normal((n - 1, 3))
            _, tu = apply_T_tilde(p, u)
            _, tv = apply_T_tilde(p, v)
            diff = (tu - tv).reshape(-1)
            assert diff @ diff <= (u - v).reshape(-1) @ diff + 1e-10


class TestRunAlg2:
    def test_crossing_drs_reaches_limit_after_one_sweep(self):
        p = drs_problem([[1.0, 0.0]], [[0.0, 1.0]])
        trace = run_alg2(p, np.array([[1.0, 1.0]]), 1.0, record_states=True)
        assert np.abs(trace.iterations[0].v).max() == 0.0
        assert trace.converged
        assert np.abs(trace.v).max() == 0.0
        assert np.abs(trace.x).max() < 1e-14

    def test_fixed_point_start(self):
        p = drs_problem([[1.0, 0.0]], [[1.0, 0.0]])
        trace = run_alg2(p, np.array([[3.0, 4.0]]), 1.0)
        assert trace.converged and trace.k_final == 1
        assert trace.residuals[0] < 1e-14

    def test_theta_zero_never_converges(self):
        p = drs_problem([[1.0, 0.0]], [[0.0, 1.0]])
        v0 = np.array([[1.0, 1.0]])
        trace = run_alg2(p, v0, 0.0, StopRule(max_iters=50))
        assert not trace.converged
        assert trace.stop_reason == "max_iters"
        assert np.array_equal(trace.v, v0)

    def test_theta_validation(self):
        p = drs_problem([[1.0, 0.0]], [[0.0, 1.0]])
        v0 = np.zeros((1, 2))
        with pytest.raises(ValueError, match="0, 2"):
            run_alg2(p, v0, 2.5)
        with pytest.raises(ValueError, match="0, 2"):
            run_alg2(p, v0, [1.0, -0.1])
        with pytest.raises(ValueError, match="empty"):
            run_alg2(p, v0, [])

    @pytest.mark.parametrize("theta, stop, match", [
        (2.5, None, "0, 2"),
        ([1.0, -0.1], None, "0, 2"),
        ([], None, "empty"),
        ([[1.0, 0.5]], None, "flat"),
        (1.0, StopRule(tol=float("nan")), "tolerance"),
        (1.0, StopRule(tol=float("inf")), "tolerance"),
        (1.0, StopRule(tol=-1.0), "tolerance"),
        ([1.0, float("nan")], None, "0, 2"),
        (float("nan"), None, "0, 2"),
        ("1.5", None, "real"),
        (True, None, "real"),
        ([True, True], None, "real"),
        ([1.0, None], None, "real"),
        (1.0, StopRule(tol="1e-3"), "tolerance"),
        (1.0, StopRule(tol=True), "tolerance"),
        (1.0, StopRule(tol=[1e-3]), "tolerance"),
        (1.0, StopRule(max_iters=True), "max_iters"),
        (1.0, StopRule(max_iters=2.5), "max_iters"),
        (1.0, StopRule(max_iters=0), "max_iters"),
        (1.0, StopRule(max_iters=sys.maxsize + 1), str(sys.maxsize)),
    ], ids=["above-2", "negative-entry", "empty", "nested", "tol-nan",
            "tol-inf", "tol-negative", "schedule-nan", "theta-nan",
            "theta-str", "theta-bool", "schedule-bool", "schedule-none",
            "tol-str", "tol-bool", "tol-list", "max-iters-bool",
            "max-iters-fraction", "max-iters-zero", "max-iters-above-maxsize"])
    def test_argument_validation_both_drivers(self, theta, stop, match):
        p = drs_problem([[1.0, 0.0]], [[0.0, 1.0]])
        v0 = np.zeros((1, 2))
        with pytest.raises(ValueError, match=match):
            run_alg2(p, v0, theta, stop)
        with pytest.raises(ValueError, match=match):
            run_alg1(p, np.zeros((2, 2)), v0, theta, stop)

    @pytest.mark.parametrize("theta", [np.array(1.3), np.float64(1.3), 1.3,
                                       np.array([1.3] * 5), [1.3] * 5])
    def test_real_thetas_run_alike(self, theta):
        # a 0-d array is a constant, like the float and the numpy scalar
        p = drs_problem([[1.0, 0.0]], [[0.6, 0.8]])
        v0 = np.array([[1.0, 1.0]])
        ref = run_alg2(p, v0, 1.3, StopRule(max_iters=5))
        trace = run_alg2(p, v0, theta, StopRule(max_iters=5))
        assert np.array_equal(trace.v, ref.v)
        assert np.array_equal(trace.residuals, ref.residuals)
        assert trace.stop_reason == "max_iters"

    def test_zero_tol_is_legal(self):
        p = drs_problem([[1.0, 0.0]], [[0.0, 1.0]])
        trace = run_alg2(p, np.ones((1, 2)), 1.0, StopRule(tol=0.0))
        assert trace.converged

    def test_schedule_list_caps_iterations(self):
        p = drs_problem([[1.0, 0.0]], [[0.0, 1.0]])
        trace = run_alg2(p, np.array([[1.0, 1.0]]), [0.5] * 3,
                         StopRule(max_iters=1000))
        assert trace.k_final <= 3

    def test_finite_schedule_end_is_reported(self):
        p = drs_problem([[1.0, 0.0]], [[0.0, 1.0]])
        v0 = np.array([[1.0, 1.0]])
        trace = run_alg2(p, v0, [0.01] * 3, StopRule(max_iters=100))
        assert trace.k_final == 3 and not trace.converged
        assert trace.stop_reason == "schedule"
        # a schedule as long as the budget ends on the budget
        trace = run_alg2(p, v0, [0.01] * 3, StopRule(max_iters=3))
        assert trace.stop_reason == "max_iters"
        t1 = run_alg1(p, np.zeros((2, 2)), v0, [0.01] * 3,
                      StopRule(max_iters=100))
        assert t1.stop_reason == "schedule"


class TestRunAlg1:
    def test_fixed_point_start(self):
        p = drs_problem([[1.0, 0.0]], [[1.0, 0.0]])
        w0 = np.array([[3.0, 0.0], [3.0, 0.0]])
        v0 = np.array([[3.0, 0.0]])
        trace = run_alg1(p, w0, v0, 1.0)
        assert trace.converged and trace.k_final == 1
        assert trace.residuals[0] < 1e-14

    def test_theta_zero_is_noop(self, rng):
        p = drs_problem([[1.0, 0.0]], [[0.0, 1.0]])
        w0 = rng.standard_normal((2, 2))
        v0 = rng.standard_normal((1, 2))
        trace = run_alg1(p, w0, v0, 0.0, StopRule(max_iters=20))
        assert not trace.converged
        assert np.array_equal(trace.w, w0)
        assert np.array_equal(trace.v, v0)

    def test_shadow_coincidence_with_unit_relaxation(self, rng):
        # theta = 1 and equal w0 blocks: w^{k+1} is exactly x^{k+1}
        sp = random_problem("malitsky_tam", 4, rng, d=3, planted=True)
        w0 = np.tile(rng.standard_normal(3), (4, 1))
        v0 = rng.standard_normal((3, 3))
        trace = run_alg1(sp.base, w0, v0, 1.0, StopRule(max_iters=40),
                         record_states=True)
        for rec in trace.iterations:
            assert np.abs(rec.w - rec.x).max() <= 1e-12

    def test_limit_agreement_with_reduced_run(self, rng):
        # equal-block w0 makes both iterations share their limit points
        sp = random_problem("generalized_ryu", 3, rng, d=4, planted=True)
        w0 = np.tile(rng.standard_normal(4), (3, 1))
        v0 = rng.standard_normal((2, 4))
        t1 = run_alg1(sp.base, w0, v0, 1.0)
        t2 = run_alg2(sp.base, v0, 1.0)
        assert t1.converged and t2.converged
        assert np.abs(t1.v - t2.v).max() < 1e-7
        assert np.abs(t1.x - t2.x).max() < 1e-7

    @pytest.mark.parametrize("callback", [False, True])
    @pytest.mark.parametrize("schedule", [False, True])
    def test_reduces_to_the_reduced_run(self, callback, schedule, rng):
        # y = Z^T w + v turns the expanded run from (w0, v0) into the
        # reduced run from y0 = Z^T w0 + v0, iterate by iterate
        sp = random_problem("malitsky_tam", 5, rng, d=3, planted=True)
        p = sp.base
        if callback:
            p = callback_twin(p, sp.subspaces)
        w0 = rng.standard_normal((5, 3))
        v0 = rng.standard_normal((4, 3))
        theta = rng.uniform(0.3, 1.7, size=200) if schedule else 1.3
        stop = StopRule(tol=0.0, max_iters=200)
        t1 = run_alg1(p, w0, v0, theta, stop, record_states=True)
        t2 = run_alg2(p, p.zt @ w0 + v0, theta, stop, record_states=True)
        assert (p._linear_map is None) == callback
        assert t1.k_final == t2.k_final == 200
        for r1, r2 in zip(t1.iterations, t2.iterations):
            assert np.abs(p.zt @ r1.w + r1.v - r2.v).max() <= 1e-12
            assert np.abs(r1.x - r2.x).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_coinciding_subspaces_stop_at_the_limit(self, seed):
        # every node on one line: at theta = 1 the v-change is zero after
        # two iterations while w is still far from the limit, so a stop on
        # the v-change alone ends the run early
        rng = np.random.default_rng(seed)
        ps = preset("generalized_ryu", 3)
        line = subspace_from_spanners(2, [rng.standard_normal(2)])
        sp = subspace_problem(ps.pair, ps.dec, [line] * 3)
        w0 = rng.standard_normal((3, 2))
        v0 = rng.standard_normal((2, 2))
        trace = run_alg1(sp.base, w0, v0, 1.0)
        pred = predict_limits_alg1(sp, w0, v0)
        assert trace.converged
        assert np.abs(trace.w - pred.u_bar).max() <= 1e-6
        assert np.abs(trace.x - pred.u_bar).max() <= 1e-6
        assert np.abs(trace.v - pred.v_bar).max() <= 1e-6

    def test_against_power_iteration_oracle(self):
        # U = {0} and E = {0}: iterating the assembled matrix converges to 0,
        # and so must the engine
        p = drs_problem([[1.0, 0.0]], [[1.0, 1.0]])
        t_mat = assemble_T_matrix(p)
        state = np.concatenate([np.zeros(4), np.array([1.0, 0.0])])
        for _ in range(5000):
            state = t_mat @ state
        trace = run_alg1(p, np.zeros((2, 2)), np.array([[1.0, 0.0]]), 1.0)
        assert trace.converged
        assert np.abs(state).max() < 1e-8
        assert np.abs(trace.v).max() < 1e-8
        assert np.abs(trace.w).max() < 1e-8


class TestDivergenceGuard:
    def test_expansive_callback_raises(self):
        ps = preset("douglas_rachford", 2)
        ops = [CallbackOp(lambda x, gamma: 50.0 * x) for _ in range(2)]
        p = SplittingProblem(ps.pair, ps.dec, ops, 2)
        v0 = np.array([[1.0, 1.0]])
        w0 = np.array([[1.0, -1.0], [0.5, 2.0]])
        runs = (lambda stop: run_alg2(p, v0, 1.9, stop),
                lambda stop: run_alg1(p, w0, v0, 1.9, stop))
        for run in runs:
            with pytest.raises(DivergenceError, match="iteration") as info:
                run(StopRule(max_iters=5000))
            exc = info.value
            assert exc.iteration > 1
            assert len(exc.residuals) == exc.iteration
            assert exc.residuals.base is None
            assert not np.isfinite(exc.residuals[-1])
            assert np.isfinite(exc.residuals[:-1]).all()
            before = run(StopRule(max_iters=exc.iteration - 1))
            assert np.array_equal(exc.residuals[:-1], before.residuals)


def residual_map_or_twin(callback, rng):
    """A subspace problem, which steps on its residual map, or its callback
    twin, which steps on the node sweep."""
    sp = random_problem("generalized_ryu", 3, rng, d=3, planted=True)
    return callback_twin(sp.base, sp.subspaces) if callback else sp.base


class TestBudget:
    """A run holds nothing sized by its budget: its cost and memory follow
    the iterations it takes."""

    @pytest.mark.parametrize("callback", [False, True])
    def test_huge_budget_converging_run(self, callback, rng):
        problem = residual_map_or_twin(callback, rng)
        v0 = rng.standard_normal((2, 3))
        w0 = rng.standard_normal((3, 3))
        stop = StopRule(max_iters=10 ** 12)
        for trace in (run_alg2(problem, v0, 1.0, stop),
                      run_alg1(problem, w0, v0, 1.0, stop)):
            assert trace.converged and trace.residuals.base is None
        trace = run_alg2(problem, v0, [0.5] * 3, stop)
        assert trace.stop_reason == "schedule" and trace.k_final == 3
        assert (problem._linear_map is None) == callback

    @pytest.mark.parametrize("callback", [False, True])
    def test_divergence_residuals_own_their_data(self, callback, rng):
        # a start whose squared norm overflows is refused at the boundary,
        # and a reduced run on subspace nodes never takes a residual above
        # ||v0||, so the trigger is an expanded start of finite squared
        # norm whose first residual, rho times as large, squares past the
        # float range on either step
        problem = residual_map_or_twin(callback, rng)
        w0, v0 = np.zeros((3, 3)), np.zeros((2, 3))
        w0[2, 1] = 1.0
        rho = run_alg1(problem, w0, v0, 1.0,
                       StopRule(max_iters=1)).residuals[0]
        assert rho > 1.1
        w0 *= math.sqrt(np.finfo(float).max / rho)
        with pytest.raises(DivergenceError) as info:
            run_alg1(problem, w0, v0, 1.0)
        assert info.value.iteration == 1
        assert info.value.residuals.base is None
        assert (problem._linear_map is None) == callback

    @pytest.mark.parametrize("callback", [False, True])
    def test_start_whose_square_overflows_is_refused(self, callback, rng):
        # every entry is finite, but the stop test squares the norm: at
        # 1e160 the square overflows and the start is refused by name; at
        # 1e150 the run converges
        problem = residual_map_or_twin(callback, rng)
        big = np.full((2, 3), 1e160)
        for run, what in ((lambda: run_alg2(problem, big, 1.0), "v0"),
                          (lambda: run_alg1(problem, np.zeros((3, 3)), big,
                                            1.0), "v0"),
                          (lambda: run_alg1(problem, np.full((3, 3), 1e160),
                                            np.zeros((2, 3)), 1.0), "w0")):
            with pytest.raises(ValueError, match=f"^{what} is too large: "
                               "its squared norm overflows$"):
                run()
        v0, w0 = np.full((2, 3), 1e150), np.full((3, 3), 1e150)
        assert run_alg2(problem, v0, 1.0).converged
        assert run_alg1(problem, w0, v0, 1.0).converged
        assert (problem._linear_map is None) == callback

    def test_node_table_built_at_the_first_sweep(self, rng):
        sp = random_problem("malitsky_tam", 5, rng, d=3, planted=True)
        p = sp.base
        predict_limits_alg2(sp, rng.standard_normal((4, 3)))
        assert "_node_maps" not in vars(p)
        assert not hasattr(p, "pred") and not hasattr(p, "deg")
        solve_m_plus_a(p, np.zeros((5, 3)), np.zeros((4, 3)))
        preds = [preds for preds, _ in p._node_maps]
        assert preds == [[h - 1 for h, j in p.pair.g.edges if j == i]
                         for i in range(1, 6)]


class TestKernelPaths:
    @pytest.mark.parametrize("name,n", PRESET_CASES[:6])
    def test_python_and_kernel_agree(self, name, n, rng):
        # recording the states must not change the run
        sp = random_problem(name, n, rng, d=3, planted=True)
        v0 = rng.standard_normal((n - 1, 3))
        w0 = rng.standard_normal((n, 3))
        stop = StopRule(max_iters=200)
        fast2 = run_alg2(sp.base, v0, 0.8, stop)
        slow2 = run_alg2(sp.base, v0, 0.8, stop, record_states=True)
        assert fast2.k_final == slow2.k_final
        assert np.abs(fast2.v - slow2.v).max() < 1e-13
        assert np.abs(fast2.residuals - slow2.residuals).max() < 1e-13
        fast1 = run_alg1(sp.base, w0, v0, 0.8, stop)
        slow1 = run_alg1(sp.base, w0, v0, 0.8, stop, record_states=True)
        assert fast1.k_final == slow1.k_final
        assert np.abs(fast1.v - slow1.v).max() < 1e-13
        assert np.abs(fast1.w - slow1.w).max() < 1e-13

    def test_each_run_enters_the_driver_through_its_own_sweep(
            self, monkeypatch, rng):
        # benchmark timers wrap these two names; a run that bypassed them
        # would go untimed
        calls = []

        def counting(name):
            inner = getattr(engine._kernels, name)

            def sweep(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            return sweep

        for name in ("alg1_sweep", "alg2_sweep"):
            monkeypatch.setattr(engine._kernels, name, counting(name))
        sp = random_problem("generalized_ryu", 3, rng, d=2)
        v0 = rng.standard_normal((2, 2))
        run_alg1(sp.base, rng.standard_normal((3, 2)), v0)
        assert calls == ["alg1_sweep"]
        calls.clear()
        run_alg2(sp.base, v0)
        assert calls == ["alg2_sweep"]

    def test_sweep_map_matches_node_sweep_under_cap(self, rng):
        # a callback with the same projections takes the node sweep, the
        # normal cones take the cached residual map
        ps = preset("malitsky_tam", 5)
        subs = [subspace_from_spanners(3, rng.standard_normal((2, 3)))
                for _ in range(5)]
        p_ns = SplittingProblem(ps.pair, ps.dec,
                                [NormalConeOp(u) for u in subs], 3)
        p_cb = callback_twin(p_ns, subs)
        v0 = rng.standard_normal((4, 3))
        w0 = rng.standard_normal((5, 3))
        for theta in (0.7, 1.0, 1.5):
            t_ns = run_alg2(p_ns, v0, theta)
            t_cb = run_alg2(p_cb, v0, theta)
            assert t_ns.converged and t_ns.k_final == t_cb.k_final
            assert np.abs(t_ns.v - t_cb.v).max() < 1e-12
            t_ns = run_alg1(p_ns, w0, v0, theta)
            t_cb = run_alg1(p_cb, w0, v0, theta)
            assert t_ns.converged and t_ns.k_final == t_cb.k_final
            assert np.abs(t_ns.v - t_cb.v).max() < 1e-12
            assert np.abs(t_ns.w - t_cb.w).max() < 1e-12
        assert p_ns._linear_map is not None and p_cb._linear_map is None

    @pytest.mark.parametrize("name,n", PRESET_CASES)
    def test_sweep_map_is_the_node_sweep(self, name, n, rng):
        # the residual map factors the sweep map as S = B kq q^T
        sp = random_problem(name, n, rng, d=3)
        p = sp.base
        assert "_linear_map" not in vars(p)  # set-up does not build it
        lin = p._linear_map
        m = min(sum(u.dim for u in sp.subspaces), (n - 1) * 3)
        assert lin.q.shape == ((n - 1) * 3, m) and lin.g.shape == (m, m)
        for _ in range(3):
            y = rng.standard_normal((n - 1, 3))
            x_ref, _ = dense_m_plus_a_solve(p, p.z @ y, np.zeros((n - 1, 3)))
            e = lin.q.T @ y.reshape(-1)
            c = lin.kq @ e
            assert np.abs(lin.g @ e
                          - lin.q.T @ (p.zt @ x_ref).reshape(-1)).max() < 1e-10
            coords = np.einsum("idr,id->ir", lin.basis, x_ref).reshape(-1)
            assert np.abs(c - coords).max() < 1e-10
            assert np.abs(lin.blocks(c) - x_ref.reshape(-1)).max() < 1e-10

    def test_node_sweep_above_cap_reaches_predicted_limits(self, rng):
        n, d = 10, 64
        # q, g and kq of rank-32 nodes: m = min(10 * 32, 9 * 64) columns
        m = n * d // 2
        assert ((n - 1) * d + m + m) * m > engine.LINEAR_MAP_MAX_ENTRIES
        ps = preset("malitsky_tam", n)
        common = rng.standard_normal(d)
        subs = [random_subspace(rng, d, d // 2, contains=common)
                for _ in range(n)]
        sp = subspace_problem(ps.pair, ps.dec, subs)
        v0 = rng.standard_normal((n - 1, d))
        w0 = rng.standard_normal((n, d))
        stop = StopRule(tol=1e-10, max_iters=5000)
        t2 = run_alg2(sp.base, v0, 1.0, stop)
        t1 = run_alg1(sp.base, w0, v0, 1.0, stop)
        assert sp.base._linear_map is None
        assert sp.u_common.dim == 1
        p2 = predict_limits_alg2(sp, v0)
        p1 = predict_limits_alg1(sp, w0, v0)
        assert t2.converged and t1.converged
        assert np.abs(t2.v - p2.v_bar).max() <= 1e-8
        assert np.abs(t2.x - p2.u_bar).max() <= 1e-8
        assert np.abs(t1.v - p1.v_bar).max() <= 1e-8
        assert np.abs(t1.w - p1.u_bar).max() <= 1e-8


def twin_runs_agree(p, subs, run):
    """``run`` on the subspace problem ``p``, which steps on its residual
    map, and on its callback twin, which steps on the node sweep: the
    same stop, and every residual, record and returned block within
    1e-12.  Returns the run on ``p``."""
    twin = callback_twin(p, subs)
    got, ref = run(p), run(twin)
    assert p._linear_map is not None and twin._linear_map is None
    assert got.k_final == ref.k_final
    assert got.stop_reason == ref.stop_reason
    assert np.abs(got.residuals - ref.residuals).max() <= 1e-12
    pairs = [(got.x, ref.x), (got.v, ref.v)]
    pairs += [(r.x, s.x) for r, s in zip(got.iterations, ref.iterations)]
    pairs += [(r.v, s.v) for r, s in zip(got.iterations, ref.iterations)]
    if got.w is not None:
        pairs += [(got.w, ref.w)]
        pairs += [(r.w, s.w) for r, s in zip(got.iterations, ref.iterations)]
    assert len(got.iterations) == len(ref.iterations)
    for a, b in pairs:
        assert np.abs(a - b).max() <= 1e-12
    return got


def parts_off_the_map(sp, w0):
    """The norms of the part of w0 outside every node subspace and of the
    part of Z^T w0 outside range(q), from the node projectors and q."""
    off = [wi - u.basis @ (u.basis.T @ wi) for u, wi in zip(sp.subspaces, w0)]
    zw = (sp.base.zt @ w0).reshape(-1)
    q = sp.base._linear_map.q
    return np.linalg.norm(off), np.linalg.norm(zw - q @ (q.T @ zw))


def both_runs(w0, v0, theta, stop):
    return (lambda q: run_alg2(q, v0, theta, stop, record_states=True),
            lambda q: run_alg1(q, w0, v0, theta, stop, record_states=True))


class TestResidualMap:
    """Edge cases of the run on the residual map, each against the node
    sweep of the callback twin."""

    def test_zero_subspaces_give_an_empty_basis(self, rng):
        subs = [zero_space(3)] * 4
        ps = preset("malitsky_tam", 4)
        p = SplittingProblem(ps.pair, ps.dec, [NormalConeOp(u) for u in subs], 3)
        assert p._linear_map.q.shape == (9, 0)
        for run in both_runs(rng.standard_normal((4, 3)),
                             rng.standard_normal((3, 3)), 1.2, StopRule()):
            trace = twin_runs_agree(p, subs, run)
            assert trace.converged and not trace.x.any()

    def test_full_spaces_outnumber_the_governing_blocks(self, rng):
        # sum r_i = n d > (n - 1) d, so q is square
        subs = [full_space(3)] * 5
        ps = preset("generalized_ryu", 5)
        p = SplittingProblem(ps.pair, ps.dec, [NormalConeOp(u) for u in subs], 3)
        assert p._linear_map.q.shape == (12, 12)
        for run in both_runs(rng.standard_normal((5, 3)),
                             rng.standard_normal((4, 3)), 0.9, StopRule()):
            assert twin_runs_agree(p, subs, run).converged

    def test_schedule_with_zero_and_two(self, rng):
        sp = random_problem("sequential", 4, rng, d=3, planted=True)
        theta = [1.0, 0.0, 2.0, 0.5, 2.0, 0.0, 1.3] * 4
        for run in both_runs(rng.standard_normal((4, 3)),
                             rng.standard_normal((3, 3)), theta,
                             StopRule(tol=0.0)):
            trace = twin_runs_agree(sp.base, sp.subspaces, run)
            assert trace.stop_reason == "schedule" and trace.k_final == 28

    # a budget of 8 ends a stretch in a block cut short, and the schedule
    # runs blocks of one; budgets of 50, 63, 64 and 65 end in the first
    # full block cut short, at its end, and in blocks of one and two
    # steps after it; budgets of 1, 2 and 3, and a schedule of 3, end in
    # the ramp's first blocks, where the set-up's rows are the block's own
    @pytest.mark.parametrize("theta,budget,reason", [
        (1.1, 8, "max_iters"), ([0.7, 1.4] * 4, 20, "schedule"),
        (0.2, 50, "max_iters"), (0.2, 63, "max_iters"),
        (0.2, 64, "max_iters"), (0.2, 65, "max_iters"),
        (1.1, 1, "max_iters"), (1.1, 2, "max_iters"), (1.1, 3, "max_iters"),
        ([0.6, 1.5, 0.9], 10, "schedule")])
    def test_returned_x_is_the_sweep_before_the_last_update(
            self, theta, budget, reason, rng):
        sp = random_problem("parallel_up", 4, rng, d=3, planted=True)
        p = sp.base
        w0, v0 = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
        # w0 has parts outside every node subspace and Z^T w0 one outside
        # range(q), so every part of the splits of w0 and v0 is in play
        assert min(parts_off_the_map(sp, w0)) > 1e-3
        t2, t1 = (twin_runs_agree(p, sp.subspaces, run) for run in
                  both_runs(w0, v0, theta,
                            StopRule(tol=0.0, max_iters=budget)))
        assert t2.stop_reason == t1.stop_reason == reason
        k = budget if reason == "max_iters" else len(theta)
        assert t2.k_final == t1.k_final == k
        # the state before the last update: the start, or the record
        # before the last
        prev2 = (v0 if k == 1 else t2.iterations[-2].v)
        prev1 = ((w0, v0) if k == 1 else (t1.iterations[-2].w,
                                           t1.iterations[-2].v))
        x2, _ = apply_T_tilde(p, prev2)
        x1, _ = apply_T(p, *prev1)
        assert np.abs(t2.x - x2).max() <= 1e-12
        assert np.abs(t1.x - x1).max() <= 1e-12
        assert np.array_equal(t2.x, t2.iterations[-1].x)
        assert np.array_equal(t1.w, t1.iterations[-1].w)
        # and without records
        stop = StopRule(tol=0.0, max_iters=budget)
        assert np.abs(run_alg2(p, v0, theta, stop).x - x2).max() <= 1e-12
        assert np.abs(run_alg1(p, w0, v0, theta, stop).x - x1).max() <= 1e-12

    @pytest.mark.parametrize("theta,budget", [
        (1.1, 1), (1.1, 2), (1.1, 3), ([0.6, 1.5, 0.9], 3)])
    def test_short_runs_from_starts_on_and_off_the_map(
            self, theta, budget, rng):
        # the set-up splits v0 and w0 and the result rebuilds x, w and v;
        # with and without records, from a w0 with parts outside every
        # node subspace and outside range(q), and from a w0 in the node
        # subspaces, whose Z^T w0 lies in range(q)
        sp = random_problem("parallel_up", 4, rng, d=3, planted=True)
        v0 = rng.standard_normal((3, 3))
        w_off = rng.standard_normal((4, 3))
        w_on = np.array([u.basis @ rng.standard_normal(u.dim)
                         for u in sp.subspaces])
        assert min(parts_off_the_map(sp, w_off)) > 1e-3
        assert max(parts_off_the_map(sp, w_on)) <= 1e-12
        stop = StopRule(tol=0.0, max_iters=budget)
        for w0 in (w_off, w_on):
            for record in (True, False):
                for run in (
                        lambda q: run_alg2(q, v0, theta, stop, record),
                        lambda q: run_alg1(q, w0, v0, theta, stop, record)):
                    trace = twin_runs_agree(sp.base, sp.subspaces, run)
                    assert trace.k_final == budget
                    assert len(trace.iterations) == (budget if record else 0)

    @pytest.mark.parametrize("name,n", PRESET_CASES)
    def test_stops_at_the_first_iterate_passing_the_stop_rule(
            self, name, n, rng):
        # large blocks, so max(1, ||v||) and max(1, ||w||) are the norms,
        # which the run forms only near the stop; the rule is checked on
        # the recorded iterates, outside the driver
        sp = random_problem(name, n, rng, d=3, planted=True)
        w0 = 100.0 * rng.standard_normal((n, 3))
        v0 = 100.0 * rng.standard_normal((n - 1, 3))
        tol = 1e-10
        norm = np.linalg.norm

        def passes(trace, k):
            """The stop rule at iteration k (1-based) on its pre-update
            state, the start or the record of iteration k - 1."""
            v, w = (v0, w0) if k == 1 else (trace.iterations[k - 2].v,
                                            trace.iterations[k - 2].w)
            done = trace.residuals[k - 1] <= tol * max(1.0, norm(v))
            if trace.w is not None:
                x = trace.iterations[k - 1].x
                done &= norm(x - w) <= tol * max(1.0, norm(w))
            return done

        for theta in (0.6, 1.0, 1.7):
            for run in both_runs(w0, v0, theta, StopRule(tol=tol)):
                trace = run(sp.base)
                k = trace.k_final
                assert trace.converged and passes(trace, k)
                assert not any(passes(trace, j) for j in range(1, k))

    def test_records_are_rebuilt_after_the_loop(self, monkeypatch, rng):
        # the blocks of every record, x and w alike, come from one product
        # with the node bases, whatever the number of iterations
        sp = random_problem("complete", 4, rng, d=3, planted=True)
        w0, v0 = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
        calls = []
        blocks = engine._kernels.LinearMap.blocks

        def counting(self, c):
            calls.append(c.shape)
            return blocks(self, c)

        monkeypatch.setattr(engine._kernels.LinearMap, "blocks", counting)
        counts = []
        # 140 iterations: records across blocks of 1 .. 32 steps, three
        # full blocks and one cut short
        for k in (5, 60, 140):
            for run in both_runs(w0, v0, 0.8, StopRule(tol=0.0, max_iters=k)):
                calls.clear()
                trace = twin_runs_agree(sp.base, sp.subspaces, run)
                assert len(trace.iterations) == k
                counts.append(len(calls))
        assert counts == [1] * 6


def stop_ratios(trace, w0, v0):
    """Per iteration k, the least tol at which the stop rule passes on its
    pre-update state, from the records of a run with tol 0."""
    norm = np.linalg.norm
    ratios = []
    for k, rec in enumerate(trace.iterations):
        prev = trace.iterations[k - 1] if k else None
        v = v0 if prev is None else prev.v
        ratio = trace.residuals[k] / max(1.0, norm(v))
        if w0 is not None:
            w = w0 if prev is None else prev.w
            ratio = max(ratio, norm(rec.x - w) / max(1.0, norm(w)))
        ratios.append(ratio)
    return np.array(ratios)


class ScriptedRun:
    """A reduced run for ``_drive`` alone: its residuals come from a list,
    and at theta = 1 its ||v|| grows from ``v0_norm`` by each residual, as
    fast as the loop's bound on it allows."""

    expanded = False

    def __init__(self, res, v0_norm):
        self.res, self.v0_norm = res, v0_norm
        self.v = v0_norm + np.concatenate([[0.0], np.cumsum(res)[:-1]])
        self.pos = 0

    def block(self, theta, left):
        s = min(left, 32, self.pos + 1)
        self.first, self.pos = self.pos, self.pos + s
        return self.res[self.first:self.pos]

    def v_norms(self):
        return self.v[self.first:self.pos].tolist()

    def result(self, end):
        return None, None, None, []


class TestBlocks:
    """A run on the residual map moves through each stretch of equal theta
    in blocks of 1, 2, 4, 25 and then 32 steps; each case is checked
    against the node sweep of the callback twin."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 9, 15, 16, 31, 32, 33,
                                   34, 63, 64, 65, 95, 96, 97])
    def test_stop_at_and_around_block_boundaries(self, k):
        # blocks start at steps 1, 2, 4, 8, 33, 65 and 97
        rng = np.random.default_rng(3)
        sp = random_problem("generalized_ryu", 4, rng, d=3, planted=True)
        w0 = 10.0 * rng.standard_normal((4, 3))
        v0 = 10.0 * rng.standard_normal((3, 3))
        twin = callback_twin(sp.base, sp.subspaces)
        for alg, run in zip((2, 1), both_runs(w0, v0, 0.5,
                                              StopRule(0.0, 100))):
            ratios = stop_ratios(run(twin), w0 if alg == 1 else None, v0)
            # a tol between the k-th ratio and every earlier one
            earlier = ratios[:k - 1].min() if k > 1 else 4.0 * ratios[0]
            assert ratios[k - 1] < 0.99 * earlier
            tol = math.sqrt(ratios[k - 1] * earlier)
            run = both_runs(w0, v0, 0.5, StopRule(tol, 100))[2 - alg]
            trace = twin_runs_agree(sp.base, sp.subspaces, run)
            assert trace.stop_reason == "tol" and trace.k_final == k

    def test_bound_on_v_follows_its_growth(self):
        # ||v|| grows from 1 to about 400.  Step 41 passes only against the
        # bound, so the block of steps 32 .. 63 is a candidate that fails;
        # step 95, the last of the next block, is the first to pass, by a
        # margin below the growth of the step before that block
        tol = 1e-3
        res = ([1.0] * 31 + [10.0] * 9 + [0.0] + [10.0] * 21 + [50.0]
               + [0.5] * 32 + [0.1] * 9)
        v = ScriptedRun(res, 1.0).v
        res[40] = tol * (v[40] + v[63]) / 2
        v = ScriptedRun(res, 1.0).v
        res[94] = tol * v[94] * (1.0 - 1e-7)
        run = ScriptedRun(res, 1.0)
        first = next(j for j, r in enumerate(res) if r <= tol * max(1.0, v[j]))
        assert first == 94
        got = engine._kernels._drive(run, [(1.0, len(res))], tol)
        assert got[4] == "tol" and len(got[3]) == first + 1

    def test_failed_candidate_then_stop_in_one_block(self):
        # an expanded run whose residual passes the stop test some steps
        # before its gap ||x - w|| does, both inside one block: the block's
        # first candidate fails and a later position of it stops
        rng = np.random.default_rng(1)
        sp = random_problem("sequential", 4, rng, d=3, planted=True)
        w0, v0 = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
        twin = callback_twin(sp.base, sp.subspaces)
        run = both_runs(w0, v0, 1.0, StopRule(0.0, 100))[1]
        trace = run(twin)
        res = stop_ratios(trace, None, v0)
        both = stop_ratios(trace, w0, v0)
        # in the block of positions 3 .. 6 or 7 .. 31, a stop at position
        # k - 1 preceded, in its block, by a residual that passes at tol,
        # just above both[k - 1]
        k, tol = next((k, 1.001 * both[k - 1])
                      for lo, hi in [(3, 7), (7, 32)]
                      for k in range(lo + 2, hi + 1)
                      if (both[:k - 1] > 1.01 * both[k - 1]).all()
                      and (res[lo:k - 1] <= 0.99 * both[k - 1]).any())
        run = both_runs(w0, v0, 1.0, StopRule(tol, 100))[1]
        got = twin_runs_agree(sp.base, sp.subspaces, run)
        assert got.stop_reason == "tol" and got.k_final == k

    def test_blocks_double_up_to_32_in_each_stretch(self, monkeypatch, rng):
        # block sizes per stretch of the schedule, and the blocks that ask
        # the map's record for its power: every block past 32 steps of a
        # stretch, full or cut short, and none before; m <= 9 here, so 2m
        # steps are passed by then and every ask finds or builds P
        sp = random_problem("complete", 4, rng, d=3, planted=True)
        assert len(sp.base._linear_map.g) <= 9
        sizes, asked, found = [], [], []
        head, power = engine._kernels._head, engine._kernels._Linear._power

        def spy_head(theta, expanded, s):
            sizes.append(s)
            return head(theta, expanded, s)

        def spy_power(self):
            asked.append(len(sizes))
            p = power(self)
            found.append(p is not None)
            return p

        monkeypatch.setattr(engine._kernels, "_head", spy_head)
        monkeypatch.setattr(engine._kernels._Linear, "_power", spy_power)
        w0, v0 = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
        full = [1, 2, 4, 25, 32]
        for theta, k, want, asks in [
                (0.7, 100, full + [32, 4], [5, 6, 7]),
                (0.7, 140, full + [32, 32, 12], [5, 6, 7, 8]),
                ([0.7] * 20 + [0.9] * 40, 60, [1, 2, 4, 13, 1, 2, 4, 25, 8],
                 [9]),
                ([0.7, 0.9] * 3 + [0.7] * 70, 76, [1] * 6 + full + [6],
                 [11, 12]),
                (np.linspace(0.5, 1.5, 5), 5, [1] * 5, [])]:
            for run in both_runs(w0, v0, theta,
                                 StopRule(tol=0.0, max_iters=k)):
                sizes.clear()
                asked.clear()
                twin_runs_agree(sp.base, sp.subspaces, run)
                assert sizes == want and asked == asks
        assert found and all(found)

    def test_theta_changes_inside_a_block(self, rng):
        # each change comes after more than 32 steps at one theta; small
        # thetas keep a = prod (1 - theta_j) far from 0 at the changes
        sp = random_problem("malitsky_tam", 5, rng, d=3, planted=True)
        theta = [0.05] * 50 + [0.1] * 46 + [0.6] * 40
        for run in both_runs(rng.standard_normal((5, 3)),
                             rng.standard_normal((4, 3)), theta,
                             StopRule(tol=0.0)):
            trace = twin_runs_agree(sp.base, sp.subspaces, run)
            assert trace.stop_reason == "schedule" and trace.k_final == 136

    def test_constant_theta_zero_leaves_v_and_w_unchanged(self, rng):
        sp = random_problem("sequential", 4, rng, d=3, planted=True)
        w0, v0 = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
        for run in both_runs(w0, v0, 0.0, StopRule(max_iters=100)):
            trace = twin_runs_agree(sp.base, sp.subspaces, run)
            assert trace.k_final == 100 and np.array_equal(trace.v, v0)
            assert trace.w is None or np.array_equal(trace.w, w0)
        assert sp.base._linear_map.thetas[0.0][1] is not None

    def test_divergence_inside_a_block(self):
        # at theta = 2 the expanded residual grows, so a start scaled by c
        # can make a residual inside a block, the k-th, the first whose
        # square overflows: in one of the ramp's blocks (k < 32) and in a
        # full one, at no block's first step
        rng = np.random.default_rng(0)
        sp = random_problem("sequential", 4, rng, d=3)
        w0, v0 = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
        twin = callback_twin(sp.base, sp.subspaces)
        stop = StopRule(tol=0.0, max_iters=64)
        res = run_alg1(twin, w0, v0, 2.0, stop).residuals
        for first in (2, 40):
            k = next(k for k in range(first, 65) if k not in (1, 2, 4, 8, 33)
                     and res[:k - 1].max() < 0.999 * res[k - 1])
            assert (k < 32) == (first < 32)
            c = math.sqrt(np.finfo(float).max
                          / (res[:k - 1].max() * res[k - 1]))
            got = []
            for problem in (sp.base, twin):
                with pytest.raises(DivergenceError) as info:
                    run_alg1(problem, c * w0, c * v0, 2.0, stop)
                assert info.value.residuals.base is None
                got.append(info.value)
            assert got[0].iteration == got[1].iteration == k
            scale = got[1].residuals[:-1].max()
            assert (np.abs(got[0].residuals[:-1]
                           - got[1].residuals[:-1]).max() <= 1e-12 * scale)

    def test_cached_power_run_equals_a_cold_one(self, monkeypatch, rng):
        # m = 40: a cold run asks its record for (I - theta g)^32 at its
        # blocks after 32, 64, 96 and 128 steps and builds it at the third,
        # the first after 2m = 80 steps; the next run finds it at its
        # first full block
        p, subs, (w0, v0) = self.m40_problem(rng)
        blocks, hits = [], []
        head = engine._kernels._head
        power = engine._kernels._Linear._power

        def spy_head(theta, expanded, s):
            blocks.append(s)
            return head(theta, expanded, s)

        def spy(self):
            had = self.rec[1] is not None
            found = power(self)
            hits.append((len(blocks), "built" if found is not None
                         and not had else had))
            return found

        monkeypatch.setattr(engine._kernels, "_head", spy_head)
        monkeypatch.setattr(engine._kernels._Linear, "_power", spy)
        for run in both_runs(w0, v0, 1.0, StopRule(tol=0.0, max_iters=140)):
            p._linear_map.thetas.clear()
            hits.clear()
            blocks.clear()
            cold = twin_runs_agree(p, subs, run)
            assert blocks == [1, 2, 4, 25, 32, 32, 32, 12]
            assert hits == [(5, False), (6, False), (7, "built"), (8, True)]
            hits.clear()
            blocks.clear()
            cached = twin_runs_agree(p, subs, run)
            assert hits == [(5, True), (6, True), (7, True), (8, True)]
            for a, b in [(cold.x, cached.x), (cold.v, cached.v),
                         (cold.residuals, cached.residuals)]:
                assert np.abs(a - b).max() <= 1e-12

    @staticmethod
    def m40_problem(rng):
        """A subspace problem whose residual map has m = 40, its node
        subspaces and a start (w0, v0)."""
        n, d = 10, 5
        ps = preset("malitsky_tam", n)
        common = rng.standard_normal(d)
        subs = [random_subspace(rng, d, d - 1, contains=common)
                for _ in range(n)]
        p = subspace_problem(ps.pair, ps.dec, subs).base
        assert p._linear_map.g.shape == (40, 40)
        return p, subs, (rng.standard_normal((n, d)),
                         rng.standard_normal((n - 1, d)))

    def test_short_runs_build_the_power_once_their_total_passes_2m(
            self, monkeypatch, rng):
        # m = 40: a run of 70 steps never passes 2m = 80 steps on its own;
        # the second such run at theta does, at its first full block, and
        # a run at another theta counts apart
        p, subs, (w0, v0) = self.m40_problem(rng)
        lin = p._linear_map
        built = []
        power = engine._kernels._Linear._power

        def spy(self):
            had = self.rec[1] is not None
            p = power(self)
            if p is not None and not had:
                built.append(self.theta)
            return p

        monkeypatch.setattr(engine._kernels._Linear, "_power", spy)
        for run in both_runs(w0, v0, 1.0, StopRule(tol=0.0, max_iters=70)):
            lin.thetas.clear()
            built.clear()
            twin_runs_agree(p, subs, run)
            assert built == [] and record_steps(lin) == [(1.0, 70)]
            run_alg2(p, v0, 0.5, StopRule(tol=0.0, max_iters=70))
            assert built == []
            assert record_steps(lin) == [(1.0, 70), (0.5, 70)]
            twin_runs_agree(p, subs, run)
            assert built == [1.0]
            assert record_steps(lin) == [(0.5, 70), (1.0, 140)]

    def test_step_counts_kept_for_the_last_three_thetas(self, rng):
        sp = random_problem("generalized_ryu", 3, rng, d=3, planted=True)
        lin = sp.base._linear_map
        v0 = rng.standard_normal((2, 3))
        schedule = np.linspace(0.5, 1.5, 20)
        run_alg2(sp.base, v0, schedule, StopRule(tol=0.0))
        # one step at each theta of the schedule, least recently used first
        assert record_steps(lin) == [(t, 1) for t in schedule[-3:]]
        for theta in (0.5, 0.8, 1.1, 1.4, 0.5):
            run_alg2(sp.base, v0, theta, StopRule(tol=0.0, max_iters=40))
            assert len(lin.thetas) <= 3
        assert record_steps(lin) == [(1.1, 40), (1.4, 40), (0.5, 40)]
        # a run that stops inside a block (blocks end after steps 1, 3, 7,
        # 32, 64, ...) counts the steps it took
        trace = run_alg2(sp.base, v0, 1.7)
        assert trace.stop_reason == "tol"
        assert trace.k_final not in (1, 3, 7) and trace.k_final % 32
        assert record_steps(lin)[-1] == (1.7, trace.k_final)

    def test_powers_kept_for_the_last_three_thetas(self, rng):
        sp = random_problem("generalized_ryu", 3, rng, d=3, planted=True)
        lin = sp.base._linear_map
        v0 = rng.standard_normal((2, 3))
        for theta, kept in [(0.5, [0.5]), (0.8, [0.5, 0.8]),
                            (1.1, [0.5, 0.8, 1.1]), (1.4, [0.8, 1.1, 1.4]),
                            (0.8, [1.1, 1.4, 0.8]), (0.5, [1.4, 0.8, 0.5])]:
            # the 100 steps hold two full blocks
            run_alg2(sp.base, v0, theta, StopRule(tol=0.0, max_iters=100))
            assert [t for t, (_, p) in lin.thetas.items()
                    if p is not None] == kept
        m = len(lin.g)
        for theta, (_, p) in lin.thetas.items():
            # padded with a zero row and column, as the map's gp
            step = np.eye(m) - theta * lin.g
            assert np.abs(p[:m, :m]
                          - np.linalg.matrix_power(step, 32)).max() <= 1e-12
            assert not p[m].any() and not p[:, m].any()


def record_steps(lin):
    """(theta, steps) of each record a residual map keeps, least recently
    used first."""
    return [(theta, steps) for theta, (steps, _) in lin.thetas.items()]


def split_norm_errors(p, w0, v0, stretches):
    """Drive a run of ``p`` on its residual map block by block and return,
    per norm of the stop test, its largest error over every position of
    every block: the norm from the splits of v0 and w0 against the norm
    of the blocks rebuilt by ``_blocks`` from the states at each position,
    relative to the scale the stop test compares it at, max(1, ||v||) or
    max(1, ||w||).  The reduced run when ``w0`` is None."""
    it = engine._kernels._Linear(p._linear_map, p.zt, w0, v0, False)
    norm = np.linalg.norm
    worst = {}

    def err(name, got, ref, scale):
        rel = np.abs(np.array(got) - ref) / np.maximum(scale, 1.0)
        worst[name] = max(worst.get(name, 0.0), rel.max())

    for theta, count in stretches:
        while count:
            count -= len(it.block(theta, count))
            t = engine._kernels._tables(theta, w0 is not None, it.s)[0]
            # x, w and v at positions 0 .. s - 1, from xi, tau and rho
            kinds = (0, 0) if w0 is None else (0, 2, 3)
            x, w, v = it._blocks(t[:it.s, kinds].transpose(1, 0, 2) @ it.rows)
            v = norm(v, axis=1)
            err("v", it.v_norms(), v, v)
            if w0 is not None:
                w_ref = norm(w, axis=1)
                gap, w_norm = it.gap_norms(np.arange(it.s))
                err("gap", gap, norm(x - w, axis=1), w_ref)
                err("w", w_norm, w_ref, w_ref)
    return worst


class TestSplitNorms:
    """The stop test reads ||v||, ||x - w|| and ||w|| from the splits of
    v0 and w0; at every position of every block they match the norms of
    the blocks themselves to 1e-12, relative to the stop test's scale."""

    STRETCHES = [(0.7, 40), (1.3, 70)]

    def assert_norms_match(self, p, w0, v0, stretches=STRETCHES):
        for start in (None, w0):
            worst = split_norm_errors(p, start, v0, stretches)
            assert set(worst) == ({"v"} if start is None
                                  else {"v", "gap", "w"})
            assert max(worst.values()) <= 1e-12, worst

    def padded_problem(self, rng):
        # dims 1 .. 3 in R^4: bases padded to r = 3, and sum r_i < 4 (n-1),
        # so v0 keeps a part outside range(q)
        ps = preset("malitsky_tam", 5)
        c = rng.standard_normal(4)
        subs = [random_subspace(rng, 4, r, contains=c)
                for r in (1, 2, 3, 1, 2)]
        sp = subspace_problem(ps.pair, ps.dec, subs)
        assert sp.base._linear_map.basis.shape == (5, 4, 3)
        return sp

    def test_unequal_dims_pad_the_bases(self, rng):
        sp = self.padded_problem(rng)
        assert len(sp.base._linear_map.g) == 9
        self.assert_norms_match(sp.base, rng.standard_normal((5, 4)),
                                rng.standard_normal((4, 4)))

    def test_zero_w0_has_no_part_outside_q(self, rng):
        # Z^T w0 = 0, so qp = 0 and h = 0
        sp = self.padded_problem(rng)
        self.assert_norms_match(sp.base, np.zeros((5, 4)),
                                rng.standard_normal((4, 4)))

    def test_w0_in_the_node_subspaces(self, rng):
        # w0_i in U_i, so w0 = B c0 and w2 = 0
        sp = self.padded_problem(rng)
        w0 = np.array([u.basis @ rng.standard_normal(u.dim)
                       for u in sp.subspaces])
        self.assert_norms_match(sp.base, w0, rng.standard_normal((4, 4)))

    def test_empty_basis(self, rng):
        # zero subspaces: m = 0, every norm is the split's remainder
        ps = preset("sequential", 4)
        p = SplittingProblem(ps.pair, ps.dec,
                             [NormalConeOp(zero_space(3))] * 4, 3)
        assert p._linear_map.q.shape == (9, 0)
        self.assert_norms_match(p, rng.standard_normal((4, 3)),
                                rng.standard_normal((3, 3)))

    def test_theta_zero_stretch(self, rng):
        sp = self.padded_problem(rng)
        self.assert_norms_match(sp.base, rng.standard_normal((5, 4)),
                                rng.standard_normal((4, 4)),
                                [(0.6, 10), (0.0, 40), (1.4, 60)])

    def test_large_start_with_small_limit(self, rng):
        # the start minus its own limit, a fixed point, scaled by 1e3, plus
        # 1e-3 times the start: the limit is 1e-3 times the start's, so
        # ||v|| falls from thousands to below 1, where the stop test's
        # scale is 1.  Both the split and the blocks round at about
        # eps ||v0||, which a start ten times larger would put above 1e-12
        # of that scale; squares of ||v0|| subtracted would err by about
        # sqrt(eps) ||v0||
        sp = self.padded_problem(rng)
        w0, v0 = rng.standard_normal((5, 4)), rng.standard_normal((4, 4))
        pred1 = predict_limits_alg1(sp, w0, v0)
        pred2 = predict_limits_alg2(sp, v0)
        stretches = [(1.0, 400)]
        big_w = 1e3 * (w0 - pred1.u_bar) + 1e-3 * w0
        big_v1 = 1e3 * (v0 - pred1.v_bar) + 1e-3 * v0
        big_v2 = 1e3 * (v0 - pred2.v_bar) + 1e-3 * v0
        worst = split_norm_errors(sp.base, None, big_v2, stretches)
        worst1 = split_norm_errors(sp.base, big_w, big_v1, stretches)
        stop = StopRule(tol=0.0, max_iters=400)
        for trace, start in [(run_alg2(sp.base, big_v2, 1.0, stop), big_v2),
                             (run_alg1(sp.base, big_w, big_v1, 1.0, stop),
                              big_v1)]:
            assert np.linalg.norm(trace.v) < 1e-2 < 1e3 < np.linalg.norm(start)
        assert max(*worst.values(), *worst1.values()) <= 1e-12, (worst,
                                                                  worst1)


class TestCallbackEngine:
    def test_callback_identity_matches_full_space_cone(self, rng):
        # the A = Id callback and U = H normal cone differ, but A = 0
        # callback (J = Id) must match the full-space cone exactly
        ps = preset("sequential", 3)
        p_cb = SplittingProblem(ps.pair, ps.dec,
                                [CallbackOp(lambda x, g: x) for _ in range(3)], 2)
        p_ns = SplittingProblem(ps.pair, ps.dec,
                                [NormalConeOp(full_space(2)) for _ in range(3)], 2)
        v0 = rng.standard_normal((2, 2))
        t_cb = run_alg2(p_cb, v0, 1.0, StopRule(max_iters=100))
        t_ns = run_alg2(p_ns, v0, 1.0, StopRule(max_iters=100))
        assert t_cb.k_final == t_ns.k_final
        assert np.abs(t_cb.v - t_ns.v).max() < 1e-13


class TestTraceSerialization:
    def test_csv_round_trip_exact(self, rng, tmp_path):
        sp = random_problem("malitsky_tam", 3, rng, d=2)
        v0 = rng.standard_normal((2, 2))
        trace = run_alg2(sp.base, v0, 0.7, StopRule(max_iters=25),
                         record_states=True)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path, sp.n, sp.d)
        records = trace_records_from_csv(path, sp.n, sp.d)
        assert len(records) == len(trace.iterations)
        for got, ref in zip(records, trace.iterations):
            assert got.k == ref.k
            assert got.residual == ref.residual
            assert np.array_equal(got.x, ref.x)
            assert np.array_equal(got.v, ref.v)

    def test_json_mirror(self, rng, tmp_path):
        sp = random_problem("sequential", 3, rng, d=2)
        trace = run_alg1(sp.base, np.zeros((3, 2)), rng.standard_normal((2, 2)),
                         1.0, StopRule(max_iters=10), record_states=True)
        path = tmp_path / "trace.json"
        engine.trace_to_json(trace, path)
        doc = json.loads(path.read_text())
        assert doc["iterations"] == trace.k_final
        assert len(doc["records"]) == len(trace.iterations)
        assert doc["records"][0]["w"] is not None


def reference_json(trace, path):
    """The trace document as ``json.dump(indent=2)`` writes it."""
    doc = {
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "iterations": trace.k_final,
        "records": [{"k": rec.k, "residual": rec.residual,
                     "x": rec.x.tolist(), "v": rec.v.tolist(),
                     "w": None if rec.w is None else rec.w.tolist()}
                    for rec in trace.iterations],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def reference_csv(trace, path, n, d):
    """The trace rows as ``csv.writer`` writes them, numbers at 17
    significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(engine.trace_header(n, d))
        for rec in trace.iterations:
            writer.writerow([str(rec.k), format(rec.residual, ".17g")]
                            + [format(x, ".17g") for x in rec.x.reshape(-1)]
                            + [format(x, ".17g") for x in rec.v.reshape(-1)])


def hand_built_trace(n, d, with_w, values):
    """Records whose entries cycle through ``values``."""
    def blocks(rows, start):
        return np.resize(np.roll(values, -start), (rows, d))

    records = [engine.TraceRecord(k + 1, blocks(n, k), blocks(n - 1, k + 1),
                                  float(values[k]),
                                  blocks(n, k + 2) if with_w else None)
               for k in range(len(values))]
    return engine.Trace(records[-1].x, records[-1].v,
                        np.array([r.residual for r in records]), False,
                        "max_iters", w=records[-1].w if with_w else None,
                        iterations=records)


class TestTraceWriterBytes:
    """The trace writers against the json and csv modules, byte for byte."""

    SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1, 1e16, 1e-5]

    def assert_same_bytes(self, trace, n, d, tmp_path):
        for suffix, write, reference in (
                (".json", engine.trace_to_json, reference_json),
                (".csv", lambda t, p: trace_to_csv(t, p, n, d),
                 lambda t, p: reference_csv(t, p, n, d))):
            got, ref = tmp_path / f"got{suffix}", tmp_path / f"ref{suffix}"
            write(trace, got)
            reference(trace, ref)
            assert got.read_bytes() == ref.read_bytes(), suffix

    def assert_run_same_bytes(self, p, expanded, rng, tmp_path):
        v0 = rng.standard_normal((p.n - 1, p.d))
        stop = StopRule(max_iters=40)
        trace = (run_alg1(p, rng.standard_normal((p.n, p.d)), v0, 1.3, stop,
                          record_states=True) if expanded
                 else run_alg2(p, v0, 0.7, stop, record_states=True))
        assert len(trace.iterations) > 1 and (trace.w is not None) == expanded
        self.assert_same_bytes(trace, p.n, p.d, tmp_path)

    @pytest.mark.parametrize("expanded", [False, True])
    @pytest.mark.parametrize("n,d", [(4, 3), (2, 1)])
    def test_runs(self, expanded, n, d, rng, tmp_path):
        p = (random_problem("malitsky_tam", n, rng, d=d, planted=True).base
             if d > 1 else drs_problem([[1.0]], [], d=1))
        self.assert_run_same_bytes(p, expanded, rng, tmp_path)

    @pytest.mark.parametrize("expanded", [False, True])
    def test_node_sweep_runs(self, expanded, rng, tmp_path):
        # the records of a run stepped on the node sweep, which no subspace
        # problem under the cap takes
        sp = random_problem("malitsky_tam", 4, rng, d=3, planted=True)
        self.assert_run_same_bytes(callback_twin(sp.base, sp.subspaces),
                                   expanded, rng, tmp_path)

    @pytest.mark.parametrize("with_w", [False, True])
    def test_empty_records(self, with_w, tmp_path):
        trace = engine.Trace(np.zeros((3, 2)), np.zeros((2, 2)), np.zeros(0),
                             False, "schedule",
                             w=np.zeros((3, 2)) if with_w else None)
        self.assert_same_bytes(trace, 3, 2, tmp_path)

    @pytest.mark.parametrize("with_w", [False, True])
    @pytest.mark.parametrize("n,d", [(2, 1), (3, 2)])
    def test_special_values(self, with_w, n, d, tmp_path):
        trace = hand_built_trace(n, d, with_w, self.SPECIAL)
        self.assert_same_bytes(trace, n, d, tmp_path)
