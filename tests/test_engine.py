import csv
import json
import sys

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
        assert (p._sweep_map is None) == callback
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


def sweep_map_or_twin(callback, rng):
    """A subspace problem, which steps on its sweep map, or its callback
    twin, which steps on the node sweep."""
    sp = random_problem("generalized_ryu", 3, rng, d=3, planted=True)
    return callback_twin(sp.base, sp.subspaces) if callback else sp.base


class TestBudget:
    """A run holds nothing sized by its budget: its cost and memory follow
    the iterations it takes."""

    @pytest.mark.parametrize("callback", [False, True])
    def test_huge_budget_converging_run(self, callback, rng):
        problem = sweep_map_or_twin(callback, rng)
        v0 = rng.standard_normal((2, 3))
        w0 = rng.standard_normal((3, 3))
        stop = StopRule(max_iters=10 ** 12)
        for trace in (run_alg2(problem, v0, 1.0, stop),
                      run_alg1(problem, w0, v0, 1.0, stop)):
            assert trace.converged and trace.residuals.base is None
        trace = run_alg2(problem, v0, [0.5] * 3, stop)
        assert trace.stop_reason == "schedule" and trace.k_final == 3
        assert (problem._sweep_map is None) == callback

    @pytest.mark.parametrize("callback", [False, True])
    def test_divergence_residuals_own_their_data(self, callback, rng):
        # a non-finite start diverges at once on either step
        problem = sweep_map_or_twin(callback, rng)
        v0 = np.array([[np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]])
        for run in (lambda: run_alg2(problem, v0, 1.0),
                    lambda: run_alg1(problem, np.zeros((3, 3)), v0, 1.0)):
            with pytest.raises(DivergenceError) as info, \
                    np.errstate(invalid="ignore"):
                run()
            assert info.value.iteration == 1
            assert info.value.residuals.base is None

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
        # normal cones take the cached sweep map
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
        assert p_ns._sweep_map is not None and p_cb._sweep_map is None

    @pytest.mark.parametrize("name,n", PRESET_CASES)
    def test_sweep_map_is_the_node_sweep(self, name, n, rng):
        sp = random_problem(name, n, rng, d=3)
        p = sp.base
        assert "_sweep_map" not in vars(p)  # set-up does not build it
        s = p._sweep_map
        assert s.shape == (n * 3, (n - 1) * 3)
        for _ in range(3):
            y = rng.standard_normal((n - 1, 3))
            x_ref, _ = dense_m_plus_a_solve(p, p.z @ y, np.zeros((n - 1, 3)))
            assert np.abs(s @ y.reshape(-1) - x_ref.reshape(-1)).max() < 1e-10

    def test_node_sweep_above_cap_reaches_predicted_limits(self, rng):
        n, d = 10, 64
        assert n * d * (n - 1) * d > engine.SWEEP_MAP_MAX_ENTRIES
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
        assert sp.base._sweep_map is None
        assert sp.u_common.dim == 1
        p2 = predict_limits_alg2(sp, v0)
        p1 = predict_limits_alg1(sp, w0, v0)
        assert t2.converged and t1.converged
        assert np.abs(t2.v - p2.v_bar).max() <= 1e-8
        assert np.abs(t2.x - p2.u_bar).max() <= 1e-8
        assert np.abs(t1.v - p1.v_bar).max() <= 1e-8
        assert np.abs(t1.w - p1.u_bar).max() <= 1e-8


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

    @pytest.mark.parametrize("expanded", [False, True])
    @pytest.mark.parametrize("n,d", [(4, 3), (2, 1)])
    def test_runs(self, expanded, n, d, rng, tmp_path):
        p = (random_problem("malitsky_tam", n, rng, d=d, planted=True).base
             if d > 1 else drs_problem([[1.0]], [], d=1))
        v0 = rng.standard_normal((n - 1, d))
        stop = StopRule(max_iters=40)
        trace = (run_alg1(p, rng.standard_normal((n, d)), v0, 1.3, stop,
                          record_states=True) if expanded
                 else run_alg2(p, v0, 0.7, stop, record_states=True))
        assert len(trace.iterations) > 1 and (trace.w is not None) == expanded
        self.assert_same_bytes(trace, n, d, tmp_path)

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
