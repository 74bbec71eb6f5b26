import math

import numpy as np
import pytest

from oneshot import (IterationState, LinearInverseProblem, Objective,
                     ProblemAssumptionError, RunConfig, RunStatus, SchemeKind,
                     SingularSystemError, cost, gradient, iteration_matrix_semi_implicit,
                     regularized_solution, run, run_columns, solve_adjoint_exact,
                     solve_state_exact, step)
from oneshot.bounds import bound_report_for
from oneshot import descent
from oneshot.descent import format_trace_csv
from conftest import make_objective, make_problem, stacked_and_kron_twin, trace_column


def reference_state(objective):
    sigma_ref = regularized_solution(objective)
    u_ref = solve_state_exact(objective.problem, sigma_ref)
    p_ref = solve_adjoint_exact(objective.problem, u_ref, objective.g)
    return IterationState(sigma_ref, u_ref, p_ref)


def random_state(problem, rng):
    return IterationState(rng.standard_normal(problem.n_sigma),
                          rng.standard_normal(problem.n_u),
                          rng.standard_normal(problem.n_u))


def controlled_objective(seed, alpha=0.0, n=6, smin=0.4):
    """B = 0 instance whose A has singular values in [smin, 1]."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    U, _, Vt = np.linalg.svd(G)
    H = U @ np.diag(np.linspace(smin, 1.0, n)) @ Vt
    problem = LinearInverseProblem(np.zeros((n, n)), np.eye(n), H, np.zeros(n))
    return Objective(problem, rng.standard_normal(n), alpha)


class TestUsualGD:
    def test_fixed_point_at_exact_solution(self):
        obj, sigma_ex = make_objective(30, alpha=0.0, exact_data=True)
        state = reference_state(obj)
        new = step(obj, state, SchemeKind.UsualGD, tau=0.1)
        assert np.allclose(new.sigma, state.sigma, atol=1e-12)

    def test_reduced_operator_form_without_source(self, rng):
        obj = make_objective(31, alpha=0.3, with_source=False)
        A = obj.problem.reduced_operator()
        state = random_state(obj.problem, rng)
        tau = 0.05
        new = step(obj, state, SchemeKind.UsualGD, tau)
        expected = state.sigma - tau * A.T @ (A @ state.sigma - obj.g) \
            - tau * obj.alpha * state.sigma
        assert np.linalg.norm(new.sigma - expected) <= 1e-12 * (1 + np.linalg.norm(expected))

    @pytest.mark.parametrize("alpha", [0.0, 1e-3])
    def test_threshold_both_sides(self, alpha, rng):
        obj = controlled_objective(32, alpha=alpha)
        A = obj.problem.reduced_operator()
        threshold = 2.0 / (np.linalg.norm(A, 2) ** 2 + alpha)
        sigma0 = rng.standard_normal(obj.problem.n_sigma)
        sigma_ref = regularized_solution(obj)

        def final_error(tau, steps=2000):
            state = IterationState(sigma0, np.zeros_like(obj.g), np.zeros_like(obj.g))
            for _ in range(steps):
                state = step(obj, state, SchemeKind.UsualGD, tau)
                if not np.isfinite(state.sigma).all():
                    return np.inf
            return np.linalg.norm(state.sigma - sigma_ref)

        start = np.linalg.norm(sigma0 - sigma_ref)
        assert final_error(0.99 * threshold) <= 1e-6 * start
        assert final_error(1.01 * threshold) >= 1e3 * start


class TestSemiImplicitGD:
    def test_matches_usual_at_alpha_zero(self, rng):
        obj = make_objective(33, alpha=0.0)
        state = random_state(obj.problem, rng)
        a = step(obj, state, SchemeKind.UsualGD, 0.07)
        b = step(obj, state, SchemeKind.SemiImplicitGD, 0.07)
        assert np.array_equal(a.sigma, b.sigma)

    def test_large_alpha_contracts_to_zero(self, rng):
        obj = make_objective(34, alpha=1e8, with_source=False)
        obj = Objective(obj.problem, np.zeros(obj.problem.n_g), 1e8)
        state = random_state(obj.problem, rng)
        new = step(obj, state, SchemeKind.SemiImplicitGD, tau=1.0)
        # sigma' = (sigma - tau M*p)/(1 + tau alpha): the whole update is
        # damped by 1e8, including the alpha-independent misfit term
        assert np.linalg.norm(new.sigma) <= 1e-5 * np.linalg.norm(state.sigma)
        u = solve_state_exact(obj.problem, state.sigma)
        p = solve_adjoint_exact(obj.problem, u, obj.g)
        expected = (state.sigma - obj.problem.M.T @ p) / (1.0 + 1e8)
        assert np.allclose(new.sigma, expected, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    def test_threshold_both_sides(self, alpha, rng):
        obj = controlled_objective(35, alpha=alpha)
        A = obj.problem.reduced_operator()
        rho = np.linalg.norm(A, 2) ** 2
        threshold = 2.0 / (rho - alpha)
        sigma0 = rng.standard_normal(obj.problem.n_sigma)
        sigma_ref = regularized_solution(obj)

        def final_error(tau, steps=4000):
            state = IterationState(sigma0, np.zeros_like(obj.g), np.zeros_like(obj.g))
            for _ in range(steps):
                state = step(obj, state, SchemeKind.SemiImplicitGD, tau)
                if not np.isfinite(state.sigma).all():
                    return np.inf
            return np.linalg.norm(state.sigma - sigma_ref)

        start = np.linalg.norm(sigma0 - sigma_ref)
        assert final_error(0.99 * threshold) <= 1e-6 * start
        assert final_error(1.01 * threshold) >= 1e2 * start


class TestKShot:
    def test_k1_is_single_sweep(self, rng):
        from oneshot import fixed_point_sweep
        obj = make_objective(36, alpha=0.02)
        state = random_state(obj.problem, rng)
        new = step(obj, state, SchemeKind.KStepOneShot, tau=0.05, k=1)
        sigma_new = state.sigma - 0.05 * (obj.problem.M.T @ state.p) \
            - 0.05 * obj.alpha * state.sigma
        u1, p1 = fixed_point_sweep(obj.problem, state, sigma_new, obj.g, 1)
        assert np.array_equal(new.sigma, sigma_new)
        assert np.array_equal(new.u, u1) and np.array_equal(new.p, p1)

    def test_large_k_approaches_usual_gd(self, rng):
        # from identical (sigma, u, p) with exact u, p, both schemes make the
        # usual gradient-descent update (gradient descent in its reduced
        # form A* (A sigma - g_tilde) = M* p, which test_problem checks
        # against the exact solves), and 500 sweeps with ||B|| = 0.3
        # reproduce the exact solves at the new sigma
        obj = make_objective(37, alpha=0.01, norm_b=0.3)
        sigma = rng.standard_normal(obj.problem.n_sigma)
        u = solve_state_exact(obj.problem, sigma)
        p = solve_adjoint_exact(obj.problem, u, obj.g)
        state = IterationState(sigma, u, p)
        tau = 0.02
        a = step(obj, state, SchemeKind.UsualGD, tau)
        b = step(obj, state, SchemeKind.KStepOneShot, tau, k=500)
        A = obj.problem.reduced_operator()
        Mp_reduced = A.T @ (A @ sigma - obj.shifted_data())
        assert np.array_equal(a.sigma, sigma - tau * Mp_reduced - tau * obj.alpha * sigma)
        Mp = obj.problem.M.T @ p
        assert np.array_equal(b.sigma, sigma - tau * Mp - tau * obj.alpha * sigma)
        u_new = solve_state_exact(obj.problem, b.sigma)
        p_new = solve_adjoint_exact(obj.problem, u_new, obj.g)
        assert np.linalg.norm(b.u - u_new) <= 1e-6
        assert np.linalg.norm(b.p - p_new) <= 1e-6

    def test_fixed_point_at_exact_solution(self):
        obj, sigma_ex = make_objective(38, alpha=0.0, exact_data=True)
        state = reference_state(obj)
        new = step(obj, state, SchemeKind.KStepOneShot, tau=0.1, k=3)
        assert np.allclose(new.sigma, state.sigma, atol=1e-12)
        assert np.allclose(new.u, state.u, atol=1e-12)
        assert np.allclose(new.p, state.p, atol=1e-12)


class TestSemiImplicitKShot:
    def test_matches_explicit_at_alpha_zero(self, rng):
        obj = make_objective(39, alpha=0.0)
        state = random_state(obj.problem, rng)
        a = step(obj, state, SchemeKind.KStepOneShot, 0.03, k=4)
        b = step(obj, state, SchemeKind.SemiImplicitKStepOneShot, 0.03, k=4)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.p, b.p)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_error_propagation_is_iteration_matrix(self, k, rng):
        obj = make_objective(40, alpha=0.02)
        tau = 0.04
        ref = reference_state(obj)
        state = IterationState(ref.sigma + rng.standard_normal(obj.problem.n_sigma),
                               ref.u + rng.standard_normal(obj.problem.n_u),
                               ref.p + rng.standard_normal(obj.problem.n_u))
        new = step(obj, state, SchemeKind.SemiImplicitKStepOneShot, tau, k)
        mat = iteration_matrix_semi_implicit(obj.problem, tau, obj.alpha, k)
        err_in = np.concatenate([state.p - ref.p, state.u - ref.u, state.sigma - ref.sigma])
        err_out = np.concatenate([new.p - ref.p, new.u - ref.u, new.sigma - ref.sigma])
        predicted = mat @ err_in
        assert np.linalg.norm(err_out - predicted) <= 1e-10 * np.linalg.norm(err_out)

    def test_k1_closed_form(self, rng):
        # the rewritten k = 1 recursion, with the sigma update substituted in
        obj = make_objective(41, alpha=0.3)
        B, M, H, F = (obj.problem.B, obj.problem.M, obj.problem.H, obj.problem.F)
        state = random_state(obj.problem, rng)
        tau, d = 0.06, 1.0 + 0.06 * obj.alpha
        new = step(obj, state, SchemeKind.SemiImplicitKStepOneShot, tau, k=1)
        sigma_exp = state.sigma / d - (tau / d) * (M.T @ state.p)
        u_exp = B @ state.u + (M @ state.sigma) / d - (tau / d) * (M @ (M.T @ state.p)) + F
        p_exp = B.T @ state.p + H.T @ (H @ state.u) - H.T @ obj.g
        assert np.allclose(new.sigma, sigma_exp, atol=1e-13)
        assert np.allclose(new.u, u_exp, atol=1e-12)
        assert np.allclose(new.p, p_exp, atol=1e-12)

    def test_b_zero_k2_reduces_to_semi_implicit_gd(self, rng):
        # with B = 0 and k >= 2 the sweeps reproduce the exact solves at
        # the new sigma, so from the second iterate on the sigma sequence
        # is exactly the semi-implicit gradient-descent one
        obj = make_objective(42, alpha=0.07, norm_b=0.0)
        state = IterationState(rng.standard_normal(obj.problem.n_sigma),
                               np.zeros(obj.problem.n_u), np.zeros(obj.problem.n_u))
        tau = 0.02
        state = step(obj, state, SchemeKind.SemiImplicitKStepOneShot, tau, k=2)  # warm-up
        shadow = state
        for _ in range(10):
            state = step(obj, state, SchemeKind.SemiImplicitKStepOneShot, tau, k=2)
            shadow = step(obj, shadow, SchemeKind.SemiImplicitGD, tau)
            assert np.allclose(state.sigma, shadow.sigma, atol=1e-13)

    def test_whole_run_identical_at_alpha_zero(self, rng):
        obj = make_objective(42, alpha=0.0)
        common = dict(tau=0.02, k=2, max_outer=25,
                      sigma0=rng.standard_normal(obj.problem.n_sigma))
        ta = run(obj, RunConfig(scheme=SchemeKind.KStepOneShot, **common))
        tb = run(obj, RunConfig(scheme=SchemeKind.SemiImplicitKStepOneShot, **common))
        assert np.array_equal(ta.final_state.sigma, tb.final_state.sigma)


class TestRun:
    def test_monotone_cost_decrease(self, rng):
        obj = make_objective(43, alpha=0.02)
        A = obj.problem.reduced_operator()
        tau = 1.0 / (np.linalg.norm(A, 2) ** 2 + obj.alpha)
        trace = run(obj, RunConfig(scheme=SchemeKind.UsualGD, tau=tau, max_outer=200,
                                   sigma0=rng.standard_normal(obj.problem.n_sigma)))
        costs, grads = trace.cost, trace.grad_norm
        for i in range(len(costs) - 1):
            if grads[i] > 1e-12:
                assert costs[i + 1] < costs[i]

    def test_semi_implicit_one_shot_below_bound_converges(self):
        obj = make_objective(44, alpha=1e-3)
        report = bound_report_for(obj.problem, alpha=obj.alpha, k=1)
        trace = run(obj, RunConfig(scheme=SchemeKind.SemiImplicitKStepOneShot,
                                   tau=report.tau_max, k=1, max_outer=60000,
                                   tol_step=1e-14))
        assert trace.status in (RunStatus.TOL_STEP, RunStatus.MAX_OUTER)
        assert trace.final_rel_err <= 1e-8

    def test_huge_tau_flags_divergence(self):
        obj = make_objective(45)
        A = obj.problem.reduced_operator()
        tau = 1e3 / np.linalg.norm(A, 2) ** 2
        trace = run(obj, RunConfig(scheme=SchemeKind.UsualGD, tau=tau, max_outer=5000))
        assert trace.status is RunStatus.DIVERGED
        assert trace.diverged

    def test_deterministic(self, rng):
        obj = make_objective(46, alpha=1e-2)
        cfg = RunConfig(scheme=SchemeKind.SemiImplicitKStepOneShot, tau=0.01, k=3,
                        max_outer=40, sigma0=rng.standard_normal(obj.problem.n_sigma))
        ta, tb = run(obj, cfg), run(obj, cfg)
        assert format_trace_csv(ta) == format_trace_csv(tb)
        assert np.array_equal(ta.final_state.sigma, tb.final_state.sigma)

    def test_trace_contents(self):
        obj = make_objective(47)
        trace = run(obj, RunConfig(scheme=SchemeKind.KStepOneShot, tau=1e-3, k=4,
                                   max_outer=7))
        assert trace.n_outer == 7
        assert trace_column(trace, "n") == [str(n) for n in range(8)]
        assert trace_column(trace, "acc_inner") == [str(4 * n) for n in range(8)]
        assert trace.status is RunStatus.MAX_OUTER
        text = format_trace_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "n,cost,grad_norm,rel_err_sigma,acc_inner,wall_ms,status"
        assert len(lines) == 9
        assert all(line.endswith(",max_outer") for line in lines[1:])
        # the wall_ms column stays in the format and is always 0
        assert all(line.split(",")[5] == "0" for line in lines[1:])

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("scheme", [SchemeKind.KStepOneShot, SchemeKind.SemiImplicitGD])
    def test_trace_columns_are_cost_and_gradient_norm(self, stacked, scheme):
        problem = stacked_and_kron_twin(50)[0] if stacked else make_problem(50)
        obj = Objective(problem, np.random.default_rng(51).standard_normal(problem.n_g), 0.01)
        tau = 0.5 / np.linalg.norm(problem.reduced_operator(), 2) ** 2
        trace = run(obj, RunConfig(scheme=scheme, tau=tau, k=2, max_outer=15))
        assert trace.n_outer == 15
        state = IterationState.zero(problem)
        sigma_ref = regularized_solution(obj)
        for n in range(16):
            if n:
                state = step(obj, state, scheme, tau, 2)
            assert trace.cost[n] == cost(obj, state.sigma)
            assert trace.grad_norm[n] == np.linalg.norm(gradient(obj, state.sigma))
            assert trace.rel_err_sigma[n] == \
                np.linalg.norm(state.sigma - sigma_ref) / np.linalg.norm(sigma_ref)

    def test_gd_trace_counts_outer_iterations(self):
        obj = make_objective(48)
        trace = run(obj, RunConfig(scheme=SchemeKind.SemiImplicitGD, tau=1e-3, k=9,
                                   max_outer=5))
        assert trace_column(trace, "acc_inner") == [str(n) for n in range(6)]

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("scheme", [SchemeKind.UsualGD, SchemeKind.SemiImplicitGD])
    def test_gd_final_state_is_exact(self, stacked, scheme):
        # gradient descent carries u, p unchanged; run solves once at the end
        problem = stacked_and_kron_twin(52)[0] if stacked else make_problem(52)
        obj = Objective(problem, np.random.default_rng(53).standard_normal(problem.n_g), 0.01)
        tau = 0.5 / np.linalg.norm(problem.reduced_operator(), 2) ** 2
        trace = run(obj, RunConfig(scheme=scheme, tau=tau, max_outer=12))
        final = trace.final_state
        u = solve_state_exact(problem, final.sigma)
        assert np.array_equal(final.u, u)
        assert np.array_equal(final.p, solve_adjoint_exact(problem, u, obj.g))

    @pytest.mark.parametrize("scheme", [SchemeKind.UsualGD, SchemeKind.SemiImplicitGD])
    def test_gd_non_finite_sigma_ends_diverged(self, scheme):
        # tau * M* p overflows on the first step, so no exact solve is tried
        obj = controlled_objective(54)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(obj, RunConfig(scheme=scheme, tau=1e300, max_outer=5,
                                       sigma0=np.full(obj.problem.n_sigma, 1e10)))
        assert trace.status is RunStatus.DIVERGED
        assert trace.n_outer == 1 and trace.final_cost == np.inf
        assert trace.final_rel_err is None and trace_column(trace, "rel_err_sigma")[1] == ""
        assert not np.isfinite(trace.final_state.sigma).all()
        assert not trace.final_state.u.any() and not trace.final_state.p.any()

    def test_gd_diverged_sigma_too_large_to_solve(self):
        # A = 2e-300 I barely moves sigma, which stays finite while the cost
        # overflows, and M sigma = 2 sigma overflows: the final solve is skipped
        n = 4
        problem = LinearInverseProblem(np.zeros((n, n)), 2.0 * np.eye(n), 1e-300 * np.eye(n),
                                       np.zeros(n))
        obj = Objective(problem, np.zeros(n))
        with np.errstate(over="ignore", invalid="ignore"):
            trace = run(obj, RunConfig(scheme=SchemeKind.UsualGD, tau=1.0, max_outer=5,
                                       sigma0=np.full(n, 1e308)))
        assert trace.status is RunStatus.DIVERGED
        assert np.isfinite(trace.final_state.sigma).all()
        assert not trace.final_state.u.any() and not trace.final_state.p.any()

    def test_tol_cost_stop(self):
        obj, sigma_ex = make_objective(49, alpha=0.0, exact_data=True)
        A = obj.problem.reduced_operator()
        tau = 1.0 / np.linalg.norm(A, 2) ** 2
        trace = run(obj, RunConfig(scheme=SchemeKind.UsualGD, tau=tau,
                                   max_outer=100000, tol_cost=1e-12))
        assert trace.status is RunStatus.TOL_COST
        assert trace.final_cost <= 1e-12

    def test_a_failed_reference_solve_leaves_every_error_missing(self, monkeypatch):
        def singular(objective):
            raise SingularSystemError("singular normal equations")

        monkeypatch.setattr(descent, "regularized_solution", singular)
        trace = run(make_objective(47), RunConfig(scheme=SchemeKind.KStepOneShot, tau=1e-3,
                                                  k=4, max_outer=7))
        assert trace.rel_err_sigma is None and trace.final_rel_err is None
        assert trace_column(trace, "rel_err_sigma") == [""] * 8

    def test_concurrent_runs_share_objective(self, rng):
        # runs are pure functions over immutable objectives: concurrent
        # execution must reproduce the serial traces exactly
        from concurrent.futures import ThreadPoolExecutor
        obj = make_objective(90, alpha=1e-3)
        configs = [RunConfig(scheme=SchemeKind.SemiImplicitKStepOneShot,
                             tau=0.01 * (i + 1), k=2, max_outer=30,
                             sigma0=rng.standard_normal(obj.problem.n_sigma))
                   for i in range(4)]
        serial = [run(obj, cfg) for cfg in configs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda cfg: run(obj, cfg), configs))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.final_state.sigma, b.final_state.sigma)
            assert np.array_equal(a.cost, b.cost)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RunConfig(scheme=SchemeKind.UsualGD, tau=0.0)
        with pytest.raises(ValueError):
            RunConfig(scheme=SchemeKind.UsualGD, tau=0.1, k=0)
        with pytest.raises(ValueError):
            RunConfig(scheme="NoSuchScheme", tau=0.1)

    @pytest.mark.parametrize("field", ["k", "max_outer"])
    @pytest.mark.parametrize("value", [True, False, 2.5, 3.0, 0, "3"])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            RunConfig(**{"scheme": SchemeKind.KStepOneShot, "tau": 0.1, field: value})

    def test_numpy_integer_counts_become_int(self):
        config = RunConfig(scheme=SchemeKind.KStepOneShot, tau=0.1, k=np.int64(3),
                           max_outer=np.int32(5))
        assert (config.k, config.max_outer) == (3, 5)
        assert type(config.k) is int and type(config.max_outer) is int

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    @pytest.mark.parametrize("start, expected", [
        ({"u0": np.zeros(7), "p0": np.zeros(7)}, "expected \\(8,\\)"),
        ({"sigma0": np.zeros(2)}, "sigma has shape \\(2,\\), expected \\(3,\\)"),
        ({"sigma0": np.zeros(4)}, "sigma has shape \\(4,\\), expected \\(3,\\)")],
        ids=["u0_p0", "sigma0_2", "sigma0_4"])
    def test_start_vectors_of_wrong_length_rejected(self, scheme, start, expected):
        obj = make_objective(40)
        assert (obj.problem.n_sigma, obj.problem.n_u) == (3, 8)
        config = RunConfig(scheme=scheme, tau=0.01, k=2, max_outer=3, **start)
        with pytest.raises(ProblemAssumptionError, match=expected):
            run(obj, config)
        # and as the second column of a batch
        with pytest.raises(ProblemAssumptionError, match=expected):
            run_columns([(obj, RunConfig(scheme=scheme, tau=0.01, max_outer=3)), (obj, config)])

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    @pytest.mark.parametrize("n_sigma, n_u, expected", [(3, 3, "\\(8,\\)"), (6, 8, "\\(3,\\)"),
                                                        (6, 3, "expected")])
    def test_step_rejects_a_state_that_does_not_fit(self, scheme, n_sigma, n_u, expected):
        obj = make_objective(40)
        assert (obj.problem.n_sigma, obj.problem.n_u) == (3, 8)
        state = IterationState(np.zeros(n_sigma), np.zeros(n_u), np.zeros(n_u))
        with pytest.raises(ProblemAssumptionError, match=expected):
            step(obj, state, scheme, 0.01, k=2)

    @pytest.mark.parametrize("field", ["tau", "tol_cost", "tol_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_config_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            RunConfig(**{"scheme": SchemeKind.UsualGD, "tau": 0.1, field: value})
