import dataclasses
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from oneshot import (IterationState, LinearInverseProblem, Objective,
                     ProblemAssumptionError, RunConfig, SchemeKind,
                     SingularSystemError, bound_report_for, certify, cost,
                     fixed_point_sweep, gradient, regularized_solution, run,
                     solve_adjoint_exact, solve_state_exact)
from oneshot import problem as problem_module
from oneshot.problem import (_dense_k_step, contracts, from_block_columns, k_step_operators,
                             spectral_radius, sweeps, to_block_columns)
from oneshot.spectral import eigen_equation_residual
from conftest import make_objective, make_problem, spy, stacked_and_kron_twin


def fixed_point_oracle(problem, rhs_op, start, steps):
    """Plain fixed-point iteration x <- op(x) run to stagnation."""
    x = start
    for _ in range(steps):
        x = rhs_op(x)
    return x


class TestSolveStateExact:
    def test_identity_case(self):
        p = LinearInverseProblem(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros(2))
        assert np.allclose(solve_state_exact(p, [3.0, -1.0]), [3.0, -1.0], atol=1e-14)

    def test_geometric_series(self):
        p = LinearInverseProblem(0.5 * np.eye(2), np.eye(2), np.eye(2), np.zeros(2))
        assert np.allclose(solve_state_exact(p, [1.0, 1.0]), [2.0, 2.0], atol=1e-13)

    def test_matches_fixed_point_iteration(self, rng):
        p = make_problem(3, n_u=8)
        sigma = rng.standard_normal(3)
        drive = p.M @ sigma + p.F
        u_fp = fixed_point_oracle(p, lambda u: p.B @ u + drive, np.zeros(8), 10_000)
        u = solve_state_exact(p, sigma)
        assert np.linalg.norm(u - u_fp) <= 1e-8
        assert np.linalg.norm((np.eye(8) - p.B) @ u - drive) <= 1e-10 * (1 + np.linalg.norm(drive))

    def test_dimension_mismatch(self):
        p = make_problem(0)
        with pytest.raises(ProblemAssumptionError):
            solve_state_exact(p, np.zeros(p.n_sigma + 1))


class TestSolveAdjointExact:
    def test_zero_residual_gives_zero_adjoint(self, rng):
        p = make_problem(1)
        sigma = rng.standard_normal(p.n_sigma)
        u = solve_state_exact(p, sigma)
        g = p.H @ u
        assert np.linalg.norm(solve_adjoint_exact(p, u, g)) <= 1e-12

    def test_b_zero_closed_form(self, rng):
        p = make_problem(2, norm_b=0.0)
        u = rng.standard_normal(p.n_u)
        g = rng.standard_normal(p.n_g)
        expected = p.H.T @ (p.H @ u - g)
        assert np.allclose(solve_adjoint_exact(p, u, g), expected, atol=1e-13)

    def test_matches_fixed_point_iteration(self, rng):
        p = make_problem(4, n_u=8)
        u = rng.standard_normal(8)
        g = rng.standard_normal(p.n_g)
        rhs = p.H.T @ (p.H @ u - g)
        p_fp = fixed_point_oracle(p, lambda q: p.B.T @ q + rhs, np.zeros(8), 10_000)
        assert np.linalg.norm(solve_adjoint_exact(p, u, g) - p_fp) <= 1e-8


class TestSolveErrors:
    """Exact solves map a non-finite right-hand side to SingularSystemError."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_finite_input(self, bad, stacked):
        problem = stacked_and_kron_twin(49)[0] if stacked else make_problem(7)
        sigma = np.ones(problem.n_sigma)
        sigma[1] = bad
        u = np.ones(problem.n_u)
        u[2] = bad
        g = np.zeros(problem.n_g)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(SingularSystemError):
                solve_state_exact(problem, sigma)
            with pytest.raises(SingularSystemError):
                solve_adjoint_exact(problem, u, g)


class TestFixedPointSweep:
    def test_single_sweep_b_zero(self, rng):
        p = make_problem(5, norm_b=0.0, with_source=False)
        state = IterationState(rng.standard_normal(p.n_sigma),
                               rng.standard_normal(p.n_u), rng.standard_normal(p.n_u))
        sigma_new = rng.standard_normal(p.n_sigma)
        g = rng.standard_normal(p.n_g)
        u1, p1 = fixed_point_sweep(p, state, sigma_new, g, k=1)
        assert np.allclose(u1, p.M @ sigma_new, atol=1e-14)
        assert np.allclose(p1, p.H.T @ (p.H @ state.u - g), atol=1e-14)

    def test_two_sweeps_compose(self, rng):
        p = make_problem(6)
        state = IterationState(rng.standard_normal(p.n_sigma),
                               rng.standard_normal(p.n_u), rng.standard_normal(p.n_u))
        sigma_new = rng.standard_normal(p.n_sigma)
        g = rng.standard_normal(p.n_g)
        u2, p2 = fixed_point_sweep(p, state, sigma_new, g, k=2)
        u1, p1 = fixed_point_sweep(p, state, sigma_new, g, k=1)
        mid = IterationState(sigma_new, u1, p1)
        u2b, p2b = fixed_point_sweep(p, mid, sigma_new, g, k=1)
        assert np.array_equal(u2, u2b) and np.array_equal(p2, p2b)

    def test_many_sweeps_reach_exact_solves(self, rng):
        p = make_problem(7, norm_b=0.3)
        state = IterationState(rng.standard_normal(p.n_sigma),
                               rng.standard_normal(p.n_u), rng.standard_normal(p.n_u))
        sigma_new = rng.standard_normal(p.n_sigma)
        g = rng.standard_normal(p.n_g)
        u_k, p_k = fixed_point_sweep(p, state, sigma_new, g, k=500)
        u_star = solve_state_exact(p, sigma_new)
        p_star = solve_adjoint_exact(p, u_star, g)
        assert np.linalg.norm(u_k - u_star) <= 1e-8
        assert np.linalg.norm(p_k - p_star) <= 1e-8

    def test_linear_convergence_rate(self, rng):
        # error ratio between successive sweeps approaches rho(B); measure
        # in the asymptotic regime but well above the round-off floor
        p = make_problem(8, norm_b=0.6)
        sigma = rng.standard_normal(p.n_sigma)
        u_star = solve_state_exact(p, sigma)
        drive = p.M @ sigma + p.F
        u = np.zeros(p.n_u)
        errors = []
        for _ in range(200):
            u = p.B @ u + drive
            errors.append(np.linalg.norm(u - u_star))
        floor = 1e-11 * errors[0]
        ratios = [b / a for a, b in zip(errors[10:], errors[11:]) if a > floor]
        assert ratios and max(ratios) <= p.rho_B + 0.05

    @pytest.mark.parametrize("k", [True, False, 2.5, 3.0, 0, -1, "3", None])
    def test_rejects_non_integer_k(self, k):
        p = make_problem(8)
        state = IterationState.zero(p)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            fixed_point_sweep(p, state, np.zeros(p.n_sigma), np.zeros(p.n_g), k)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            k_step_operators(p, k)
        assert "_k_step" not in p.__dict__

    def test_numpy_integer_k_shares_the_int_cache_entry(self):
        p = make_problem(8)
        ops = k_step_operators(p, np.int64(3))
        assert ops.k == 3 and type(ops.k) is int and k_step_operators(p, 3) is ops

    @pytest.mark.parametrize("n", [7, 9, 0])
    def test_rejects_state_of_wrong_length(self, n):
        p = make_problem(8)
        state = IterationState(np.zeros(p.n_sigma), np.zeros(n), np.zeros(n))
        with pytest.raises(ProblemAssumptionError, match="expected \\(8,\\)"):
            fixed_point_sweep(p, state, np.zeros(p.n_sigma), np.zeros(p.n_g), 1)
        with pytest.raises(ProblemAssumptionError, match="expected \\(8,\\)"):
            IterationState.zero(p, u0=np.zeros(n), p0=np.zeros(n))

    @pytest.mark.parametrize("kind", ["dense", "diagonal"])
    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_a_stack_of_no_columns_sweeps_to_no_columns(self, kind, k):
        # k <= 2 sweeps in a loop, k >= 3 in closed form on either block
        p = make_problem(8)
        if kind == "diagonal":
            p = LinearInverseProblem(np.diag(np.linspace(-0.5, 0.5, p.n_u)), p.M, p.H, p.F)
            assert p.B_diag is not None
        empty = np.zeros((0, p.n_u))
        u_k, p_k = fixed_point_sweep(p, SimpleNamespace(u=empty, p=empty),
                                     np.zeros((0, p.n_sigma)), np.zeros((0, p.n_g)), k)
        assert u_k.shape == p_k.shape == (0, p.n_u)


def loop_sweeps(problem, u, p, drive, g, k):
    """k coupled sweeps on the dense kron(I, B), kron(I, H): the oracle of ``sweeps``."""
    eye = np.eye(problem.n_blocks)
    B, H = np.kron(eye, problem.B), np.kron(eye, problem.H)
    for _ in range(k):
        u, p = B @ u + drive, B.T @ p + H.T @ (H @ u - g)
    return u, p


class TestOperatorForm:
    """``sweeps`` in closed form with the k-step operators, against the loop."""

    @staticmethod
    def problems():
        return {"dense": make_problem(9), "stacked": stacked_and_kron_twin(10)[0]}

    @staticmethod
    def start(problem, data, seed=11):
        """(u, p, sigma, g) and the loop's drive; zero data is the linear part."""
        rng = np.random.default_rng(seed)
        u, p = rng.standard_normal(problem.n_u), rng.standard_normal(problem.n_u)
        sigma = rng.standard_normal(problem.n_sigma)
        if data == "array":
            return u, p, sigma, rng.standard_normal(problem.n_g), problem.M @ sigma + problem.F
        return u, p, sigma, 0.0, problem.M @ sigma

    @pytest.mark.parametrize("kind", ["dense", "stacked"])
    @pytest.mark.parametrize("data", ["array", "zero"])
    def test_matches_loop(self, kind, data):
        # k = 1, 2 loop, k = 3, 10 take the closed form
        problem = self.problems()[kind]
        u, p, sigma, g, drive = self.start(problem, data)
        for k in (1, 2, 3, 10):
            for ours, oracle in zip(sweeps(problem, u, p, sigma, g, k),
                                    loop_sweeps(problem, u, p, drive, g, k)):
                assert np.linalg.norm(ours - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("kind", ["dense", "stacked"])
    def test_no_operators_below_k3(self, kind, monkeypatch):
        problem = self.problems()[kind]
        built = spy(monkeypatch, problem_module, "k_step_operators")
        obj = Objective(problem, np.ones(problem.n_g))
        for k in (1, 2):
            run(obj, RunConfig(scheme=SchemeKind.SemiImplicitKStepOneShot, tau=0.01, k=k,
                               max_outer=3))
        assert built == [] and "_k_step" not in problem.__dict__
        run(obj, RunConfig(scheme=SchemeKind.KStepOneShot, tau=0.01, k=3, max_outer=3))
        # one stack steps the column, so its operators are asked for once
        assert len(built) == 1 and set(problem.__dict__["_k_step"]) == {3}

    @pytest.mark.parametrize("kind", ["dense", "stacked"])
    @pytest.mark.parametrize("data", ["array", "zero"])
    def test_closed_form_reads_folded_operators_only(self, kind, data):
        # NaN copies of T_k and X_k in the cache: the closed form reads Bk, U,
        # HT, W and c only, so the result stays finite and matches the loop
        problem = self.problems()[kind]
        u, p, sigma, g, drive = self.start(problem, data)
        for k in (3, 10):
            ops = k_step_operators(problem, k)
            problem.__dict__["_k_step"][k] = dataclasses.replace(
                ops, T=np.full_like(ops.T, np.nan), X=np.full_like(ops.X, np.nan))
            for ours, oracle in zip(sweeps(problem, u, p, sigma, g, k),
                                    loop_sweeps(problem, u, p, drive, g, k)):
                assert np.linalg.norm(ours - oracle) <= 1e-12 * np.linalg.norm(oracle)

    @pytest.mark.parametrize("kind", ["dense", "stacked"])
    def test_folded_drive_operators(self, kind):
        problem = self.problems()[kind]
        eye = np.eye(problem.n_blocks)
        for k in (1, 2, 3, 10):
            ops = k_step_operators(problem, k)
            T, X = np.kron(eye, ops.T), np.kron(eye, ops.X)
            assert ops.W.shape == (2 * problem.n_u, problem.n_sigma)
            assert_rel(ops.W, np.vstack([T @ problem.M, X @ problem.M]))
            assert_rel(ops.c, np.concatenate([T @ problem.F, X @ problem.F]))

    def test_diagonal_block_builds_the_dense_recurrence_elementwise(self):
        # tolerance 0: a product with a diagonal factor adds only exact zeros
        # to each entry's one term, and B^k takes matrix_power's binary
        # powering, so every entry is bit-equal to the dense build's
        rng = np.random.default_rng(14)
        n, n_blocks = 9, 2
        lam = rng.uniform(-0.8, 0.8, n)
        problem = LinearInverseProblem(np.diag(lam), rng.standard_normal((n_blocks * n, 3)),
                                       rng.standard_normal((4, n)),
                                       rng.standard_normal(n_blocks * n), n_blocks=n_blocks)
        assert np.array_equal(problem.B_diag, lam)
        for k in (1, 2, 3, 10):
            ops = k_step_operators(problem, k)
            for ours, dense in zip((ops.T, ops.U, ops.X, ops.Bk),
                                   _dense_k_step(problem.B, problem.H, k)):
                assert np.array_equal(ours, dense)

    def test_concurrent_builds_share_one_object(self):
        problem = make_problem(13, n_u=40)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                built = list(pool.map(lambda _: k_step_operators(problem, 3), range(32),
                                      timeout=60))
        finally:
            sys.setswitchinterval(switch)
        assert all(ops is built[0] for ops in built)

    def test_operators_cached_and_read_only(self):
        problem = make_problem(12)
        ops = k_step_operators(problem, 3)
        assert k_step_operators(problem, 3) is ops
        assert k_step_operators(problem, 2) is not ops
        for name in ("T", "U", "X", "Bk", "HT", "W", "c"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ops, name)[(0,) * getattr(ops, name).ndim] = 1.0


class TestCostAndGradient:
    def test_zero_cost_at_exact_data(self):
        obj, sigma_ex = make_objective(10, alpha=0.0, exact_data=True)
        assert cost(obj, sigma_ex) <= 1e-18

    def test_zero_sigma_no_source(self):
        obj = make_objective(11, alpha=0.0, with_source=False)
        assert np.isclose(cost(obj, np.zeros(obj.problem.n_sigma)),
                          0.5 * float(obj.g @ obj.g), rtol=1e-13)

    @staticmethod
    def exact_forms(obj, sigma):
        """Oracle: 1/2 ||H u(sigma) - g||^2 + alpha/2 ||sigma||^2 and M* p + alpha sigma
        from exact state and adjoint solves."""
        problem = obj.problem
        u = solve_state_exact(problem, sigma)
        residual = problem.apply(problem.H, u) - obj.g
        J = 0.5 * float(residual @ residual) + 0.5 * obj.alpha * float(sigma @ sigma)
        p = solve_adjoint_exact(problem, u, obj.g)
        return J, problem.M.T @ p + obj.alpha * sigma

    @staticmethod
    def objectives():
        block, _ = stacked_and_kron_twin(51)
        g = np.random.default_rng(52).standard_normal(block.n_g)
        return [make_objective(12, alpha=0.37),
                make_objective(13, alpha=0.37, with_source=False),
                Objective(block, g, 0.37)]

    def test_reduced_operator_form(self, rng):
        for obj in self.objectives():
            sigma = rng.standard_normal(obj.problem.n_sigma)
            assert np.isclose(cost(obj, sigma), self.exact_forms(obj, sigma)[0], rtol=1e-12)

    def test_gradient_vanishes_at_minimizer(self):
        obj = make_objective(13, alpha=1e-3)
        sigma_ref = regularized_solution(obj)
        assert np.linalg.norm(gradient(obj, sigma_ref)) <= 1e-8

    def test_gradient_zero_at_exact_solution(self):
        obj, sigma_ex = make_objective(14, alpha=0.0, exact_data=True)
        assert np.linalg.norm(gradient(obj, sigma_ex)) <= 1e-10

    def test_gradient_matches_finite_differences(self, rng):
        obj = make_objective(15, alpha=0.05)
        sigma = rng.standard_normal(obj.problem.n_sigma)
        step = 1e-5
        fd = np.array([
            (cost(obj, sigma + step * e) - cost(obj, sigma - step * e)) / (2 * step)
            for e in np.eye(obj.problem.n_sigma)])
        grad = gradient(obj, sigma)
        assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_gradient_reduced_form(self, rng):
        for n_u in (8, 16, 32):
            objs = [make_objective(16 + n_u, alpha=0.01, n_u=n_u, n_sigma=4, n_g=6),
                    make_objective(16 + n_u, alpha=0.01, n_u=n_u, n_sigma=4, n_g=6,
                                   with_source=False)]
            for obj in objs + self.objectives()[2:]:
                sigma = rng.standard_normal(obj.problem.n_sigma)
                expected = self.exact_forms(obj, sigma)[1]
                assert np.linalg.norm(gradient(obj, sigma) - expected) <= 1e-10 * (
                    1 + np.linalg.norm(expected))

    def test_no_solves_once_reduced_operator_is_cached(self, monkeypatch):
        objectives = self.objectives()
        for obj in objectives:
            obj.shifted_data()  # A is cached by the constructor, this caches the offset
        calls = []
        solve = LinearInverseProblem.solve_I_minus_B
        monkeypatch.setattr(LinearInverseProblem, "solve_I_minus_B",
                            lambda *args, **kw: calls.append(1) or solve(*args, **kw))
        for obj in objectives:
            sigma = np.ones(obj.problem.n_sigma)
            cost(obj, sigma), gradient(obj, sigma)
        assert calls == []

    @pytest.mark.parametrize("shape", ["long", "column"])
    def test_rejects_wrong_sigma_shape(self, shape):
        obj = make_objective(18, alpha=0.1)
        n = obj.problem.n_sigma
        sigma = np.ones(n + 1) if shape == "long" else np.ones((n, 1))
        for fn in (cost, gradient):
            with pytest.raises(ProblemAssumptionError, match="sigma has shape"):
                fn(obj, sigma)

    def test_cost_is_quadratic(self, rng):
        obj = make_objective(17, alpha=0.2)
        A = obj.problem.reduced_operator()
        n = obj.problem.n_sigma
        hess = A.T @ A + obj.alpha * np.eye(n)
        sigma = rng.standard_normal(n)
        d = rng.standard_normal(n)
        lhs = cost(obj, sigma + d) - 2 * cost(obj, sigma) + cost(obj, sigma - d)
        assert np.isclose(lhs, d @ hess @ d, rtol=1e-8)


class TestReducedOperator:
    def test_b_zero(self):
        p = make_problem(20, norm_b=0.0)
        assert np.allclose(p.reduced_operator(), p.H @ p.M, atol=1e-13)

    def test_scaled_identity(self):
        p = LinearInverseProblem(0.5 * np.eye(3), np.eye(3), np.eye(3), np.zeros(3))
        assert np.allclose(p.reduced_operator(), 2 * np.eye(3), atol=1e-13)

    def test_consistency_with_state_solve(self, rng):
        p = make_problem(21)
        sigma = rng.standard_normal(p.n_sigma)
        lhs = p.reduced_operator() @ sigma + p.data_offset()
        rhs = p.H @ solve_state_exact(p, sigma)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))


class TestRegularizedSolution:
    def test_exact_data_recovery(self):
        obj, sigma_ex = make_objective(22, alpha=0.0, exact_data=True)
        assert np.linalg.norm(regularized_solution(obj) - sigma_ex) <= 1e-8

    def test_zero_data_zero_solution(self):
        p = make_problem(23, with_source=False)
        for alpha in (0.0, 0.1, 10.0):
            obj = Objective(p, np.zeros(p.n_g), alpha)
            assert np.linalg.norm(regularized_solution(obj)) <= 1e-12

    def test_large_alpha_bound(self):
        obj = make_objective(24)
        A = obj.problem.reduced_operator()
        alpha = 1e6 * np.linalg.norm(A, 2) ** 2
        big = Objective(obj.problem, obj.g, alpha)
        sol = regularized_solution(big)
        bound = np.linalg.norm(A.T @ big.shifted_data()) / alpha
        assert np.linalg.norm(sol) <= bound * (1 + 1e-10)

    def test_gradient_residual_contract(self):
        obj = make_objective(25, alpha=1e-4)
        sol = regularized_solution(obj)
        assert np.linalg.norm(gradient(obj, sol)) <= 1e-8 * (1 + np.linalg.norm(obj.g))


@pytest.fixture
def eigensolves(monkeypatch):
    """The matrices of the dense spectral-radius eigensolves in ``oneshot.problem``."""
    return spy(monkeypatch, problem_module, "spectral_radius")


def sheared(seed, shear, n=6):
    """Upper-triangular B with eigenvalues in (-0.5, 0.5) and a large norm."""
    rng = np.random.default_rng(seed)
    return np.diag(rng.uniform(-0.5, 0.5, n)) + np.triu(rng.standard_normal((n, n)), 1) * shear


def min_norms(T, powers=(1, 2, 4)):
    return [min(np.linalg.norm(P, 1), np.linalg.norm(P, np.inf))
            for P in (np.linalg.matrix_power(T, k) for k in powers)]


class TestContracts:
    def test_norm_of_b_accepts_without_eigensolve(self, eigensolves):
        for seed in range(5):
            p = make_problem(seed, n_u=12, norm_b=0.3)
            assert min_norms(p.B, (1,))[0] < 1.0
        twin = stacked_and_kron_twin(7)[0]
        assert twin.n_blocks == 3 and eigensolves == []

    # ||B^2|| < 1 <= ||B||, and ||B^4|| < 1 <= ||B^2||: one and two squarings
    @pytest.mark.parametrize("B, level", [
        (np.array([[0.0, 2.0], [0.1, 0.0]]), 1),
        (sheared(1300, 1.0), 2),
    ])
    def test_squarings_accept_without_eigensolve(self, eigensolves, B, level):
        norms = min_norms(B)
        assert all(v >= 1.0 for v in norms[:level]) and norms[level] < 1.0
        assert spectral_radius(B) < 1.0
        assert contracts(B)
        LinearInverseProblem(B, np.eye(len(B)), np.eye(len(B)), np.zeros(len(B)))
        assert eigensolves == []

    @pytest.mark.parametrize("B", [np.array([[0.5, 100.0], [0.0, 0.5]]), sheared(1301, 1.0)])
    def test_eigensolve_decides_where_no_norm_does(self, eigensolves, B):
        assert min(min_norms(B)) >= 1.0 and spectral_radius(B) < 1.0
        assert contracts(B)
        assert [a.shape for a in eigensolves] == [B.shape]

    @pytest.mark.parametrize("B", [1.5 * np.eye(2), np.eye(3), np.array([[1.1, 0.0], [3.0, 0.1]]),
                                   np.array([[0.0, 4.0], [1.0, 0.0]])])
    def test_rejects_with_rho_in_message(self, B):
        assert not contracts(B)
        message = f"state iteration does not contract: rho(B) = {spectral_radius(B):.6g} >= 1"
        with pytest.raises(ProblemAssumptionError, match=re.escape(message)):
            LinearInverseProblem(B, np.eye(len(B)), np.eye(len(B)), np.zeros(len(B)))

    def test_rho_b_is_lazy_and_bit_equal(self, eigensolves):
        for p in (make_problem(3), stacked_and_kron_twin(4)[0],
                  LinearInverseProblem(sheared(1301, 1.0), np.eye(6), np.eye(6), np.zeros(6))):
            before = len(eigensolves)
            assert p.rho_B == spectral_radius(p.B)
            assert p.rho_B == spectral_radius(p.B)  # cached: one more eigensolve, not two
            assert len(eigensolves) == before + 1

    def test_non_finite_and_empty(self):
        assert contracts(np.zeros((0, 0)))
        with pytest.raises(np.linalg.LinAlgError):
            contracts(np.array([[np.nan, 0.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="square"):
            contracts(np.zeros((2, 3)))

    def test_agrees_with_eigensolve_on_random_matrices(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            B = rng.standard_normal((n, n)) * rng.uniform(0.05, 0.6)
            if rng.uniform() < 0.5:
                B = np.triu(B, 1) * rng.uniform(1.0, 8.0) + np.diag(np.diag(B))
            assert contracts(B) == (spectral_radius(B) < 1.0)


class TestConstruction:
    def test_rejects_expanding_iteration(self):
        with pytest.raises(ProblemAssumptionError, match="contract"):
            LinearInverseProblem(1.5 * np.eye(2), np.eye(2), np.eye(2), np.zeros(2))

    def test_rejects_rank_deficient_map(self):
        # two identical parameter columns make A rank deficient
        M = np.ones((3, 2))
        with pytest.raises(ProblemAssumptionError, match="rank"):
            LinearInverseProblem(np.zeros((3, 3)), M, np.eye(3), np.zeros(3))

    def test_rejects_non_finite(self):
        B = np.zeros((2, 2))
        B[0, 0] = np.nan
        with pytest.raises(ProblemAssumptionError, match="finite"):
            LinearInverseProblem(B, np.eye(2), np.eye(2), np.zeros(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ProblemAssumptionError):
            LinearInverseProblem(np.zeros((2, 2)), np.eye(3), np.eye(2), np.zeros(2))

    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
    def test_objective_rejects_bad_alpha(self, alpha):
        p = make_problem(28)
        with pytest.raises(ValueError, match="alpha must be finite"):
            Objective(p, np.zeros(p.n_g), alpha)

    def test_arrays_are_immutable(self):
        p = make_problem(27)
        with pytest.raises(ValueError):
            p.B[0, 0] = 1.0

    def test_iteration_state_copies_caller_arrays(self):
        sigma, u, p = np.ones(3), np.zeros(4), np.zeros(4)
        state = IterationState(sigma, u, p)
        sigma[0] = u[0] = 5.0
        assert state.sigma[0] == 1.0 and state.u[0] == 0.0
        assert not state.p.flags.writeable and p.flags.writeable


def assert_rel(a, b, rel=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


class TestBlockStorage:
    """The stored-block problem against its dense kron twin as the oracle."""

    @pytest.fixture(scope="class")
    def twins(self):
        block, dense = stacked_and_kron_twin(41)
        rng = np.random.default_rng(42)
        g = rng.standard_normal(dense.n_g)
        return block, dense, g, rng.standard_normal(dense.n_sigma)

    def test_dimensions(self, twins):
        block, dense, _, _ = twins
        assert block.B.shape == (7, 7) and block.H.shape == (5, 7)
        assert (block.n_u, block.n_g, block.n_sigma) == (dense.n_u, dense.n_g, dense.n_sigma)

    def test_exact_solves_and_sweep(self, twins):
        block, dense, g, sigma = twins
        u = solve_state_exact(dense, sigma)
        assert_rel(solve_state_exact(block, sigma), u)
        assert_rel(solve_adjoint_exact(block, u, g), solve_adjoint_exact(dense, u, g))
        rng = np.random.default_rng(43)
        state = IterationState(sigma, rng.standard_normal(dense.n_u),
                               rng.standard_normal(dense.n_u))
        drive = dense.M @ (0.5 * sigma) + dense.F
        for k in (1, 2, 3, 4, 10):
            for ours, oracle in zip(fixed_point_sweep(block, state, 0.5 * sigma, g, k),
                                    loop_sweeps(dense, state.u, state.p, drive, g, k)):
                assert_rel(ours, oracle)

    @pytest.mark.parametrize("op", [lambda p: p.B, lambda p: p.B.T,
                                    lambda p: p.H, lambda p: p.H.T],
                             ids=["B", "B.T", "H", "H.T"])
    def test_block_products(self, twins, op):
        block, dense, _, _ = twins
        oracle = op(dense)
        rng = np.random.default_rng(45)
        for x in (rng.standard_normal(oracle.shape[1]),
                  rng.standard_normal((oracle.shape[1], 3)), np.zeros((oracle.shape[1], 0))):
            assert_rel(block.apply(op(block), x), oracle @ x)

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_block_solves(self, twins, adjoint):
        block, dense, _, _ = twins
        rng = np.random.default_rng(46)
        for rhs in (rng.standard_normal(dense.n_u), rng.standard_normal((dense.n_u, 3)),
                    np.zeros((dense.n_u, 0))):
            assert_rel(block.solve_I_minus_B(rhs, adjoint),
                       dense.solve_I_minus_B(rhs, adjoint))

    @pytest.mark.parametrize("n_blocks", [1, 3])
    @pytest.mark.parametrize("shape", [(12,), (12, 4), (12, 0)], ids=["1-D", "2-D", "0-wide"])
    def test_block_columns_round_trip(self, n_blocks, shape):
        x = np.arange(np.prod(shape), dtype=float).reshape(shape)
        cols = to_block_columns(x, n_blocks)
        width = shape[1] if len(shape) == 2 else 1
        assert cols.shape == (12 // n_blocks, n_blocks * width)
        # column j * width + i is block j of column i
        blocks = x.reshape(n_blocks, 12 // n_blocks, width)
        for j in range(n_blocks):
            for i in range(width):
                assert np.array_equal(cols[:, j * width + i], blocks[j, :, i])
        back = from_block_columns(cols, n_blocks, x.ndim)
        assert back.shape == x.shape and np.array_equal(back, x)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_eigen_equation_residual(self, twins, k):
        block, dense, _, _ = twins
        rng = np.random.default_rng(47)
        y = rng.standard_normal(dense.n_sigma) + 1j * rng.standard_normal(dense.n_sigma)
        y /= np.linalg.norm(y)
        for lam in (1.0, -1.0, np.exp(1j)):
            ours = eigen_equation_residual(block, lam, y, 0.3, 0.01, k)
            oracle = eigen_equation_residual(dense, lam, y, 0.3, 0.01, k)
            assert abs(ours - oracle) <= 1e-12 * abs(oracle)

    def test_sweeps_with_scalar_zero_data(self, twins):
        # the zero-data step of the matrix-free certificate passes g = 0.0
        block, dense, _, sigma = twins
        rng = np.random.default_rng(48)
        u, p = rng.standard_normal(dense.n_u), rng.standard_normal(dense.n_u)
        for k in (3, 4, 10):
            for ours, oracle in zip(sweeps(block, u, p, sigma, 0.0, k),
                                    loop_sweeps(dense, u, p, dense.M @ sigma, 0.0, k)):
                assert_rel(ours, oracle)

    def test_objective_and_reduced_operator(self, twins):
        block, dense, g, sigma = twins
        ours, oracle = Objective(block, g, 0.1), Objective(dense, g, 0.1)
        assert_rel(cost(ours, sigma), cost(oracle, sigma))
        assert_rel(gradient(ours, sigma), gradient(oracle, sigma))
        assert_rel(block.reduced_operator(), dense.reduced_operator())
        assert_rel(block.data_offset(), dense.data_offset())
        assert_rel(regularized_solution(ours), regularized_solution(oracle))

    def test_no_parameters(self):
        # n_sigma = 0: the block products and solves see (n, 0) matrices
        block, dense = stacked_and_kron_twin(49, n_sigma=0)
        g = np.random.default_rng(50).standard_normal(dense.n_g)
        ours, oracle = Objective(block, g, 0.1), Objective(dense, g, 0.1)
        sigma = np.zeros(0)
        assert_rel(block.reduced_operator(), dense.reduced_operator())
        assert_rel(cost(ours, sigma), cost(oracle, sigma))
        assert_rel(gradient(ours, sigma), gradient(oracle, sigma))

    def test_norms_and_spectral_radius(self, twins):
        block, dense, _, _ = twins
        for name in ("norm_B", "norm_M", "norm_H"):
            assert_rel(getattr(block, name), getattr(dense, name))
        assert_rel(block.rho_B, dense.rho_B, rel=1e-10)

    def test_step_bounds_and_certificate(self, twins):
        block, dense, _, _ = twins
        for k in (1, 3):
            ours = bound_report_for(block, alpha=0.01, k=k, use_s_path=True)
            oracle = bound_report_for(dense, alpha=0.01, k=k, use_s_path=True)
            assert_rel(ours.tau_max, oracle.tau_max)
        tau = 1.4 / np.linalg.norm(dense.reduced_operator(), 2) ** 2
        assert_rel(certify(block, tau, 0.01, 3).spectral_radius,
                   certify(dense, tau, 0.01, 3).spectral_radius, rel=1e-10)

    def test_s_path_gate_reads_the_block(self):
        # n_u = 160 is past the 128 gate, but the s-path runs on the
        # 20-wide block, so the default takes it
        block, dense = stacked_and_kron_twin(44, n_blocks=8, n=20)
        ours = bound_report_for(block, alpha=0.01, k=2)
        assert ours.s_Bk is not None
        oracle = bound_report_for(dense, alpha=0.01, k=2, use_s_path=True)
        for name in ("s_Bk", "norm_Bk", "norm_Tk", "norm_Xk", "bound_real",
                     "bound_case1", "bound_case2", "bound_case3", "tau_max"):
            assert_rel(getattr(ours, name), getattr(oracle, name))

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_run_traces(self, twins, scheme):
        block, dense, g, _ = twins
        tau = 0.5 / np.linalg.norm(dense.reduced_operator(), 2) ** 2
        config = RunConfig(scheme=scheme, tau=tau, k=2, max_outer=20)
        ours, oracle = run(Objective(block, g, 0.01), config), run(Objective(dense, g, 0.01), config)
        assert ours.n_outer == oracle.n_outer == 20
        for field in ("cost", "grad_norm", "rel_err_sigma"):
            assert_rel(getattr(ours, field), getattr(oracle, field))

    @pytest.mark.parametrize("n_blocks", [0, -1, 1.5, True])
    def test_rejects_bad_block_count(self, n_blocks):
        B, H = np.zeros((2, 2)), np.eye(2)
        with pytest.raises(ProblemAssumptionError, match="n_blocks"):
            LinearInverseProblem(B, np.eye(2), H, np.zeros(2), n_blocks=n_blocks)
