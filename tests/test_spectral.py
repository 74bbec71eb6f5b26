import math

import numpy as np
import pytest

from oneshot import (IterationState, RunConfig, SchemeKind,
                     SingularSystemError, SizeGuardError, certify,
                     eigen_equation_residual, iteration_matrix_semi_implicit,
                     k_step_operators, run, s_of, spectrum)
from oneshot.bounds import bound_report_for
from oneshot.problem import LinearInverseProblem, operator_norm
from oneshot.spectral import ARNOLDI_MIN_DIM, CONVERGENCE_MARGIN, apply_iteration_matrix
from conftest import make_objective, make_problem, stacked_and_kron_twin


def direct_sum_operators(problem, k):
    """Term-by-term construction of T_k, U_k, X_k from their definitions."""
    B, H = problem.B, problem.H
    n = problem.n_u
    HtH = H.T @ H
    powers = [np.eye(n)]
    for _ in range(k):
        powers.append(powers[-1] @ B)
    T = sum(powers[j] for j in range(k))
    U = sum(powers[i].T @ HtH @ powers[j]
            for i in range(k) for j in range(k) if i + j == k - 1)
    X = np.zeros((n, n))
    for ell in range(k - 2 + 1):
        X = X + sum(powers[i].T @ HtH @ powers[j]
                    for i in range(ell + 1) for j in range(ell + 1) if i + j == ell)
    if k == 1:
        X = np.zeros((n, n))
    return T, U, X


class TestKStepOperators:
    def test_k1(self):
        p = make_problem(50)
        ops = k_step_operators(p, 1)
        assert np.array_equal(ops.T, np.eye(p.n_u))
        assert np.allclose(ops.U, p.H.T @ p.H, atol=1e-14)
        assert np.array_equal(ops.X, np.zeros((p.n_u, p.n_u)))

    def test_k2_explicit(self):
        p = make_problem(51)
        ops = k_step_operators(p, 2)
        HtH = p.H.T @ p.H
        assert np.allclose(ops.T, np.eye(p.n_u) + p.B, atol=1e-14)
        assert np.allclose(ops.U, p.B.T @ HtH + HtH @ p.B, atol=1e-13)
        assert np.allclose(ops.X, HtH, atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_matches_direct_summation(self, k):
        p = make_problem(52, n_u=6, n_sigma=2, n_g=4)
        ops = k_step_operators(p, k)
        T, U, X = direct_sum_operators(p, k)
        for ours, direct in ((ops.T, T), (ops.U, U), (ops.X, X), (ops.HT, p.H @ T)):
            scale = max(np.linalg.norm(direct), 1.0)
            assert np.linalg.norm(ours - direct) <= 1e-12 * scale
        assert np.array_equal(ops.Bk, np.linalg.matrix_power(p.B, k))

    @pytest.mark.parametrize("n_u,seed", [(8, 53), (16, 54), (24, 55)])
    def test_invariants_up_to_k12(self, n_u, seed):
        p = make_problem(seed, n_u=n_u, n_sigma=3, n_g=5, norm_b=0.7)
        prev = None
        for k in range(1, 13):
            ops = k_step_operators(p, k)
            scale = max(operator_norm(ops.U), operator_norm(ops.X), 1.0)
            assert operator_norm(ops.U - ops.U.T) <= 1e-12 * scale
            assert operator_norm(ops.X - ops.X.T) <= 1e-12 * scale
            Bk = np.linalg.matrix_power(p.B, k)
            lhs = ops.U @ ops.T - ops.X @ Bk + ops.X
            rhs = ops.T.T @ (p.H.T @ p.H) @ ops.T
            assert operator_norm(lhs - rhs) <= 1e-12 * max(operator_norm(rhs), 1.0)
            if prev is not None:
                assert operator_norm(ops.X - (prev.X + prev.U)) <= 1e-12 * scale
            prev = ops

    def test_norm_bounds_when_contractive(self):
        # s(B^k) <= 1/(1-||B||^k), ||T_k|| <= (1-||B||^k)/(1-||B||),
        # ||X_k|| <= ||H||^2 (1 - k b^{k-1} + (k-1) b^k)/(1-b)^2
        for i, b in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
            p = make_problem(60 + i, n_u=6, norm_b=b)
            for k in (1, 2, 3, 5):
                ops = k_step_operators(p, k)
                bk = b ** k
                assert operator_norm(ops.T) <= (1 - bk) / (1 - b) + 1e-10
                w = 1 - k * b ** (k - 1) + (k - 1) * bk
                assert operator_norm(ops.X) <= p.norm_H ** 2 * w / (1 - b) ** 2 + 1e-10
                assert s_of(np.linalg.matrix_power(p.B, k)) <= 1 / (1 - bk) + 1e-6


NON_FINITE_STEPS = [(math.nan, 0.0), (math.inf, 0.0), (0.01, math.nan), (0.01, math.inf)]


class TestIterationMatrix:
    @pytest.mark.parametrize("tau, alpha", NON_FINITE_STEPS)
    def test_rejects_non_finite_step(self, tau, alpha):
        with pytest.raises(ValueError, match="finite"):
            iteration_matrix_semi_implicit(make_problem(57), tau, alpha, 2)

    def test_k1_block_layout(self):
        p = make_problem(56)
        tau, alpha = 0.07, 0.2
        d = 1 + tau * alpha
        mat = iteration_matrix_semi_implicit(p, tau, alpha, 1)
        n, s = p.n_u, p.n_sigma
        MMt = p.M @ p.M.T
        assert np.allclose(mat[:n, :n], p.B.T, atol=1e-14)
        assert np.allclose(mat[:n, n:2 * n], p.H.T @ p.H, atol=1e-13)
        assert np.allclose(mat[:n, 2 * n:], 0.0, atol=1e-14)
        assert np.allclose(mat[n:2 * n, :n], -(tau / d) * MMt, atol=1e-13)
        assert np.allclose(mat[n:2 * n, n:2 * n], p.B, atol=1e-14)
        assert np.allclose(mat[n:2 * n, 2 * n:], p.M / d, atol=1e-13)
        assert np.allclose(mat[2 * n:, :n], -(tau / d) * p.M.T, atol=1e-13)
        assert np.allclose(mat[2 * n:, n:2 * n], 0.0, atol=1e-14)
        assert np.allclose(mat[2 * n:, 2 * n:], np.eye(s) / d, atol=1e-14)

    def test_b_zero_alpha_zero_blocks(self):
        p = make_problem(57, norm_b=0.0)
        tau = 0.3
        mat = iteration_matrix_semi_implicit(p, tau, 0.0, 1)
        n = p.n_u
        MMt = p.M @ p.M.T
        expected = np.block([
            [np.zeros((n, n)), p.H.T @ p.H, np.zeros((n, p.n_sigma))],
            [-tau * MMt, np.zeros((n, n)), p.M],
            [-tau * p.M.T, np.zeros((p.n_sigma, n)), np.eye(p.n_sigma)],
        ])
        assert np.allclose(mat, expected, atol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_cross_check_with_step(self, k, rng):
        from oneshot import (regularized_solution, solve_adjoint_exact,
                             solve_state_exact, step)
        obj = make_objective(58, alpha=0.1)
        p = obj.problem
        tau = 0.03
        sigma_ref = regularized_solution(obj)
        u_ref = solve_state_exact(p, sigma_ref)
        p_ref = solve_adjoint_exact(p, u_ref, obj.g)
        state = IterationState(sigma_ref + rng.standard_normal(p.n_sigma),
                               u_ref + rng.standard_normal(p.n_u),
                               p_ref + rng.standard_normal(p.n_u))
        new = step(obj, state, SchemeKind.SemiImplicitKStepOneShot, tau, k)
        mat = iteration_matrix_semi_implicit(p, tau, obj.alpha, k)
        err = np.concatenate([state.p - p_ref, state.u - u_ref, state.sigma - sigma_ref])
        out = np.concatenate([new.p - p_ref, new.u - u_ref, new.sigma - sigma_ref])
        assert np.linalg.norm(out - mat @ err) <= 1e-10 * np.linalg.norm(out)


class TestCertify:
    def test_convergent_below_bound(self):
        p = make_problem(59, norm_b=0.4)
        for k in (1, 2, 3):
            report = bound_report_for(p, alpha=1e-2, k=k)
            cert = certify(p, report.tau_max, 1e-2, k)
            assert cert.convergent and cert.spectral_radius < 1.0

    def test_eigenvalue_count_and_dist_to_one(self, rng):
        for seed in range(40):
            n_u = int(rng.integers(3, 9))
            n_s = int(rng.integers(1, 4))
            p = make_problem(800 + seed, n_u=n_u, n_sigma=n_s, n_g=n_s + 2,
                             norm_b=float(rng.uniform(0, 0.9)))
            tau = float(10.0 ** rng.uniform(-3, 1))
            alpha = float(rng.choice([0.0, 1e-4, 1e-1]))
            k = int(rng.choice([1, 2, 3, 5]))
            cert = certify(p, tau, alpha, k)
            assert len(spectrum(p, tau, alpha, k)) == 2 * n_u + n_s
            assert cert.min_dist_to_one > 1e-8

    def test_tiny_tau_not_convergent(self):
        p = make_problem(61)
        cert = certify(p, 1e-14, 0.0, 1)
        assert cert.spectral_radius > 1 - 1e-6
        assert not cert.convergent

    def test_size_guard(self):
        p = make_problem(62)
        with pytest.raises(SizeGuardError):
            spectrum(p, 0.1, 0.0, 1, size_guard=10)

    @pytest.mark.parametrize("size_guard", [0, -1, True, 2.5])
    def test_size_guard_must_be_a_positive_integer(self, size_guard):
        with pytest.raises(ValueError, match="size_guard"):
            spectrum(make_problem(62), 0.1, 0.0, 1, size_guard=size_guard)

    @pytest.mark.parametrize("tau, alpha", NON_FINITE_STEPS)
    def test_rejects_non_finite_step_before_size_guard(self, tau, alpha):
        p = make_problem(62)
        for size_guard in (10, 4000):
            with pytest.raises(ValueError, match="finite"):
                spectrum(p, tau, alpha, 1, size_guard=size_guard)
        with pytest.raises(ValueError, match="finite"):
            certify(p, tau, alpha, 1)

    def test_certificate_consistency_with_runs(self, rng):
        # convergent certificate => the run converges from a random start;
        # spectral radius above one => some random start diverges
        obj = make_objective(63, alpha=1e-3)
        p = obj.problem
        report = bound_report_for(p, alpha=obj.alpha, k=2)
        cert = certify(p, report.tau_max, obj.alpha, 2)
        assert cert.convergent
        # error shrinks like rho^n; 30/(1-rho) iterations give e^{-30}
        max_outer = int(min(30.0 / (1.0 - cert.spectral_radius), 2e5)) + 10
        cfg = RunConfig(scheme=SchemeKind.SemiImplicitKStepOneShot,
                        tau=report.tau_max, k=2, max_outer=max_outer,
                        tol_step=1e-15,
                        sigma0=rng.standard_normal(p.n_sigma),
                        u0=rng.standard_normal(p.n_u),
                        p0=rng.standard_normal(p.n_u))
        trace = run(obj, cfg)
        assert trace.final_rel_err <= 1e-6

        A = p.reduced_operator()
        tau_big = 5.0 / np.linalg.norm(A, 2) ** 2
        cert_big = certify(p, tau_big, obj.alpha, 2)
        if cert_big.spectral_radius > 1 + 1e-6:
            cfg = RunConfig(scheme=SchemeKind.SemiImplicitKStepOneShot,
                            tau=tau_big, k=2, max_outer=3000,
                            sigma0=rng.standard_normal(p.n_sigma))
            assert run(obj, cfg).diverged


def stacked_problem(seed, n_blocks, n, n_sigma, m, norm_b):
    """Random problem storing one n x n block B with ||B|| = norm_b."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return LinearInverseProblem(norm_b * G / np.linalg.norm(G, 2),
                                rng.standard_normal((n_blocks * n, n_sigma)),
                                rng.standard_normal((m, n)),
                                rng.standard_normal(n_blocks * n), n_blocks=n_blocks)


class TestArnoldiCertificate:
    """The matrix-free path above ARNOLDI_MIN_DIM against the dense spectrum."""

    # fixed before the first run; the verdicts must agree exactly
    RHO_REL, DIST_REL = 1e-8, 1e-6

    @staticmethod
    def oracle_cases():
        rng = np.random.default_rng(2024)
        for norm_b in (0.0, 0.5, 0.9):
            for k in (1, 3, 5):
                for alpha in (0.0, 1e-1):
                    n_u = int(rng.integers(150, 201))
                    n_s = int(rng.integers(1, 6))
                    yield (stacked_problem(int(rng.integers(2**31)), 1, n_u, n_s,
                                           n_s + int(rng.integers(0, 9)), norm_b),
                           k, alpha, rng)
        for k in (1, 3, 5):
            for alpha in (0.0, 1e-1):
                yield (stacked_problem(int(rng.integers(2**31)), 3, 60, 4, 5, 0.6),
                       k, alpha, rng)

    def test_matches_dense_oracle(self):
        verdicts = set()
        for p, k, alpha, rng in self.oracle_cases():
            assert 2 * p.n_u + p.n_sigma >= ARNOLDI_MIN_DIM
            tau = float(10.0 ** rng.uniform(-1, 0.5)) \
                / np.linalg.norm(p.reduced_operator(), 2) ** 2
            cert = certify(p, tau, alpha, k)
            eigenvalues = spectrum(p, tau, alpha, k)
            rho = float(np.max(np.abs(eigenvalues)))
            dist = float(np.min(np.abs(eigenvalues - 1.0)))
            assert cert.method == "arnoldi" and cert.matvecs > 0
            assert cert.ritz_residual <= 1e-10
            assert cert.convergent == (rho < 1.0 - CONVERGENCE_MARGIN)
            assert cert.spectral_radius == pytest.approx(rho, rel=self.RHO_REL)
            assert cert.min_dist_to_one == pytest.approx(dist, rel=self.DIST_REL)
            verdicts.add(cert.convergent)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("n_blocks", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_matvec_is_dense_matrix(self, n_blocks, k):
        # the sources F of the problem play no part in G
        p = stacked_problem(72, n_blocks, 9, 4, 5, 0.6)
        x = np.random.default_rng(73).standard_normal(2 * p.n_u + p.n_sigma)
        for tau, alpha in ((0.05, 0.0), (0.02, 0.3)):
            oracle = iteration_matrix_semi_implicit(p, tau, alpha, k) @ x
            ours = apply_iteration_matrix(p, x, tau, alpha, k)
            assert np.linalg.norm(ours - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_crossover(self):
        below = make_problem(70, n_u=(ARNOLDI_MIN_DIM - 2) // 2, n_sigma=1, n_g=3)
        above = make_problem(70, n_u=(ARNOLDI_MIN_DIM - 2) // 2, n_sigma=2, n_g=3)
        assert 2 * below.n_u + below.n_sigma == ARNOLDI_MIN_DIM - 1
        dense = certify(below, 0.01, 0.0, 2)
        assert (dense.method, dense.matvecs, dense.ritz_residual) == ("dense", 0, None)
        assert certify(above, 0.01, 0.0, 2).method == "arnoldi"

    @pytest.mark.parametrize("n_blocks, norm_b", [(1, 0.0), (3, 0.6)])
    def test_repeat_calls_are_identical(self, n_blocks, norm_b):
        p = stacked_problem(71, n_blocks, 180 // n_blocks, 3, 4, norm_b)
        first, second = certify(p, 0.02, 1e-3, 3), certify(p, 0.02, 1e-3, 3)
        assert first.method == "arnoldi"
        assert vars(first) == vars(second)


class TestEigenEquationResidual:
    def test_lambda_one_value(self, rng):
        p = make_problem(64)
        tau, alpha = 0.2, 0.05
        y = rng.standard_normal(p.n_sigma)
        y = y / np.linalg.norm(y)
        for k in (1, 3):
            res = eigen_equation_residual(p, 1.0 + 0.0j, y, tau, alpha, k)
            flux = p.H @ np.linalg.solve(np.eye(p.n_u) - p.B, p.M @ y)
            expected = tau * (alpha + float(flux @ flux))
            assert abs(res - expected) <= 1e-12 * (1 + abs(expected))
            assert abs(res) > 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_true_eigenpairs_have_zero_residual(self, k):
        # a dense problem, and a stacked one whose residual runs block by block
        for p in (make_problem(65, n_u=6, n_sigma=2, n_g=4),
                  stacked_and_kron_twin(65, n_blocks=3, n=4, n_sigma=2, m=3)[0]):
            A = p.reduced_operator()
            tau = 5.0 / np.linalg.norm(A, 2) ** 2  # deliberately divergent
            alpha = 1e-3
            mat = iteration_matrix_semi_implicit(p, tau, alpha, k)
            values, vectors = np.linalg.eig(mat)
            outside = [i for i, lam in enumerate(values) if abs(lam) >= 1.0]
            assert outside, "expected a divergent configuration"
            for i in outside:
                y = vectors[2 * p.n_u:, i]
                y = y / np.linalg.norm(y)
                res = eigen_equation_residual(p, values[i], y, tau, alpha, k)
                assert abs(res) <= 1e-8

    def test_b_zero_reduces_to_quadratic(self, rng):
        p = make_problem(66, norm_b=0.0)
        tau, alpha = 0.4, 0.02
        y = rng.standard_normal(p.n_sigma)
        y = y / np.linalg.norm(y)
        lam = 1.7 - 0.6j
        res = eigen_equation_residual(p, lam, y, tau, alpha, 1)
        q = float(np.linalg.norm(p.H @ (p.M @ y)) ** 2)
        expected = ((1 + tau * alpha) * lam ** 2 - lam + tau * q) / lam
        assert abs(res - expected) <= 1e-12 * abs(expected)

    def test_rejects_lambda_near_spectrum(self):
        p = make_problem(67, norm_b=0.9)
        lams = np.linalg.eigvals(p.B)
        lam = complex(lams[np.argmax(np.abs(lams))])
        y = np.zeros(p.n_sigma)
        y[0] = 1.0
        with pytest.raises(SingularSystemError):
            eigen_equation_residual(p, lam, y, 0.1, 0.0, 1)

    def test_requires_unit_vector(self):
        p = make_problem(68)
        with pytest.raises(ValueError):
            eigen_equation_residual(p, 2.0 + 0j, np.zeros(p.n_sigma), 0.1, 0.0, 1)


class TestRealEigenvalueExclusionK1:
    def test_no_real_escape_for_k1(self, rng):
        # real eigenvalues of the k = 1 block matrix stay strictly inside
        # the unit circle for every sampled tau, however large
        for seed in range(6):
            p = make_problem(900 + seed, n_u=6, n_sigma=2, n_g=4,
                             norm_b=float(rng.uniform(0.1, 0.8)))
            alpha = float(rng.choice([0.0, 1e-3, 1e-1]))
            report = bound_report_for(p, alpha=alpha, k=1, use_s_path=False)
            for factor in (0.5, 1.0, 10.0, 100.0, 1000.0):
                mat = iteration_matrix_semi_implicit(p, factor * report.tau_max, alpha, 1)
                values = np.linalg.eigvals(mat)
                real_like = values[np.abs(values.imag) <= 1e-10 * np.maximum(np.abs(values), 1.0)]
                assert np.all(np.abs(real_like) < 1.0)
