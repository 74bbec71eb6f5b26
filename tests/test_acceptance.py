"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion also enforces its runtime budget.
"""

import math
import os
import time

import numpy as np
import pytest

import oneshot
from oneshot import (CavityConfig, IterationState, Objective, RunConfig,
                     RunStatus, SchemeKind, certify, cost, generate, gradient,
                     iteration_matrix_semi_implicit, k_step_operators,
                     multi_source_objective, random_problem, regularized_solution,
                     run, s_of, solve_adjoint_exact, solve_state_exact, step)
from oneshot.bounds import CaseParameters, bound_report_for
from oneshot.experiments import load_spec, run_experiment
from oneshot.problem import LinearInverseProblem, operator_norm
from lemmas import gamma3_magnitude, marden_quadratic_inside, pq_decompose

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


class _Budget:
    def __init__(self, number, title, seconds):
        self.number, self.title, self.seconds = number, title, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\n[ACCEPTANCE] criterion {self.number} ({self.title}): "
              f"{verdict} in {elapsed:.1f}s (budget {self.seconds:.0f}s)",
              flush=True)
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"criterion {self.number} exceeded its {self.seconds}s budget"


def test_criterion_01_algebraic_identity_suite():
    with _Budget(1, "k-step operator identity", 10):
        rng = np.random.default_rng(101)
        for n_u in (4, 8, 12, 16, 20, 24):
            p = random_problem(n_u, 3, 5, norm_b=float(rng.uniform(0.1, 0.9)),
                               rng=rng)
            HtH = p.H.T @ p.H
            for k in range(1, 13):
                ops = k_step_operators(p, k)
                lhs = ops.U @ ops.T - ops.X @ np.linalg.matrix_power(p.B, k) + ops.X
                rhs = ops.T.T @ HtH @ ops.T
                scale = max(operator_norm(rhs), 1.0)
                assert operator_norm(lhs - rhs) <= 1e-12 * scale


def test_criterion_02_lambda_one_exclusion():
    with _Budget(2, "lambda = 1 is never an eigenvalue", 60):
        rng = np.random.default_rng(202)
        checked = 0
        while checked < 200:
            n_u = int(rng.integers(3, 9))
            n_s = int(rng.integers(1, 4))
            p = random_problem(n_u, n_s, n_s + int(rng.integers(1, 4)),
                               norm_b=float(rng.uniform(0.0, 0.9)), rng=rng)
            tau = float(10.0 ** rng.uniform(-3, 1.5))
            alpha = float(rng.choice([0.0, 1e-4, 1e-1]))
            k = int(rng.choice([1, 2, 3, 5]))
            cert = certify(p, tau, alpha, k)
            assert cert.min_dist_to_one > 1e-8
            checked += 1


def test_criterion_03_bound_soundness_sweep():
    with _Budget(3, "sufficient bounds certify", 300):
        rng = np.random.default_rng(303)
        tuples = 0
        for norm_b in (0.0, 0.2, 0.5, 0.8):
            for k in (1, 2, 3, 5):
                for alpha in (0.0, 1e-4, 1e-1):
                    for _ in range(11):
                        n_u = int(rng.integers(4, 17))
                        n_s = int(rng.integers(1, 5))
                        p = random_problem(n_u, n_s, n_s + int(rng.integers(0, 6)),
                                           norm_b=norm_b, rng=rng)
                        report = bound_report_for(p, alpha=alpha, k=k)
                        tau_max = report.tau_max
                        if math.isinf(tau_max):
                            taus = (0.1, 1.0, 10.0, 100.0)
                        else:
                            assert tau_max > 0
                            taus = (tau_max, 0.5 * tau_max, 0.1 * tau_max)
                        for tau in taus:
                            cert = certify(p, tau, alpha, k)
                            assert cert.spectral_radius < 1.0, \
                                f"violation at ||B||={norm_b} k={k} alpha={alpha}"
                        tuples += 1
        assert tuples >= 500


def _controlled_objective(seed, alpha):
    rng = np.random.default_rng(seed)
    n = 6
    G = rng.standard_normal((n, n))
    U, _, Vt = np.linalg.svd(G)
    H = U @ np.diag(np.linspace(0.5, 1.0, n)) @ Vt
    problem = LinearInverseProblem(np.zeros((n, n)), np.eye(n), H, np.zeros(n))
    return Objective(problem, rng.standard_normal(n), alpha), rng


def test_criterion_04_gd_threshold_sharpness():
    with _Budget(4, "gradient-descent threshold sharpness", 30):
        for seed in (41, 42, 43):
            for alpha_frac in (0.0, 0.002):
                objective, rng = _controlled_objective(seed, 0.0)
                rho = np.linalg.norm(objective.problem.reduced_operator(), 2) ** 2
                alpha = alpha_frac * rho
                objective = Objective(objective.problem, objective.g, alpha)
                sigma_ref = regularized_solution(objective)
                sigma0 = rng.standard_normal(6)
                start = np.linalg.norm(sigma0 - sigma_ref)

                def trend(scheme, tau, steps=10_000):
                    state = IterationState(sigma0, np.zeros(6), np.zeros(6))
                    for _ in range(steps):
                        state = step(objective, state, scheme, tau)
                        if not np.isfinite(state.sigma).all():
                            return np.inf
                    return float(np.linalg.norm(state.sigma - sigma_ref))

                threshold = 2.0 / (rho + alpha)
                assert trend(SchemeKind.UsualGD, 0.99 * threshold) <= 1e-6 * start
                assert trend(SchemeKind.UsualGD, 1.01 * threshold) >= 1e3 * start
                threshold = 2.0 / (rho - alpha)
                assert trend(SchemeKind.SemiImplicitGD, 0.99 * threshold) <= 1e-6 * start
                assert trend(SchemeKind.SemiImplicitGD, 1.01 * threshold) >= 1e3 * start


def test_criterion_05_error_recursion_equivalence():
    with _Budget(5, "one-shot error recursion equals block matrix", 10):
        rng = np.random.default_rng(505)
        for k in (1, 2, 3):
            p = random_problem(8, 3, 5, norm_b=0.6, rng=rng)
            alpha, tau = 0.05, 0.02
            g = rng.standard_normal(p.n_g)
            objective = Objective(p, g, alpha)
            sigma_ref = regularized_solution(objective)
            u_ref = solve_state_exact(p, sigma_ref)
            p_ref = solve_adjoint_exact(p, u_ref, g)
            state = IterationState(sigma_ref + rng.standard_normal(3),
                                   u_ref + rng.standard_normal(8),
                                   p_ref + rng.standard_normal(8))
            new = step(objective, state, SchemeKind.SemiImplicitKStepOneShot, tau, k)
            mat = iteration_matrix_semi_implicit(p, tau, alpha, k)
            err = np.concatenate([state.p - p_ref, state.u - u_ref,
                                  state.sigma - sigma_ref])
            out = np.concatenate([new.p - p_ref, new.u - u_ref,
                                  new.sigma - sigma_ref])
            assert np.linalg.norm(out - mat @ err) <= 1e-10 * np.linalg.norm(out)


def test_criterion_06_resolvent_and_case_properties():
    with _Budget(6, "resolvent split and case-multiplier properties", 60):
        rng = np.random.default_rng(606)

        # resolvent split: reconstruction and every stated norm bound
        G = rng.standard_normal((6, 6))
        T = 0.6 * G / operator_norm(G)
        s = s_of(T)
        assert s <= 1.0 / (1.0 - 0.6) + 1e-9
        for _ in range(20):
            lam = complex(*rng.normal(size=2))
            lam = lam / abs(lam) * float(rng.uniform(1.0, 5.0))
            P, Q = pq_decompose(T, lam)
            direct = np.linalg.inv(np.eye(6) - T / lam)
            assert np.linalg.norm(P + 1j * Q - direct) <= 1e-12 * np.linalg.norm(direct)
            phi = -np.angle(lam)
            assert operator_norm(P) <= (1 + 0.6) * s ** 2 + 1e-9
            assert operator_norm(Q) <= abs(math.sin(phi)) * 0.6 * s ** 2 + 1e-9
            assert operator_norm(P) <= 1 / (1 - 0.6) + 1e-9
            assert operator_norm(Q) <= 0.6 / (1 - 0.6) + 1e-9

        # case-multiplier inequalities, >= 1e5 samples per case
        theta0, delta0 = np.pi / 8, 1.0
        params = CaseParameters(theta0, delta0)
        n = 400_000
        lam = (1.0 + rng.exponential(1.5, n)) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        lam = lam[np.abs(lam.imag) > 1e-12]
        w = lam * lam - lam
        theta = np.angle(lam)

        case4 = (w.real < 0) & (np.abs(theta) > np.pi - theta0)
        assert not case4.any()

        mask1 = w.real >= 0
        assert mask1.sum() >= 100_000
        g1 = np.where(w.imag[mask1] >= 0, 1.0, -1.0)
        lhs1 = w.real[mask1] + g1 * w.imag[mask1]
        mod1 = np.abs(lam[mask1] * (lam[mask1] - 1.0))
        assert np.all(lhs1 >= mod1 - 1e-9 * np.maximum(mod1, 1.0))
        assert np.all(mod1 >= 2 * np.abs(np.sin(theta[mask1] / 2)) - 1e-9)

        mask2 = (w.real < 0) & (np.abs(theta) >= theta0) & (np.abs(theta) <= np.pi - theta0)
        assert mask2.sum() >= 100_000
        g2 = np.where(w.imag[mask2] >= 0, -1.0, 1.0)
        lhs2 = np.abs(w.real[mask2] + g2 * w.imag[mask2])
        mod2 = np.abs(lam[mask2] * (lam[mask2] - 1.0))
        assert np.all(lhs2 >= mod2 - 1e-9 * np.maximum(mod2, 1.0))
        assert np.all(mod2 >= 2 * math.sin(theta0 / 2) - 1e-9)

        m = 150_000
        th3 = rng.uniform(-theta0, theta0, m)
        r_max = np.cos(th3) / np.cos(2 * th3)
        R3 = 1.0 + rng.uniform(0.0, 1.0, m) * (r_max - 1.0) * 0.999
        lam3 = R3 * np.exp(1j * th3)
        w3 = lam3 * lam3 - lam3
        keep = (w3.real < 0) & (np.abs(lam3.imag) > 1e-12)
        lam3, w3, th3 = lam3[keep], w3[keep], th3[keep]
        assert keep.sum() >= 100_000
        g3 = np.sign(th3) * gamma3_magnitude(params)
        lhs3 = w3.real + g3 * w3.imag
        assert np.all(lhs3 >= 2 * delta0 * np.abs(np.sin(th3 / 2)) - 1e-9)
        lam31 = lam3 - 1.0
        sqrt_c = math.sqrt(params.c)
        assert np.all(np.abs(lam31.real + g3 * lam31.imag) / lhs3
                      <= sqrt_c / delta0 + 1e-9)
        bound2 = max(sqrt_c / delta0, sqrt_c / math.cos(2 * theta0))
        assert np.all(np.abs(g3 * lam31.real - lam31.imag) / lhs3 <= bound2 + 1e-9)

        # quadratic stability criterion against the root-modulus oracle
        a0 = rng.uniform(-3, 3, 100_000)
        a1 = rng.uniform(-3, 3, 100_000)
        disc = np.asarray(a1 ** 2 - 4 * a0, dtype=complex)
        sq = np.sqrt(disc)
        mod = np.maximum(np.abs((-a1 + sq) / 2), np.abs((-a1 - sq) / 2))
        decided = np.abs(mod - 1.0) > 1e-12
        expected = mod[decided] < 1.0
        got = np.fromiter((marden_quadratic_inside(x, y) for x, y in
                           zip(a0[decided], a1[decided])), dtype=bool)
        assert np.array_equal(got, expected)


@pytest.fixture(scope="module")
def noise_free_cavity():
    return generate(CavityConfig(mesh_h=2.0 / 7.0, rng_seed=42))


def test_criterion_07_noise_free_reproduction(noise_free_cavity):
    with _Budget(7, "noise-free cavity study", 300):
        cavity = noise_free_cavity
        assert abs(cavity.problem.n_u - 1000) < 200
        assert cavity.problem.n_sigma == 6
        objective = multi_source_objective(cavity, alpha=0.0)
        rho = np.linalg.norm(cavity.problem.reduced_operator(), 2) ** 2

        def run_scheme(scheme, tau, k=1, max_outer=500):
            return run(objective, RunConfig(
                scheme=scheme, tau=tau, k=k, max_outer=max_outer,
                tol_cost=1e-14, sigma0=cavity.init_sigma))

        chosen = None
        for factor in (1.4, 1.3, 1.5):
            tau = factor / rho
            gd = run_scheme(SchemeKind.UsualGD, tau)
            one = run_scheme(SchemeKind.KStepOneShot, tau, k=1, max_outer=300)
            two = run_scheme(SchemeKind.KStepOneShot, tau, k=2)
            if (gd.final_cost <= 1e-10 and two.final_cost <= 1e-10 and
                    one.status is RunStatus.DIVERGED):
                chosen = (tau, gd)
                break
        assert chosen is not None, "no step width separated k=1 from k=2"
        tau, gd = chosen
        gd_count = gd.iterations_to_cost(1e-8)
        assert gd_count is not None
        for k in (3, 4):
            trace = run_scheme(SchemeKind.KStepOneShot, tau, k=k)
            count = trace.iterations_to_cost(1e-8)
            assert count is not None
            assert count <= 2 * gd_count


def test_criterion_08_noisy_regularization_benefit():
    with _Budget(8, "noisy-data regularization benefit", 300):
        cavity = generate(CavityConfig(
            mesh_h=2.0 / 7.0,
            inclusion_layout=((-1, -1, 0.857), (1, -1, 0.857), (0, 1, 0.857)),
            sigma_subdivision=(3, 3), boundary_subsample=4,
            noise_level=0.03, rng_seed=7, data_scale=0.056))
        rho = np.linalg.norm(cavity.problem.reduced_operator(), 2) ** 2
        tau = 1.4 / rho
        errors = {}
        for alpha in (0.0, 2e-4):
            objective = multi_source_objective(cavity, alpha=alpha, use_noisy=True)
            trace = run(objective, RunConfig(
                scheme=SchemeKind.SemiImplicitKStepOneShot, tau=tau, k=3,
                max_outer=25_000, tol_step=1e-9, sigma0=cavity.init_sigma))
            assert trace.status is RunStatus.TOL_STEP  # converged
            errors[alpha] = float(
                np.linalg.norm(trace.final_state.sigma - cavity.exact_sigma)
                / np.linalg.norm(cavity.exact_sigma))
        assert errors[2e-4] <= errors[0.0]


def test_criterion_09_gradient_correctness():
    with _Budget(9, "gradient vs central finite differences", 10):
        rng = np.random.default_rng(909)
        for _ in range(50):
            n_u = int(rng.integers(4, 12))
            n_s = int(rng.integers(1, 5))
            p = random_problem(n_u, n_s, n_s + int(rng.integers(1, 5)),
                               norm_b=float(rng.uniform(0, 0.9)), rng=rng)
            objective = Objective(p, rng.standard_normal(p.n_g),
                                  float(rng.choice([0.0, 1e-3, 0.3])))
            sigma = rng.standard_normal(n_s)
            step = 1e-5
            fd = np.array([(cost(objective, sigma + step * e)
                            - cost(objective, sigma - step * e)) / (2 * step)
                           for e in np.eye(n_s)])
            grad = gradient(objective, sigma)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)


def test_criterion_10_reproducibility(tmp_path):
    with _Budget(10, "byte-identical experiment outputs", 600):
        for name in ("exp_noise_free", "exp_noisy", "exp_mesh", "exp_delta"):
            spec = load_spec(os.path.join(CONFIG_DIR, f"{name}.cfg"))
            first = run_experiment(spec, output_dir=str(tmp_path / name / "a"))
            second = run_experiment(spec, output_dir=str(tmp_path / name / "b"))
            assert len(first) == len(second) > 1
            for fa, fb in zip(first, second):
                assert os.path.basename(fa) == os.path.basename(fb)
                with open(fa, "rb") as ha, open(fb, "rb") as hb:
                    assert ha.read() == hb.read(), f"{name}: {fa} differs"
