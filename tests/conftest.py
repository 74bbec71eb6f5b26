import numpy as np
import pytest

from oneshot import LinearInverseProblem, Objective, random_problem


def make_problem(seed, n_u=8, n_sigma=3, n_g=5, norm_b=0.5, with_source=True):
    return random_problem(n_u, n_sigma, n_g, norm_b=norm_b, rng=seed,
                          with_source=with_source)


def make_objective(seed, alpha=0.0, exact_data=False, **kwargs):
    """Problem plus measurements; exact_data draws g = H u(sigma_ex)."""
    problem = make_problem(seed, **kwargs)
    rng = np.random.default_rng(seed + 1000)
    if exact_data:
        sigma_ex = rng.standard_normal(problem.n_sigma)
        u = problem.solve_I_minus_B(problem.M @ sigma_ex + problem.F)
        g = problem.H @ u
        return Objective(problem, g, alpha), sigma_ex
    g = rng.standard_normal(problem.n_g)
    return Objective(problem, g, alpha)


def stacked_and_kron_twin(seed, n_blocks=3, n=7, n_sigma=4, m=5):
    """A problem storing one block, and the same problem with the dense
    kron(I, B), kron(I, H) and n_blocks = 1."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    B = 0.6 * G / np.linalg.norm(G, 2)
    M = rng.standard_normal((n_blocks * n, n_sigma))
    H = rng.standard_normal((m, n))
    F = rng.standard_normal(n_blocks * n)
    eye = np.eye(n_blocks)
    return (LinearInverseProblem(B, M, H, F, n_blocks=n_blocks),
            LinearInverseProblem(np.kron(eye, B), M, np.kron(eye, H), F))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
