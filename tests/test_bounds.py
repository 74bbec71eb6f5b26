import math
import os

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from oneshot import (CaseParameters, EigensolverError, LinearInverseProblem,
                     ProblemAssumptionError, bounds, certify, random_problem,
                     s_of, sufficient_tau_k_step)
from oneshot import problem as problem_module
from oneshot.bounds import (_psi, bound_report_for, report_csv_header,
                            report_csv_row)
from oneshot.cavity import generate
from oneshot.experiments import load_spec
from oneshot.problem import operator_norm, spectral_radius
from conftest import make_problem, spy
from lemmas import gamma3_magnitude, gamma_select, marden_quadratic_inside, pq_decompose

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


# rho >= 1: the identity, a normal expansion, and a non-normal block with eigenvalues +-2
NON_CONTRACTIVE = [np.eye(3), 1.5 * np.eye(2), np.array([[0.0, 4.0], [1.0, 0.0]])]


def contraction(seed, n=6, norm=0.6):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return norm * G / operator_norm(G)


def boundary_norm_samples(T, count):
    """||(I - T/z)^{-1}|| on `count` uniform boundary points."""
    eye = np.eye(T.shape[0])
    best = 0.0
    thetas = np.linspace(0.0, np.pi, count)
    for lo in range(0, count, 8192):
        phase = np.exp(-1j * thetas[lo:lo + 8192])
        mats = eye[None] - phase[:, None, None] * T[None]
        smin = np.linalg.svd(mats, compute_uv=False)[:, -1]
        best = max(best, float(np.max(1.0 / smin)))
    return best


class TestCaseParameters:
    def test_derived_constants(self):
        params = CaseParameters(theta0=np.pi / 8, delta0=1.0)
        t = 1.5 * np.pi / 8
        c = (1 + 2 * np.sin(t) + 1.0) / np.cos(t) ** 2
        assert np.isclose(params.c, c)
        assert params.c > params.delta0 ** 2
        assert np.isclose(params.C1, math.sqrt(2) - 1)
        assert np.isclose(params.C2, math.sqrt(2) + 0.5 / math.sin(np.pi / 16) - 1)
        assert np.isclose(params.C3, math.sqrt(c) - 1)

    @given(theta0=st.floats(1e-4, math.pi / 4), delta0=st.floats(1e-4, 50.0))
    def test_c_exceeds_delta0_squared(self, theta0, delta0):
        params = CaseParameters(theta0, delta0)
        assert params.c > delta0 ** 2
        assert params.C1 > 0 and params.C2 > 0 and params.C3 > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CaseParameters(theta0=0.0)
        with pytest.raises(ValueError):
            CaseParameters(theta0=np.pi / 4 + 1e-6)
        with pytest.raises(ValueError):
            CaseParameters(delta0=0.0)

    def test_rejects_infinite_delta0(self):
        with pytest.raises(ValueError, match="delta0"):
            CaseParameters(delta0=math.inf)


# ----------------------------------------------------------------------
# the doubling-grid estimate of s(T), kept as the oracle of s_of
# ----------------------------------------------------------------------

#: grid_s_of: first size, relative agreement that stops the doubling, largest size.
GRID_START_POINTS, GRID_REL_TOL, GRID_MAX_POINTS = 1024, 1e-6, 1 << 17


def grid_s_of(T) -> float:
    """Estimate s(T) = sup_{|z| >= 1} ||(I - T/z)^{-1}|| for rho(T) < 1.

    Samples z = exp(i theta) on a uniform grid of the unit circle and
    doubles the grid (GRID_START_POINTS up to GRID_MAX_POINTS) until two
    successive estimates agree to GRID_REL_TOL relative.  The grids are
    nested, so each doubling evaluates only the new angles and the
    estimates are monotone.  The result is floored at ||(I - T)^{-1}||,
    which is a proven lower bound for the supremum.  Every value it
    returns is a sampled norm, so it never exceeds s(T).
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"T must be square, got shape {T.shape}")
    if spectral_radius(T) >= 1.0:
        raise ProblemAssumptionError("s(T) requires rho(T) < 1")
    n = T.shape[0]
    eye = np.eye(n)
    floor = 1.0 / np.linalg.svd(eye - T, compute_uv=False)[-1]

    # cap the batched-SVD workspace at ~32 MB regardless of matrix size
    chunk = max(1, (32 << 20) // (16 * n * n))

    def grid_max(points: int, j) -> float:
        # the largest norm over the angles 2 pi j / points
        theta = 2.0 * np.pi * j / points
        best = 0.0
        for lo in range(0, len(theta), chunk):
            phase = np.exp(-1j * theta[lo:lo + chunk])  # T / z with z on the circle
            mats = eye[None, :, :] - phase[:, None, None] * T[None, :, :]
            smin = np.linalg.svd(mats, compute_uv=False)[:, -1]
            best = max(best, float(np.max(1.0 / smin)))
        return best

    # T is real, so the norm at theta and 2 pi - theta coincide: the
    # angles with 0 <= j <= points/2 cover the full circle.  A doubled
    # grid keeps every old angle at an even j and adds the odd j.
    points = GRID_START_POINTS
    est = grid_max(points, np.arange(points // 2 + 1))
    while points < GRID_MAX_POINTS:
        points *= 2
        refined = max(est, grid_max(points, np.arange(1, points // 2, 2)))
        done = abs(refined - est) <= GRID_REL_TOL * refined
        est = refined
        if done:
            break
    return max(est, floor)


def polished_s_of(T, grid_value):
    """The grid maximum refined by a bounded scalar minimisation of
    sigma_min(e^{i theta} I - T) around the best of 65 angles on the half
    circle."""
    points = 64
    eye = np.eye(T.shape[0])

    def smin(theta):
        mats = np.exp(1j * np.atleast_1d(theta))[:, None, None] * eye - T
        return np.linalg.svd(mats, compute_uv=False)[:, -1]

    theta = np.linspace(0.0, np.pi, points + 1)
    best = theta[np.argmin(smin(theta))]
    h = np.pi / points
    found = minimize_scalar(lambda t: smin(t)[0], bounds=(best - h, best + h),
                            method="bounded", options={"xatol": 1e-12})
    return max(grid_value, 1.0 / found.fun)


def bench_T(seed):
    """B^3 of the benchmark's s-path problem."""
    return np.linalg.matrix_power(random_problem(n_u=128, n_sigma=6, n_g=32, rng=seed).B, 3)


SOUNDNESS_CASES = {
    "n6": lambda _: contraction(74, n=6, norm=0.7),
    "n12": lambda _: contraction(75, n=12, norm=0.9),
    "n3": lambda _: contraction(76, n=3, norm=0.5),
    "sheared": lambda _: TestShearedSoundness.sheared_problem(1300).B,
    **{f"bench{seed}": lambda _, seed=seed: bench_T(seed) for seed in range(5)},
    "zero": lambda _: np.zeros((5, 5)),
    "sheared_block": lambda _: TestShearedSoundness.sheared_problem(1401, shear=0.8).B,
    "kron_twin": lambda _: np.kron(np.eye(4), contraction(77, n=9, norm=0.8)),
    "cavity_k1": lambda block: block,
    "cavity_k3": lambda block: np.linalg.matrix_power(block, 3),
}


#: Level-set inputs that stress the Cayley-transformed eigensolve beyond
#: SOUNDNESS_CASES: a norm that is constant on the circle (L - pole R is
#: nearly singular at every level), norms that peak at both z = +1 and
#: z = -1, a Jordan block near -1 and the benchmark's B itself.
CAYLEY_CASES = {
    "bench_B": lambda _: random_problem(n_u=128, n_sigma=6, n_g=32, rng=0).B,
    "nilpotent_shift": lambda _: np.eye(8, k=1),
    "peaks_at_both_poles": lambda _: np.diag([0.8, -0.8, 0.3]),
    "peaks_at_both_poles_coupled": lambda _: np.diag([0.8, -0.8]) + 0.1 * np.eye(2, k=1),
    "jordan_at_minus_0.9": lambda _: -0.9 * np.eye(6) + np.eye(6, k=1),
    **{f"sweep{seed}": lambda _, seed=seed: random_contraction(seed) for seed in range(24)},
}


def random_contraction(seed):
    """A dense n x n matrix, 2 <= n < 40, scaled to rho in [0.3, 0.99)."""
    rng = np.random.default_rng(9000 + seed)
    n = int(rng.integers(2, 40))
    G = rng.standard_normal((n, n))
    return rng.uniform(0.3, 0.99) * G / spectral_radius(G)


def qz_crossing_angles(T, gamma):
    """The crossing angles of s_of's level gamma from the QZ solve of the
    2n pencil [[T, I/gamma], [0, I]] - z [[I, 0], [I/gamma, T^T]], kept as
    the oracle of the Cayley-transformed eigensolve."""
    n = T.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    alpha, beta = scipy.linalg.eigvals(np.block([[T, eye / gamma], [zero, eye]]),
                                       np.block([[eye, zero], [eye / gamma, T.T]]),
                                       homogeneous_eigvals=True)
    size_a, size_b = np.abs(alpha), np.abs(beta)
    unit = (size_b > 0.0) & (np.abs(size_a - size_b) <= bounds.S_OF_UNIT_TOL * size_b)
    return np.unique(np.abs(np.angle(alpha[unit] * np.conj(beta[unit]))))


@pytest.fixture(scope="module")
def cavity_block():
    spec = load_spec(os.path.join(CONFIG_DIR, "exp_noise_free.cfg"))
    return generate(spec.cavity).problem.B  # 169 wide


@pytest.fixture(scope="module")
def oracle(cavity_block):
    """name -> (T, grid_s_of(T)), each case computed once per module."""
    cache = {}

    def get(name):
        if name not in cache:
            T = SOUNDNESS_CASES[name](cavity_block)
            cache[name] = T, grid_s_of(T)
        return cache[name]
    return get


@pytest.fixture(scope="module")
def bench_s_call():
    """The number of matrices s_of hands to np.linalg.svd and the shapes
    of the matrices it hands to the level-set eigensolve, called without a
    second matrix (a standard problem, not a pencil), on B^3 of the
    benchmark's s-path problem."""
    T = bench_T(0)
    svd, eigvals, counted, eigensolves = np.linalg.svd, bounds.eigvals, [], []

    def counting_svd(a, *args, **kwargs):
        counted.append(1 if a.ndim == 2 else a.shape[0])
        return svd(a, *args, **kwargs)

    def counting_eigvals(a, b=None, **kwargs):
        eigensolves.append(a.shape if b is None else "pencil")
        return eigvals(a, b, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", counting_svd)
        patch.setattr(bounds, "eigvals", counting_eigvals)
        s_of(T)
    return sum(counted), eigensolves


class TestSOf:
    def test_zero_matrix(self):
        assert np.isclose(s_of(np.zeros((4, 4))), 1.0)

    def test_norm_bound(self):
        T = contraction(70, norm=0.5)
        s = s_of(T)
        assert s <= 1.0 / (1.0 - 0.5) + 1e-9

    def test_floor_at_inverse_norm(self):
        T = contraction(71, norm=0.8)
        floor = 1.0 / np.linalg.svd(np.eye(6) - T, compute_uv=False)[-1]
        assert s_of(T) >= floor - 1e-12

    def test_against_dense_boundary_oracle(self):
        # brute-force maximization over 10^6 boundary samples
        T = contraction(72, n=4, norm=0.7)
        brute = boundary_norm_samples(T, 1_000_000)
        assert abs(s_of(T) - brute) <= 1e-4 * brute

    def test_monotone_under_scaling(self):
        T = contraction(73, norm=1.0)
        values = [s_of(c * T) for c in (0.0, 0.2, 0.4, 0.6, 0.8, 0.95)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_rejects_non_contractive(self):
        with pytest.raises(ProblemAssumptionError):
            s_of(np.eye(3))

    @pytest.mark.parametrize("T", NON_CONTRACTIVE)
    def test_rejects_rho_at_least_one(self, T):
        with pytest.raises(ProblemAssumptionError, match="rho"):
            s_of(T)

    def test_bench_work_is_a_few_solves(self, bench_s_call):
        # the doubling grid handed 1 + 513 + 512 matrices to the SVD here
        svd_matrices, eigensolves = bench_s_call
        assert svd_matrices <= 32
        assert 1 <= len(eigensolves) <= 6
        assert set(eigensolves) == {(256, 256)}

    # exact floats of the grid oracle: how its angles are scheduled must not move it
    @pytest.mark.parametrize("make_T, expected", [
        (lambda: contraction(74, n=6, norm=0.7), "0x1.44591466ae49dp+1"),
        (lambda: contraction(75, n=12, norm=0.9), "0x1.3b9f3be53a134p+1"),
        (lambda: contraction(76, n=3, norm=0.5), "0x1.a1a121354b457p+0"),
        (lambda: TestShearedSoundness.sheared_problem(1300).B, "0x1.a7727d65e7fc7p+1"),
    ], ids=["n6", "n12", "n3", "sheared"])
    def test_pinned_values(self, make_T, expected):
        assert grid_s_of(make_T()) == float.fromhex(expected)

    def test_bench_value_is_the_final_grid_maximum(self, oracle):
        # BLAS threading moves the last bit of s on a 128-wide matrix, so the
        # grid oracle's benchmark value is checked against every angle of the
        # 2048-point half circle evaluated here, in one batch, rather than a
        # pinned float
        T, value = oracle("bench0")
        eye = np.eye(T.shape[0])
        theta = 2.0 * np.pi * np.arange(2048 // 2 + 1) / 2048
        mats = eye[None, :, :] - np.exp(-1j * theta)[:, None, None] * T[None, :, :]
        grid = float(np.max(1.0 / np.linalg.svd(mats, compute_uv=False)[:, -1]))
        floor = 1.0 / np.linalg.svd(eye - T, compute_uv=False)[-1]
        assert value == max(grid, floor)

    @pytest.mark.parametrize("name", list(SOUNDNESS_CASES))
    def test_between_grid_and_polished_supremum(self, oracle, name):
        # the grid only samples the supremum, so it bounds s_of from below
        # with no tolerance; s_of stays within its tolerance of the supremum
        T, grid = oracle(name)
        if name == "sheared_block":
            assert operator_norm(T) >= 1.0
        value = s_of(T)
        assert grid <= value
        assert value <= (1.0 + 3.0 * bounds.S_OF_REL_TOL) * polished_s_of(T, grid)

    @pytest.mark.parametrize("name", [*SOUNDNESS_CASES, *CAYLEY_CASES])
    def test_cayley_eigensolve_matches_qz(self, cavity_block, name):
        # every level s_of visits has the QZ crossing set, up to sqrt(eps):
        # how far a rounding-size perturbation moves a pair of eigenvalues
        # at a tangency; s_of run on the QZ crossings returns the same level
        T = {**SOUNDNESS_CASES, **CAYLEY_CASES}[name](cavity_block)
        levels, cayley = [], bounds._crossing_angles

        def recording(matrix, gamma, pole):
            theta = cayley(matrix, gamma, pole)
            levels.append((gamma, theta))
            return theta

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_crossing_angles", recording)
            value = s_of(T)
        for gamma, theta in levels:
            qz = qz_crossing_angles(T, gamma)
            assert (len(theta) == 0) == (len(qz) == 0)
            if len(theta):
                gap = np.abs(theta[:, None] - qz[None, :])
                assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-8
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_crossing_angles",
                          lambda T, gamma, pole: qz_crossing_angles(T, gamma))
            assert abs(value - s_of(T)) <= 1e-12 * value

    def test_no_certificate_within_the_cap(self, monkeypatch):
        # a failed level-set eigensolve raises the same error (test_cli)
        monkeypatch.setattr(bounds, "S_OF_MAX_ITER", 0)
        with pytest.raises(EigensolverError, match="certificate"):
            s_of(contraction(74))


class TestPQDecompose:
    def test_identity_at_t_zero(self):
        P, Q = pq_decompose(np.zeros((3, 3)), 1.3 + 0.4j)
        assert np.allclose(P, np.eye(3), atol=1e-14)
        assert np.allclose(Q, np.zeros((3, 3)), atol=1e-14)

    def test_real_lambda_kills_q(self):
        T = contraction(74)
        for lam in (1.0, 2.5, -1.0, -3.0):
            _, Q = pq_decompose(T, lam)
            assert np.allclose(Q, 0.0, atol=1e-14)

    def test_reconstruction_and_bounds(self):
        T = contraction(75, norm=0.6)
        s = s_of(T)
        rng = np.random.default_rng(76)
        for _ in range(25):
            lam = complex(*rng.normal(size=2))
            lam = lam / abs(lam) * rng.uniform(1.0, 4.0)
            P, Q = pq_decompose(T, lam)
            direct = np.linalg.inv(np.eye(6) - T / lam)
            assert np.linalg.norm(P + 1j * Q - direct) <= 1e-12 * np.linalg.norm(direct)
            phi = -np.angle(lam)
            assert operator_norm(P) <= (1 + 0.6) * s ** 2 + 1e-9
            assert operator_norm(Q) <= abs(math.sin(phi)) * 0.6 * s ** 2 + 1e-9
            assert operator_norm(P) <= 1.0 / (1.0 - 0.6) + 1e-9
            assert operator_norm(Q) <= 0.6 / (1.0 - 0.6) + 1e-9

    def test_rejects_interior_lambda(self):
        with pytest.raises(ValueError):
            pq_decompose(contraction(77), 0.5)

    @pytest.mark.parametrize("T", NON_CONTRACTIVE)
    def test_rejects_rho_at_least_one(self, T):
        with pytest.raises(ProblemAssumptionError, match="rho"):
            pq_decompose(T, 1.3 + 0.4j)


class TestGammaSelect:
    def test_two_i_is_case_two(self):
        case, gamma = gamma_select(2j, theta0=np.pi / 8, delta0=1.0)
        w = (2j) ** 2 - 2j
        assert w.real < 0 and case == 2
        assert gamma == (-1.0 if w.imag >= 0 else 1.0)

    def test_rejects_real(self):
        with pytest.raises(ValueError):
            gamma_select(2.0, np.pi / 8, 1.0)

    def test_case3_gamma_magnitude(self):
        params = CaseParameters(np.pi / 8, 0.7)
        lam = 1.05 * np.exp(0.05j)  # small angle, |lambda| >= 1
        if ((lam * lam - lam).real < 0):
            case, gamma = gamma_select(lam, np.pi / 8, 0.7)
            assert case == 3
            assert np.isclose(abs(gamma), gamma3_magnitude(params))

    def test_case4_never_occurs(self, rng):
        # 10^5 random |lambda| >= 1: the fourth region is empty
        n = 100_000
        lam = (1.0 + rng.exponential(1.0, n)) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        lam = lam[np.abs(lam.imag) > 1e-12]
        theta0 = np.pi / 8
        w = lam * lam - lam
        in_case4 = (w.real < 0) & (np.abs(np.angle(lam)) > np.pi - theta0)
        assert not in_case4.any()
        # spot-check classification agreement on a subsample
        for value in lam[:200]:
            case, gamma = gamma_select(complex(value), theta0, 1.0)
            assert case in (1, 2, 3)
            assert np.isfinite(gamma)


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(2718)
    n = 400_000
    lam = (1.0 + rng.exponential(1.5, n)) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    return lam[np.abs(lam.imag) > 1e-12]


class TestCaseMultiplierInequalities:
    THETA0 = np.pi / 8
    DELTA0 = 1.0

    def test_case1(self, samples):
        w = samples * samples - samples
        mask = w.real >= 0
        lam = samples[mask]
        w = w[mask]
        assert mask.sum() >= 100_000
        gamma = np.where(w.imag >= 0, 1.0, -1.0)
        lhs = w.real + gamma * w.imag
        mod = np.abs(lam * (lam - 1.0))
        theta = np.angle(lam)
        assert np.all(lhs >= mod - 1e-9 * np.maximum(mod, 1.0))
        assert np.all(mod >= 2.0 * np.abs(np.sin(theta / 2.0)) - 1e-9)

    def test_case2(self, samples):
        theta0 = self.THETA0
        w = samples * samples - samples
        theta = np.angle(samples)
        mask = (w.real < 0) & (np.abs(theta) >= theta0) & (np.abs(theta) <= np.pi - theta0)
        lam, w = samples[mask], w[mask]
        assert mask.sum() >= 100_000
        gamma = np.where(w.imag >= 0, -1.0, 1.0)
        lhs = np.abs(w.real + gamma * w.imag)
        mod = np.abs(lam * (lam - 1.0))
        assert np.all(lhs >= mod - 1e-9 * np.maximum(mod, 1.0))
        assert np.all(mod >= 2.0 * math.sin(theta0 / 2.0) - 1e-9)

    def test_case3(self, rng):
        # the case-3 region Re(lambda^2 - lambda) < 0, |theta| < theta0 is the
        # sliver 1 <= R < cos(theta)/cos(2 theta); sample it directly
        theta0, delta0 = self.THETA0, self.DELTA0
        params = CaseParameters(theta0, delta0)
        n = 150_000
        theta = rng.uniform(-theta0, theta0, n)
        r_max = np.cos(theta) / np.cos(2.0 * theta)
        R = 1.0 + rng.uniform(0.0, 1.0, n) * (r_max - 1.0) * 0.999
        lam = R * np.exp(1j * theta)
        w = lam * lam - lam
        mask = (w.real < 0) & (np.abs(lam.imag) > 1e-12)
        lam, w, theta = lam[mask], w[mask], theta[mask]
        assert mask.sum() >= 100_000
        gamma = np.sign(theta) * gamma3_magnitude(params)
        lhs = w.real + gamma * w.imag
        assert np.all(lhs >= 2.0 * delta0 * np.abs(np.sin(theta / 2.0)) - 1e-9)
        lam1 = lam - 1.0
        sqrt_c = math.sqrt(params.c)
        ratio1 = np.abs(lam1.real + gamma * lam1.imag) / lhs
        assert np.all(ratio1 <= sqrt_c / delta0 + 1e-9)
        ratio2 = np.abs(gamma * lam1.real - lam1.imag) / lhs
        bound2 = max(sqrt_c / delta0, sqrt_c / math.cos(2.0 * theta0))
        assert np.all(ratio2 <= bound2 + 1e-9)


class TestMarden:
    def test_double_root_at_zero(self):
        assert marden_quadratic_inside(0.0, 0.0)

    def test_documented_example(self):
        assert not marden_quadratic_inside(0.5, -1.6)
        roots = np.roots([1.0, -1.6, 0.5])
        assert np.max(np.abs(roots)) >= 1.0

    def test_against_root_modulus_oracle(self, rng):
        a0 = rng.uniform(-3.0, 3.0, 100_000)
        a1 = rng.uniform(-3.0, 3.0, 100_000)
        disc = np.asarray(a1 ** 2 - 4.0 * a0, dtype=complex)
        sq = np.sqrt(disc)
        mod = np.maximum(np.abs((-a1 + sq) / 2.0), np.abs((-a1 - sq) / 2.0))
        decided = np.abs(mod - 1.0) > 1e-12  # exclusion band for ties
        expected = mod[decided] < 1.0
        got = np.array([marden_quadratic_inside(x, y)
                        for x, y in zip(a0[decided], a1[decided])])
        assert np.array_equal(got, expected)

    @given(a0=st.floats(-3, 3), a1=st.floats(-3, 3))
    @settings(max_examples=300, deadline=None)
    def test_property_matches_roots(self, a0, a1):
        roots = np.roots([1.0, a1, a0])
        mod = float(np.max(np.abs(roots)))
        if abs(mod - 1.0) > 1e-9:
            assert marden_quadratic_inside(a0, a1) == (mod < 1.0)


def one_step_phi(params, b):
    """The one-step complex-case polynomials in b = ||B|| (b < 1).  Case 3
    lacks the k-step factor sin(theta0/2) of ``_psi``."""
    phi1 = 4.0 * b * b
    phi2 = (1.0 + b) ** 2 * (1.0 - b) ** 2 / (2.0 * math.sin(0.5 * params.theta0))
    phi3 = (2.0 * params.c / params.delta0) * b * b
    return phi1, phi2, phi3


def one_step_oracle(norm_B, norm_M, norm_H, s_B=None, alpha=0.0, params=None):
    """(case1, case2, case3, tau_max) of the dedicated one-step bounds that
    preceded the k-step routine at k = 1: the closed (1 - ||B||)^4 form for
    ||B|| < 1 and the s(B)-based form when s_B is given, the larger of the
    two per case.  Real eigenvalues impose no restriction at k = 1."""
    params = params or CaseParameters()
    hm2 = (norm_H * norm_M) ** 2
    b = norm_B
    forms = []
    if b < 1.0:
        forms.append([hm2 / (1.0 - b) ** 4 * phi for phi in one_step_phi(params, b)])
    if s_B is not None:
        base = hm2 * s_B ** 4
        forms.append((base * 4.0 * b ** 2,
                      base * (1.0 + 2.0 * b) ** 2 / (2.0 * math.sin(0.5 * params.theta0)),
                      base * (2.0 * params.c / params.delta0) * b ** 2))
    cases = tuple(max(1.0 / d if d > 0.0 else math.inf
                      for d in (term + C * alpha for term in terms))
                  for C, terms in zip((params.C1, params.C2, params.C3), zip(*forms)))
    return (*cases, min(cases))


def k1_s_inputs(norm_B, s_B):
    """The s-path inputs at k = 1: B^1 = B, T_1 = I, X_1 = 0."""
    return dict(norm_Bk=norm_B, norm_Tk=1.0, norm_Xk=0.0, s_Bk=s_B)


class TestOneStepBounds:
    def test_phi1_value(self):
        psi1, _, _ = _psi(CaseParameters(), 0.5, 1)
        assert psi1 == one_step_phi(CaseParameters(), 0.5)[0] == 1.0

    def test_b_zero_exact_bound(self):
        report = sufficient_tau_k_step(0.0, 2.0, 3.0, alpha=0.0, k=1)
        assert np.isclose(report.tau_max, 1.0 / 36.0)
        assert report.binding_case == "b_zero"
        assert math.isinf(report.bound_real)
        assert report.bound_case1 is None

    def test_b_zero_unbounded_when_alpha_dominates(self):
        report = sufficient_tau_k_step(0.0, 1.0, 1.0, alpha=2.0, k=1)
        assert math.isinf(report.tau_max)
        assert "unbounded" in report_csv_row(report)

    def test_b_zero_leaves_the_s_inputs_unused(self):
        report = sufficient_tau_k_step(0.0, 2.0, 3.0, alpha=0.0, k=1,
                                       **k1_s_inputs(0.0, 1.0))
        assert report.binding_case == "b_zero" and report.s_Bk is None

    def test_needs_s_when_not_contractive_in_norm(self):
        with pytest.raises(ValueError):
            sufficient_tau_k_step(1.5, 1.0, 1.0, alpha=0.0, k=1)
        report = sufficient_tau_k_step(1.5, 1.0, 1.0, alpha=0.0, k=1,
                                       **k1_s_inputs(1.5, 4.0))
        assert report.tau_max > 0

    def test_uses_larger_of_closed_and_s_forms(self):
        closed = sufficient_tau_k_step(0.5, 1.0, 1.0, alpha=0.0, k=1)
        s_tight = sufficient_tau_k_step(0.5, 1.0, 1.0, alpha=0.0, k=1,
                                        **k1_s_inputs(0.5, 1.05))
        assert s_tight.tau_max >= closed.tau_max

    @pytest.mark.parametrize("theta0", [np.pi / 8, np.pi / 4])
    @pytest.mark.parametrize("alpha", [0.0, 1e-3, 0.1])
    @pytest.mark.parametrize("forms", ["closed", "s", "both"])
    def test_at_least_the_one_step_oracle(self, forms, alpha, theta0):
        # seeded random norms, with 1 <= s(B) <= 1/(1 - ||B||) where ||B|| < 1
        rng = np.random.default_rng(1700)
        params = CaseParameters(theta0, 1.0)
        eps = np.finfo(float).eps
        for _ in range(40):
            norm_M, norm_H = rng.uniform(0.1, 5.0, 2)
            if forms == "s":
                norm_B = float(rng.uniform(1.0, 3.0))
                s_B = float(rng.uniform(1.0, 10.0))
            else:
                norm_B = float(rng.uniform(0.01, 0.99))
                s_B = float(rng.uniform(1.0, 1.0 / (1.0 - norm_B)))
            s_B = None if forms == "closed" else s_B
            extra = {} if s_B is None else k1_s_inputs(norm_B, s_B)
            report = sufficient_tau_k_step(norm_B, norm_M, norm_H, alpha, 1,
                                           params=params, **extra)
            case1, case2, _, tau_max = one_step_oracle(norm_B, norm_M, norm_H,
                                                       s_B, alpha, params)
            assert report.tau_max >= tau_max * (1.0 - 8.0 * eps)
            assert math.isclose(report.bound_case1, case1, rel_tol=1e-14)
            assert math.isclose(report.bound_case2, case2, rel_tol=1e-14)
            assert math.isinf(report.bound_real)

    def test_soundness_on_random_instances(self, rng):
        # 50 random problems: certificates hold at every tau <= tau_max
        for seed in range(50):
            p = make_problem(1100 + seed, n_u=6, n_sigma=2, n_g=4,
                             norm_b=float(rng.uniform(0.05, 0.85)))
            alpha = float(rng.choice([0.0, 1e-4, 1e-1]))
            report = bound_report_for(p, alpha=alpha, k=1)
            for tau in (report.tau_max, report.tau_max / 3):
                assert certify(p, tau, alpha, 1).spectral_radius < 1.0


class TestNonFiniteAlpha:
    # a nan or inf alpha must not turn into an "unbounded" or zero tau_max
    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_one_step_rejects(self, alpha):
        for norm_B in (0.0, 0.5):
            with pytest.raises(ValueError, match="alpha"):
                sufficient_tau_k_step(norm_B, 1.0, 1.0, alpha, 1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_k_step_rejects(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            sufficient_tau_k_step(0.5, 1.0, 1.0, alpha, 3)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    @pytest.mark.parametrize("k", [1, 3])
    def test_problem_level_rejects(self, alpha, k):
        with pytest.raises(ValueError, match="alpha"):
            bound_report_for(make_problem(90), alpha=alpha, k=k)


S_INPUTS = dict(norm_Bk=0.125, norm_Tk=1.75, norm_Xk=2.5, s_Bk=1.2)


class TestBadNormInputs:
    # a nan, inf or negative norm must not turn into an "unbounded" tau_max,
    # nor may an s-input the s-based path cannot use be echoed in the report
    @pytest.mark.parametrize("name", ["norm_B", "norm_M", "norm_H", *S_INPUTS])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -5.0])
    @pytest.mark.parametrize("norm_B, k", [(0.0, 1), (0.5, 1), (0.5, 3)])
    def test_rejects_non_finite_or_negative(self, name, value, norm_B, k):
        inputs = dict(norm_B=norm_B, norm_M=0.5, norm_H=1.0, **S_INPUTS)
        inputs[name] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
            sufficient_tau_k_step(alpha=0.0, k=k, **inputs)

    @pytest.mark.parametrize("given", [("norm_Bk",), ("norm_Tk", "s_Bk"),
                                       ("norm_Bk", "norm_Tk", "norm_Xk")])
    @pytest.mark.parametrize("norm_B, k", [(0.0, 1), (0.5, 3), (1.5, 3)])
    def test_rejects_a_partial_set_of_s_inputs(self, given, norm_B, k):
        missing = ", ".join(name for name in S_INPUTS if name not in given)
        with pytest.raises(ValueError, match=f"missing {missing}$"):
            sufficient_tau_k_step(norm_B, 0.5, 1.0, 0.0, k,
                                  **{name: S_INPUTS[name] for name in given})

    def test_zero_and_full_inputs_still_pass(self):
        zeros = sufficient_tau_k_step(0.0, 0.0, 0.0, 0.0, 1)
        assert zeros.tau_max == math.inf and zeros.binding_case == "real"
        full = sufficient_tau_k_step(0.5, 0.5, 1.0, 0.0, 3, **S_INPUTS)
        assert full.s_Bk == S_INPUTS["s_Bk"] and math.isfinite(full.tau_max)


class TestKStepBounds:
    def test_psi_reduces_to_phi_at_k1(self):
        params = CaseParameters()
        sin_half = math.sin(0.5 * params.theta0)
        for b in (0.1, 0.5, 0.9):
            psi1, psi2, psi3 = _psi(params, b, 1)
            phi1, phi2, phi3 = one_step_phi(params, b)
            assert np.isclose(psi1, phi1)
            assert np.isclose(psi2, phi2)
            assert np.isclose(psi3, phi3 * sin_half)  # k-step case-3 keeps a sin factor

    def test_psi1_documented_value(self):
        psi1, _, _ = _psi(CaseParameters(), 0.5, 2)
        expected = 4 * 0.25 ** 2 + math.sqrt(2) * (1 - 2 * 0.5 + 1 * 0.25) * (1 + 0.25)
        assert np.isclose(psi1, expected)

    def test_k1_prefactor_matches_one_step(self):
        case1, case2, case3, _ = one_step_oracle(0.5, 1.2, 0.8, alpha=0.0)
        multi = sufficient_tau_k_step(0.5, 1.2, 0.8, alpha=0.0, k=1)
        assert np.isclose(case1, multi.bound_case1)
        assert np.isclose(case2, multi.bound_case2)
        assert np.isclose(case3 / math.sin(np.pi / 16), multi.bound_case3)

    def test_real_bound_relaxes_with_alpha(self):
        lo = sufficient_tau_k_step(0.5, 1.0, 1.0, alpha=0.0, k=3)
        hi = sufficient_tau_k_step(0.5, 1.0, 1.0, alpha=1.0, k=3)
        assert hi.bound_real >= lo.bound_real

    def test_real_bound_never_binds(self):
        for b in (0.1, 0.5, 0.9):
            for k in (1, 2, 3, 5):
                report = sufficient_tau_k_step(b, 1.3, 0.7, alpha=0.05, k=k)
                assert report.binding_case != "real"

    @pytest.mark.parametrize("k", [2.5, True, 0])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            sufficient_tau_k_step(0.5, 1.0, 1.0, alpha=0.0, k=k)
        with pytest.raises(ValueError, match="k must be a positive integer"):
            bound_report_for(make_problem(90), alpha=0.0, k=k)

    def test_theta0_strictness(self):
        params = CaseParameters(theta0=np.pi / 4)
        # allowed at k = 1, where w = 0 and X_1 = 0 cancel the cos(2 theta0) term
        for extra in ({}, k1_s_inputs(0.5, 2.0)):
            report = sufficient_tau_k_step(0.5, 1.0, 1.0, alpha=0.0, k=1,
                                           params=params, **extra)
            assert 0.0 < report.tau_max < math.inf
        with pytest.raises(ValueError, match="theta0"):
            sufficient_tau_k_step(0.5, 1.0, 1.0, alpha=0.0, k=2, params=params)

    @pytest.mark.parametrize("use_s_path", [False, True])
    def test_theta0_quarter_pi_at_problem_level(self, use_s_path):
        p = make_problem(91, norm_b=0.6)
        params = CaseParameters(theta0=math.pi / 4)
        report = bound_report_for(p, alpha=1e-3, k=1, params=params,
                                  use_s_path=use_s_path)
        fields = (report.tau_max, report.bound_case1, report.bound_case2,
                  report.bound_case3)
        assert all(math.isfinite(value) and value > 0.0 for value in fields)
        assert math.isinf(report.bound_real)
        with pytest.raises(ValueError, match="theta0"):
            bound_report_for(p, alpha=1e-3, k=2, params=params, use_s_path=use_s_path)

    def test_soundness_on_random_instances(self, rng):
        for seed in range(30):
            p = make_problem(1200 + seed, n_u=6, n_sigma=2, n_g=4,
                             norm_b=float(rng.uniform(0.05, 0.85)))
            alpha = float(rng.choice([0.0, 1e-4, 1e-1]))
            for k in (2, 3, 5):
                report = bound_report_for(p, alpha=alpha, k=k)
                assert certify(p, report.tau_max, alpha, k).spectral_radius < 1.0


class TestShearedSoundness:
    """Instances with rho(B) < 1 < ||B||: only the s(B^k)-based path applies."""

    @staticmethod
    def sheared_problem(seed, shear=0.5):
        # moderate shear: heavier ones push tau_max below ~1e-12, where the
        # certified contraction margin drops under eigensolver resolution
        rng = np.random.default_rng(seed)
        n = 6
        diag = rng.uniform(-0.5, 0.5, n)
        B = np.diag(diag) + np.triu(rng.standard_normal((n, n)), k=1) * shear
        M = rng.standard_normal((n, 2))
        H = rng.standard_normal((4, n))
        from oneshot import LinearInverseProblem
        return LinearInverseProblem(B, M, H, np.zeros(n))

    def test_squarings_certify_every_instance(self, monkeypatch):
        # ||B|| > 1 on all of them, yet a norm of B^2 or B^4 proves rho(B) < 1
        # without a dense eigensolve
        eigensolves = spy(monkeypatch, problem_module, "spectral_radius")
        needs_b4 = 0
        for seed in [*range(1300, 1308), *range(1400, 1406)]:
            B = self.sheared_problem(seed).B
            B2 = B @ B
            assert min(np.linalg.norm(B, 1), np.linalg.norm(B, np.inf)) > 1.0
            needs_b4 += min(np.linalg.norm(B2, 1), np.linalg.norm(B2, np.inf)) >= 1.0
        assert needs_b4 >= 5 and eigensolves == []

    def test_one_step_rho_only_path(self):
        for seed in range(8):
            p = self.sheared_problem(1300 + seed)
            assert p.norm_B > 1.0 and p.rho_B < 1.0
            report = bound_report_for(p, alpha=1e-3, k=1)
            assert report.s_Bk == s_of(p.B)  # forced s path, on B^1 = B
            *_, oracle = one_step_oracle(p.norm_B, p.norm_M, p.norm_H,
                                         s_B=report.s_Bk, alpha=1e-3)
            assert report.tau_max >= oracle * (1.0 - 8.0 * np.finfo(float).eps)
            assert 1e-12 < report.tau_max < math.inf
            for tau in (report.tau_max, report.tau_max / 5):
                assert certify(p, tau, 1e-3, 1).spectral_radius < 1.0

    def test_k_step_s_path(self):
        for seed in range(6):
            p = self.sheared_problem(1400 + seed)
            for k in (2, 3):
                report = bound_report_for(p, alpha=1e-4, k=k)
                assert report.s_Bk is not None  # forced s path
                assert report.tau_max > 1e-12   # margin stays resolvable
                assert certify(p, report.tau_max, 1e-4, k).spectral_radius < 1.0


#: The pinned bounds row of the B = 0 problem at k = 1 and alpha = 0.
ZERO_K1_ROW = ("1,0.0,0.0,2.8911881441104885,4.757371062774742,,unbounded,,,,"
               "0.005285830568437273,0.005285830568437273,b_zero,0.39269908169872414,1.0")


class TestReportCsv:
    def test_header_and_row_shape(self):
        report = sufficient_tau_k_step(0.5, 1.0, 1.0, 1e-3, 1, **k1_s_inputs(0.5, 2.0))
        header = report_csv_header()
        row = report_csv_row(report)
        assert len(header.split(",")) == len(row.split(","))
        assert header.startswith("k,alpha,normB")
        assert "unbounded" in row  # the real bound is unrestricted at k = 1

    def test_problem_level_report(self):
        p = make_problem(80, norm_b=0.6)
        report = bound_report_for(p, alpha=1e-3, k=4)
        assert report.norm_B == pytest.approx(0.6)
        assert report.s_Bk is not None and report.norm_Xk is not None
        assert report.tau_max > 0

    @staticmethod
    def zero_problem():
        p = make_problem(81, n_u=6)
        return LinearInverseProblem(np.zeros((6, 6)), p.M, p.H, p.F)

    def test_zero_block_at_k1_builds_no_s_inputs(self, monkeypatch):
        # the exact B = 0 criterion reads no s-input, so none is computed
        s_calls = spy(monkeypatch, bounds, "s_of")
        p = self.zero_problem()
        report = bound_report_for(p, 0.0, 1, use_s_path=True)
        assert s_calls == [] and "_k_step" not in p.__dict__  # no k-step operators
        assert report_csv_row(report) == ZERO_K1_ROW
        bound_report_for(p, 0.0, 3, use_s_path=True)
        assert len(s_calls) == 1  # from k = 2 on the s-path still runs

    # exact rows over both forms, the s form alone, the closed form alone,
    # B = 0, k = 1 and k >= 2: how the cases are assembled must not move a bound
    @pytest.mark.parametrize("problem, alpha, k, params, use_s_path, expected", [
        ("zero", 0.0, 1, None, None, ZERO_K1_ROW),
        ("zero", 0.1, 3, None, None,
         "3,0.1,0.0,2.8911881441104885,4.757371062774742,1.0,0.00528722793799012,"
         "0.003737068072271922,0.001328531183846354,0.002491027261634039,,"
         "0.001328531183846354,case2,0.39269908169872414,1.0"),
        ("both", 1e-3, 1, None, None,
         "1,0.001,0.6,3.3561657681188377,4.749008307579365,1.5121641473902752,unbounded,"
         "0.0005228161571657272,9.599595843915331e-05,0.0011910114274177365,,"
         "9.599595843915331e-05,case2,0.39269908169872414,1.0"),
        ("both", 1e-3, 4, (0.3, 0.2), None,
         "4,0.001,0.6,3.3561657681188377,4.749008307579365,1.0085437612360775,"
         "0.004567145395318225,0.00299618245630827,0.00042443112429343727,"
         "0.0006934198262518476,,0.00042443112429343727,case2,0.3,0.2"),
        ("both", 0.0, 3, None, False,
         "3,0.0,0.6,3.3561657681188377,4.749008307579365,,0.0010998077586672566,"
         "0.000488832667448559,0.00012629000978736456,0.00029335376988030084,,"
         "0.00012629000978736456,case2,0.39269908169872414,1.0"),
        ("sheared", 1e-3, 1, (0.3, 0.2), None,
         "1,0.001,1.7387031652502947,3.280357653450909,3.271142548555653,3.308181452521214,"
         "unbounded,5.996398605812708e-06,1.0810350718230585e-06,1.071992350761604e-05,,"
         "1.0810350718230585e-06,case2,0.3,0.2"),
        ("sheared", 1e-4, 3, None, None,
         "3,0.0001,1.7387031652502947,3.280357653450909,3.271142548555653,1.2204167966164043,"
         "0.004430049774093044,0.0005337224172343551,9.066590822575026e-05,"
         "0.0004095353450037748,,9.066590822575026e-05,case2,0.39269908169872414,1.0"),
    ])
    def test_pinned_rows(self, problem, alpha, k, params, use_s_path, expected,
                         monkeypatch):
        # the rows were recorded with the grid estimate of s
        monkeypatch.setattr(bounds, "s_of", grid_s_of)
        if problem == "zero":
            p = self.zero_problem()
        elif problem == "both":
            p = make_problem(80, norm_b=0.6)
        else:
            p = TestShearedSoundness.sheared_problem(1300)
        params = None if params is None else CaseParameters(*params)
        report = bound_report_for(p, alpha, k, params=params, use_s_path=use_s_path)
        assert report_csv_row(report) == expected
