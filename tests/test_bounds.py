import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from oneshot import (CaseParameters, EigensolverError, LinearInverseProblem,
                     ProblemAssumptionError, bounds, certify, gamma_select,
                     marden_quadratic_inside, pq_decompose, random_problem,
                     s_of, sufficient_tau_k_step, sufficient_tau_one_step)
from oneshot import problem as problem_module
from oneshot.bounds import (_psi, bound_report_for, report_csv_header,
                            report_csv_row)
from oneshot.cavity import generate
from oneshot.experiments import load_spec
from oneshot.problem import operator_norm, spectral_radius
from conftest import make_problem, spy

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


@pytest.fixture(scope="module")
def oracle():
    """name -> (T, grid_s_of(T)), each case computed once per module."""
    spec = load_spec(os.path.join(CONFIG_DIR, "exp_noise_free.cfg"))
    cavity_block = generate(spec.cavity).problem.B  # 169 wide
    cache = {}

    def get(name):
        if name not in cache:
            T = SOUNDNESS_CASES[name](cavity_block)
            cache[name] = T, grid_s_of(T)
        return cache[name]
    return get


@pytest.fixture(scope="module")
def bench_s_call():
    """The number of matrices s_of hands to np.linalg.svd and the number
    of pencil solves it makes on B^3 of the benchmark's s-path problem."""
    T = bench_T(0)
    svd, eigvals, counted, pencils = np.linalg.svd, bounds.eigvals, [], []

    def counting_svd(a, *args, **kwargs):
        counted.append(1 if a.ndim == 2 else a.shape[0])
        return svd(a, *args, **kwargs)

    def counting_eigvals(*args, **kwargs):
        pencils.append(1)
        return eigvals(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", counting_svd)
        patch.setattr(bounds, "eigvals", counting_eigvals)
        s_of(T)
    return sum(counted), len(pencils)


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
        svd_matrices, pencil_solves = bench_s_call
        assert svd_matrices <= 32
        assert pencil_solves <= 6

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

    def test_no_certificate_within_the_cap(self, monkeypatch):
        # a failed pencil eigensolve raises the same error (test_cli)
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
            assert np.isclose(abs(gamma), params.gamma3_magnitude)

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
        gamma = np.sign(theta) * params.gamma3_magnitude
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


class TestOneStepBounds:
    def test_phi1_value(self):
        from oneshot.bounds import _phi
        phi1, _, _ = _phi(CaseParameters(), 0.5)
        assert np.isclose(phi1, 1.0)

    def test_b_zero_exact_bound(self):
        report = sufficient_tau_one_step(0.0, 2.0, 3.0, alpha=0.0)
        assert np.isclose(report.tau_max, 1.0 / 36.0)
        assert report.binding_case == "b_zero"
        assert math.isinf(report.bound_real)
        assert report.bound_case1 is None

    def test_b_zero_unbounded_when_alpha_dominates(self):
        report = sufficient_tau_one_step(0.0, 1.0, 1.0, alpha=2.0)
        assert math.isinf(report.tau_max)
        assert "unbounded" in report_csv_row(report)

    def test_needs_s_when_not_contractive_in_norm(self):
        with pytest.raises(ValueError):
            sufficient_tau_one_step(1.5, 1.0, 1.0)
        report = sufficient_tau_one_step(1.5, 1.0, 1.0, s_B=4.0)
        assert report.tau_max > 0

    def test_uses_larger_of_closed_and_s_forms(self):
        closed = sufficient_tau_one_step(0.5, 1.0, 1.0)
        s_tight = sufficient_tau_one_step(0.5, 1.0, 1.0, s_B=1.05)
        assert s_tight.tau_max >= closed.tau_max

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
                sufficient_tau_one_step(norm_B, 1.0, 1.0, alpha=alpha)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_k_step_rejects(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            sufficient_tau_k_step(0.5, 1.0, 1.0, alpha, 3)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    @pytest.mark.parametrize("k", [1, 3])
    def test_problem_level_rejects(self, alpha, k):
        with pytest.raises(ValueError, match="alpha"):
            bound_report_for(make_problem(90), alpha=alpha, k=k)


class TestKStepBounds:
    def test_psi_reduces_to_phi_at_k1(self):
        from oneshot.bounds import _phi
        params = CaseParameters()
        for b in (0.1, 0.5, 0.9):
            psi1, psi2, psi3 = _psi(params, b, 1)
            phi1, phi2, phi3 = _phi(params, b)
            assert np.isclose(psi1, phi1)
            assert np.isclose(psi2, phi2)
            assert psi3 <= phi3 + 1e-12  # k-step case-3 keeps a sin factor

    def test_psi1_documented_value(self):
        psi1, _, _ = _psi(CaseParameters(), 0.5, 2)
        expected = 4 * 0.25 ** 2 + math.sqrt(2) * (1 - 2 * 0.5 + 1 * 0.25) * (1 + 0.25)
        assert np.isclose(psi1, expected)

    def test_k1_prefactor_matches_one_step(self):
        one = sufficient_tau_one_step(0.5, 1.2, 0.8, alpha=0.0)
        multi = sufficient_tau_k_step(0.5, 1.2, 0.8, alpha=0.0, k=1)
        assert np.isclose(one.bound_case1, multi.bound_case1)
        assert np.isclose(one.bound_case2, multi.bound_case2)

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
        sufficient_tau_one_step(0.5, 1.0, 1.0, params=params)  # allowed at k = 1
        with pytest.raises(ValueError):
            sufficient_tau_k_step(0.5, 1.0, 1.0, alpha=0.0, k=2, params=params)

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
            report = sufficient_tau_one_step(p.norm_B, p.norm_M, p.norm_H,
                                             s_B=s_of(p.B), alpha=1e-3)
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


class TestReportCsv:
    def test_header_and_row_shape(self):
        report = sufficient_tau_one_step(0.5, 1.0, 1.0, s_B=2.0, alpha=1e-3)
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

    # exact rows over both forms, the s form alone, the closed form alone,
    # B = 0, k = 1 and k >= 2: how the cases are assembled must not move a bound
    @pytest.mark.parametrize("problem, alpha, k, params, use_s_path, expected", [
        ("zero", 0.0, 1, None, None,
         "1,0.0,0.0,2.8911881441104885,4.757371062774742,,unbounded,,,,"
         "0.005285830568437273,0.005285830568437273,b_zero,0.39269908169872414,1.0"),
        ("zero", 0.1, 3, None, None,
         "3,0.1,0.0,2.8911881441104885,4.757371062774742,1.0,0.00528722793799012,"
         "0.003737068072271922,0.001328531183846354,0.002491027261634039,,"
         "0.001328531183846354,case2,0.39269908169872414,1.0"),
        ("both", 1e-3, 1, None, None,
         "1,0.001,0.6,3.3561657681188377,4.749008307579365,1.5121641473902752,unbounded,"
         "0.0005228161571657272,9.599595843915328e-05,0.00023235505268027787,,"
         "9.599595843915328e-05,case2,0.39269908169872414,1.0"),
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
         "unbounded,5.9963986058127084e-06,1.0810350718230585e-06,1.6019654239967235e-06,,"
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
            p = make_problem(81, n_u=6)
            p = LinearInverseProblem(np.zeros((6, 6)), p.M, p.H, p.F)
        elif problem == "both":
            p = make_problem(80, norm_b=0.6)
        else:
            p = TestShearedSoundness.sheared_problem(1300)
        params = None if params is None else CaseParameters(*params)
        report = bound_report_for(p, alpha, k, params=params, use_s_path=use_s_path)
        assert report_csv_row(report) == expected
