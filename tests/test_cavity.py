import dataclasses
import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
import scipy.special

from oneshot import (CavityConfig, ProblemAssumptionError, RunConfig,
                     SchemeKind, cost, generate, gradient, load_problem,
                     multi_source_objective, run)
from oneshot.cavity import (_CAVITY_CODECS, _assemble, _build_mesh, _random_background,
                            _sigma_cells, _source_positions, _triangle_geometry,
                            export_cavity, format_manifest, parse_manifest, with_noise_level)
from oneshot import problem as problem_module
from oneshot.experiments import load_spec
from oneshot.problem import LinearInverseProblem, Objective, from_block_columns
from conftest import spy

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED_SPECS = ("exp_noise_free", "exp_noisy", "exp_mesh", "exp_delta")


def small_config(**overrides):
    """Two-source coarse cavity; fast enough for unit tests."""
    base = dict(mesh_h=2.0 / 7.0, n_sources=2, rng_seed=3,
                inclusion_layout=((-1.0, -1.0, 0.5), (1.0, 0.5, 0.5)),
                sigma_subdivision=(1, 2))
    base.update(overrides)
    return CavityConfig(**base)


def every_field_config():
    """A configuration with every field away from its default."""
    return CavityConfig(
        omega=5.0, sigma0_bar=1.5, delta=0.02, mesh_h=0.25, domain_radius=1.75,
        inclusion_layout=((-0.75, -0.5, 0.25), (0.5, 0.5, 0.375)),
        sigma_subdivision=(2, 3), n_sources=4, source_radius=2.5,
        sigma_exact=(9.0, 11.0), sigma_init=13.5, noise_level=0.02, rng_seed=11,
        random_background=False, boundary_subsample=3, data_scale=0.5,
        normalize_data=True)


EVERY_FIELD_LINES = """\
omega = 5.0
sigma0_bar = 1.5
delta = 0.02
mesh_h = 0.25
domain_radius = 1.75
inclusion_layout = -0.75,-0.5,0.25;0.5,0.5,0.375
sigma_subdivision = 2,3
n_sources = 4
source_radius = 2.5
sigma_exact = 9.0,11.0
sigma_init = 13.5
noise_level = 0.02
rng_seed = 11
random_background = false
boundary_subsample = 3
data_scale = 0.5
normalize_data = true
"""


@pytest.fixture(scope="module")
def small_cavity():
    return generate(small_config())


def per_source(cavity, stacked):
    """Split stacked data into the per-source blocks."""
    return np.split(stacked, cavity.problem.n_blocks)


def dense_assembly(nodes, tris, local):
    """Oracle: scatter-add the 3x3 element matrices into a dense matrix."""
    out = np.zeros((len(nodes), len(nodes)))
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    np.add.at(out, (rows, cols), local.ravel())
    return out


class TestGenerate:
    def test_dimensions(self, small_cavity):
        ms = small_cavity.mesh_summary
        assert ms.n_u == 2 * ms.n_u_single
        assert ms.n_sigma == 4
        assert small_cavity.problem.n_sigma == 4
        assert len(per_source(small_cavity, small_cavity.stacked_clean)) == 2
        assert small_cavity.exact_sigma.shape == (4,)
        assert np.all(small_cavity.exact_sigma == 10.0)
        assert np.all(small_cavity.init_sigma == 12.0)

    def test_delta_zero_gives_b_zero(self):
        cavity = generate(small_config(delta=0.0))
        assert np.array_equal(cavity.problem.B, np.zeros_like(cavity.problem.B))

    def test_b_is_exactly_linear_in_delta(self):
        b1 = generate(small_config(delta=0.01)).problem
        b2 = generate(small_config(delta=0.02)).problem
        assert abs(b2.norm_B / b1.norm_B - 2.0) <= 1e-10
        assert np.allclose(b2.B, 2.0 * b1.B, rtol=1e-12, atol=0.0)

    def test_no_noise_means_identical_data(self, small_cavity):
        for clean, noisy in zip(per_source(small_cavity, small_cavity.stacked_clean),
                                per_source(small_cavity, small_cavity.stacked_noisy)):
            assert np.array_equal(clean, noisy)

    def test_noise_reproducible_and_bounded(self):
        a = generate(small_config(noise_level=0.05))
        b = generate(small_config(noise_level=0.05))
        for ga, gb in zip(per_source(a, a.stacked_noisy), per_source(b, b.stacked_noisy)):
            assert np.array_equal(ga, gb)
        for clean, noisy in zip(per_source(a, a.stacked_clean), per_source(a, a.stacked_noisy)):
            assert np.all(np.abs(noisy - clean) <= 0.05 * np.abs(clean) + 1e-300)
        c = generate(small_config(noise_level=0.05, rng_seed=4))
        assert not np.array_equal(per_source(a, a.stacked_noisy)[0],
                                  per_source(c, c.stacked_noisy)[0])

    @pytest.mark.parametrize("background", [True, False])
    def test_with_noise_level_equals_generate(self, background):
        base = generate(small_config(noise_level=0.01, random_background=background))
        for level in (0.05, 0.0, 0.01):
            ours = with_noise_level(base, level)
            oracle = generate(small_config(noise_level=level, random_background=background))
            assert ours.problem is base.problem and ours.config == oracle.config
            for name in ("stacked_noisy", "stacked_clean", "exact_sigma", "init_sigma"):
                assert np.array_equal(getattr(ours, name), getattr(oracle, name))
        with pytest.raises(ValueError, match="noise_level"):
            with_noise_level(base, -0.01)

    def test_assembly_matrices_symmetric(self):
        nodes, tris, interior, boundary = _build_mesh(2.0, 10)
        areas, grads = _triangle_geometry(nodes, tris)
        rng = np.random.default_rng(0)
        K = _assemble(nodes, tris, areas, grads,
                      stiffness_coef=rng.uniform(0, 1, len(tris))).toarray()
        mass = _assemble(nodes, tris, areas, grads, mass=True).toarray()
        assert np.linalg.norm(K - K.T) <= 1e-12 * np.linalg.norm(K)
        assert np.linalg.norm(mass - mass.T) <= 1e-12 * np.linalg.norm(mass)

    def test_sparse_assembly_matches_dense_scatter_add(self):
        # duplicates must sum in the same order as np.add.at, so the sparse
        # matrices, and the resonance block and H sliced from them, equal
        # the dense assembly bit for bit
        nodes, tris, interior, boundary = _build_mesh(2.0, 10)
        areas, grads = _triangle_geometry(nodes, tris)
        coef = np.random.default_rng(1).uniform(0, 1, len(tris))
        stiffness = np.einsum("tad,tbd->tab", grads, grads) * areas[:, None, None]
        mass = areas[:, None, None] * ((np.ones((3, 3)) + np.eye(3)) / 12.0)
        cases = [(dict(), stiffness),
                 (dict(stiffness_coef=coef), stiffness * coef[:, None, None]),
                 (dict(mass=True), mass)]
        for kwargs, local in cases:
            sparse = _assemble(nodes, tris, areas, grads, **kwargs)
            assert np.array_equal(sparse.toarray(), dense_assembly(nodes, tris, local))
        some = np.arange(0, len(tris), 7)  # a subset of triangles, as for one sigma cell
        sparse = _assemble(nodes, tris[some], areas[some], grads[some])
        assert np.array_equal(sparse.toarray(), dense_assembly(nodes, tris[some], stiffness[some]))

    def test_sources_strictly_outside(self):
        config = small_config()
        lam = config.wavelength
        positions = _source_positions(config)
        half_width = config.domain_radius * lam
        assert np.all(np.max(np.abs(positions), axis=1) > half_width)

    @pytest.mark.parametrize("radius", [1.0, 2.0])
    def test_source_inside_or_on_domain_rejected(self, radius):
        with pytest.raises(ValueError, match="source_radius"):
            small_config(source_radius=radius)

    def test_incident_traces_pinned(self, small_cavity):
        # clean data of both sources; a wrong special function or argument
        # in the incident traces moves these values
        pinned = {1: 5.57108589942677, 13: 6.196467296386792,
                  29: 8.146089127981718, 45: -0.07363030944932708,
                  55: 7.072406198896992}
        g = small_cavity.stacked_clean
        for index, value in pinned.items():
            assert abs(g[index] - value) <= 1e-9 * abs(value)

    def test_subdivided_reduced_operator_pinned(self):
        # 3 x 3 sigma cells per inclusion: the column order of A follows the
        # sub-cell order (a, b) row-major; sigma_exact is constant per
        # inclusion, so only the operator itself pins that order
        cavity = generate(small_config(
            inclusion_layout=((-1.0, -1.0, 0.857), (1.0, 0.5, 0.857)),
            sigma_subdivision=(3, 3)))
        A = cavity.problem.reduced_operator()
        assert A.shape == (56, 18)
        pinned = {(5, 1): -0.019926465948105414, (12, 3): -0.055312064068136095,
                  (30, 5): -0.010714659465568682, (41, 11): 0.028640937317592638,
                  (50, 15): 0.027481101616920623}
        for index, value in pinned.items():
            assert abs(A[index] - value) <= 1e-9 * abs(value)

    def test_inclusion_outside_domain_rejected(self):
        with pytest.raises(ProblemAssumptionError, match="inside"):
            generate(small_config(inclusion_layout=((1.9, 0.0, 0.5),)))

    def test_overlapping_inclusions_rejected(self):
        with pytest.raises(ProblemAssumptionError, match="overlap"):
            generate(small_config(
                inclusion_layout=((0.0, 0.0, 0.6), (0.1, 0.1, 0.6))))

    def test_near_resonant_mesh_rejected(self):
        # this resolution places a discrete eigenvalue near omega^2; the
        # generator must refuse rather than hand out a non-contractive B
        # (rho(B) = 2.79: no norm certifies, so the eigensolve rejects it)
        with pytest.raises(ProblemAssumptionError, match="does not contract"):
            generate(CavityConfig(mesh_h=0.25, rng_seed=7))

    # generate would snap an edge <= 0 to a one-cell inclusion
    @pytest.mark.parametrize("inclusion", [(1.0, 0.5, -0.5), (1.0, 0.5, 0.0), (1.0, 0.5),
                                           (1.0, 0.5, 0.5, 0.5)])
    def test_inclusion_must_be_a_square_with_positive_edge(self, inclusion):
        with pytest.raises(ValueError, match="inclusion_layout"):
            small_config(inclusion_layout=((-1.0, -1.0, 0.5), inclusion))

    # generate would find the wrong length only after the resonance eigensolve
    @pytest.mark.parametrize("name", ["sigma_exact", "sigma_init"])
    @pytest.mark.parametrize("value", [(), (9.0, 11.0), (9.0, 10.0, 11.0, 12.0)])
    def test_per_inclusion_values_must_match_the_layout(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}: expected a scalar or 3 "
                                             f"per-inclusion values, got {len(value)}$"):
            CavityConfig(**{name: value})
        assert getattr(CavityConfig(**{name: (9.0, 10.0, 11.0)}), name) == (9.0, 10.0, 11.0)

    @pytest.mark.parametrize("name, value", [
        ("n_sources", 2.5), ("n_sources", True), ("n_sources", 0),
        ("boundary_subsample", 1.5), ("sigma_subdivision", (2.5, 1)),
        ("sigma_subdivision", (1, False))])
    def test_counts_must_be_positive_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name}.* must be a positive integer"):
            small_config(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, -1, "3", None])
    def test_rng_seed_must_be_a_non_negative_integer(self, value):
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            small_config(rng_seed=value)

    def test_rng_seed_rejects_negatives_and_keeps_numpy_integers(self):
        assert small_config(rng_seed=0).rng_seed == 0
        cavity = generate(small_config(rng_seed=np.int64(3)))
        assert np.array_equal(cavity.problem.B, generate(small_config()).problem.B)
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            small_config(rng_seed=np.int64(-3))

    def test_subdivision_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            generate(small_config(sigma_subdivision=(3, 1)))

    def test_inverse_crime_recovery(self, small_cavity):
        objective = multi_source_objective(small_cavity, alpha=0.0)
        assert cost(objective, small_cavity.exact_sigma) <= 1e-16
        A = small_cavity.problem.reduced_operator()
        tau = 1.0 / np.linalg.norm(A, 2) ** 2
        trace = run(objective, RunConfig(
            scheme=SchemeKind.SemiImplicitGD, tau=tau, max_outer=50_000,
            tol_cost=1e-18, sigma0=small_cavity.init_sigma))
        err = np.linalg.norm(trace.final_state.sigma - small_cavity.exact_sigma)
        assert err <= 1e-6 * np.linalg.norm(small_cavity.exact_sigma)

    def test_mesh_refinement_consistency(self):
        # exact-data recovery is mesh-independent for piecewise constants
        recovered = []
        for h in (2.0 / 7.0, 1.0 / 7.0):
            cavity = generate(small_config(mesh_h=h))
            objective = multi_source_objective(cavity, alpha=0.0)
            A = cavity.problem.reduced_operator()
            tau = 1.0 / np.linalg.norm(A, 2) ** 2
            trace = run(objective, RunConfig(
                scheme=SchemeKind.UsualGD, tau=tau, max_outer=50_000,
                tol_cost=1e-20, sigma0=cavity.init_sigma))
            recovered.append(trace.final_state.sigma)
        change = np.linalg.norm(recovered[1] - recovered[0])
        assert change <= 0.05 * np.linalg.norm(recovered[0])


def shipped_and_seeded_configs():
    """Every cavity of the shipped specs, plus three random-background seeds."""
    configs = [c for name in SHIPPED_SPECS
               for c in load_spec(os.path.join(CONFIG_DIR, f"{name}.cfg")).cavity_variants()]
    return list(dict.fromkeys(configs)) + [small_config(rng_seed=s) for s in (0, 1, 2)]


class TestSetUpChecks:
    """Construction certifies rho(B) < 1 from norms, and the resonance test
    eigensolves the exactly symmetric block A11_II."""

    @pytest.mark.parametrize("config", shipped_and_seeded_configs())
    def test_no_dense_eigensolve_and_symmetric_resonance_block(self, monkeypatch, config):
        resonance = spy(monkeypatch, scipy.linalg, "eigvalsh")
        eigensolves = spy(monkeypatch, problem_module, "spectral_radius")
        generate(config)
        assert eigensolves == []
        [block] = resonance
        assert np.array_equal(block, block.T)
        ev = np.abs(scipy.linalg.eigvalsh(block))
        sv = scipy.linalg.svdvals(block)
        assert abs(ev.min() / ev.max() - sv[-1] / sv[0]) <= 1e-12 * (sv[-1] / sv[0])

    def test_load_problem_needs_no_dense_eigensolve(self, monkeypatch, small_cavity, tmp_path):
        eigensolves = spy(monkeypatch, problem_module, "spectral_radius")
        export_cavity(small_cavity, tmp_path / "cavity")
        loaded = load_problem(tmp_path / "cavity")
        assert eigensolves == []
        assert np.array_equal(loaded[0].B, small_cavity.problem.B)


def dense_generate(config):
    """Oracle: B, M, H and the clean data from node-sized dense matrices
    (``.toarray()``) and LAPACK LU (``lu_factor``/``lu_solve``)."""
    lam = config.wavelength
    R = config.domain_radius * lam
    ncell = max(4, round(2.0 * config.domain_radius / config.mesh_h))
    nodes, tris, interior, boundary = _build_mesh(R, ncell)
    areas, grads = _triangle_geometry(nodes, tris)
    _, sigma_r = _random_background(config, len(tris))
    K_rand = _assemble(nodes, tris, areas, grads, stiffness_coef=sigma_r).toarray()
    A11 = (config.sigma0_bar * _assemble(nodes, tris, areas, grads).toarray()
           - config.omega ** 2 * _assemble(nodes, tris, areas, grads, mass=True).toarray())
    A1 = A11 + config.delta * K_rand
    II = np.ix_(interior, interior)
    lu, lu1 = scipy.linalg.lu_factor(A11[II]), scipy.linalg.lu_factor(A1[II])
    B = -config.delta * scipy.linalg.lu_solve(lu, K_rand[II])
    f_all = scipy.special.y0(config.omega * np.linalg.norm(
        nodes[boundary, None] - _source_positions(config)[None], axis=-1))
    U0 = np.zeros((len(nodes), config.n_sources))
    U0[boundary] = f_all
    U0[interior] = scipy.linalg.lu_solve(lu1, -A1[np.ix_(interior, boundary)] @ f_all)
    cells = _sigma_cells(config, R, 2.0 * R / ncell, ncell)
    A2 = np.stack([_assemble(nodes, tris[t], areas[t], grads[t]).toarray() @ U0
                   for t in cells], -1)
    m = config.n_sources
    A2_I = A2[interior].reshape(len(interior), m * len(cells))
    M = from_block_columns(scipy.linalg.lu_solve(lu, A2_I), m)
    H = config.data_scale * A1[np.ix_(boundary[:: config.boundary_subsample], interior)]
    if config.normalize_data:
        A = from_block_columns(H @ scipy.linalg.lu_solve(lu1, A2_I), m)
        H *= config.data_scale / np.linalg.norm(A, 2)
    n_sub = config.sigma_subdivision[0] * config.sigma_subdivision[1]
    exact = np.repeat(config.per_inclusion(config.sigma_exact), n_sub)
    problem = LinearInverseProblem(B, M, H, np.zeros(M.shape[0]), n_blocks=m)
    return {"B": B, "M": M, "H": H, "stacked_clean": problem.reduced_operator() @ exact}


class TestSparsePath:
    """generate keeps the FEM matrices sparse and factors the two interior
    blocks with SuperLU; the dense formulas are the oracle."""

    @pytest.mark.parametrize("config", shipped_and_seeded_configs())
    def test_matches_dense_oracle(self, config):
        cavity = generate(config)
        ours = {"B": cavity.problem.B, "M": cavity.problem.M, "H": cavity.problem.H,
                "stacked_clean": cavity.stacked_clean}
        for name, expected in dense_generate(config).items():
            assert ours[name].shape == expected.shape
            assert np.abs(ours[name] - expected).max() <= 1e-12 * np.abs(expected).max(), name

    def test_two_sparse_factorizations_and_no_node_sized_dense_matrix(self, monkeypatch):
        factored, densified, lapack_solves = [], [], []
        splu, toarray = scipy.sparse.linalg.splu, scipy.sparse.csr_array.toarray
        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda a, *args, **kwargs: (
            factored.append((a.format, a.shape)) or splu(a, *args, **kwargs)))
        monkeypatch.setattr(scipy.sparse.csr_array, "toarray", lambda self, *args, **kwargs: (
            densified.append(self.shape) or toarray(self, *args, **kwargs)))
        monkeypatch.setattr(scipy.linalg, "lu_solve", lambda *args, **kwargs: (
            lapack_solves.append(args)))
        lapack_factors = spy(monkeypatch, scipy.linalg, "lu_factor")
        cavity = generate(small_config(normalize_data=True))
        n1 = cavity.mesh_summary.n_u_single
        n_nodes = (cavity.mesh_summary.cells_per_side + 1) ** 2
        assert factored == [("csc", (n1, n1))] * 2
        assert densified and all(max(shape) < n_nodes for shape in densified)
        assert lapack_solves == []
        # the one dense LU is the problem's own I - B, behind its reduced operator
        [block] = lapack_factors
        assert np.array_equal(block, np.eye(n1) - cavity.problem.B)


class TestNormalizeData:
    @pytest.fixture(scope="class")
    def raw_and_normalized(self):
        return generate(small_config()), generate(small_config(normalize_data=True,
                                                               data_scale=2.5))

    def test_builds_the_problem_once(self, monkeypatch):
        builds = []
        post_init = LinearInverseProblem.__post_init__
        monkeypatch.setattr(LinearInverseProblem, "__post_init__",
                            lambda self: builds.append(1) or post_init(self))
        generate(small_config(normalize_data=True))
        assert len(builds) == 1

    def test_reduced_operator_has_norm_data_scale(self, raw_and_normalized):
        _, cavity = raw_and_normalized
        assert np.isclose(np.linalg.norm(cavity.problem.reduced_operator(), 2), 2.5,
                          rtol=1e-12, atol=0)

    def test_measurement_block_matches_rescaled_raw(self, raw_and_normalized):
        raw, cavity = raw_and_normalized
        expected = 2.5 * raw.problem.H / np.linalg.norm(raw.problem.reduced_operator(), 2)
        assert np.linalg.norm(cavity.problem.H - expected) <= 1e-12 * np.linalg.norm(expected)


class TestMultiSourceObjective:
    def test_single_source_reduction(self):
        cavity = generate(small_config(n_sources=1))
        objective = multi_source_objective(cavity, alpha=0.3)
        assert objective.problem.n_u == cavity.mesh_summary.n_u_single
        assert np.array_equal(objective.g, per_source(cavity, cavity.stacked_clean)[0])

    def test_cost_is_sum_of_per_source_costs(self, small_cavity):
        rng = np.random.default_rng(5)
        sigma = rng.standard_normal(small_cavity.problem.n_sigma)
        alpha = 0.2
        stacked = multi_source_objective(small_cavity, alpha=alpha)
        n1 = small_cavity.mesh_summary.n_u_single
        total = 0.0
        for i in range(2):
            problem_i = type(small_cavity.problem)(
                B=small_cavity.problem.B,
                M=small_cavity.problem.M[i * n1:(i + 1) * n1],
                H=small_cavity.problem.H,
                F=np.zeros(n1))
            obj_i = Objective(problem_i, per_source(small_cavity, small_cavity.stacked_clean)[i], 0.0)
            total += cost(obj_i, sigma)
        total += 0.5 * alpha * float(sigma @ sigma)
        assert np.isclose(cost(stacked, sigma), total, rtol=1e-12)

    def test_gradient_is_sum_of_per_source_gradients(self, small_cavity):
        rng = np.random.default_rng(6)
        sigma = rng.standard_normal(small_cavity.problem.n_sigma)
        stacked = multi_source_objective(small_cavity, alpha=0.0)
        n1 = small_cavity.mesh_summary.n_u_single
        total = np.zeros_like(sigma)
        for i in range(2):
            problem_i = type(small_cavity.problem)(
                B=small_cavity.problem.B,
                M=small_cavity.problem.M[i * n1:(i + 1) * n1],
                H=small_cavity.problem.H,
                F=np.zeros(n1))
            g_i = per_source(small_cavity, small_cavity.stacked_clean)[i]
            total += gradient(Objective(problem_i, g_i, 0.0), sigma)
        ours = gradient(stacked, sigma)
        assert np.linalg.norm(ours - total) <= 1e-12 * (1 + np.linalg.norm(total))

    def test_one_shot_trace_pinned(self, small_cavity):
        # values of the trace recorded with exact state and adjoint solves
        objective = multi_source_objective(small_cavity, alpha=1e-2)
        tau = 0.5 / np.linalg.norm(small_cavity.problem.reduced_operator(), 2) ** 2
        trace = run(objective, RunConfig(scheme=SchemeKind.KStepOneShot, tau=tau, k=2,
                                         max_outer=50, sigma0=small_cavity.init_sigma))
        pinned = {0: (18.19006269414502, 7.915696951939886),
                  10: (1.9921895112100592, 0.03407325456181587),
                  50: (1.9891826199918607, 0.006742234035778606)}
        for n, (j, gnorm) in pinned.items():
            assert np.isclose(trace.records[n].cost, j, rtol=1e-9, atol=0)
            assert np.isclose(trace.records[n].grad_norm, gnorm, rtol=1e-9, atol=0)

    def test_noisy_selects_noisy_data(self):
        cavity = generate(small_config(noise_level=0.03))
        clean = multi_source_objective(cavity, alpha=0.0, use_noisy=False)
        noisy = multi_source_objective(cavity, alpha=0.0, use_noisy=True)
        assert not np.array_equal(clean.g, noisy.g)


class TestManifestAndExport:
    def test_manifest_round_trip(self):
        config = small_config(noise_level=0.02, data_scale=0.5, normalize_data=True,
                              sigma_exact=(9.0, 11.0), source_radius=2.5)
        text = format_manifest(config)
        assert parse_manifest(text) == config

    def test_codec_table_lists_every_field_in_order(self):
        assert list(_CAVITY_CODECS) == [f.name for f in dataclasses.fields(CavityConfig)]

    def test_canonical_manifest_text(self):
        # every field's canonical value, byte for byte
        assert format_manifest(every_field_config()) == "oneshot-cavity v1\n" + EVERY_FIELD_LINES
        assert parse_manifest(format_manifest(every_field_config())) == every_field_config()

    def test_manifest_rejects_unknown_key(self):
        text = format_manifest(small_config()) + "nonsense = 1\n"
        with pytest.raises(ValueError, match="nonsense"):
            parse_manifest(text)

    def test_export_and_reload(self, small_cavity, tmp_path):
        export_cavity(small_cavity, tmp_path)
        expected = {"B.txt", "M.txt", "H.txt", "F.txt", "g_clean.txt",
                    "g_noisy.txt", "sigma_exact.txt", "sigma_init.txt",
                    "manifest.txt"}
        assert expected <= {p.name for p in tmp_path.iterdir()}
        problem, g_clean, g_noisy = load_problem(tmp_path)
        assert np.array_equal(problem.B, small_cavity.problem.B)
        assert np.array_equal(g_clean, small_cavity.stacked_clean)
        config = parse_manifest((tmp_path / "manifest.txt").read_text())
        assert config == small_cavity.config

    def test_export_is_byte_reproducible(self, small_cavity, tmp_path):
        export_cavity(small_cavity, tmp_path / "a")
        export_cavity(small_cavity, tmp_path / "b")
        for name in ("B.txt", "g_noisy.txt", "manifest.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
