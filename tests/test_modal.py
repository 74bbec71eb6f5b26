"""The modal twin of a problem, with the dense path as its oracle.

A problem with a symmetrizer (a symmetric positive definite P with P B
symmetric) gets a twin in the eigenbasis of B: sweeps there multiply by
the eigenvalues elementwise, and a one-shot ``run`` steps the twin.  Both
are checked against the dense sweeps and repeated dense ``step`` calls,
on a stacked problem whose B = S D S^-1 is not symmetric and on a small
generated cavity.
"""

import numpy as np
import pytest

from oneshot import (IterationState, LinearInverseProblem, Objective, ProblemAssumptionError,
                     RunConfig, SchemeKind, cost, gradient, regularized_solution, run, step)
from oneshot import descent
from oneshot.cavity import export_cavity, generate, load_problem, multi_source_objective
from oneshot.problem import MODAL_BACKWARD_TOL, sweeps
from conftest import make_problem, stacked_and_kron_twin
from test_cavity import small_config
from test_problem import loop_sweeps

#: Agreement asked of the twin against the dense path, relative: rounding
#: in kappa(V)-conditioned changes of basis, far below any real difference.
REL = 1e-9
ONE_SHOT = [SchemeKind.KStepOneShot, SchemeKind.SemiImplicitKStepOneShot]


def similar_to_diagonal(seed, n_blocks=3, n=7, n_sigma=4, m=5):
    """A stacked problem with B = S D S^-1: real spectrum, B not symmetric.

    Its symmetrizer is P = S^-* S^-1, made exactly symmetric: P B = S^-* D S^-1.
    """
    rng = np.random.default_rng(seed)
    S = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    S_inv = np.linalg.inv(S)
    B = S @ np.diag(rng.uniform(-0.6, 0.6, n)) @ S_inv
    P = S_inv.T @ S_inv
    return LinearInverseProblem(B, rng.standard_normal((n_blocks * n, n_sigma)),
                                rng.standard_normal((m, n)),
                                rng.standard_normal(n_blocks * n), n_blocks=n_blocks,
                                symmetrizer=0.5 * (P + P.T))



@pytest.fixture(scope="module")
def cavity():
    return generate(small_config())


@pytest.fixture(params=["similar", "cavity"])
def objective(request, cavity):
    """An objective on a problem that has a twin, with alpha > 0."""
    if request.param == "cavity":
        return multi_source_objective(cavity, alpha=1e-4)
    problem = similar_to_diagonal(70)
    return Objective(problem, np.random.default_rng(71).standard_normal(problem.n_g), 1e-2)


def record_sweep_problems(monkeypatch):
    """The problem of every sweep the run loop makes: each ``fixed_point_sweep``
    call, and each step of a ``KStepStack``."""
    seen, real, real_stack = [], descent.fixed_point_sweep, descent.KStepStack.sweep

    def recording(sweep_problem, *args):
        seen.append(sweep_problem)
        return real(sweep_problem, *args)

    def recording_stack(stack, *args):
        seen.append(stack.problem)
        return real_stack(stack, *args)

    monkeypatch.setattr(descent, "fixed_point_sweep", recording)
    monkeypatch.setattr(descent.KStepStack, "sweep", recording_stack)
    return seen


def rel_close(ours, oracle, rel=REL):
    return np.linalg.norm(np.asarray(ours) - oracle) <= rel * np.linalg.norm(oracle)


def tau_for(objective, factor=0.5):
    return factor / np.linalg.norm(objective.problem.reduced_operator(), 2) ** 2


class TestTwin:
    def test_twin_is_the_problem_in_eigen_coordinates(self, objective):
        problem = objective.problem
        twin = problem.modal_twin()
        assert twin is not None and problem.modal_twin() is twin
        lam = twin.problem.B_diag
        assert np.array_equal(twin.problem.B, np.diag(lam)) and not np.iscomplexobj(lam)
        assert rel_close(twin.V @ np.diag(lam) @ twin.V_inv, problem.B, MODAL_BACKWARD_TOL)
        assert rel_close(twin.problem.reduced_operator(), problem.reduced_operator())
        assert twin.problem.n_blocks == problem.n_blocks
        assert twin.problem.modal_twin() is None

    @pytest.mark.parametrize("data", ["array", "zero"])
    def test_twin_sweeps_match_dense_sweeps(self, objective, data):
        problem = objective.problem
        twin = problem.modal_twin()
        rng = np.random.default_rng(72)
        u, p = rng.standard_normal(problem.n_u), rng.standard_normal(problem.n_u)
        sigma = rng.standard_normal(problem.n_sigma)
        g = rng.standard_normal(problem.n_g) if data == "array" else 0.0
        drive = problem.M @ sigma + (problem.F if data == "array" else 0.0)
        for k in (1, 2, 3, 4, 10):
            modal = sweeps(twin.problem, *twin.to_modal(u, p), sigma, g, k)
            for ours, oracle in zip(twin.from_modal(*modal),
                                    loop_sweeps(problem, u, p, drive, g, k)):
                assert rel_close(ours, oracle)

    def test_coordinates_round_trip(self, objective):
        problem = objective.problem
        twin = problem.modal_twin()
        rng = np.random.default_rng(73)
        u, p = rng.standard_normal(problem.n_u), rng.standard_normal(problem.n_u)
        for ours, oracle in zip(twin.from_modal(*twin.to_modal(u, p)), (u, p)):
            assert rel_close(ours, oracle, 1e-12)
        # M~* p~ = M* p: the sigma update reads the same adjoint term
        assert rel_close(twin.problem.M.T @ twin.to_modal(u, p)[1], problem.M.T @ p)

    def test_no_symmetrizer_gives_no_twin(self, objective):
        problem = objective.problem
        bare = LinearInverseProblem(problem.B, problem.M, problem.H, problem.F,
                                    n_blocks=problem.n_blocks)
        # a B with a complex spectrum has no symmetrizer to give
        complex_spectrum = (make_problem(74), stacked_and_kron_twin(75)[0])
        assert all(np.any(np.linalg.eigvals(q.B).imag != 0) for q in complex_spectrum)
        for q in (bare, *complex_spectrum):
            assert q.symmetrizer is None and q.B_diag is None and q.modal_twin() is None

    @pytest.mark.parametrize("block", ["gaussian", "jordan"])
    def test_false_symmetrizer_gives_no_twin_and_dense_sweeps(self, block, monkeypatch):
        # the identity is positive definite, but I B is not symmetric for a
        # Gaussian B, and V diag(lam) V^-1 cannot reproduce a Jordan block
        if block == "gaussian":
            base = make_problem(78)
            B, M, H, F = base.B, base.M, base.H, base.F
        else:
            B, M, H, F = np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(2), np.eye(2), np.ones(2)
        problem = LinearInverseProblem(B, M, H, F, symmetrizer=np.eye(B.shape[0]))
        assert problem.modal_twin() is None
        objective = Objective(problem, np.random.default_rng(79).standard_normal(problem.n_g))
        seen = record_sweep_problems(monkeypatch)
        run(objective, RunConfig(SchemeKind.KStepOneShot, tau_for(objective), k=2,
                                 max_outer=3))
        assert seen and all(p is problem for p in seen)

    def test_indefinite_symmetrizer_gives_no_twin(self):
        # -P B is symmetric too, but the generalized eigensolve needs a
        # positive definite symmetrizer, and -P is negative definite
        problem = similar_to_diagonal(80)
        flipped = LinearInverseProblem(problem.B, problem.M, problem.H, problem.F,
                                       n_blocks=problem.n_blocks,
                                       symmetrizer=-problem.symmetrizer)
        assert problem.modal_twin() is not None and flipped.modal_twin() is None

    @pytest.mark.parametrize("symmetrizer, message", [
        (np.array([[2.0, 1.0], [0.0, 2.0]]), "exactly symmetric"),
        (np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]]), "exactly symmetric"),
        (np.eye(3), "shape"),
        (np.ones(2), "2-dimensional"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "non-finite"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite"),
    ])
    def test_bad_symmetrizer_is_rejected_at_construction(self, symmetrizer, message):
        with pytest.raises(ProblemAssumptionError, match=f"symmetrizer.*{message}"):
            LinearInverseProblem(0.5 * np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2),
                                 np.eye(2), np.ones(2), symmetrizer=symmetrizer)

    def test_diagonal_block_sweeps_elementwise_without_twin(self):
        rng = np.random.default_rng(76)
        n, n_blocks = 5, 3
        d = rng.uniform(-0.7, 0.7, n)
        problem = LinearInverseProblem(np.diag(d), rng.standard_normal((n_blocks * n, 2)),
                                       rng.standard_normal((4, n)),
                                       rng.standard_normal(n_blocks * n), n_blocks=n_blocks)
        assert problem.modal_twin() is None and np.array_equal(problem.B_diag, d)
        u, p = rng.standard_normal(problem.n_u), rng.standard_normal(problem.n_u)
        sigma, g = rng.standard_normal(2), rng.standard_normal(problem.n_g)
        expected = {k: loop_sweeps(problem, u, p, problem.M @ sigma + problem.F, g, k)
                    for k in (1, 2, 3, 10)}
        for k in (3, 10):
            sweeps(problem, u, p, sigma, g, k)  # caches the k-step operators
        # the sweeps read the cached diagonal only: a NaN B changes nothing
        object.__setattr__(problem, "B", np.full_like(problem.B, np.nan))
        for k, oracle in expected.items():
            for ours, want in zip(sweeps(problem, u, p, sigma, g, k), oracle):
                assert rel_close(ours, want, 1e-12)



class TestRunOnTwin:
    @pytest.mark.parametrize("scheme", ONE_SHOT)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_run_matches_repeated_dense_step(self, objective, scheme, k):
        problem = objective.problem
        rng = np.random.default_rng(77)
        u0, p0 = rng.standard_normal(problem.n_u), rng.standard_normal(problem.n_u)
        sigma0 = rng.standard_normal(problem.n_sigma)
        tau = tau_for(objective)
        trace = run(objective, RunConfig(scheme, tau, k=k, max_outer=25, sigma0=sigma0,
                                         u0=u0, p0=p0))
        assert trace.status.value == "max_outer" and trace.records[-1].n == 25
        state = IterationState(sigma0, u0, p0)
        sigma_ref = regularized_solution(objective)
        for rec in trace.records:
            if rec.n:
                state = step(objective, state, scheme, tau, k)
            assert rec.cost == pytest.approx(cost(objective, state.sigma), rel=REL)
            assert rec.grad_norm == pytest.approx(
                np.linalg.norm(gradient(objective, state.sigma)), rel=REL)
            assert rec.rel_err_sigma == pytest.approx(
                np.linalg.norm(state.sigma - sigma_ref) / np.linalg.norm(sigma_ref), rel=REL)
        final = trace.final_state
        for ours, oracle in zip((final.sigma, final.u, final.p),
                                (state.sigma, state.u, state.p)):
            assert rel_close(ours, oracle)

    @pytest.mark.parametrize("factor, status", [(0.5, "tol_cost"), (50.0, "diverged")])
    def test_stop_rules_match_the_dense_run(self, objective, factor, status):
        # the same problem without a symmetrizer has no twin and runs the dense sweeps
        problem = objective.problem
        dense = LinearInverseProblem(problem.B, problem.M, problem.H, problem.F,
                                     n_blocks=problem.n_blocks)
        dense_objective = Objective(dense, objective.g, objective.alpha)
        floor = cost(objective, regularized_solution(objective))
        level = floor + 1e-2 * (cost(objective, np.zeros(problem.n_sigma)) - floor)
        config = RunConfig(SchemeKind.KStepOneShot, tau_for(objective, factor), k=2,
                           max_outer=400, tol_cost=level)
        ours, oracle = run(objective, config), run(dense_objective, config)
        assert ours.status.value == oracle.status.value == status
        assert ours.records[-1].n == oracle.records[-1].n

    def test_one_shot_runs_step_the_twin(self, objective, monkeypatch):
        # k = 2 sweeps through fixed_point_sweep, k = 3 as a KStepStack
        problem = objective.problem
        seen = record_sweep_problems(monkeypatch)
        for k in (2, 3):
            run(objective, RunConfig(SchemeKind.KStepOneShot, tau_for(objective), k=k,
                                     max_outer=3))
        assert len(seen) == 6 and all(p is problem.modal_twin().problem for p in seen)

    def test_loaded_cavity_has_no_twin_and_runs_like_the_generated_one(self, cavity,
                                                                        tmp_path):
        export_cavity(cavity, tmp_path)
        loaded, g_clean, _ = load_problem(tmp_path)
        assert loaded.symmetrizer is None and loaded.modal_twin() is None
        assert cavity.problem.modal_twin() is not None
        objectives = (multi_source_objective(cavity, alpha=1e-4),
                      Objective(loaded, g_clean, 1e-4))
        config = RunConfig(SchemeKind.SemiImplicitKStepOneShot, tau_for(objectives[0]), k=3,
                           max_outer=40, sigma0=cavity.init_sigma)
        generated, dense = (run(o, config) for o in objectives)
        assert generated.status is dense.status
        assert len(generated.records) == len(dense.records)
        for ours, oracle in zip(generated.records, dense.records):
            assert ours.cost == pytest.approx(oracle.cost, rel=REL)
        for name in ("sigma", "u", "p"):
            assert rel_close(getattr(generated.final_state, name),
                             getattr(dense.final_state, name))

    def test_gradient_descent_builds_no_twin(self, objective):
        problem = objective.problem
        fresh = LinearInverseProblem(problem.B, problem.M, problem.H, problem.F,
                                     n_blocks=problem.n_blocks,
                                     symmetrizer=problem.symmetrizer)
        fresh_objective = Objective(fresh, objective.g, objective.alpha)
        for scheme in (SchemeKind.UsualGD, SchemeKind.SemiImplicitGD):
            run(fresh_objective, RunConfig(scheme, tau_for(objective), max_outer=3))
        assert "_modal" not in fresh.__dict__
