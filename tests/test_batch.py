"""The run loop over a batch of columns, with repeated ``step`` as its oracle.

``run_columns`` steps columns that share a problem as the rows of one
stack; each column may have its own scheme, k, tau, alpha, data, start
and stop rules, and leaves the stack when it stops.  The oracle steps
each column alone with ``step`` and applies the stop rules to it; a
mixed batch is checked against each column's batch of one.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oneshot import (IterationState, Objective, ProblemAssumptionError, RunConfig, RunStatus,
                     SchemeKind, cost, fixed_point_sweep, run, run_columns, step)
from oneshot import descent
from oneshot.descent import (DIVERGENCE_GUARD, ConvergenceTrace, format_trace_csv,
                             iter_columns)
from oneshot.problem import KStepStack
from conftest import make_problem, spy, trace_column
from test_modal import record_sweep_problems, similar_to_diagonal
from test_problem import loop_sweeps

#: Agreement asked of a batch column with its oracle, relative: the stacked
#: products round differently from the single ones.
REL = 1e-12


def problem_of(kind):
    """A dense problem without a twin, or a stacked one whose one-shot runs
    step its modal twin; both with a well-conditioned A (kappa < 4)."""
    if kind == "twin":
        return similar_to_diagonal(61, n_sigma=3, m=6)
    return make_problem(62, n_u=8, n_sigma=3, n_g=12, norm_b=0.4)


def columns_ending_four_ways(problem, scheme, k):
    """Columns with different g, alpha, tau and stop rules that end as
    diverged, tol_cost, tol_step and max_outer, in that order."""
    rng = np.random.default_rng(7)
    A = problem.reduced_operator()
    tau0 = 1.0 / np.linalg.norm(A, 2) ** 2
    exact = A @ rng.standard_normal(problem.n_sigma) + problem.data_offset()
    noisy = exact + 0.3 * rng.standard_normal(problem.n_g)
    sigma0 = rng.standard_normal(problem.n_sigma)
    level = 1e-4 * cost(Objective(problem, exact), sigma0)
    return [
        (Objective(problem, noisy, 1e-3),
         RunConfig(scheme, tau=4.0 * tau0, k=k, max_outer=300, sigma0=sigma0)),
        (Objective(problem, exact),
         RunConfig(scheme, tau=0.5 * tau0, k=k, max_outer=1000, tol_cost=level, sigma0=sigma0)),
        (Objective(problem, noisy, 0.05),
         RunConfig(scheme, tau=0.3 * tau0, k=k, max_outer=1000, tol_step=1e-8)),
        (Objective(problem, 0.5 * noisy),
         RunConfig(scheme, tau=0.4 * tau0, k=k, max_outer=9, sigma0=sigma0)),
    ]


def oracle(objective, config):
    """(status, n_outer, final sigma) of repeated ``step`` calls on one column.

    A one-shot column on a problem with a twin steps the twin, as the run
    loop does, with its costs taken on the problem itself.
    """
    problem = objective.problem
    twin = problem.modal_twin() if config.scheme.is_one_shot else None
    start = IterationState.zero(problem, config.sigma0, config.u0, config.p0)
    stepped, state = objective, start
    if twin is not None:
        stepped = Objective(twin.problem, objective.g, objective.alpha)
        state = IterationState(start.sigma, *twin.to_modal(start.u, start.p))
    for n in range(1, config.max_outer + 1):
        prev = state.sigma
        state = step(stepped, state, config.scheme, config.tau, config.k)
        if not all(np.isfinite(x).all() for x in (state.sigma, state.u, state.p)):
            return RunStatus.DIVERGED, n, state.sigma
        j = cost(objective, state.sigma)
        if not j <= DIVERGENCE_GUARD:
            return RunStatus.DIVERGED, n, state.sigma
        if j <= config.tol_cost:
            return RunStatus.TOL_COST, n, state.sigma
        if n >= 2 and config.tol_step > 0 and np.linalg.norm(state.sigma - prev) \
                <= config.tol_step * (1.0 + np.linalg.norm(prev)):
            return RunStatus.TOL_STEP, n, state.sigma
    return RunStatus.MAX_OUTER, config.max_outer, state.sigma


def rel_close(ours, oracle_value, rel=REL):
    return np.linalg.norm(ours - oracle_value) <= rel * np.linalg.norm(oracle_value)


def mixed_columns(problem):
    """One batch of every scheme, with k in {1, 2, 3, 4, 10} for the one-shot
    ones: the columns of ``columns_ending_four_ways`` for each, shuffled,
    after a first column that overflows on its first step."""
    columns = [column for scheme in SchemeKind
               for k in ((1, 2, 3, 4, 10) if scheme.is_one_shot else (1,))
               for column in columns_ending_four_ways(problem, scheme, k)]
    order = np.random.default_rng(8).permutation(len(columns))
    overflow = RunConfig(SchemeKind.KStepOneShot, tau=1e300, k=10, max_outer=5,
                         sigma0=np.full(problem.n_sigma, 1e10), p0=np.full(problem.n_u, 1e10))
    return [(columns[0][0], overflow), *(columns[i] for i in order)]


def assert_rows_close(ours, single):
    """Equal where either is not finite, within REL in norm elsewhere."""
    finite = np.isfinite(single)
    assert np.array_equal(np.isfinite(ours), finite)
    assert rel_close(ours[finite], single[finite])


class TestRunColumns:
    @pytest.mark.parametrize("kind", ["twin", "dense"])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_every_column_matches_its_oracle(self, kind, k, scheme):
        columns = columns_ending_four_ways(problem_of(kind), scheme, k)
        # the tol_cost and tol_step columns again, capped at the step they
        # stop on: a tolerance met on the cap step wins over the cap
        columns += [(objective, replace(config, max_outer=oracle(objective, config)[1]))
                    for objective, config in columns[1:3]]
        traces = run_columns(columns)
        assert [t.status for t in traces] == [RunStatus.DIVERGED, RunStatus.TOL_COST,
                                              RunStatus.TOL_STEP, RunStatus.MAX_OUTER,
                                              RunStatus.TOL_COST, RunStatus.TOL_STEP]
        for (objective, config), trace in zip(columns, traces):
            status, n_outer, sigma = oracle(objective, config)
            assert trace.status is status
            assert trace.n_outer == n_outer
            assert trace_column(trace, "n") == [str(n) for n in range(n_outer + 1)]
            for column in (trace.cost, trace.grad_norm, trace.rel_err_sigma):
                assert column.shape == (n_outer + 1,)
            assert rel_close(trace.final_state.sigma, sigma)

    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_repeat_runs_write_identical_traces(self, scheme):
        columns = columns_ending_four_ways(problem_of("twin"), scheme, 3)
        first, second = run_columns(columns), run_columns(columns)
        assert [format_trace_csv(t) for t in first] == [format_trace_csv(t) for t in second]

    def test_a_column_matches_its_batch_of_one(self):
        columns = columns_ending_four_ways(problem_of("twin"), SchemeKind.KStepOneShot, 2)
        for column, trace in zip(columns, run_columns(columns)):
            alone = run(*column)
            assert trace.status is alone.status
            assert trace.n_outer == alone.n_outer
            assert trace.cost == pytest.approx(alone.cost, rel=1e-10)
            for name in ("sigma", "u", "p"):
                assert rel_close(getattr(trace.final_state, name),
                                 getattr(alone.final_state, name))

    @pytest.mark.parametrize("scheme", [SchemeKind.UsualGD, SchemeKind.KStepOneShot])
    def test_an_overflowing_column_leaves_the_batch(self, scheme):
        # tau * M* p overflows on the first step; the other column runs on
        problem = problem_of("dense")
        columns = columns_ending_four_ways(problem, scheme, 2)[3:]
        overflow = RunConfig(scheme, tau=1e300, k=2, max_outer=5,
                             sigma0=np.full(problem.n_sigma, 1e10),
                             p0=np.full(problem.n_u, 1e10))
        with np.errstate(over="ignore", invalid="ignore"):
            blown, kept = run_columns([(columns[0][0], overflow), *columns])
        assert blown.status is RunStatus.DIVERGED and blown.n_outer == 1
        # the guard row: infinite cost and gradient norm, and no error
        assert blown.final_cost == math.inf and blown.grad_norm[-1] == math.inf
        rel_errs = trace_column(blown, "rel_err_sigma")
        assert blown.final_rel_err is None and rel_errs[0] != "" and rel_errs[-1] == ""
        status, n_outer, sigma = oracle(*columns[0])
        assert (kept.status, kept.n_outer) == (status, n_outer)
        assert rel_close(kept.final_state.sigma, sigma)

    @pytest.mark.parametrize("kind", ["twin", "dense"])
    @pytest.mark.parametrize("scheme", [SchemeKind.UsualGD, SchemeKind.SemiImplicitGD])
    def test_an_overflowing_gradient_descent_column_keeps_its_start(self, kind, scheme):
        # its sigma overflows, so no exact solve replaces the carried u and p:
        # they are its start, untouched by the one-shot column's twin
        problem = problem_of(kind)
        rng = np.random.default_rng(9)
        u0, p0 = rng.standard_normal((2, problem.n_u))
        objective, config = columns_ending_four_ways(problem, SchemeKind.KStepOneShot, 2)[3]
        overflow = RunConfig(scheme, tau=1e300, max_outer=5,
                             sigma0=np.full(problem.n_sigma, 1e10), u0=u0, p0=p0)
        with np.errstate(over="ignore", invalid="ignore"):
            blown, kept = run_columns([(objective, overflow), (objective, config)])
        assert blown.status is RunStatus.DIVERGED and kept.status is RunStatus.MAX_OUTER
        assert np.array_equal(blown.final_state.u, u0)
        assert np.array_equal(blown.final_state.p, p0)

    @pytest.mark.parametrize("kind", ["twin", "dense"])
    def test_a_mixed_batch_matches_each_batch_of_one(self, kind):
        problem = problem_of(kind)
        columns = mixed_columns(problem)
        with np.errstate(over="ignore", invalid="ignore"):
            traces = run_columns(columns)
            alone = [run(*column) for column in columns]
        assert traces[0].status is RunStatus.DIVERGED and traces[0].final_cost == math.inf
        assert {t.status for t in traces} == set(RunStatus)
        for (_, config), ours, single in zip(columns, traces, alone):
            assert ours.status is single.status
            assert ours.n_outer == single.n_outer
            assert (ours.scheme, ours.tau, ours.k) == (single.scheme, single.tau, single.k)
            assert_rows_close(ours.cost, single.cost)
            assert_rows_close(ours.grad_norm, single.grad_norm)
            assert trace_column(ours, "acc_inner") == trace_column(single, "acc_inner")
            for name in ("sigma", "u", "p"):
                assert_rows_close(getattr(ours.final_state, name),
                                  getattr(single.final_state, name))

    @pytest.mark.parametrize("kind", ["twin", "dense"])
    def test_columns_stopping_around_each_log_growth_match_their_batches_of_one(self, kind):
        # the log doubles its steps when step n = 1, 2, 4, ..., 64, 128 finds
        # it full: the capped columns stop on both sides of its last two
        # growths, every scheme and k = 2, 3 among them
        problem = problem_of(kind)
        objective, config = columns_ending_four_ways(problem, SchemeKind.KStepOneShot, 2)[3]
        schemes = list(SchemeKind)
        columns = [(objective, replace(config, scheme=schemes[j % 4], k=2 + j % 2, max_outer=n))
                   for j, n in enumerate((1, 2, 63, 64, 65, 128, 129))]
        columns.append(columns_ending_four_ways(problem, SchemeKind.KStepOneShot, 3)[1])
        traces = run_columns(columns)
        assert [t.status for t in traces] == [RunStatus.MAX_OUTER] * 7 + [RunStatus.TOL_COST]
        for (objective, config), ours in zip(columns, traces):
            single = run(objective, config)
            assert ours.status is single.status
            for name in ("n", "acc_inner"):
                assert trace_column(ours, name) == trace_column(single, name)
            assert_rows_close(ours.cost, single.cost)
            # the first row survives every growth; the last is the final sigma's
            start = IterationState.zero(problem, config.sigma0).sigma
            assert ours.cost[0] == pytest.approx(cost(objective, start), rel=REL)
            assert ours.final_cost == pytest.approx(cost(objective, ours.final_state.sigma),
                                                    rel=REL)

    def test_iter_columns_forms_each_trace_when_taken(self, monkeypatch):
        columns = columns_ending_four_ways(problem_of("twin"), SchemeKind.KStepOneShot, 3)
        formed = spy(monkeypatch, descent, "_records")
        traces = iter_columns(columns)
        assert formed == []
        first = next(traces)
        assert len(formed) == 1
        rest = list(traces)
        assert len(formed) == 4
        assert [format_trace_csv(t) for t in (first, *rest)] == \
            [format_trace_csv(t) for t in run_columns(columns)]

    def test_sweep_calls_per_step_on_the_twin(self, monkeypatch):
        # one fixed_point_sweep call for the k = 2 rows and one stack step for
        # the k = 3 and 4 rows, every step
        problem = problem_of("twin")
        columns = columns_ending_four_ways(problem, SchemeKind.KStepOneShot, 2)
        seen = record_sweep_problems(monkeypatch)
        run_columns([(objective, RunConfig(SchemeKind.KStepOneShot, config.tau, k=k,
                                           max_outer=3))
                     for (objective, config), k in zip(columns, (2, 3, 4, 2))])
        assert len(seen) == 6 and all(p is problem.modal_twin().problem for p in seen)

    def test_columns_must_share_one_problem(self):
        objective, config = columns_ending_four_ways(problem_of("dense"), SchemeKind.UsualGD,
                                                     2)[3]
        twin_problem = problem_of("twin")
        other = Objective(twin_problem, np.zeros(twin_problem.n_g))
        with pytest.raises(ValueError, match="share one problem"):
            run_columns([(objective, config), (other, config)])
        # schemes and k may differ within a batch
        mixed = run_columns([(objective, config),
                             (objective, RunConfig(SchemeKind.SemiImplicitGD, 0.1, max_outer=3)),
                             (objective, RunConfig(SchemeKind.KStepOneShot, 0.1, k=3,
                                                   max_outer=3))])
        assert [t.scheme for t in mixed] == [SchemeKind.UsualGD, SchemeKind.SemiImplicitGD,
                                             SchemeKind.KStepOneShot]
        assert [t.k for t in mixed] == [1, 1, 3]
        assert run_columns([]) == []


class TestNonFiniteStart:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["sigma0", "u0", "p0"])
    @pytest.mark.parametrize("scheme", list(SchemeKind))
    def test_rejected_by_name(self, scheme, name, value):
        problem = make_problem(1)
        objective = Objective(problem, np.ones(problem.n_g))
        start = np.zeros(problem.n_sigma if name == "sigma0" else problem.n_u)
        start[0] = value
        config = RunConfig(scheme, tau=0.01, k=2, max_outer=3, **{name: start})
        with pytest.raises(ProblemAssumptionError, match=f"{name} contains non-finite"):
            run(objective, config)

    def test_a_bad_start_fails_before_any_column_steps(self, monkeypatch):
        problem = problem_of("twin")
        good = columns_ending_four_ways(problem, SchemeKind.KStepOneShot, 2)[3]
        bad = RunConfig(SchemeKind.KStepOneShot, 0.01, k=2, u0=np.full(problem.n_u, np.inf))
        seen = record_sweep_problems(monkeypatch)
        with pytest.raises(ProblemAssumptionError, match="u0"):
            run_columns([good, (good[0], bad)])
        assert seen == []


class TestStackedSweep:
    @pytest.mark.parametrize("kind", ["twin", "dense"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 10])
    def test_a_stack_sweeps_each_column(self, kind, k):
        problem = problem_of(kind)
        if kind == "twin":
            problem = problem.modal_twin().problem
        rng = np.random.default_rng(k)
        c = 3
        u, p = rng.standard_normal((c, problem.n_u)), rng.standard_normal((c, problem.n_u))
        sigma, g = rng.standard_normal((c, problem.n_sigma)), rng.standard_normal((c, problem.n_g))
        u_k, p_k = fixed_point_sweep(problem, SimpleNamespace(u=u, p=p), sigma, g, k)
        assert u_k.shape == p_k.shape == (c, problem.n_u)
        for i in range(c):
            u_i, p_i = loop_sweeps(problem, u[i], p[i], problem.M @ sigma[i] + problem.F, g[i],
                                   k)
            assert rel_close(u_k[i], u_i, 1e-13) and rel_close(p_k[i], p_i, 1e-13)

    @pytest.mark.parametrize("kind", ["twin", "dense"])
    @pytest.mark.parametrize("data", ["array", "zero"])
    def test_a_k_step_stack_sweeps_each_column(self, kind, data):
        # the twin's diagonal block takes the fused elementwise form, the
        # dense block three products per run of equal k
        problem = problem_of(kind)
        if kind == "twin":
            problem = problem.modal_twin().problem
        rng = np.random.default_rng(9)
        ks = [3, 3, 4, 10, 10]
        c = len(ks)
        u, p = rng.standard_normal((c, problem.n_u)), rng.standard_normal((c, problem.n_u))
        sigma, g = rng.standard_normal((c, problem.n_sigma)), rng.standard_normal((c, problem.n_g))
        source = problem.F if data == "array" else 0.0
        for rows in (list(range(c)), [1, 2, 4]):
            stack = KStepStack(problem, [ks[i] for i in rows], g[rows] if data == "array" else 0.0)
            u_k, p_k = stack.sweep(u[rows], p[rows], sigma[rows])
            for pos, i in enumerate(rows):
                u_i, p_i = loop_sweeps(problem, u[i], p[i], problem.M @ sigma[i] + source,
                                       g[i] if data == "array" else 0.0, ks[i])
                assert rel_close(u_k[pos], u_i, 1e-13) and rel_close(p_k[pos], p_i, 1e-13)

    @pytest.mark.parametrize("u_rows, sigma_shape, g_rows, expected", [
        (2, (3, 3), 3, "u has shape \\(2, 8\\), expected \\(3, 8\\)"),
        (3, (3, 3), None, "g has shape \\(5,\\), expected \\(3, 5\\)"),
        (None, (3, 3), 3, "u has shape \\(8,\\), expected \\(3, 8\\)"),
        (3, (3, 2), 3, "sigma has shape \\(3, 2\\)"),
        (3, (1, 3, 3), 3, "sigma has shape \\(1, 3, 3\\)"),
    ])
    def test_a_stack_of_the_wrong_shape_is_rejected(self, u_rows, sigma_shape, g_rows, expected):
        problem = make_problem(8)
        assert (problem.n_u, problem.n_sigma, problem.n_g) == (8, 3, 5)
        u = np.zeros(problem.n_u if u_rows is None else (u_rows, problem.n_u))
        g = np.zeros(problem.n_g if g_rows is None else (g_rows, problem.n_g))
        state = SimpleNamespace(u=u, p=u)
        with pytest.raises(ProblemAssumptionError, match=expected):
            fixed_point_sweep(problem, state, np.zeros(sigma_shape), g, 1)


@pytest.mark.parametrize("with_errors", [True, False])
def test_trace_rows_format_as_the_f_string_form(with_errors):
    # an error of NaN is a missing one, as on a guard row, and is written empty
    values = [0.1, 1.0 / 3.0, -2.5e-300, 1e300, math.inf, -math.inf, math.nan, -0.0, 0.0]
    cost = np.array(values)
    rel_err = np.array([math.nan if n % 3 == 0 else x * 7.0 for n, x in enumerate(values)])
    trace = ConvergenceTrace(SchemeKind.KStepOneShot, 0.1, 4, cost, cost[::-1],
                             rel_err if with_errors else None, RunStatus.TOL_STEP)
    lines = ["n,cost,grad_norm,rel_err_sigma,acc_inner,wall_ms,status"]
    for n, x in enumerate(values):
        rel = f"{x * 7.0:.16e}" if with_errors and n % 3 else ""
        lines.append(f"{n},{x:.16e},{values[-n - 1]:.16e},{rel},{4 * n},0,tol_step")
    assert format_trace_csv(trace) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("level, first", [(4.0, 0), (1e300, 0), (3.5, 3), (1.0, 4),
                                          (0.5, None)])
def test_iterations_to_cost_is_the_first_row_at_the_level(level, first):
    # an infinite or NaN cost never meets a level
    cost = np.array([4.0, math.inf, math.nan, 3.0, 1.0])
    trace = ConvergenceTrace(SchemeKind.UsualGD, 0.1, 1, cost, cost, None, RunStatus.MAX_OUTER)
    assert trace.iterations_to_cost(level) == first
