"""One step rule for the four coupled iteration schemes, and their run loop.

The four schemes are the corners of two choices.  The adjoint term M* p
that drives the sigma update is either exact at the incoming sigma
(gradient descent) or M* applied to the carried adjoint iterate, followed
by exactly k warm-started fixed-point sweeps with the new sigma
(one-shot).  Gradient descent is the k = infinity limit of the sweeps,
where M* p(sigma) = A* (A sigma - g_tilde) with the cached reduced
operator A, so its step solves nothing.  The Tikhonov term
is treated explicitly or implicitly:

    explicit        sigma' = sigma - tau M* p - tau alpha sigma
    implicit        sigma' = (sigma - tau M* p) / (1 + tau alpha)

                    M* p = A* (A sigma - g_tilde)   k sweeps
    explicit        UsualGD                         KStepOneShot
    implicit        SemiImplicitGD                  SemiImplicitKStepOneShot

Gradient descent carries u and p through its steps unchanged; the run
loop fills the final state's u and p with one exact state and adjoint
solve at the final sigma (the k = infinity state).

One run loop, ``run_columns``, steps a batch of columns: (objective,
config) pairs on one problem, each with its own scheme and k, as the rows
of one stack, so each step costs a few stacked products however many
columns run.  The rows are ordered gradient descent first, then one-shot
by k, and one update serves all of them,

    sigma' = (sigma - tau M* p - tau alpha_explicit sigma) / shrink,

with alpha_explicit = alpha and shrink = 1 on an explicit row,
alpha_explicit = 0 and shrink = 1 + tau alpha on an implicit one.
``run`` is a batch of one, and ``iter_columns`` yields a batch's traces
one at a time, each formed as it is taken.  The loop checks every start
once, carries plain arrays and logs the sigma and cost rows in one array
indexed by column and step, which doubles its steps when full; ``step``
applies the same products to a stack of one and checks its state.  Each
step forms the cost of every running column from one residual stack
sigma A* - g_tilde, which the stop rules read and gradient descent
reuses as its A* (A sigma - g_tilde); the gradient norms and sigma errors
of the trace come after the loop.  The one-shot rows with k <= 2 sweep
through ``fixed_point_sweep``, once per step and k for the rows of that
k; the rows with k >= 3 step together in the closed form, as one
``KStepStack`` whatever their k.  One-shot rows on a
problem with a ``modal_twin`` (a cavity, whose ``symmetrizer`` gives the
eigenbasis of B from one generalized symmetric eigensolve) step the
twin, built once per problem, where a sweep multiplies by the
eigenvalues elementwise: u0 and p0 go into its coordinates at the start
and the final u and p come back, while sigma, and so every trace row,
stays that of the problem.

At alpha = 0 the explicit and implicit updates coincide exactly.
The run loop records one trace row per outer iteration.  Its stop rules
are written once, in ``iter_columns``, as masks over the running rows; a
column that several rules stop on the same step takes the first of
``_STOP_RULES``: the divergence guard, the cost tolerance, the relative
step tolerance, the iteration cap.  Divergence is an outcome, not an
error, so parameter sweeps can record both.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import OneShotError, SingularSystemError
from .problem import (CLOSED_FORM_K, IterationState, KStepStack, Objective, _checked_state,
                      finite_real, fixed_point_sweep, positive_int, regularized_solution,
                      row_dots, solve_adjoint_exact, solve_state_exact)

#: Cost level beyond which a run is declared diverged.
DIVERGENCE_GUARD = 1e12

#: Trace rows per stacked product when the gradient norms and errors are
#: computed after the loop; it bounds the (rows, n_g) residual temporary.
ROWS_PER_PRODUCT = 64


class SchemeKind(str, enum.Enum):
    """The four iteration schemes; serialized by exact member name."""

    UsualGD = "UsualGD"
    SemiImplicitGD = "SemiImplicitGD"
    KStepOneShot = "KStepOneShot"
    SemiImplicitKStepOneShot = "SemiImplicitKStepOneShot"

    @property
    def is_one_shot(self) -> bool:
        return self in (SchemeKind.KStepOneShot, SchemeKind.SemiImplicitKStepOneShot)

    @property
    def is_implicit(self) -> bool:
        return self in (SchemeKind.SemiImplicitGD, SchemeKind.SemiImplicitKStepOneShot)


class RunStatus(str, enum.Enum):
    MAX_OUTER = "max_outer"
    TOL_COST = "tol_cost"
    TOL_STEP = "tol_step"
    DIVERGED = "diverged"


#: The status each stop rule gives, in order of precedence: a non-finite
#: sigma, u or p (recorded as a guard row), a cost above DIVERGENCE_GUARD
#: or NaN, the cost tolerance, the step tolerance, the iteration cap.
_STOP_RULES = (RunStatus.DIVERGED, RunStatus.DIVERGED, RunStatus.TOL_COST,
               RunStatus.TOL_STEP, RunStatus.MAX_OUTER)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Scheme, step size, inner-iteration count, stop rules and start point.

    ``k`` is ignored by the two gradient-descent schemes.  Initial vectors
    default to zeros (the schemes only prescribe sigma^0; u^0 = p^0 = 0 is
    the neutral, reproducible choice).
    """

    scheme: SchemeKind
    tau: float
    k: int = 1
    max_outer: int = 100
    tol_cost: float = 0.0
    tol_step: float = 0.0
    sigma0: np.ndarray | None = None
    u0: np.ndarray | None = None
    p0: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "scheme", SchemeKind(self.scheme))
        finite_real("tau", self.tau, strict=True)
        object.__setattr__(self, "k", positive_int("k", self.k))
        object.__setattr__(self, "max_outer", positive_int("max_outer", self.max_outer))
        finite_real("tol_cost", self.tol_cost)
        finite_real("tol_step", self.tol_step)


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One completed outer iteration (n = 0 is the starting point).

    ``wall_ms`` is the time elapsed in the batch's run loop up to this
    step, shared by every column of the batch; ``format_trace_csv``
    writes it only with ``deterministic_wall=False``.
    """

    n: int
    cost: float
    grad_norm: float
    rel_err_sigma: float | None
    acc_inner: int
    wall_ms: float


@dataclass(eq=False)
class ConvergenceTrace:
    """Per-iteration records plus the terminal status of one run."""

    scheme: SchemeKind
    tau: float
    k: int
    records: list[TraceRecord] = field(default_factory=list)
    status: RunStatus | None = None
    final_state: IterationState | None = None

    @property
    def diverged(self) -> bool:
        return self.status is RunStatus.DIVERGED

    @property
    def final_cost(self) -> float:
        return self.records[-1].cost

    @property
    def final_rel_err(self) -> float | None:
        return self.records[-1].rel_err_sigma

    def iterations_to_cost(self, level: float):
        """First outer iteration n with J(sigma^n) <= level, or None."""
        for rec in self.records:
            if rec.cost <= level:
                return rec.n
        return None

    def __iter__(self):
        return iter(self.records)


#: One trace row: n, cost, grad_norm, rel_err_sigma, acc_inner, wall_ms,
#: status.  "%.16e" % x is the text of f"{x:.16e}", inf, nan and -0.0 included.
_TRACE_ROW = "%d,%.16e,%.16e,%s,%d,%s,%s"


def format_trace_csv(trace: ConvergenceTrace, deterministic_wall=True) -> str:
    lines = ["n,cost,grad_norm,rel_err_sigma,acc_inner,wall_ms,status"]
    status = trace.status.value if trace.status is not None else ""
    for rec in trace.records:
        rel = "" if rec.rel_err_sigma is None else "%.16e" % rec.rel_err_sigma
        wall = "0" if deterministic_wall else "%.16e" % rec.wall_ms
        lines.append(_TRACE_ROW % (rec.n, rec.cost, rec.grad_norm, rel, rec.acc_inner, wall,
                                   status))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# one step (a pure function state -> state)
# ----------------------------------------------------------------------

def _update_constants(scheme: SchemeKind, tau: float, alpha: float):
    """(tau alpha_explicit, shrink) of ``_next_sigma`` for one scheme: (tau
    alpha, 1) when the Tikhonov term is explicit, (0, 1 + tau alpha) when
    it is implicit."""
    tau_alpha = tau * alpha
    return (0.0, 1.0 + tau_alpha) if scheme.is_implicit else (tau_alpha, 1.0)


def _next_sigma(sigma, Mp, tau, tau_alpha_explicit, shrink):
    """(sigma - tau M* p - tau alpha_explicit sigma) / shrink, for a stack of
    sigmas and scalar or (c, 1) constants: both updates of the table in the
    module docstring, bit for bit for a finite sigma (the division by 1 and
    the term 0 sigma are exact)."""
    return (sigma - tau * Mp - tau_alpha_explicit * sigma) / shrink


def step(objective: Objective, state: IterationState, scheme: SchemeKind,
         tau: float, k: int = 1) -> IterationState:
    """One outer iteration of ``scheme`` (the table in the module docstring).

    ``k`` is ignored by gradient descent, which returns the incoming u and p
    unchanged: its M* p comes from the reduced operator, not from them.  A
    sigma, u or p that does not fit the problem raises
    ProblemAssumptionError for every scheme.  The products are those of a
    ``run_columns`` batch of one column.
    """
    problem = objective.problem
    state = _checked_state(problem, state)
    sigma = state.sigma[None]
    if scheme.is_one_shot:
        Mp = state.p[None] @ problem.M
    else:
        residual = sigma @ problem._A_T - objective.shifted_data()
        Mp = residual @ problem.reduced_operator()
    sigma = _next_sigma(sigma, Mp, tau, *_update_constants(scheme, tau, objective.alpha))[0]
    if not scheme.is_one_shot:
        return IterationState(sigma, state.u, state.p, fresh=True)
    return IterationState(sigma, *fixed_point_sweep(problem, state, sigma, objective.g, k),
                          fresh=True)


# ----------------------------------------------------------------------
# the run loop over a batch of columns
# ----------------------------------------------------------------------

def run(objective: Objective, config: RunConfig) -> ConvergenceTrace:
    """Run one scheme to termination, recording a trace row per iteration:
    ``run_columns`` on a batch of one column (see there)."""
    return run_columns([(objective, config)])[0]


def run_columns(columns) -> list[ConvergenceTrace]:
    """Run a batch of columns, (objective, config) pairs, each to termination.

    The columns share one problem; the scheme, k, tau, alpha, g, the start
    and the stop rules may differ.  Every start is checked before any
    column steps, and a batch that mixes problems raises ValueError.  Each
    step moves every running column as one row of a stack, gradient-descent
    rows first and then the one-shot rows sorted by k, and a column leaves
    the stack when it stops, so a diverged column is stepped no further.
    The result holds one trace per column, in order; a column's trace
    matches that of a batch of its own up to rounding, since stacked
    products sum in another order.

    Every row takes the same sigma update, with its own constants
    (``_next_sigma``).  A gradient-descent row's M* p is its residual times
    A; a one-shot row's is p M, and its k sweeps follow: one
    ``fixed_point_sweep`` call per k on the rows of each k <= 2, and one
    ``KStepStack`` step for all the rows with k >= 3.

    After every step, ``iter_columns`` forms each stop rule once, as a
    mask over the running rows, and a column that several rules stop takes
    the first in this order: a non-finite sigma, u or p (diverged, with a
    last row of infinite cost), a cost above ``DIVERGENCE_GUARD`` or NaN
    (diverged), the cost tolerance, the relative step tolerance
    ||sigma^n - sigma^(n-1)|| <= tol_step (1 + ||sigma^(n-1)||), armed at
    n >= 2 when tol_step > 0, and the iteration cap.  Every trace
    contains a record for n = 0 (the starting point).  The loop computes
    every cost, which the stop rules read, and logs each column's sigma and
    cost at each step in one array indexed by column and step, whose steps
    double when it fills, up to the longest cap still running, so a large
    ``max_outer`` reserves nothing up front; a column's trace reads its own
    contiguous run of that log.  The
    gradient norms and relative errors of all rows come after the loop,
    from stacked products of up to ``ROWS_PER_PRODUCT`` rows, formed row by
    row as ``gradient`` forms them.  A gradient-descent column carries its
    start u and p, and its final state holds the exact u and p at its final
    sigma, unless that sigma is non-finite or too large for the state
    solve.

    One-shot columns on a problem with a ``modal_twin`` step the twin: u0
    and p0 go into its coordinates once, and the final u and p come back.
    The sigma iterates, and so every trace row, equal those of repeated
    ``step`` calls in exact arithmetic.
    """
    return list(iter_columns(columns))


def iter_columns(columns):
    """The traces of ``run_columns``, one at a time, in column order.

    The loop runs to its end when the first trace is taken; each trace is
    then formed only when it is taken, so a caller that lets each go
    before taking the next holds the records of one trace at a time.
    """
    columns = list(columns)
    if not columns:
        return
    objectives, configs = zip(*columns)
    problem = objectives[0].problem
    if any(o.problem is not problem for o in objectives):
        raise ValueError("the columns of a batch must share one problem")
    starts = [IterationState.zero(problem, c.sigma0, c.u0, c.p0) for c in configs]

    # the k of every row, 0 for gradient descent; ids is the column of each
    # row, gradient descent first and then one-shot by k
    row_k = [c.k if c.scheme.is_one_shot else 0 for c in configs]
    ids = np.argsort(row_k, kind="stable")
    n_gd = row_k.count(0)
    twin = problem.modal_twin() if n_gd < len(columns) else None
    sweep_problem = problem if twin is None else twin.problem
    A, A_T, M = problem.reduced_operator(), problem._A_T, sweep_problem.M
    # S, U and P hold a row per column: a gradient-descent row holds its start
    # u and p, which nothing writes, and only the one-shot rows go into the
    # twin's coordinates; the starts go once they are stacked
    S, U, P = (np.array([getattr(starts[i], name) for i in ids]) for name in ("sigma", "u", "p"))
    del starts
    if twin is not None:
        U[n_gd:], P[n_gd:] = twin.to_modal(U[n_gd:], P[n_gd:])
    G = np.array([objectives[i].g for i in ids])
    G_tilde = np.array([objectives[i].shifted_data() for i in ids])
    tau = np.array([configs[i].tau for i in ids])[:, None]
    tau_alpha, shrink = np.array([_update_constants(configs[i].scheme, configs[i].tau,
                                                    objectives[i].alpha) for i in ids]).T
    tau_alpha, shrink = tau_alpha[:, None], shrink[:, None]
    half_alpha = np.array([0.5 * objectives[i].alpha for i in ids])
    tol_cost, tol_step, max_outer = (np.array([getattr(configs[i], name) for i in ids])
                                     for name in ("tol_cost", "tol_step", "max_outer"))
    thin, fused = _sweep_plan(sweep_problem, [row_k[i] for i in ids], G)
    references = {}
    for o in objectives:
        if id(o) not in references:
            try:
                sigma_ref = regularized_solution(o)
                references[id(o)] = (sigma_ref, float(np.linalg.norm(sigma_ref)))
            except OneShotError:
                references[id(o)] = None

    t0 = time.perf_counter()
    R = S @ A_T - G_tilde
    J = 0.5 * row_dots(R) + half_alpha * row_dots(S)
    walls = [(time.perf_counter() - t0) * 1e3]
    # log[i, n] is the [sigma, cost] row of column i at step n; the log
    # doubles its steps when full, up to the longest cap still running, so a
    # large max_outer reserves nothing up front
    log = np.empty((len(columns), 1, problem.n_sigma + 1))
    log[ids, 0, :-1], log[ids, 0, -1] = S, J
    ends, step_rule = {}, tol_step.any()
    for n in range(1, int(max_outer.max()) + 1):
        prev = S
        S = _next_sigma(S, np.concatenate((R[:n_gd] @ A, P[n_gd:] @ M)), tau, tau_alpha, shrink)
        # each group of rows sweeps from its own rows of U and P, so its
        # result overwrites them in place
        for k, lo, hi in thin:
            U[lo:hi], P[lo:hi] = fixed_point_sweep(
                sweep_problem, SimpleNamespace(u=U[lo:hi], p=P[lo:hi]), S[lo:hi], G[lo:hi], k)
        if fused is not None:
            lo = len(P) - len(fused.ks)
            U[lo:], P[lo:] = fused.sweep(U[lo:], P[lo:], S[lo:])
        R = S @ A_T - G_tilde
        J = 0.5 * row_dots(R) + half_alpha * row_dots(S)
        walls.append((time.perf_counter() - t0) * 1e3)
        if n == log.shape[1]:
            grown = np.empty((len(log), min(2 * n, max_outer.max() + 1), log.shape[2]))
            grown[:, :n] = log
            log = grown
        log[ids, n, :-1], log[ids, n, -1] = S, J
        # the stop rules as masks over the running rows; the step rule arms
        # at n >= 2, since a one-shot row started from the default p0 = 0
        # keeps its sigma on the first step
        diverged = ~(J <= DIVERGENCE_GUARD)
        converged = J <= tol_cost
        stalled = n >= 2 and step_rule and (tol_step > 0) & (
            np.sqrt(row_dots(S - prev)) <= tol_step * (1.0 + np.sqrt(row_dots(prev))))
        capped = max_outer == n
        # a finite cost within the guard means a finite sigma
        if not np.count_nonzero(diverged | converged | stalled | capped) \
                and np.isfinite(U).all() and np.isfinite(P).all():
            continue
        finite = np.isfinite(S).all(1) & np.isfinite(U).all(1) & np.isfinite(P).all(1)
        # the first rule that holds on each row, in the order of _STOP_RULES,
        # or -1: written from the last rule to the first
        rule = np.full(len(J), -1)
        for r, mask in reversed(tuple(enumerate((~finite, diverged, converged, stalled, capped)))):
            rule[mask] = r
        stops = np.flatnonzero(rule >= 0)
        for pos, i, r in zip(stops.tolist(), ids[stops].tolist(), rule[stops].tolist()):
            # copies, so that a stopped row keeps no stack alive
            ends[i] = (_STOP_RULES[r], n, r == 0, S[pos], U[pos].copy(), P[pos].copy())
        keep = np.flatnonzero(rule < 0)
        if not len(keep):
            break
        n_gd = np.count_nonzero(keep < n_gd)
        (ids, S, R, U, P, G, G_tilde, tau, tau_alpha, shrink, half_alpha, tol_cost, tol_step,
         max_outer) = (x[keep] for x in (ids, S, R, U, P, G, G_tilde, tau, tau_alpha, shrink,
                                         half_alpha, tol_cost, tol_step, max_outer))
        thin, fused = _sweep_plan(sweep_problem, [row_k[i] for i in ids], G)

    for i, (objective, config) in enumerate(columns):
        status, n_end, guard_row, sigma, u, p = ends.pop(i)
        count = n_end + 1 - guard_row
        inner_per_outer = row_k[i] or 1
        rows = log[i, :count]
        trace = ConvergenceTrace(scheme=config.scheme, tau=config.tau, k=inner_per_outer)
        trace.records = _records(objective, references[id(objective)], rows[:, :-1],
                                 rows[:, -1].tolist(), walls, inner_per_outer)
        if guard_row:
            # the iterate itself is unusable, so the row records no finite cost
            trace.records.append(TraceRecord(n_end, math.inf, math.inf, None,
                                             inner_per_outer * n_end, walls[n_end]))
        if twin is not None and row_k[i]:
            u, p = twin.from_modal(u, p)
        elif not row_k[i] and np.isfinite(sigma).all():
            try:
                exact_u = solve_state_exact(problem, sigma)
                u, p = exact_u, solve_adjoint_exact(problem, exact_u, objective.g)
            except SingularSystemError:
                pass  # a diverged sigma overflowed the solve: keep the carried u, p
        trace.status = status
        trace.final_state = IterationState(sigma, u, p, fresh=True)
        yield trace


def _sweep_plan(sweep_problem, ks, G):
    """How the rows of a stack, with sorted inner counts ks (0 for gradient
    descent) and data G, sweep: a list of (k, lo, hi) row slices with
    0 < k < ``CLOSED_FORM_K``, each one ``fixed_point_sweep`` call, and the
    ``KStepStack`` of the rows after the last slice, or None."""
    lo = sum(k < CLOSED_FORM_K for k in ks)
    thin = [(k, ks.index(k), ks.index(k) + ks.count(k)) for k in sorted(set(ks[:lo]) - {0})]
    return thin, KStepStack(sweep_problem, ks[lo:], G[lo:]) if lo < len(ks) else None


def _records(objective: Objective, reference, sigma_rows, cost_rows, walls,
             inner_per_outer: int) -> list[TraceRecord]:
    """The trace records of one column's sigma rows and costs.

    Every row's residual and gradient are formed as ``gradient`` forms them,
    one BLAS product per row, and ``row_dots`` is one BLAS dot per row, so a
    gradient norm or error equals np.linalg.norm of that row's vector.
    """
    A, A_T, g_tilde = objective.problem.reduced_operator(), objective.problem._A_T, \
        objective.shifted_data()
    grad_norms = []
    for start in range(0, len(sigma_rows), ROWS_PER_PRODUCT):
        sigmas = sigma_rows[start:start + ROWS_PER_PRODUCT]
        residuals = np.matmul(sigmas[:, None, :], A_T)
        residuals -= g_tilde
        grads = np.matmul(residuals, A)[:, 0] + objective.alpha * sigmas
        grad_norms += np.sqrt(row_dots(grads)).tolist()
    if reference is None:
        rel_errs = [None] * len(cost_rows)
    else:
        sigma_ref, ref_norm = reference
        errs = np.sqrt(row_dots(sigma_rows - sigma_ref))
        rel_errs = (errs / ref_norm if ref_norm > 0 else errs).tolist()
    return [TraceRecord(n, j, grad_norm, rel, inner_per_outer * n, walls[n])
            for n, (j, grad_norm, rel) in enumerate(zip(cost_rows, grad_norms, rel_errs))]
