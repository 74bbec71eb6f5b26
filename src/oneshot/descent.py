"""One step rule for the four coupled iteration schemes, and their run loop.

The four schemes are the corners of two choices, made by one function
``step``.  The adjoint term M* p that drives the sigma update is either
exact at the incoming sigma (gradient descent) or M* applied to the
carried adjoint iterate, followed by exactly k warm-started fixed-point
sweeps with the new sigma (one-shot).  Gradient descent is the k = infinity
limit of the sweeps, where M* p(sigma) = A* (A sigma - g_tilde) with the
cached reduced operator A, so its step solves nothing.  The Tikhonov term
is treated explicitly or implicitly:

    explicit        sigma' = sigma - tau M* p - tau alpha sigma
    implicit        sigma' = (sigma - tau M* p) / (1 + tau alpha)

                    M* p = A* (A sigma - g_tilde)   k sweeps
    explicit        UsualGD                         KStepOneShot
    implicit        SemiImplicitGD                  SemiImplicitKStepOneShot

Gradient descent carries u and p through its steps unchanged; ``run``
fills the final state's u and p with one exact state and adjoint solve at
the final sigma (the k = infinity state).

``step`` and ``run`` apply one step rule, ``_step_rule``, which checks
nothing: ``step`` checks its state against the problem, and ``run`` checks
its start once, binds the rule's constants once and carries plain arrays,
building an ``IterationState`` for the final state only.  A one-shot run
on a problem with a ``modal_twin`` (a cavity, whose ``symmetrizer`` gives
the eigenbasis of B from one symmetric eigensolve) steps the twin, where
a sweep multiplies by the eigenvalues elementwise: u0 and p0 go into its
coordinates at the start and the final u and p come back, while sigma,
and so every trace row, stays that of the problem.

At alpha = 0 the explicit and implicit updates coincide exactly.
The run loop records one trace row per outer iteration and stops on an
iteration cap, a cost tolerance, a relative step tolerance, or a
divergence guard; divergence is an outcome, not an error, so parameter
sweeps can record both.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import OneShotError, SingularSystemError
from .problem import (IterationState, LinearInverseProblem, Objective, _checked_sigma,
                      _checked_state, cost, finite_real, fixed_point_sweep, gradient,
                      positive_int, regularized_solution, solve_adjoint_exact,
                      solve_state_exact)

#: Cost level beyond which a run is declared diverged.
DIVERGENCE_GUARD = 1e12


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


@dataclass(frozen=True)
class TraceRecord:
    """One completed outer iteration (n = 0 is the starting point)."""

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


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def format_trace_csv(trace: ConvergenceTrace, deterministic_wall=True) -> str:
    lines = ["n,cost,grad_norm,rel_err_sigma,acc_inner,wall_ms,status"]
    status = trace.status.value if trace.status is not None else ""
    for rec in trace.records:
        rel = "" if rec.rel_err_sigma is None else _fmt(rec.rel_err_sigma)
        wall = "0" if deterministic_wall else _fmt(rec.wall_ms)
        lines.append(
            f"{rec.n},{_fmt(rec.cost)},{_fmt(rec.grad_norm)},{rel},"
            f"{rec.acc_inner},{wall},{status}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# one step (a pure function state -> state)
# ----------------------------------------------------------------------

class _Iterate(NamedTuple):
    """The (sigma, u, p) that ``run`` carries between steps, unchecked."""

    sigma: np.ndarray
    u: np.ndarray
    p: np.ndarray


def _step_rule(objective: Objective, problem: LinearInverseProblem, scheme: SchemeKind,
               tau: float, k: int):
    """The step rule of ``step`` with its constants bound: a function from a
    state carrying sigma, u and p to the next ``_Iterate``, with no checks.

    The one-shot sweeps run on ``problem``: the objective's own problem, or
    its modal twin with u and p in the twin's coordinates.
    """
    one_shot, implicit = scheme.is_one_shot, scheme.is_implicit
    g, shrink, tau_alpha = objective.g, 1.0 + tau * objective.alpha, tau * objective.alpha
    if one_shot:
        M_T = problem.M.T
    else:
        A, g_tilde = objective.problem.reduced_operator(), objective.shifted_data()

    def advance(state) -> _Iterate:
        sigma = state.sigma
        Mp = M_T @ state.p if one_shot else A.T @ (A @ sigma - g_tilde)
        if implicit:
            sigma_new = (sigma - tau * Mp) / shrink
        else:
            sigma_new = sigma - tau * Mp - tau_alpha * sigma
        if not one_shot:
            return _Iterate(sigma_new, state.u, state.p)
        return _Iterate(sigma_new, *fixed_point_sweep(problem, state, sigma_new, g, k))

    return advance


def step(objective: Objective, state: IterationState, scheme: SchemeKind,
         tau: float, k: int = 1) -> IterationState:
    """One outer iteration of ``scheme`` (the table in the module docstring).

    ``k`` is ignored by gradient descent, which returns the incoming u and p
    unchanged: its M* p comes from the reduced operator, not from them.  A
    sigma, u or p that does not fit the problem raises
    ProblemAssumptionError for every scheme.
    """
    problem = objective.problem
    state = _checked_state(problem, state)
    _checked_sigma(problem, state.sigma)
    return IterationState(*_step_rule(objective, problem, scheme, tau, k)(state), fresh=True)


def run(objective: Objective, config: RunConfig) -> ConvergenceTrace:
    """Run one scheme to termination, recording a trace row per iteration.

    Stop conditions, checked in this order after every step: divergence
    guard (non-finite iterates or cost above 1e12), cost tolerance,
    relative step tolerance, iteration cap.  The trace always contains a
    record for n = 0 (the starting point).  A gradient-descent run's final
    state holds the exact u and p at its final sigma, unless that sigma is
    non-finite or too large for the state solve.

    A one-shot run on a problem with a ``modal_twin`` steps the twin: u0
    and p0 go into its coordinates once, and the final u and p come back.
    The sigma iterates, and so every trace row, equal those of repeated
    ``step`` calls in exact arithmetic.
    """
    problem = objective.problem
    scheme, tau, k = config.scheme, config.tau, config.k
    start = IterationState.zero(problem, config.sigma0, config.u0, config.p0)
    twin = problem.modal_twin() if scheme.is_one_shot else None
    u, p = (start.u, start.p) if twin is None else twin.to_modal(start.u, start.p)
    state = _Iterate(start.sigma, u, p)
    advance = _step_rule(objective, problem if twin is None else twin.problem, scheme, tau, k)
    try:
        sigma_ref = regularized_solution(objective)
        ref_norm = float(np.linalg.norm(sigma_ref))
    except OneShotError:
        sigma_ref, ref_norm = None, 0.0

    inner_per_outer = k if scheme.is_one_shot else 1

    trace = ConvergenceTrace(scheme=scheme, tau=tau, k=inner_per_outer)
    t0 = time.perf_counter()

    def record(n, state):
        # sqrt(x @ x) is np.linalg.norm of a 1-D float array, bit for bit
        j = cost(objective, state.sigma)
        grad = gradient(objective, state.sigma)
        gnorm = math.sqrt(grad @ grad)
        if sigma_ref is None:
            rel = None
        else:
            diff = state.sigma - sigma_ref
            err = math.sqrt(diff @ diff)
            rel = err / ref_norm if ref_norm > 0 else err
        wall = (time.perf_counter() - t0) * 1e3
        trace.records.append(TraceRecord(n, j, gnorm, rel, inner_per_outer * n, wall))
        return j

    record(0, state)
    status = RunStatus.MAX_OUTER
    for n in range(1, config.max_outer + 1):
        prev_sigma = state.sigma
        state = advance(state)
        if not np.isfinite(state.sigma).all() or not np.isfinite(state.u).all() \
                or not np.isfinite(state.p).all():
            # Leave a finite-cost guard row out: the iterate itself is unusable.
            trace.records.append(TraceRecord(
                n, float("inf"), float("inf"), None, inner_per_outer * n,
                (time.perf_counter() - t0) * 1e3))
            status = RunStatus.DIVERGED
            break
        j = record(n, state)
        if not math.isfinite(j) or j > DIVERGENCE_GUARD:
            status = RunStatus.DIVERGED
            break
        if j <= config.tol_cost:
            status = RunStatus.TOL_COST
            break
        # The step test arms at n >= 2: a one-shot scheme started from the
        # default p^0 = 0 leaves sigma unchanged on its very first update.
        if n >= 2 and config.tol_step > 0:
            step_size = float(np.linalg.norm(state.sigma - prev_sigma))
            if step_size <= config.tol_step * (1.0 + float(np.linalg.norm(prev_sigma))):
                status = RunStatus.TOL_STEP
                break

    sigma, u, p = state
    if twin is not None:
        u, p = twin.from_modal(u, p)
    elif not scheme.is_one_shot and np.isfinite(sigma).all():
        try:
            exact_u = solve_state_exact(problem, sigma)
            u, p = exact_u, solve_adjoint_exact(problem, exact_u, objective.g)
        except SingularSystemError:
            pass  # a diverged sigma overflowed the solve: keep the carried u, p
    trace.status = status
    trace.final_state = IterationState(sigma, u, p, fresh=True)
    return trace
