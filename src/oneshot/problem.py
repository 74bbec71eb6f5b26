"""Discretized linear inverse problems and their exact solvers.

The forward (state) model is the fixed-point form

    u = B u + M sigma + F,      u in R^{n_u},  sigma in R^{n_sigma},

with measurements g = H u(sigma) in R^{n_g}.  Everything built on top
relies on two standing assumptions, both checked at construction time:

* the state iteration contracts, rho(B) < 1, so I - B is invertible and
  the sweep u_{l+1} = B u_l + M sigma + F converges for any start.
  ``contracts`` proves it from a 1- or infinity-norm of B, B^2 or B^4
  below 1 where one is, which holds on every shipped cavity, and
  eigensolves B only where none is;
* the end-to-end parameter-to-data map A = H (I - B)^{-1} M has full
  column rank, so the inverse problem has a unique regularized solution.

The regularized output least-squares functional is

    J(sigma) = 1/2 ||H u(sigma) - g||^2 + alpha/2 ||sigma||^2

with gradient M* p(sigma) + alpha sigma, where the adjoint state p solves
p = B* p + H* (H u - g).  As H u(sigma) = A sigma + H (I - B)^{-1} F,
``cost`` and ``gradient`` evaluate the equal forms

    J = 1/2 ||A sigma - g_tilde||^2 + alpha/2 ||sigma||^2,
    grad J = A* (A sigma - g_tilde) + alpha sigma,

with the cached A and g_tilde = g - H (I - B)^{-1} F, so they solve
nothing; the exact-solve forms above are their test oracle.

A problem stacking n_blocks copies of one state model with a shared
sigma (the cavity's sources) stores the single blocks B and H, while M
and F stay stacked (a dense problem has n_blocks = 1).  Only this module
takes a stacked array apart: ``to_block_columns`` makes the blocks of a
stacked vector or matrix the columns of one matrix and
``from_block_columns`` stacks them back, so ``blockwise`` applies kron(I,
T) or its inverse by one product or LAPACK solve with the block T, and
``sweeps`` works on the (n_blocks, n) row view.  All exact solves use one
dense LU factorization of the block I - B with partial pivoting, shared
by the state and the (transposed) adjoint equation.  The k-step operators
of the block (``k_step_operators``), with M and F folded into them, are
cached on the problem like A, once per k; from k = 3 on ``sweeps``
applies k sweeps in their closed form, three block products per call.
Problems and objectives are immutable and safe to share across threads;
every operation here is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import ProblemAssumptionError, SingularSystemError

#: Relative singular-value cutoff for the full-column-rank check of A.
RANK_TOL = 1e-10

_getrs = scipy.linalg.get_lapack_funcs("getrs", dtype=np.float64)


def _readonly(a, dtype=float, ndim=None, name="array", copy=True):
    arr = np.array(a, dtype=dtype) if copy else np.asarray(a, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ProblemAssumptionError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def positive_int(name, value, error=ValueError) -> int:
    """value as an int if it is an integer >= 1; a bool or anything else raises error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise error(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def to_block_columns(x, n_blocks: int) -> np.ndarray:
    """The blocks of a stacked x as the columns of one (n, n_blocks * c) matrix.

    x is an (n_blocks * n, c) matrix, or an (n_blocks * n,) vector with
    c = 1; column j * c + i of the result is block j of column i of x.
    """
    x = np.asarray(x)
    n, c = x.shape[0] // n_blocks, x.shape[1] if x.ndim == 2 else 1
    return x.reshape(n_blocks, n, c).swapaxes(0, 1).reshape(n, n_blocks * c)


def from_block_columns(y, n_blocks: int, ndim: int = 2) -> np.ndarray:
    """The stacked array whose blocks are the columns of y (``to_block_columns``
    inverted): an (n_blocks * n, c) matrix, or a vector when ndim is 1."""
    n, c = y.shape[0], y.shape[1] // n_blocks
    x = y.reshape(n, n_blocks, c).swapaxes(0, 1).reshape(n_blocks * n, c)
    return x if ndim == 2 else x.reshape(-1)


def operator_norm(x) -> float:
    """Spectral (2-)norm of a dense matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if min(x.shape) == 0:
        return 0.0
    return float(np.linalg.norm(x, 2))


def spectral_radius(x) -> float:
    """Spectral radius of a dense square matrix, by dense eigensolve."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(x))))


#: Squarings of T whose norms ``contracts`` tries before the eigensolve.
CONTRACTION_SQUARINGS = 2


def contracts(T) -> bool:
    """Whether rho(T) < 1 for a dense square matrix T.

    Every induced norm bounds the spectral radius, and rho(T)^(2^j) =
    rho(T^(2^j)), so a 1- or infinity-norm of T, T^2 or T^4 below 1 proves
    rho(T) < 1 in O(n^2) or one or two O(n^3) products, where an
    eigensolve of T costs many times that.  Each computed norm is raised by
    2 n eps for the rounding of its sums, and each squaring carries a bound
    on its error in the exact power (|fl(P P) - P P| <= gamma_n |P| |P|
    entrywise for any summation order; Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Sec. 3.5), so a norm accepts only when
    the exact T contracts.  Where none does, the answer is the dense
    ``spectral_radius(T) < 1``.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"T must be square, got shape {T.shape}")
    if T.size:
        slack = 2.0 * T.shape[0] * np.finfo(float).eps
        power, err = T, 0.0  # err bounds ||T^(2^j) - power|| in both norms
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(CONTRACTION_SQUARINGS + 1):
                if j:
                    err = err * (2.0 * norms + err) + slack * norms ** 2
                    power = power @ power
                absolute = np.abs(power)
                norms = (1.0 + slack) * np.array([absolute.sum(0).max(), absolute.sum(1).max()])
                if np.min(norms + err) < 1.0:
                    return True
    return spectral_radius(T) < 1.0


@dataclass(frozen=True, eq=False)
class LinearInverseProblem:
    """The quadruple (B, M, H, F) defining state model and measurements.

    Parameters
    ----------
    B : (n, n) array
        State-iteration block; must satisfy rho(B) < 1.
    M : (n_u, n_sigma) array
        Parameter-to-state coupling, stacked over the blocks.
    H : (m, n) array
        Measurement block.
    F : (n_u,) array
        Source term, stacked over the blocks.
    n_blocks : int, optional
        Number of diagonal copies of B and H, so n_u = n_blocks * n and
        n_g = n_blocks * m.
    """

    B: np.ndarray
    M: np.ndarray
    H: np.ndarray
    F: np.ndarray
    n_blocks: int = 1

    def __post_init__(self):
        B = _readonly(self.B, ndim=2, name="B")
        M = _readonly(self.M, ndim=2, name="M")
        H = _readonly(self.H, ndim=2, name="H")
        F = _readonly(self.F, ndim=1, name="F")
        positive_int("n_blocks", self.n_blocks, ProblemAssumptionError)
        n = B.shape[0]
        n_u = self.n_blocks * n
        if B.shape != (n, n):
            raise ProblemAssumptionError(f"B must be square, got {B.shape}")
        if M.shape[0] != n_u:
            raise ProblemAssumptionError(f"M has {M.shape[0]} rows, expected {n_u}")
        if H.shape[1] != n:
            raise ProblemAssumptionError(f"H has {H.shape[1]} columns, expected {n}")
        if F.shape != (n_u,):
            raise ProblemAssumptionError(f"F has shape {F.shape}, expected ({n_u},)")
        for name, arr in (("B", B), ("M", M), ("H", H), ("F", F)):
            if not np.isfinite(arr).all():
                raise ProblemAssumptionError(f"{name} contains non-finite entries")
        for name, arr in (("B", B), ("M", M), ("H", H), ("F", F)):
            object.__setattr__(self, name, arr)

        if not contracts(B):
            raise ProblemAssumptionError(
                f"state iteration does not contract: rho(B) = {self.rho_B:.6g} >= 1")

        # Injectivity of A = H (I-B)^{-1} M via its singular values.
        if self.n_sigma:
            sv = scipy.linalg.svdvals(self.reduced_operator())
            if sv[0] == 0.0 or sv[-1] <= RANK_TOL * sv[0]:
                raise ProblemAssumptionError(
                    "parameter-to-data map is rank deficient: "
                    f"smallest/largest singular value = {sv[-1]:.3e}/{sv[0]:.3e}")

    # -- dimensions ----------------------------------------------------
    @property
    def n_u(self) -> int:
        return self.n_blocks * self.B.shape[0]

    @property
    def n_sigma(self) -> int:
        return self.M.shape[1]

    @property
    def n_g(self) -> int:
        return self.n_blocks * self.H.shape[0]

    @cached_property
    def rho_B(self) -> float:
        """The spectral radius of B (equal to that of kron(I, B)).

        Construction certifies rho(B) < 1 through ``contracts``, mostly from
        norms; this dense eigensolve runs on first use only.
        """
        return spectral_radius(self.B)

    # -- cached dense factorizations and norms -------------------------
    @cached_property
    def _lu_state(self):
        """LU factorization of the block I - B (used transposed for the adjoint)."""
        try:
            return scipy.linalg.lu_factor(np.eye(self.B.shape[0]) - self.B)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - guarded by rho(B)<1
            raise SingularSystemError("I - B is numerically singular") from exc

    @cached_property
    def norm_B(self) -> float:
        return operator_norm(self.B)

    @cached_property
    def norm_M(self) -> float:
        return operator_norm(self.M)

    @cached_property
    def norm_H(self) -> float:
        return operator_norm(self.H)

    def blockwise(self, fn, x):
        """kron(I, T) x for a stacked vector or matrix x, where fn(c) computes T c.

        T is a block, or the inverse of one when fn solves.  The blocks of
        every column of x become the columns of one matrix, so fn runs once.
        """
        return from_block_columns(fn(to_block_columns(x, self.n_blocks)), self.n_blocks,
                                  np.ndim(x))

    def apply(self, op, x):
        """kron(I, op) @ x for a block matrix op (e.g. B, B.T, H, H.T)."""
        return self.blockwise(op.__matmul__, x)

    def solve_factored(self, factor, rhs, adjoint=False):
        """kron(I, T)^{-1} rhs, or kron(I, T*)^{-1} rhs when ``adjoint``.

        ``factor`` is the ``scipy.linalg.lu_factor`` output of the block T.
        A non-finite rhs or a failed LAPACK solve raises SingularSystemError.
        """
        rhs = np.asarray(rhs, dtype=float)
        if not np.isfinite(rhs).all():
            raise SingularSystemError("exact solve failed: non-finite right-hand side")

        def getrs(cols):
            x, info = _getrs(*factor, cols, trans=int(adjoint))
            if info != 0:
                raise SingularSystemError(f"exact solve failed: getrs info = {info}")
            return x

        try:
            return self.blockwise(getrs, rhs)
        except ValueError as exc:
            raise SingularSystemError("exact solve failed") from exc

    def solve_I_minus_B(self, rhs, adjoint=False):
        """Solve (I - B) x = rhs, or (I - B*) x = rhs when ``adjoint``."""
        return self.solve_factored(self._lu_state, rhs, adjoint)

    @cached_property
    def _A(self) -> np.ndarray:
        return _readonly(self.apply(self.H, self.solve_I_minus_B(self.M)), copy=False)

    @cached_property
    def _offset(self) -> np.ndarray:
        return _readonly(self.apply(self.H, self.solve_I_minus_B(self.F)), copy=False)

    def reduced_operator(self) -> np.ndarray:
        """The end-to-end map A = H (I - B)^{-1} M (n_g x n_sigma)."""
        return self._A

    def data_offset(self) -> np.ndarray:
        """The sigma-independent measurement part H (I - B)^{-1} F."""
        return self._offset


@dataclass(frozen=True, eq=False)
class Objective:
    """Measurements g plus Tikhonov weight alpha on top of a problem."""

    problem: LinearInverseProblem
    g: np.ndarray
    alpha: float = 0.0

    def __post_init__(self):
        g = _readonly(self.g, ndim=1, name="g")
        if g.shape != (self.problem.n_g,):
            raise ProblemAssumptionError(
                f"g has shape {g.shape}, expected ({self.problem.n_g},)")
        if not np.isfinite(g).all():
            raise ProblemAssumptionError("g contains non-finite entries")
        if not 0.0 <= self.alpha < np.inf:
            raise ProblemAssumptionError(f"alpha must be finite and >= 0, got {self.alpha}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "alpha", float(self.alpha))

    @cached_property
    def _g_tilde(self) -> np.ndarray:
        return _readonly(self.g - self.problem.data_offset(), copy=False)

    def shifted_data(self) -> np.ndarray:
        """g with the source contribution removed: g - H (I-B)^{-1} F."""
        return self._g_tilde


@dataclass(frozen=True, eq=False)
class IterationState:
    """The triple (sigma, u, p) carried by all coupled iterations.

    ``fresh=True`` adopts float arrays that nothing else writes to (a step
    has just allocated them, or they belong to an earlier state) without
    the defensive copy; they become read-only in place.
    """

    sigma: np.ndarray
    u: np.ndarray
    p: np.ndarray
    fresh: InitVar[bool] = False

    def __post_init__(self, fresh):
        for name in ("sigma", "u", "p"):
            object.__setattr__(self, name, _readonly(getattr(self, name), ndim=1, name=name,
                                                     copy=not fresh))
        if self.u.shape != self.p.shape:
            raise ProblemAssumptionError("u and p must have equal length")

    @classmethod
    def zero(cls, problem: LinearInverseProblem, sigma0=None, u0=None, p0=None):
        """Default start: given sigma0 (or zeros), u0 = p0 = 0 unless overridden."""
        sigma = np.zeros(problem.n_sigma) if sigma0 is None else np.asarray(sigma0, float)
        u = np.zeros(problem.n_u) if u0 is None else np.asarray(u0, float)
        p = np.zeros(problem.n_u) if p0 is None else np.asarray(p0, float)
        return _checked_state(problem, cls(sigma, u, p))


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def _checked_sigma(problem: LinearInverseProblem, sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (problem.n_sigma,):
        raise ProblemAssumptionError(
            f"sigma has shape {sigma.shape}, expected ({problem.n_sigma},)")
    return sigma


def _checked_state(problem: LinearInverseProblem, state: IterationState) -> IterationState:
    if state.u.shape != (problem.n_u,):
        raise ProblemAssumptionError(
            f"u and p have shape {state.u.shape}, expected ({problem.n_u},)")
    return state


def solve_state_exact(problem: LinearInverseProblem, sigma) -> np.ndarray:
    """Exact state solve: u with (I - B) u = M sigma + F."""
    sigma = _checked_sigma(problem, sigma)
    return problem.solve_I_minus_B(problem.M @ sigma + problem.F)


def solve_adjoint_exact(problem: LinearInverseProblem, u, g) -> np.ndarray:
    """Exact adjoint solve: p with (I - B*) p = H* (H u - g)."""
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    residual = problem.apply(problem.H, u) - g
    return problem.solve_I_minus_B(problem.apply(problem.H.T, residual), adjoint=True)


@dataclass(frozen=True, eq=False)
class KStepOperators:
    """The triple (T_k, U_k, X_k) of the block and the power B^k, for one k.

    Every caller that needs B^k reads ``Bk`` rather than forming the power
    again, so all of them see the same floats.  ``HT`` is the product
    H T_k, which maps the data of k sweeps.  ``W`` stacks kron(I, T_k) M
    over kron(I, X_k) M (2 n_u x n_sigma) and ``c`` stacks kron(I, T_k) F
    over kron(I, X_k) F, so W sigma + c is [T_k d; X_k d] for the drive
    d = M sigma + F.  The arrays are read-only.
    """

    T: np.ndarray
    U: np.ndarray
    X: np.ndarray
    Bk: np.ndarray
    HT: np.ndarray
    W: np.ndarray
    c: np.ndarray
    k: int


def k_step_operators(problem: LinearInverseProblem, k: int) -> KStepOperators:
    """The k-step operators of the block, built once per (problem, k).

    T_k, U_k and X_k follow the recurrences

        T_{j+1} = I + B T_j,   U_{j+1} = B* U_j + H*H B^j,   X_{j+1} = X_j + U_j

    from T_1 = I, U_1 = H*H, X_1 = 0.  B^k comes from
    ``np.linalg.matrix_power``, not from the recurrence's B^j, which
    associates the products differently.  The result is cached on the
    problem, so the sweeps, the certificate and the bounds read one object.
    """
    k = positive_int("k", k)
    cache = problem.__dict__.setdefault("_k_step", {})
    cached = cache.get(k)
    if cached is not None:
        return cached
    B, H, M, F = problem.B, problem.H, problem.M, problem.F
    n = B.shape[0]
    eye = np.eye(n)
    HtH = H.T @ H
    T = eye.copy()
    U = HtH.copy()
    X = np.zeros((n, n))
    B_pow = eye  # B^j for the U recurrence
    for _ in range(k - 1):
        X = X + U
        B_pow = B_pow @ B
        U = B.T @ U + HtH @ B_pow
        T = eye + B @ T
    W = np.vstack([problem.apply(T, M), problem.apply(X, M)])
    c = np.concatenate([problem.apply(T, F), problem.apply(X, F)])
    ops = KStepOperators(*(_readonly(a, copy=False) for a in (
        T, U, X, np.linalg.matrix_power(B, k), H @ T, W, c)), k=k)
    # a concurrent builder of the same k may have stored its equal copy first
    return cache.setdefault(k, ops)


def fixed_point_sweep(problem: LinearInverseProblem, state: IterationState,
                      sigma_new, g, k: int):
    """Run exactly k inner sweeps on state and adjoint, warm-started.

    Starting from u_0 = state.u and p_0 = state.p, repeat for l = 0..k-1:

        u_{l+1} = B u_l + M sigma_new + F
        p_{l+1} = B* p_l + H* (H u_l - g)

    The adjoint update deliberately uses the pre-update state u_l; changing
    that changes the coupled iteration matrix.

    Returns the pair (u_k, p_k).
    """
    k = positive_int("k", k)
    state = _checked_state(problem, state)
    sigma_new = _checked_sigma(problem, sigma_new)
    g = np.asarray(g, dtype=float)
    if g.shape != (problem.n_g,):
        raise ProblemAssumptionError(f"g has shape {g.shape}, expected ({problem.n_g},)")
    return sweeps(problem, state.u, state.p, sigma_new, g, k)


def sweeps(problem: LinearInverseProblem, u, p, sigma, g, k: int):
    """The k coupled sweeps of ``fixed_point_sweep`` at the new sigma.

    u_{l+1} = B u_l + M sigma + F and p_{l+1} = B* p_l + H* (H u_l - g),
    for the data array g.  With the scalar g = 0.0 they are the linear part
    of the inner iteration, u_{l+1} = B u_l + M sigma and
    p_{l+1} = B* p_l + H*H u_l (no F, no data), which the spectral
    certificate applies.  No input checks.

    From k = 3 on, the k sweeps are applied in their closed form with the
    cached k-step operators of the block,

        u_k = B^k u_0 + T_k d,
        p_k = (B*)^k p_0 + U_k u_0 + X_k d - T_k* H* g,   d = M sigma + F,

    which equals the loop in exact arithmetic.  [T_k d; X_k d] is the
    cached W sigma + c, so a call multiplies by three n x n blocks (B^k,
    (B^k)*, U_k) where k sweeps multiply by B, B*, H and H* k times: per
    block of width n with m rows of H, 3 n^2 + n m + 2 n n_sigma flops
    against k (2 n^2 + 2 n m) + n n_sigma, fewer at every k >= 3 unless
    n_sigma exceeds 3 n + 5 m.  Up to k = 2 the loop stays, so two single
    sweeps compose exactly into k = 2 and no operators are built.
    The closed form is possible only because B is stored dense; in the
    paper's PDE setting B is applied, not stored, and the cost is counted
    in sweeps.  The trace's ``acc_inner`` keeps counting k sweeps per outer
    step either way.
    """
    B, H, n_blocks = problem.B, problem.H, problem.n_blocks
    data = np.ndim(g) > 0
    # on the (n_blocks, n) row views, reshaped once per call, x @ T.T is kron(I, T) x
    u, p = u.reshape(n_blocks, -1), p.reshape(n_blocks, -1)
    if data:
        g = g.reshape(n_blocks, -1)
    if k >= 3:
        ops = k_step_operators(problem, k)
        drives = ops.W @ sigma
        if data:
            drives += ops.c
        T_drive, X_drive = drives.reshape(2, *u.shape)
        u_k = u @ ops.Bk.T
        u_k += T_drive
        p_k = p @ ops.Bk
        p_k += u @ ops.U.T
        p_k += X_drive
        if data:
            p_k -= g @ ops.HT
        return u_k.reshape(-1), p_k.reshape(-1)
    drive = (problem.M @ sigma + problem.F if data else problem.M @ sigma).reshape(u.shape)
    for _ in range(k):
        p_next = p @ B + (u @ H.T - g) @ H
        u = u @ B.T + drive
        p = p_next
    return u.reshape(-1), p.reshape(-1)


def cost(objective: Objective, sigma) -> float:
    """J(sigma) = 1/2 ||A sigma - g_tilde||^2 + alpha/2 ||sigma||^2, no state solve."""
    sigma = _checked_sigma(objective.problem, sigma)
    residual = objective.problem.reduced_operator() @ sigma - objective.shifted_data()
    return 0.5 * float(residual @ residual) + 0.5 * objective.alpha * float(sigma @ sigma)


def gradient(objective: Objective, sigma) -> np.ndarray:
    """grad J(sigma) = A* (A sigma - g_tilde) + alpha sigma, no state or adjoint solve."""
    sigma = _checked_sigma(objective.problem, sigma)
    A = objective.problem.reduced_operator()
    return A.T @ (A @ sigma - objective.shifted_data()) + objective.alpha * sigma


def regularized_solution(objective: Objective) -> np.ndarray:
    """argmin of J, via the normal equations (A*A + alpha I) s = A* g_tilde."""
    problem = objective.problem
    A = problem.reduced_operator()
    g_tilde = objective.shifted_data()
    lhs = A.T @ A + objective.alpha * np.eye(problem.n_sigma)
    try:
        return scipy.linalg.solve(lhs, A.T @ g_tilde, assume_a="pos")
    except scipy.linalg.LinAlgError as exc:
        raise SingularSystemError("normal equations are singular") from exc


def random_problem(n_u=8, n_sigma=3, n_g=5, *, norm_b=0.5, rng=None,
                   with_source=True) -> LinearInverseProblem:
    """Dense synthetic instance with exactly ||B|| = norm_b (< 1).

    Handy for tests and demonstrations: B is a rescaled Gaussian matrix, so
    rho(B) <= ||B|| = norm_b < 1, and M, H are Gaussian, which makes the
    reduced operator full rank with probability one (and the constructor
    verifies it).
    """
    if not 0.0 <= norm_b < 1.0:
        raise ValueError(f"norm_b must lie in [0, 1), got {norm_b}")
    rng = np.random.default_rng(rng)
    if norm_b == 0.0:
        B = np.zeros((n_u, n_u))
    else:
        G = rng.standard_normal((n_u, n_u))
        B = norm_b * G / operator_norm(G)
    M = rng.standard_normal((n_u, n_sigma))
    H = rng.standard_normal((n_g, n_u))
    F = rng.standard_normal(n_u) if with_source else np.zeros(n_u)
    return LinearInverseProblem(B, M, H, F)
