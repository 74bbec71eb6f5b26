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
nothing; the exact-solve forms above are their test oracle.  ``gradient``
also takes a (c, n_sigma) stack of sigmas, one gradient per row, each
equal to that row's own gradient bit for bit.

A problem stacking n_blocks copies of one state model with a shared
sigma (the cavity's sources) stores the single blocks B and H, while M
and F stay stacked (a dense problem has n_blocks = 1).  Only this module
takes a stacked array apart: ``to_block_columns`` makes the blocks of a
stacked vector or matrix the columns of one matrix and
``from_block_columns`` stacks them back, so ``blockwise`` applies kron(I,
T) or its inverse by one product or LAPACK solve with the block T, and
``sweeps`` works on the row view, one row per block.  ``sweeps`` and
``fixed_point_sweep`` also take a stack of c columns (u and p of shape
(c, n_u), sigma (c, n_sigma), g (c, n_g)), which only adds rows; the
products take contiguous transposes of M, H and A, cached like A.  All
exact solves use one dense LU factorization of the block I - B with
partial pivoting, shared by the state and the (transposed) adjoint
equation.  The k-step operators of the block (``k_step_operators``), with
M and F folded into them, are cached on the problem like A, once per k.
``KStepStack`` is the one closed form of k >= 3 sweeps: it steps a
stack of columns, each with its own k and data, in three block products
per k on a dense block, and ``sweeps`` hands it every k >= 3.  A
diagonal B (``B_diag``) is applied elementwise instead, and its k-step
operators are built elementwise in O(k n^2).  A problem may carry a
``symmetrizer``: a symmetric positive definite S with S B symmetric, as
the cavity's K_rand is for B = -delta A11^-1 K_rand.  From it,
``modal_twin`` gives the same problem in the eigenbasis V of B, built by
one generalized symmetric-definite eigensolve S B v = lam S v and cached
like A: its block is diag(lam), so its sweeps cost O(n m) per block up
to k = 2 and one block product (U_k) per k in closed form, and a
one-shot run steps it in place of the problem.  A problem without a
symmetrizer (loaded from files, random or user-built) has no twin and
sweeps densely.
Problems and objectives are immutable and safe to share across threads;
every operation here is a pure function of its inputs.  ``positive_int``
(k, the counts) and ``finite_real`` (tau, alpha, the tolerances, the
norms, the cavity scalars) check every scalar argument of the package: a
bool is rejected, and the error, ValueError unless the caller names
another class, names the argument.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import ProblemAssumptionError, SingularSystemError

#: Relative singular-value cutoff for the full-column-rank check of A.
RANK_TOL = 1e-10

_getrs = scipy.linalg.get_lapack_funcs("getrs", dtype=np.float64)

#: The smallest k whose sweeps take the closed form (``KStepStack``).
CLOSED_FORM_K = 3


def _readonly(a, dtype=float, ndim=None, name="array", copy=True):
    arr = np.array(a, dtype=dtype) if copy else np.asarray(a, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ProblemAssumptionError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _transposed(a) -> np.ndarray:
    """A read-only C-contiguous copy of a.T, for products x @ a.T on row stacks."""
    return _readonly(np.ascontiguousarray(a.T), copy=False)


def positive_int(name, value, error=ValueError) -> int:
    """value as an int if it is an integer >= 1; a bool or anything else raises error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise error(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def finite_real(name, value, strict=False, error=ValueError) -> float:
    """value as a float if it is a finite real >= 0 (> 0 when ``strict``);
    a bool, a non-real, NaN, +-inf, an int beyond the float range or a
    smaller value raises error."""
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x) and (x > 0 if strict else x >= 0):
            return x
    raise error(f"{name} must be finite and {'>' if strict else '>='} 0, got {value!r}")


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


#: Largest ||V diag(lam) V^-1 - B||_1 / ||B||_1 at which ``modal_twin``
#: accepts the eigendecomposition of B.  A backward-stable eigensolver with a
#: well-conditioned V stays within a few n eps (3e-15 to 5e-15 on the shipped
#: 169- and 361-wide blocks, where kappa(V) <= 2.8); an error far above that
#: means S B is not symmetric or V is close to singular, and sweeps in its
#: basis would not track the dense sweeps.
MODAL_BACKWARD_TOL = 1e-11


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
    symmetrizer : (n, n) array, optional
        An exactly symmetric S with S B symmetric; when S is also positive
        definite, ``modal_twin`` builds the eigenbasis of B from it.  Only
        its shape, finiteness and symmetry are checked here.
    """

    B: np.ndarray
    M: np.ndarray
    H: np.ndarray
    F: np.ndarray
    n_blocks: int = 1
    symmetrizer: np.ndarray | None = None

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
        if self.symmetrizer is not None:
            S = _readonly(self.symmetrizer, ndim=2, name="symmetrizer")
            if S.shape != (n, n):
                raise ProblemAssumptionError(f"symmetrizer has shape {S.shape}, expected {(n, n)}")
            if not np.isfinite(S).all():
                raise ProblemAssumptionError("symmetrizer contains non-finite entries")
            if not np.array_equal(S, S.T):
                raise ProblemAssumptionError("symmetrizer must be exactly symmetric")
            object.__setattr__(self, "symmetrizer", S)

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

    @cached_property
    def _A_T(self) -> np.ndarray:
        return _transposed(self._A)

    @cached_property
    def _M_T(self) -> np.ndarray:
        return _transposed(self.M)

    @cached_property
    def _H_T(self) -> np.ndarray:
        return _transposed(self.H)

    def reduced_operator(self) -> np.ndarray:
        """The end-to-end map A = H (I - B)^{-1} M (n_g x n_sigma)."""
        return self._A

    def data_offset(self) -> np.ndarray:
        """The sigma-independent measurement part H (I - B)^{-1} F."""
        return self._offset

    @cached_property
    def B_diag(self) -> np.ndarray | None:
        """The diagonal of B when B has no other nonzero entry, else None."""
        diagonal = np.diagonal(self.B)
        if np.count_nonzero(self.B) != np.count_nonzero(diagonal):
            return None
        return _readonly(diagonal)

    def modal_twin(self) -> ModalTwin | None:
        """This problem in the eigenbasis of its block B, or None.

        The twin is built on first use and cached, when B is not diagonal
        already and the problem has a ``symmetrizer`` S.  S B is then
        symmetric, so one generalized symmetric-definite eigensolve
        S B v = lam S v (LAPACK's divide-and-conquer sygvd) gives
        B = V diag(lam) V^-1 with V* S V = I, so V^-1 = V* S (Golub & Van
        Loan, Matrix Computations, Sec. 8.7), the columns of V scaled to
        unit norm.  No symmetrizer, an S that is not positive definite, or
        a V diag(lam) V^-1 that misses B by more than ``MODAL_BACKWARD_TOL``
        (S B not symmetric) gives None.
        """
        return self._modal

    @cached_property
    def _modal(self) -> ModalTwin | None:
        if self.B_diag is not None or self.symmetrizer is None:
            return None
        S = self.symmetrizer
        try:  # eigh reads the lower triangle of S B
            lam, V = scipy.linalg.eigh(S @ self.B, S, driver="gvd", overwrite_a=True,
                                       check_finite=False)
        except scipy.linalg.LinAlgError:
            return None
        V_inv = V.T @ S
        scale = np.linalg.norm(V, axis=0)
        V /= scale
        V_inv *= scale[:, None]
        # ||V diag(lam) V^-1 - B||_1 against ||B||_1
        residual = np.matmul(V * lam, V_inv)
        residual -= self.B
        if not np.linalg.norm(residual, 1) <= MODAL_BACKWARD_TOL * np.linalg.norm(self.B, 1):
            return None
        # The twin repeats no construction check: it has the same A, and
        # rho(diag lam) is rho(B).
        twin = object.__new__(type(self))
        twin.__dict__.update(
            B=_readonly(np.diag(lam), copy=False), M=_readonly(self.apply(V_inv, self.M)),
            H=_readonly(self.H @ V, copy=False), F=_readonly(self.apply(V_inv, self.F)),
            n_blocks=self.n_blocks, symmetrizer=None, B_diag=_readonly(lam, copy=False),
            _modal=None)
        return ModalTwin(twin, _readonly(V, copy=False), _readonly(V_inv, copy=False))


@dataclass(frozen=True, eq=False)
class ModalTwin:
    """A problem rewritten in the eigenbasis of its block B = V diag(lam) V^-1.

    ``problem`` is the twin: the block diag(lam), M~ = kron(I, V^-1) M,
    H~ = H V and F~ = kron(I, V^-1) F.  In exact arithmetic it has the
    same A and the same data offset, its sweeps map onto the original ones
    under u = kron(I, V) u~ and p = kron(I, V^-*) p~, and M~* p~ = M* p, so
    a one-shot run on it takes the same sigma steps.  Its sweeps multiply
    by lam elementwise instead of by B.
    """

    problem: LinearInverseProblem
    V: np.ndarray
    V_inv: np.ndarray

    def to_modal(self, u, p):
        """(kron(I, V^-1) u, kron(I, V*) p): a state and adjoint in the twin's
        coordinates; u and p are vectors or (c, n_u) stacks of them."""
        return _rows_times(u, self.V_inv.T), _rows_times(p, self.V)

    def from_modal(self, u, p):
        """(kron(I, V) u, kron(I, V^-*) p): the inverse of ``to_modal``."""
        return _rows_times(u, self.V.T), _rows_times(p, self.V_inv)


def _rows_times(x, T) -> np.ndarray:
    """x with every block, of every column of a stack, multiplied by T on the right."""
    x = np.asarray(x, dtype=float)
    return (x.reshape(-1, T.shape[0]) @ T).reshape(x.shape)


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
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "alpha", finite_real("alpha", self.alpha))

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
        """Default start: given sigma0 (or zeros), u0 = p0 = 0 unless overridden.

        A given vector with a NaN or infinite entry raises
        ProblemAssumptionError naming it, as does one of the wrong length.
        """
        sigma = np.zeros(problem.n_sigma) if sigma0 is None else np.asarray(sigma0, float)
        u = np.zeros(problem.n_u) if u0 is None else np.asarray(u0, float)
        p = np.zeros(problem.n_u) if p0 is None else np.asarray(p0, float)
        for name, arr in (("sigma0", sigma), ("u0", u), ("p0", p)):
            if not np.isfinite(arr).all():
                raise ProblemAssumptionError(f"{name} contains non-finite entries")
        return _checked_state(problem, cls(sigma, u, p))


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def _checked_sigma(problem: LinearInverseProblem, sigma, stacks=False) -> np.ndarray:
    """sigma as a float array of shape (n_sigma,), or with ``stacks`` also
    (c, n_sigma); any other shape raises ProblemAssumptionError."""
    sigma = np.asarray(sigma, dtype=float)
    n = problem.n_sigma
    if sigma.shape[-1:] != (n,) or sigma.ndim > 1 + stacks:
        raise ProblemAssumptionError(f"sigma has shape {sigma.shape}, expected ({n},)"
                                     + f" or (c, {n})" * stacks)
    return sigma


def _checked_state(problem: LinearInverseProblem, state: IterationState) -> IterationState:
    if state.u.shape != (problem.n_u,):
        raise ProblemAssumptionError(
            f"u and p have shape {state.u.shape}, expected ({problem.n_u},)")
    _checked_sigma(problem, state.sigma)
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
    d = M sigma + F; W is the transpose of a contiguous array, so the
    sweeps' sigma @ W.T reads contiguous rows.  The arrays are read-only.
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
    associates the products differently.  On a diagonal block
    (``B_diag``) the same recurrences run elementwise in O(k n^2), with
    lam^k from ``np.linalg.matrix_power``, and give the dense build's
    floats.  The
    result is cached on the problem, so the sweeps, the certificate and
    the bounds read one object.
    """
    k = positive_int("k", k)
    cache = problem.__dict__.setdefault("_k_step", {})
    cached = cache.get(k)
    if cached is not None:
        return cached
    lam, H, M, F = problem.B_diag, problem.H, problem.M, problem.F
    if lam is None:
        T, U, X, Bk = _dense_k_step(problem.B, H, k)
    else:
        T, U, X, Bk = _diagonal_k_step(lam, H, k)
    W = _transposed(np.vstack([problem.apply(T, M), problem.apply(X, M)])).T
    c = np.concatenate([problem.apply(T, F), problem.apply(X, F)])
    ops = KStepOperators(*(_readonly(a, copy=False) for a in (T, U, X, Bk, H @ T, W, c)), k=k)
    # a concurrent builder of the same k may have stored its equal copy first
    return cache.setdefault(k, ops)


def _dense_k_step(B, H, k: int):
    """(T_k, U_k, X_k, B^k) of a dense block B, by the recurrences of
    ``k_step_operators``: 4 (k - 1) products of n x n matrices."""
    n = B.shape[0]
    eye = np.eye(n)
    HtH = H.T @ H
    T = eye.copy()
    U = HtH.copy()
    X = np.zeros((n, n))
    B_pow = eye  # B^j for the U recurrence
    for _ in range(k - 1):  # in place where it rounds alike, to keep few n x n temporaries
        X += U
        B_pow = B_pow @ B
        U = B.T @ U
        U += HtH @ B_pow
        T = B @ T
        T += eye
    del eye, HtH, B_pow
    return T, U, X, np.linalg.matrix_power(B, k)


def _diagonal_k_step(lam, H, k: int):
    """(T_k, U_k, X_k, B^k) of the block diag(lam), each step of the
    recurrences elementwise.  A product with a diagonal factor adds only
    exact zeros to each entry's one nonzero term, so every entry equals
    that of ``_dense_k_step`` on diag(lam).  U_k is returned in Fortran
    order, so the sweeps' right factor U_k* is a C-contiguous view."""
    HtH = H.T @ H
    t, lam_pow = np.ones(len(lam)), np.ones(len(lam))  # diag T_j and diag B^j
    U = HtH.copy()
    X = np.zeros(U.shape)
    for _ in range(k - 1):
        X += U
        lam_pow = lam_pow * lam
        U *= lam[:, None]
        U += HtH * lam_pow
        t = lam * t
        t += 1.0
    # lam^k as matrix_power's product of 1 x 1 matrices, so B^k is its
    # diag(lam) power bit for bit
    power = np.linalg.matrix_power(lam[:, None, None], k)[:, 0, 0]
    return np.diag(t), np.asfortranarray(U), X, np.diag(power)


def fixed_point_sweep(problem: LinearInverseProblem, state, sigma_new, g, k: int):
    """Run exactly k inner sweeps on state and adjoint, warm-started.

    Starting from u_0 = state.u and p_0 = state.p, repeat for l = 0..k-1:

        u_{l+1} = B u_l + M sigma_new + F
        p_{l+1} = B* p_l + H* (H u_l - g)

    The adjoint update deliberately uses the pre-update state u_l; changing
    that changes the coupled iteration matrix.

    ``state`` is an IterationState, or anything with u and p.  A stack of
    c columns sweeps them all at once: u and p of shape (c, n_u), sigma_new
    (c, n_sigma) and g (c, n_g); a stack of no columns gives two (0, n_u)
    arrays.  Any other shape raises ProblemAssumptionError.

    Returns the pair (u_k, p_k), shaped like u.
    """
    k = positive_int("k", k)
    u, p = state.u, state.p
    sigma_new, g = _checked_sigma(problem, sigma_new, stacks=True), np.asarray(g, dtype=float)
    stack = sigma_new.shape[:-1]
    for name, arr, width in (("u", u, problem.n_u), ("p", p, problem.n_u),
                             ("g", g, problem.n_g)):
        if np.shape(arr) != stack + (width,):
            raise ProblemAssumptionError(
                f"{name} has shape {np.shape(arr)}, expected {stack + (width,)}")
    if stack == (0,):
        return np.empty((0, problem.n_u)), np.empty((0, problem.n_u))
    return sweeps(problem, u, p, sigma_new, g, k)


def sweeps(problem: LinearInverseProblem, u, p, sigma, g, k: int):
    """The k coupled sweeps of ``fixed_point_sweep`` at the new sigma.

    u_{l+1} = B u_l + M sigma + F and p_{l+1} = B* p_l + H* (H u_l - g),
    for the data array g.  With the scalar g = 0.0 they are the linear part
    of the inner iteration, u_{l+1} = B u_l + M sigma and
    p_{l+1} = B* p_l + H*H u_l (no F, no data), which the spectral
    certificate applies.  u, p, sigma and an array g may be stacks of c
    columns, as in ``fixed_point_sweep``.  No input checks.

    Up to k = 2 the sweeps run as this loop, so two single sweeps compose
    exactly into k = 2 and no operators are built; from k = 3 on they go
    to a ``KStepStack``, the closed form.  A diagonal B (``B_diag``, as in
    a problem's ``modal_twin``) multiplies elementwise.  Per block of
    width n, with m rows of H, a column costs

        dense B, loop          k (2 n^2 + 2 n m) + n n_sigma
        dense B, closed form   3 n^2 + n m + 2 n n_sigma
        diagonal B, loop       k (2 n + 2 n m) + n n_sigma
        diagonal B, closed     n^2 + 3 n + 2 n n_sigma, and n m once

    flops: the closed form beats k dense sweeps at every k >= 3 unless
    n_sigma exceeds 3 n + 5 m, and on a diagonal B only U_k is an n x n
    product.  In the paper's PDE setting B is applied, not stored, and the
    cost is counted in sweeps; the closed form and the eigenbasis need B
    as a matrix.  The trace's ``acc_inner`` keeps counting k sweeps per
    outer step either way.
    """
    if k >= CLOSED_FORM_K:
        return KStepStack(problem, [k] * (len(u) if u.ndim == 2 else 1), g).sweep(u, p, sigma)
    B, H, diagonal = problem.B, problem.H, problem.B_diag
    shape, n = np.shape(u), B.shape[0]
    # every block of every column is one row, so x @ T.T is kron(I, T) x
    u, p = u.reshape(-1, n), p.reshape(-1, n)
    drive = sigma @ problem._M_T
    if getattr(g, "ndim", 0):
        drive += problem.F
        g = g.reshape(u.shape[0], -1)
    drive, H_T = drive.reshape(u.shape), problem._H_T
    for _ in range(k):
        adjoint_drive = (u @ H_T - g) @ H
        if diagonal is None:
            p, u = p @ B + adjoint_drive, u @ B.T + drive
        else:
            p, u = p * diagonal + adjoint_drive, u * diagonal + drive
    return u.reshape(shape), p.reshape(shape)


class KStepStack:
    """k >= 3 sweeps of a stack of columns in closed form, each column with
    its own k and data: the one closed form of the k-step update.

    ``ks`` is the k of every column, sorted, and g the (c, n_g) data, or
    the scalar 0.0 for the linear part (no F, no data), as in ``sweeps``.
    With the k-step operators of the block, from the problem's cache, the
    k sweeps read, blockwise,

        u_k = B^k u_0 + T_k d,
        p_k = (B*)^k p_0 + U_k u_0 + X_k d - T_k* H* g,   d = M sigma + F,

    which equals the loop in exact arithmetic.  On a dense block each run
    of equal k takes three block products, with [T_k d; X_k d] the cached
    W sigma + c and T_k* H* g the product g H T_k.  On B = diag(lam),
    T_k = diag(t_k) and B^k = diag(lam^k), so the form reads, with o the
    elementwise product,

        u_k = lam^k o u_0 + t_k o d,
        p_k = lam^k o p_0 + (X_k F - t_k o H* g) + U_k u_0 + X_k M sigma.

    lam^k, t_k and the bracket are constant per column: they are formed
    once, as stacks over the columns and blocks (lam^k and t_k, equal in
    every block, broadcast over them), so u_k and the first two terms of
    p_k are elementwise operations over the whole stack, after one product
    M sigma for all of it.  Only U_k u_0 and X_k M sigma are products per
    k, one each on the columns of that k.
    """

    def __init__(self, problem: LinearInverseProblem, ks, g):
        # the scalar 0.0 has no ndim: np.ndim would wrap it in an array
        self.problem, self.ks, self.g, self.data = problem, ks, g, getattr(g, "ndim", 0) > 0
        self.runs, hi = [], 0  # (ops, lo, hi) of every run of equal k
        for k in dict.fromkeys(ks):
            lo, hi = hi, hi + ks.count(k)
            self.runs.append((k_step_operators(problem, k), lo, hi))
        if problem.B_diag is None:
            return
        rows = [ops for ops, lo, hi in self.runs for _ in range(lo, hi)]
        # (c, n_blocks, n) views of (c, n_u) stacks, and (c, 1, n) vectors
        self.shape = (len(ks), problem.n_blocks, problem.B.shape[0])
        self.lam_k = np.array([np.diagonal(o.Bk) for o in rows])[:, None]
        self.t_k = np.array([np.diagonal(o.T) for o in rows])[:, None]
        if self.data:
            data = (g.reshape(-1, problem.H.shape[0]) @ problem.H).reshape(self.shape)
            self.offset = np.array([o.c[problem.n_u:] for o in rows]).reshape(
                self.shape) - self.t_k * data

    def sweep(self, u, p, sigma):
        """(u_k, p_k) of every column, shaped like u, from (c, n_u) u and p
        and (c, n_sigma) sigma; a stack of one may also be given as vectors."""
        problem, shape = self.problem, u.shape
        if problem.B_diag is not None:
            c, _, n = self.shape
            u, sigma = u.reshape(self.shape), sigma.reshape(c, -1)
            d = sigma @ problem._M_T
            if self.data:
                d += problem.F
            d = d.reshape(self.shape)
            d *= self.t_k
            u_k = self.lam_k * u
            u_k += d
            p_k = self.lam_k * p.reshape(self.shape)
            if self.data:
                p_k += self.offset
            rows = p_k.reshape(c, -1)
            for ops, lo, hi in self.runs:
                rows[lo:hi] += (u[lo:hi].reshape(-1, n) @ ops.U.T).reshape(hi - lo, -1)
                rows[lo:hi] += sigma[lo:hi] @ ops.W.T[:, -rows.shape[1]:]
            return u_k.reshape(shape), p_k.reshape(shape)
        if len(self.runs) > 1:
            # on a dense block every run of equal k is a stack of its own
            parts = [KStepStack(problem, self.ks[lo:hi], self.g[lo:hi] if self.data else 0.0)
                     .sweep(u[lo:hi], p[lo:hi], sigma[lo:hi]) for _, lo, hi in self.runs]
            return tuple(map(np.concatenate, zip(*parts)))
        ops, n = self.runs[0][0], problem.B.shape[0]
        # every block of every column is one row, so x @ T.T is kron(I, T) x
        u, p = u.reshape(-1, n), p.reshape(-1, n)
        drives = sigma @ ops.W.T
        if self.data:
            drives += ops.c
        # T_k d and X_k d of every column, each as a (c, n_blocks, n) view
        drives = drives.reshape(-1, 2, problem.n_blocks, n)
        T_drive, X_drive = drives[:, 0], drives[:, 1]
        u_k, p_k = u @ ops.Bk.T, p @ ops.Bk
        p_k += u @ ops.U.T
        u_k, p_k = u_k.reshape(T_drive.shape), p_k.reshape(T_drive.shape)
        u_k += T_drive
        p_k += X_drive
        if self.data:
            p_k -= (self.g.reshape(u.shape[0], -1) @ ops.HT).reshape(T_drive.shape)
        return u_k.reshape(shape), p_k.reshape(shape)


def row_dots(x) -> np.ndarray:
    """x_i @ x_i for every row x_i of the stack x: one BLAS dot per row, so
    each entry equals the 1-D ``x_i @ x_i`` bit for bit."""
    return np.matmul(x[:, None, :], x[:, :, None]).reshape(-1)


def cost(objective: Objective, sigma) -> float:
    """J(sigma) = 1/2 ||A sigma - g_tilde||^2 + alpha/2 ||sigma||^2, no state solve.

    The residual is formed as sigma @ A*, as the run loop forms it for a
    stack of sigmas.
    """
    sigma = _checked_sigma(objective.problem, sigma)
    residual = sigma @ objective.problem._A_T - objective.shifted_data()
    return 0.5 * float(residual @ residual) + 0.5 * objective.alpha * float(sigma @ sigma)


def gradient(objective: Objective, sigma) -> np.ndarray:
    """grad J(sigma) = A* (A sigma - g_tilde) + alpha sigma, no state or adjoint solve.

    ``sigma`` is a vector or a (c, n_sigma) stack, which gives a stack of c
    gradients; any other shape raises ProblemAssumptionError.  The residual
    and the gradient of every row are each one 1-row product of a batched
    ``matmul``, as for a vector, so each row of a stack's result equals the
    gradient of that row alone bit for bit.
    """
    problem = objective.problem
    sigma = _checked_sigma(problem, sigma, stacks=True)
    residuals = np.matmul(sigma[..., None, :], problem._A_T)
    residuals -= objective.shifted_data()
    return np.matmul(residuals, problem.reduced_operator())[..., 0, :] + objective.alpha * sigma


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
