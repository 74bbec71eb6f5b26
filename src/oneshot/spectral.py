"""Block iteration matrices of the coupled schemes and their spectra.

One outer iteration of the semi-implicit k-step one-shot scheme acts
linearly on the error triple (p, u, sigma) measured from the regularized
solution.  With d = 1 + tau alpha, the block matrix (rows ordered p, u,
sigma, exactly as analyzed) is

    [ (B*)^k - (tau/d) X_k M M*    U_k     (1/d) X_k M ]
    [ -(tau/d) T_k M M*            B^k     (1/d) T_k M ]
    [ -(tau/d) M*                  0       (1/d) I     ]

built from the three k-step operators

    T_k = I + B + ... + B^{k-1}                 (geometric partial sum)
    U_k = sum_{i+j=k-1} (B*)^i H*H B^j          (self-adjoint mixed sum)
    X_k = sum_{l=1}^{k-1} U_l                   (zero when k = 1)

which satisfy the identity  U_k T_k - X_k B^k + X_k = T_k* H*H T_k.
The scheme converges from every start iff the spectral radius of the
block matrix is below one, which `certify` checks by a dense eigensolve.
The k-step operators of a stacked problem are those of its stored block;
only the block matrix and the eigenvalue-equation residual expand them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverError, SingularSystemError, SizeGuardError
from .problem import LinearInverseProblem

#: Largest dense block dimension (2 n_u + n_sigma) certify will eigensolve.
SIZE_GUARD = 4000

#: certify calls the scheme convergent iff rho < 1 - CONVERGENCE_MARGIN.
CONVERGENCE_MARGIN = 1e-10


@dataclass(frozen=True, eq=False)
class KStepOperators:
    """The triple (T_k, U_k, X_k) of the block and the power B^k, for one k.

    Every caller that needs B^k reads ``Bk`` rather than forming the power
    again, so all of them see the same floats.
    """

    T: np.ndarray
    U: np.ndarray
    X: np.ndarray
    Bk: np.ndarray
    k: int


def k_step_operators(problem: LinearInverseProblem, k: int) -> KStepOperators:
    """Build T_k, U_k, X_k by the recurrences

        T_{j+1} = I + B T_j,   U_{j+1} = B* U_j + H*H B^j,   X_{j+1} = X_j + U_j

    starting from T_1 = I, U_1 = H*H, X_1 = 0.  B^k comes from
    ``np.linalg.matrix_power``, not from the recurrence's B^j, which
    associates the products differently.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    B, H = problem.B, problem.H
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
    return KStepOperators(T=T, U=U, X=X, Bk=np.linalg.matrix_power(B, k), k=k)


def iteration_matrix_semi_implicit(problem: LinearInverseProblem, tau: float,
                                   alpha: float, k: int) -> np.ndarray:
    """The (2 n_u + n_sigma)-square block matrix, rows ordered (p, u, sigma)."""
    _check_step(tau, alpha)
    ops = k_step_operators(problem, k)
    M = problem.M
    n_u, n_s = problem.n_u, problem.n_sigma
    d = 1.0 + tau * alpha
    Bk = _dense(problem, ops.Bk)
    MMt = M @ M.T
    top = np.hstack([Bk.T - (tau / d) * problem.apply(ops.X, MMt), _dense(problem, ops.U),
                     problem.apply(ops.X, M) / d])
    mid = np.hstack([-(tau / d) * problem.apply(ops.T, MMt), Bk, problem.apply(ops.T, M) / d])
    bot = np.hstack([-(tau / d) * M.T, np.zeros((n_s, n_u)), np.eye(n_s) / d])
    return np.vstack([top, mid, bot])


def _check_step(tau: float, alpha: float):
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")


def _dense(problem: LinearInverseProblem, block: np.ndarray) -> np.ndarray:
    """The stacked operator kron(I, block) as a dense matrix."""
    return np.kron(np.eye(problem.n_blocks), block)


@dataclass(frozen=True, eq=False)
class SpectralCertificate:
    """Spectrum summary of one block iteration matrix."""

    spectral_radius: float
    eigenvalues: np.ndarray
    min_dist_to_one: float
    convergent: bool
    tau: float
    alpha: float
    k: int


def certify(problem: LinearInverseProblem, tau: float, alpha: float, k: int,
            size_guard: int = SIZE_GUARD) -> SpectralCertificate:
    """Dense eigensolve of the block matrix; convergent iff rho < 1 - CONVERGENCE_MARGIN.

    Raises ValueError for a non-finite or out-of-range tau or alpha,
    SizeGuardError when 2 n_u + n_sigma exceeds ``size_guard`` and
    EigensolverError if the QR iteration fails to converge (never silent).
    """
    _check_step(tau, alpha)
    dim = 2 * problem.n_u + problem.n_sigma
    if dim > size_guard:
        raise SizeGuardError(
            f"block matrix dimension {dim} exceeds the size guard {size_guard}")
    mat = iteration_matrix_semi_implicit(problem, tau, alpha, k)
    try:
        eigenvalues = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolve failed: {exc}") from exc
    eigenvalues = np.sort_complex(eigenvalues)
    eigenvalues.setflags(write=False)
    rho = float(np.max(np.abs(eigenvalues)))
    dist_one = float(np.min(np.abs(eigenvalues - 1.0)))
    return SpectralCertificate(
        spectral_radius=rho, eigenvalues=eigenvalues, min_dist_to_one=dist_one,
        convergent=bool(rho < 1.0 - CONVERGENCE_MARGIN), tau=tau, alpha=alpha, k=k)


#: Relative distance below which a shift is considered inside Spec(B^k).
RESOLVENT_EXCLUSION = 1e-8


def eigen_equation_residual(problem: LinearInverseProblem, lam: complex, y,
                            tau: float, alpha: float, k: int) -> complex:
    """Scalar eigenvalue-equation residual at (lambda, y), ||y|| = 1.

    Evaluates

        (1 + tau alpha) lambda - 1
          + tau lambda < M* [lam I - (B*)^k]^{-1}
                          [(lam - 1) X_k + T_k* H*H T_k]
                          [lam I - B^k]^{-1} M y, y >

    which vanishes for every eigenpair of the block iteration matrix with
    |lambda| >= 1 (y being the normalized sigma-component of the
    eigenvector).  lambda must stay away from Spec(B^k): values within
    1e-8 * ||B||^k of that spectrum are rejected.
    """
    y = np.asarray(y, dtype=complex)
    if y.shape != (problem.n_sigma,):
        raise ValueError(f"y has shape {y.shape}, expected ({problem.n_sigma},)")
    nrm = np.linalg.norm(y)
    if not np.isclose(nrm, 1.0, atol=1e-8):
        raise ValueError(f"y must be a unit vector, got norm {nrm}")
    lam = complex(lam)
    ops = k_step_operators(problem, k)
    Bk = _dense(problem, ops.Bk)
    exclusion = RESOLVENT_EXCLUSION * problem.norm_B ** k
    if exclusion > 0:
        dist = np.min(np.abs(np.linalg.eigvals(Bk) - lam))
        if dist < exclusion:
            raise SingularSystemError(
                f"lambda = {lam} is within {exclusion:.3e} of Spec(B^k)")
    eye = np.eye(problem.n_u)
    core = _dense(problem, (lam - 1.0) * ops.X + ops.T.T @ (problem.H.T @ problem.H) @ ops.T)
    try:
        right = np.linalg.solve(lam * eye - Bk, problem.M @ y)
        inner_vec = np.linalg.solve(lam * eye - Bk.T.astype(complex), core @ right)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("resolvent solve failed") from exc
    quad = complex(np.vdot(y, problem.M.T @ inner_vec))
    return (1.0 + tau * alpha) * lam - 1.0 + tau * lam * quad


def certificate_csv_header() -> str:
    return "tau,alpha,k,spectral_radius,min_dist_to_one,convergent"


def certificate_csv_row(cert: SpectralCertificate) -> str:
    return (f"{cert.tau!r},{cert.alpha!r},{cert.k},{cert.spectral_radius!r},"
            f"{cert.min_dist_to_one!r},{str(cert.convergent).lower()}")


def spectrum_csv(cert: SpectralCertificate) -> str:
    """Optional spectrum dump as re,im pairs (one eigenvalue per line)."""
    lines = ["re,im"]
    lines += [f"{ev.real!r},{ev.imag!r}" for ev in cert.eigenvalues]
    return "\n".join(lines) + "\n"
