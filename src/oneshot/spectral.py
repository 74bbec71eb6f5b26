"""Block iteration matrices of the coupled schemes and their spectra.

One outer iteration of the semi-implicit k-step one-shot scheme acts
linearly on the error triple (p, u, sigma) measured from the regularized
solution.  With d = 1 + tau alpha, the block matrix G (rows ordered p, u,
sigma, exactly as analyzed) is

    [ (B*)^k - (tau/d) X_k M M*    U_k     (1/d) X_k M ]
    [ -(tau/d) T_k M M*            B^k     (1/d) T_k M ]
    [ -(tau/d) M*                  0       (1/d) I     ]

built from the three k-step operators

    T_k = I + B + ... + B^{k-1}                 (geometric partial sum)
    U_k = sum_{i+j=k-1} (B*)^i H*H B^j          (self-adjoint mixed sum)
    X_k = sum_{l=1}^{k-1} U_l                   (zero when k = 1)

which satisfy the identity  U_k T_k - X_k B^k + X_k = T_k* H*H T_k.
The scheme converges from every start iff the spectral radius of G is
below one.  ``certify`` finds that radius and the distance of the
spectrum to 1; ``spectrum`` returns every eigenvalue.

Below ``ARNOLDI_MIN_DIM`` certify eigensolves the dense G.  Above it,
ARPACK's implicitly restarted Arnoldi method (Lehoucq, Sorensen & Yang,
ARPACK Users' Guide, SIAM 1998) finds the largest eigenvalues of two
operators that are never formed:

* G itself, applied as one step of the scheme with zero data:
  sigma' = (sigma - tau M* p) / d, then k sweeps driven by M sigma';
* (G - I)^{-1}, whose largest eigenvalue mu gives the distance 1/|mu|.
  Eliminating p and u from (G - I) x = b, using
  (I - B^k)^{-1} T_k = (I - B)^{-1} and the identity above, leaves the
  sigma equation tau (alpha I + A*A) sigma' = tau M* c - b_sigma with
  A = H (I - B)^{-1} M.  So one application costs two block solves with
  I - B^k and one n_sigma solve with alpha I + A*A.

The k-step operators of a stacked problem are those of its stored block.
Only the dense block matrix, the oracle of the matrix-free paths, expands
them to kron(I, .); the eigenvalue-equation residual eigensolves the
block B^k and solves with lambda I - B^k block by block.
``KStepOperators`` and ``k_step_operators`` are defined in ``problem``,
which caches one read-only object per (problem, k), and are re-exported
here.  Its ``W`` holds the sigma column's T_k M and X_k M, so the dense G
reads them (and T_k M M*, X_k M M* as their products with M*) instead of
applying T_k and X_k again.  Both Arnoldi operators and the
eigenvalue-equation residual read the same object, and so do the inner
sweeps from k = 3 on (see ``problem.sweeps``); the matrix-free G passes
sigma' to ``sweeps`` with the scalar data 0.0, which asks for the linear
part of the iteration (no F, no data).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

from .errors import EigensolverError, SingularSystemError, SizeGuardError
# KStepOperators is re-exported; bounds imports k_step_operators from here
from .problem import (KStepOperators, LinearInverseProblem, finite_real,  # noqa: F401
                      k_step_operators, positive_int, sweeps)

#: Largest block dimension (2 n_u + n_sigma) whose full spectrum
#: ``spectrum`` computes densely.
SIZE_GUARD = 4000

#: certify eigensolves densely below this block dimension and by Arnoldi
#: from it on.  On dense random problems (one BLAS thread) the medians
#: cross between dimensions 254 and 304: 13 vs 18 ms at 204, 37 vs 23 ms
#: at 304 (dense vs Arnoldi).
ARNOLDI_MIN_DIM = 300

#: Arnoldi settings: eigenvalues wanted, Krylov basis size, and the seed of
#: the fixed start vector (ARPACK's default start is random).
_ARNOLDI_NEV, _ARNOLDI_NCV, _ARNOLDI_SEED = 6, 40, 0

#: certify calls the scheme convergent iff rho < 1 - CONVERGENCE_MARGIN.
CONVERGENCE_MARGIN = 1e-10


def iteration_matrix_semi_implicit(problem: LinearInverseProblem, tau: float,
                                   alpha: float, k: int) -> np.ndarray:
    """The (2 n_u + n_sigma)-square block matrix, rows ordered (p, u, sigma)."""
    _check_step(tau, alpha)
    ops = k_step_operators(problem, k)
    M = problem.M
    n_u, n_s = problem.n_u, problem.n_sigma
    d = 1.0 + tau * alpha
    eye = np.eye(problem.n_blocks)
    TM, XM = ops.W[:n_u], ops.W[n_u:]
    top = np.hstack([np.kron(eye, ops.Bk.T) - (tau / d) * (XM @ M.T), np.kron(eye, ops.U),
                     XM / d])
    mid = np.hstack([-(tau / d) * (TM @ M.T), np.kron(eye, ops.Bk), TM / d])
    bot = np.hstack([-(tau / d) * M.T, np.zeros((n_s, n_u)), np.eye(n_s) / d])
    return np.vstack([top, mid, bot])


def apply_iteration_matrix(problem: LinearInverseProblem, x, tau: float,
                           alpha: float, k: int) -> np.ndarray:
    """G x without forming G: one step of the scheme with zero data.

    sigma' = (sigma - tau M* p) / (1 + tau alpha), then the k linear sweeps
    at sigma' from the (p, u) blocks of x.
    """
    n_u = problem.n_u
    p, u, s = np.split(x, (n_u, 2 * n_u))
    s = (s - tau * (problem.M.T @ p)) / (1.0 + tau * alpha)
    u, p = sweeps(problem, u, p, s, 0.0, k)
    return np.concatenate([p, u, s])


def _check_step(tau: float, alpha: float):
    finite_real("tau", tau, strict=True)
    finite_real("alpha", alpha)


@dataclass(frozen=True, eq=False)
class SpectralCertificate:
    """Spectral radius of the block iteration matrix and its distance to 1.

    ``method`` is "dense" or "arnoldi".  An Arnoldi certificate also
    records its operator applications (``matvecs``) and ``ritz_residual``,
    the larger ||G v - lambda v|| of the two unit Ritz pairs behind
    ``spectral_radius`` and ``min_dist_to_one``; a dense one records 0 and
    None.
    """

    spectral_radius: float
    min_dist_to_one: float
    convergent: bool
    tau: float
    alpha: float
    k: int
    method: str
    matvecs: int
    ritz_residual: float | None


def spectrum(problem: LinearInverseProblem, tau: float, alpha: float, k: int,
             size_guard: int = SIZE_GUARD) -> np.ndarray:
    """Every eigenvalue of the block matrix, sorted, by a dense eigensolve.

    Raises ValueError for a non-finite or out-of-range tau or alpha or a
    ``size_guard`` that is not a positive integer, SizeGuardError when
    2 n_u + n_sigma exceeds ``size_guard`` and EigensolverError if the QR
    iteration fails to converge.
    """
    _check_step(tau, alpha)
    positive_int("size_guard", size_guard)
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
    return eigenvalues


def certify(problem: LinearInverseProblem, tau: float, alpha: float,
            k: int) -> SpectralCertificate:
    """Convergent iff rho < 1 - CONVERGENCE_MARGIN, with rho of the block matrix.

    Dense below ARNOLDI_MIN_DIM, matrix-free Arnoldi from it on.  Raises
    ValueError for a non-finite or out-of-range tau or alpha, and
    EigensolverError if either eigensolver fails to converge (never
    silent).
    """
    _check_step(tau, alpha)
    if 2 * problem.n_u + problem.n_sigma < ARNOLDI_MIN_DIM:
        eigenvalues = spectrum(problem, tau, alpha, k)
        rho = float(np.max(np.abs(eigenvalues)))
        dist_one = float(np.min(np.abs(eigenvalues - 1.0)))
        method, matvecs, residual = "dense", 0, None
    else:
        rho, dist_one, matvecs, residual = _arnoldi_extremes(problem, tau, alpha, k)
        method = "arnoldi"
    return SpectralCertificate(
        spectral_radius=rho, min_dist_to_one=dist_one,
        convergent=bool(rho < 1.0 - CONVERGENCE_MARGIN), tau=tau, alpha=alpha, k=k,
        method=method, matvecs=matvecs, ritz_residual=residual)


def _arnoldi_extremes(problem: LinearInverseProblem, tau: float, alpha: float, k: int):
    """(rho, distance to 1, matvecs, Ritz residual) from G and (G - I)^{-1}."""
    n_u = problem.n_u
    dim = 2 * n_u + problem.n_sigma
    M, H, apply = problem.M, problem.H, problem.apply
    ops = k_step_operators(problem, k)
    lu_k = scipy.linalg.lu_factor(np.eye(ops.Bk.shape[0]) - ops.Bk)
    A = problem.reduced_operator()
    normal = scipy.linalg.cho_factor(A.T @ A + alpha * np.eye(problem.n_sigma))
    V = problem.solve_I_minus_B(M)                                # (I - B)^{-1} M
    Z = problem.solve_I_minus_B(apply(H.T, A), adjoint=True)     # (I - B*)^{-1} H*A
    matvecs = 0

    def step(x):
        nonlocal matvecs
        matvecs += 1
        return apply_iteration_matrix(problem, x, tau, alpha, k)

    def resolvent(b):
        nonlocal matvecs
        matvecs += 1
        b_p, b_u, b_s = np.split(b, (n_u, 2 * n_u))
        y = problem.solve_factored(lu_k, b_u)
        c = problem.solve_factored(lu_k, apply(ops.U, y) + b_p, adjoint=True)
        s = scipy.linalg.cho_solve(normal, M.T @ c - b_s / tau)
        return np.concatenate([Z @ s - c, V @ s - y, s - b_s])

    def largest(matvec):
        operator = LinearOperator((dim, dim), matvec=matvec, dtype=float)
        v0 = np.random.default_rng(_ARNOLDI_SEED).standard_normal(dim)
        try:
            values, vectors = eigs(operator, k=_ARNOLDI_NEV, ncv=_ARNOLDI_NCV,
                                   v0=v0, which="LM", tol=0.0)
        except ArpackError as exc:
            raise EigensolverError(f"Arnoldi eigensolve failed: {exc}") from exc
        i = int(np.argmax(np.abs(values)))
        return complex(values[i]), vectors[:, i]

    def residual(lam, v):
        return float(np.linalg.norm(step(v.real) + 1j * step(v.imag) - lam * v))

    lam, v = largest(step)
    mu, w = largest(resolvent)
    ritz = max(residual(lam, v), residual(1.0 + 1.0 / mu, w))
    return abs(lam), 1.0 / abs(mu), matvecs, ritz


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
    _check_step(tau, alpha)
    y = np.asarray(y, dtype=complex)
    if y.shape != (problem.n_sigma,):
        raise ValueError(f"y has shape {y.shape}, expected ({problem.n_sigma},)")
    nrm = np.linalg.norm(y)
    if not np.isclose(nrm, 1.0, atol=1e-8):
        raise ValueError(f"y must be a unit vector, got norm {nrm}")
    lam = complex(lam)
    ops = k_step_operators(problem, k)
    exclusion = RESOLVENT_EXCLUSION * problem.norm_B ** k
    if exclusion > 0:
        dist = np.min(np.abs(np.linalg.eigvals(ops.Bk) - lam))
        if dist < exclusion:
            raise SingularSystemError(
                f"lambda = {lam} is within {exclusion:.3e} of Spec(B^k)")
    shifted = lam * np.eye(ops.Bk.shape[0]) - ops.Bk
    core = (lam - 1.0) * ops.X + ops.HT.T @ ops.HT
    try:
        right = problem.blockwise(partial(np.linalg.solve, shifted), problem.M @ y)
        inner_vec = problem.blockwise(partial(np.linalg.solve, shifted.T),
                                      problem.apply(core, right))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("resolvent solve failed") from exc
    quad = complex(np.vdot(y, problem.M.T @ inner_vec))
    return (1.0 + tau * alpha) * lam - 1.0 + tau * lam * quad


def certificate_csv_header() -> str:
    return "tau,alpha,k,spectral_radius,min_dist_to_one,convergent"


def certificate_csv_row(cert: SpectralCertificate) -> str:
    return (f"{cert.tau!r},{cert.alpha!r},{cert.k},{cert.spectral_radius!r},"
            f"{cert.min_dist_to_one!r},{str(cert.convergent).lower()}")


def spectrum_csv(eigenvalues) -> str:
    """Optional spectrum dump as re,im pairs (one eigenvalue per line)."""
    lines = ["re,im"]
    lines += [f"{ev.real!r},{ev.imag!r}" for ev in eigenvalues]
    return "\n".join(lines) + "\n"
