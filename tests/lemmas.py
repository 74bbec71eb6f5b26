"""The paper's case-analysis helpers, which the tests check the bounds against.

``pq_decompose`` splits (I - T/lambda)^{-1} = P + iQ with real-matrix
formulas, separating real and imaginary parts of the eigenvalue equation.
``gamma_select`` classifies a complex candidate eigenvalue into the three
case regions (the fourth region is provably empty) and returns the
multiplier gamma_1, gamma_2 or gamma_3 used by that case, the last of
magnitude ``gamma3_magnitude``.
``marden_quadratic_inside`` is the classical criterion for both roots of
z^2 + a1 z + a0 to lie strictly inside the unit circle.  The certified
bounds in ``oneshot.bounds`` use the closed-form constants of the case
analysis instead, so these live with the tests.
"""

import math

import numpy as np

from oneshot import CaseParameters, ProblemAssumptionError, SingularSystemError
from oneshot.problem import contracts


def pq_decompose(T, lam: complex):
    """Split (I - T/lambda)^{-1} = P + iQ with real-linear-combination P, Q.

    With 1/lambda = r (cos phi + i sin phi),

        P = (I - r cos(phi) T) (I - 2 r cos(phi) T + r^2 T^2)^{-1}
        Q = r sin(phi) T (I - 2 r cos(phi) T + r^2 T^2)^{-1}.

    Requires rho(T) < 1 and |lambda| >= 1, under which the middle factor
    (I - T/lambda)(I - T/conj(lambda)) is invertible.  rho(T) < 1 is
    checked by ``problem.contracts`` (norms first, eigensolve only where
    they do not suffice); rho(T) >= 1 raises ProblemAssumptionError.
    """
    T = np.asarray(T, dtype=float)
    lam = complex(lam)
    if abs(lam) < 1.0:
        raise ValueError(f"pq_decompose requires |lambda| >= 1, got {abs(lam)}")
    if not contracts(T):
        raise ProblemAssumptionError("pq_decompose requires rho(T) < 1")
    r = 1.0 / abs(lam)
    phi = -np.angle(lam)
    eye = np.eye(T.shape[0])
    middle = eye - 2.0 * r * math.cos(phi) * T + (r * r) * (T @ T)
    try:
        inv_middle = np.linalg.inv(middle)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("singular middle factor in P/Q split") from exc
    P = (eye - r * math.cos(phi) * T) @ inv_middle
    Q = (r * math.sin(phi)) * (T @ inv_middle)
    return P, Q


def gamma3_magnitude(params: CaseParameters) -> float:
    """|gamma_3| = (delta0 + sin(3 theta0/2)) / cos(3 theta0/2), the multiplier
    of case 3 in ``gamma_select``."""
    t = 1.5 * params.theta0
    return (params.delta0 + math.sin(t)) / math.cos(t)


def gamma_select(lam: complex, theta0: float, delta0: float):
    """Classify a non-real candidate eigenvalue and return (case_id, gamma).

    Cases, by the sign of Re(lambda^2 - lambda) and the argument theta:

    1. Re >= 0:                          gamma = +-1 (sign of Im(lambda^2-lambda))
    2. Re < 0, theta0 <= |theta| <= pi - theta0:  gamma = -+1
    3. Re < 0, |theta| < theta0:         gamma = +-(delta0 + sin(3 theta0/2)) / cos(3 theta0/2)
    4. Re < 0, |theta| > pi - theta0:    provably empty; returned as (4, nan)
    """
    lam = complex(lam)
    if lam.imag == 0.0:
        raise ValueError("gamma_select rejects real lambda")
    if abs(lam) < 1.0:
        raise ValueError(f"gamma_select requires |lambda| >= 1, got {abs(lam)}")
    params = CaseParameters(theta0, delta0)
    w = lam * lam - lam
    theta = math.atan2(lam.imag, lam.real)
    if w.real >= 0.0:
        return 1, (1.0 if w.imag >= 0.0 else -1.0)
    if theta0 <= abs(theta) <= math.pi - theta0:
        return 2, (-1.0 if w.imag >= 0.0 else 1.0)
    if abs(theta) < theta0:
        return 3, math.copysign(gamma3_magnitude(params), theta)
    return 4, math.nan


def marden_quadratic_inside(a0: float, a1: float) -> bool:
    """True iff both roots of z^2 + a1 z + a0 lie strictly inside |z| = 1.

    Criterion: |a0| < 1 and (a0 - a1 + 1)(a0 + a1 + 1) > 0.
    """
    return abs(a0) < 1.0 and (a0 - a1 + 1.0) * (a0 + a1 + 1.0) > 0.0
