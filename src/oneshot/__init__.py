"""Multi-step one-shot inversion methods for discretized linear inverse
problems, with spectral convergence certificates, explicit sufficient
descent-step bounds, and a desk-scale cavity experiment harness."""

from .bounds import (CaseParameters, TauBoundReport, bound_report_for, s_of,
                     sufficient_tau_k_step)
from .cavity import (CavityConfig, GeneratedCavity, export_cavity, generate,
                     load_problem, multi_source_objective)
from .descent import (ConvergenceTrace, RunConfig, RunStatus, SchemeKind, run, run_columns,
                      step)
from .errors import (EigensolverError, OneShotError, ProblemAssumptionError,
                     SingularSystemError, SizeGuardError, SpecParseError,
                     SpecValidationError)
from .problem import (IterationState, LinearInverseProblem, Objective, cost,
                      fixed_point_sweep, gradient, random_problem,
                      regularized_solution, solve_adjoint_exact,
                      solve_state_exact)
from .spectral import (KStepOperators, SpectralCertificate, certify,
                       eigen_equation_residual, iteration_matrix_semi_implicit,
                       k_step_operators, spectrum)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
