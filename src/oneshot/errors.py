"""Exception hierarchy for the oneshot package.

Distinguishing argument problems from broken mathematical assumptions lets
callers (in particular the CLI) map failures to the right exit code.  A
bad argument is a ValueError (exit 2) wherever it is found: a scalar out
of range, a spec or manifest (SpecParseError, SpecValidationError) or a
matrix file (``matrixio.MatrixFormatError``).  The rest exit 3.
"""


class OneShotError(Exception):
    """Base class for all package errors."""


class ProblemAssumptionError(OneShotError):
    """A standing assumption is violated (rho(B) >= 1, rank-deficient
    parameter-to-data map, inconsistent dimensions, non-finite entries);
    a scalar argument out of range, such as alpha < 0, is a ValueError."""


class SingularSystemError(OneShotError):
    """An exact solve hit a (numerically) singular linear system."""


class SizeGuardError(OneShotError):
    """A dense spectrum was requested above the size guard."""


class EigensolverError(OneShotError):
    """A nonsymmetric eigensolver (dense QR, ARPACK Arnoldi, or the LU
    solve and standard eigensolve of the Cayley-transformed s(T)
    level-set pencil) failed, or the level set found no certificate."""


class SpecParseError(OneShotError, ValueError):
    """An experiment spec or a cavity manifest failed to parse.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SpecValidationError(OneShotError, ValueError):
    """A parsed experiment document failed validation; names the field."""
