"""Error taxonomy shared across the package.

Exit codes follow the CLI contract: 2 validation, 3 numerical, 4 verification.
"""


class GmiError(Exception):
    exit_code = 3
    code = "error"


class ValidationError(GmiError):
    exit_code = 2
    code = "validation_error"


class WeightScaleError(ValidationError):
    """The functional weights overflow a product the problem forms from them, or their
    squares underflow."""


class DegenerateOperatorError(ValidationError):
    """All differencing orders are zero; the operator is the identity."""

    code = "degenerate_operator"


class NumericalError(GmiError):
    exit_code = 3
    code = "numerical_error"


class SingularDensityError(NumericalError):
    code = "singular_density"


class MseInconsistencyError(NumericalError):
    """Spectral and algebraic mean-square-error routes disagree."""

    code = "mse_inconsistency"


class VerificationError(GmiError):
    exit_code = 4
    code = "verification_failure"
