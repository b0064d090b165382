"""Interpolation of sequences with periodically stationary seasonal increments.

Subpackages:
    increments  coefficient algebra for the difference operators
    spectra     frequency grids, spectral densities, operator symbols
    classical   the exact interpolation pipeline (known densities)
    oracle      brute-force covariance projection ground truth
    minimax     least favorable densities over uncertainty classes
    cli         config-driven command line entry point
"""

from .errors import (
    DegenerateOperatorError,
    GmiError,
    MseInconsistencyError,
    NumericalError,
    SingularDensityError,
    ValidationError,
    VerificationError,
)

__all__ = [
    "GmiError",
    "ValidationError",
    "DegenerateOperatorError",
    "NumericalError",
    "SingularDensityError",
    "MseInconsistencyError",
    "VerificationError",
]

__version__ = "0.1.0"
