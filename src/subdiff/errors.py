"""Exception taxonomy for the subdiff package.

Every error carries a machine-parsable ``category`` slug; the command line
prints it as ``subdiff: error: <category>: <message>`` on stderr.  Validation
errors (bad user input) map to exit code 1, numerical failures to exit code 2.
"""
from __future__ import annotations

__all__ = [
    "SubdiffError",
    "ValidationError",
    "NonMonotoneMeshError",
    "DimensionMismatchError",
    "MeshFileError",
    "NumericalError",
    "QuadratureConvergenceError",
    "SingularDiagonalError",
    "LinearSolveError",
]


class SubdiffError(Exception):
    """Base class for all package-specific errors."""

    category = "error"


class ValidationError(SubdiffError, ValueError):
    """Invalid parameters or malformed input data."""

    category = "invalid-parameter"


class NonMonotoneMeshError(ValidationError):
    """Mesh nodes are not strictly increasing from zero."""

    category = "non-monotone-mesh"


class DimensionMismatchError(ValidationError):
    """Array arguments have incompatible shapes."""

    category = "dimension-mismatch"


class MeshFileError(ValidationError):
    """Mesh file is missing or malformed."""

    category = "mesh-file"


class NumericalError(SubdiffError, RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""

    category = "numerical"


class QuadratureConvergenceError(NumericalError):
    """Adaptive quadrature did not converge to the requested tolerance."""

    category = "quadrature-nonconvergence"


class SingularDiagonalError(NumericalError):
    """A kernel diagonal entry vanished or went negative."""

    category = "singular-diagonal"


class LinearSolveError(NumericalError):
    """The per-step linear solve failed or returned non-finite values."""

    category = "linear-solve-failure"
