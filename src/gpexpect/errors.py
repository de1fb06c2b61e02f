"""Exception types raised by gpexpect.

Plain ``ValueError`` is used for argument mistakes (dimension mismatches,
bad shapes); the classes below mark failures that callers may want to
handle separately, e.g. to map them to process exit codes.
"""


class GpExpectError(Exception):
    """Base class for all gpexpect-specific failures."""


class NumericalConditioningError(GpExpectError):
    """Cholesky factorization failed even after maximum jitter escalation."""


class InsufficientDataError(GpExpectError, ValueError):
    """An operation was given fewer data points than it needs."""


class DegenerateEstimateError(GpExpectError):
    """The integral estimate has zero variance; no information left to gain."""


class OptimizationFailedError(GpExpectError):
    """Every optimizer start was abandoned (non-finite objective)."""


class EvaluationError(GpExpectError):
    """The black box raised (the error is the ``__cause__``) or returned a non-finite value."""
