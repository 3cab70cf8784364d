"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`GvcplmError`, so
callers (and the CLI) can distinguish configuration problems, data problems
and numerical failures without string matching.
"""


class GvcplmError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GvcplmError):
    """A tuning parameter or configuration value is invalid."""


class DataError(GvcplmError):
    """Input data is malformed (shapes, missing values, bad columns)."""


class DomainError(DataError):
    """A response value lies outside the family's domain."""


class EffectiveSampleError(GvcplmError):
    """Too few observations carry kernel weight at an evaluation point."""


class SingularityError(GvcplmError):
    """A local information matrix stayed ill-conditioned after ridging."""


class ConditioningError(GvcplmError):
    """A global curvature or covariance matrix is not usable."""


class RankError(ParameterError):
    """User-supplied hypothesis rows are linearly dependent (a config mistake)."""


class CrossValidationError(GvcplmError):
    """Every cross-validation cell failed."""


class StudyError(GvcplmError):
    """A simulation study lost more replicates than allowed."""
