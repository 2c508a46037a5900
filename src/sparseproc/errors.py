"""Exception types shared across the package."""


class StationarityError(ValueError):
    """Model parameters admit no stationary solution (e.g. thinning means sum to >= 1)."""


class NumericError(ValueError):
    """A step of the pipeline failed on its numbers; a replication records it as failed."""


class DomainError(NumericError):
    """Simulated values left the numerically representable range."""


class NuisanceError(NumericError):
    """Estimated conditional variance is not finite."""


class RankError(NumericError):
    """A restricted Gram matrix is singular or not positive definite."""


class DegenerateVarianceError(NumericError):
    """Sample has no variation where positive variance is required."""


class UncertifiedFitError(NumericError):
    """An LP whose result the pipeline uses ended without an optimality certificate."""
