"""Exception types shared across the package."""


class StationarityError(ValueError):
    """Model parameters admit no stationary solution (e.g. thinning means sum to >= 1)."""


class DomainError(ValueError):
    """Simulated values left the numerically representable range."""


class NuisanceError(ValueError):
    """Estimated conditional variance is not finite."""


class RankError(ValueError):
    """A restricted Gram matrix is singular or not positive definite."""


class DegenerateVarianceError(ValueError):
    """Sample has no variation where positive variance is required."""


class UncertifiedFitError(ValueError):
    """An LP whose result the pipeline uses ended without an optimality certificate."""
