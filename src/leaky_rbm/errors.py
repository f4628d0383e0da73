"""Exception types shared across the package."""


class LeakyRbmError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(LeakyRbmError, ValueError):
    """Input dimensions do not match the model."""


class NonPDRegionError(LeakyRbmError):
    """A region precision matrix is not positive definite.

    Carries the smallest eigenvalue so callers can report how badly the
    constraint is violated.
    """

    def __init__(self, min_eigenvalue: float, message: str | None = None):
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            message
            or f"region precision matrix is not positive definite "
            f"(smallest eigenvalue {self.min_eigenvalue:.3e})"
        )


class DivergentIntegralError(LeakyRbmError):
    """The unnormalized marginal has infinite mass (unsafe weights)."""


class PrecisionLossError(LeakyRbmError):
    """A difference of two large floating-point terms has lost its digits."""


class TrainingDivergedError(LeakyRbmError):
    """Parameters became non-finite during training, or blew up to
    ``max_singular_value`` before the projection, or the epoch's
    reconstruction error overflowed (``batch_index`` None)."""

    def __init__(self, epoch: int, batch_index: int | None = None,
                 max_singular_value: float | None = None):
        self.epoch = epoch
        self.batch_index = batch_index
        self.max_singular_value = max_singular_value
        if batch_index is None:
            message = f"reconstruction error overflowed at epoch {epoch}"
        elif max_singular_value is None:
            message = f"non-finite parameters at epoch {epoch}, batch {batch_index}"
        else:
            message = (f"weights blew up to sigma_max {max_singular_value:.3g} "
                       f"at epoch {epoch}, batch {batch_index}")
        super().__init__(message)


class ModelFileError(LeakyRbmError, ValueError):
    """A model file is missing, truncated, or has a bad header."""


class DataFormatError(LeakyRbmError, ValueError):
    """A dataset file could not be parsed."""
