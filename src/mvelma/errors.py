"""Exception types shared across the package."""


class MvelmaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MvelmaError):
    """Operands have incompatible shapes."""


class ShapeMismatch(MvelmaError):
    """An input tensor does not match the configured shape."""


class NonFiniteInput(MvelmaError):
    """NaN or Inf encountered where finite values are required."""


class NotPositiveDefinite(MvelmaError):
    """Matrix failed Cholesky factorization even after jitter escalation."""


class Divergence(MvelmaError):
    """Training loss became non-finite."""


class DegenerateInput(MvelmaError):
    """Too few samples to fit the requested model."""


class LengthMismatch(MvelmaError):
    """Paired vectors have different lengths."""


class ZeroVarianceTruth(MvelmaError):
    """R2 / NRMSE are undefined when the observed targets are constant."""


class UnknownVariant(MvelmaError):
    """Ablation variant tag is not one of the supported set."""


class EmptySplit(MvelmaError):
    """A train/test split produced an empty partition."""


class EmptyWindow(MvelmaError):
    """A target-construction window contains no samples."""


class SchemaError(MvelmaError):
    """A data file violates its schema; message carries row/column context."""
