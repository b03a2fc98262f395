"""Exception types raised by the public API."""


class BornsimError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(BornsimError, ValueError):
    """Mode count is zero, negative, or unsupported by the operation."""


class DimensionMismatchError(BornsimError, ValueError):
    """Operands describe different numbers of modes."""


class DomainError(BornsimError, ValueError):
    """Numeric argument outside the mathematical domain (negative, NaN, Inf)."""


class SingularThresholdError(BornsimError, ValueError):
    """Operation undefined at zero detection threshold."""


class UndefinedConditionalError(BornsimError, ValueError):
    """Conditional probability has a vanishing normalizer."""


class UndefinedRatioError(BornsimError, ValueError):
    """Coincidence ratio has a vanishing denominator."""


class SaturatedDetectorError(BornsimError, ValueError):
    """A detector fires with certainty, so post-selection weights diverge."""


class CircuitFormatError(BornsimError, ValueError):
    """Circuit description file is malformed."""
