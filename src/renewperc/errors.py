"""Exception types shared across the package, and the number validators."""

import math
import numbers


class RenewpercError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RenewpercError, ValueError):
    """Inputs or configuration violate a documented contract."""


class InfiniteMeanError(RenewpercError):
    """The renewal law shows no evidence of a finite mean inter-arrival time."""


class UnboundedRadiusError(RenewpercError):
    """An operation requiring bounded radius support received an unbounded model."""


class MonotonicityError(RenewpercError):
    """A monotone-only bound was requested for a non-monotone mark law."""


class EnumerationCapError(RenewpercError):
    """Exhaustive enumeration would exceed the configured term cap."""


class InternalConsistencyError(RenewpercError):
    """Two redundant computations of the same quantity disagree."""


def check_int(name: str, value) -> int:
    """``value`` as an int; integral floats such as 1e4 pass, bool/str/None/NaN/1.5 raise."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_float(name: str, value) -> float:
    """``value`` as a finite float; ints and floats pass, bool/str/None/NaN/inf raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)
