"""Exception types shared across the package, the number validators and the config-fragment helpers."""

import math
import numbers
from typing import Mapping


class RenewpercError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RenewpercError, ValueError):
    """Inputs or configuration violate a documented contract."""


class UnboundedRadiusError(RenewpercError):
    """An operation requiring bounded radius support received an unbounded model."""


class MonotonicityError(RenewpercError):
    """A monotone-only bound was requested for a non-monotone mark law."""


class EnumerationCapError(RenewpercError):
    """Exhaustive enumeration would exceed the configured term cap."""


class InternalConsistencyError(RenewpercError):
    """Two redundant computations of the same quantity disagree."""


def check_int(name: str, value) -> int:
    """``value`` as an int; integral numbers (1e4, np.int64(3)) pass, bool/str/None/NaN/1.5 raise."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral)
        or isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_at_least(name: str, value, low: int) -> int:
    """``value`` as an int by ``check_int``, at least ``low``."""
    value = check_int(name, value)
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    return value


def check_float(name: str, value) -> float:
    """``value`` as a finite float; ints and floats pass, bool/str/None/NaN/inf raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def check_fragment(fragment, families: Mapping, noun: str, family_noun: str) -> tuple:
    """The family and other keys of a ``noun`` fragment ("q-spec"), checked against families[family] =
    (class, required keys, optional keys)."""
    if not isinstance(fragment, Mapping):
        raise ValidationError(f"{noun} fragment must be a mapping, got {type(fragment).__name__}")
    family = fragment.get("family")
    if not isinstance(family, str) or family not in families:  # a list or dict family is unhashable
        raise ValidationError(f"unknown {family_noun} family {family!r}; expected one of {tuple(families)}")
    _, required, optional = families[family]
    if extra := set(fragment) - {"family", *required, *optional}:
        raise ValidationError(f"unknown keys in {noun} fragment: {sorted(extra)}")
    if missing := [key for key in required if key not in fragment]:
        raise ValidationError(f"{noun} fragment for {family!r} is missing keys {missing}")
    return family, {key: value for key, value in fragment.items() if key != "family"}


def family_fragment(law, families: Mapping) -> dict:
    """The fragment of a law whose class or a parent has a row: its family, then each key's field."""
    for family, (cls, required, optional) in families.items():
        if isinstance(law, cls):
            return {"family": family, **{key: getattr(law, key) for key in (*required, *optional)}}
    raise NotImplementedError(f"{type(law).__name__} has no config family")
