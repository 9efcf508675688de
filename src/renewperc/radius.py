"""Radius laws: the lengths of the intervals opened at marked sites.

A radius model exposes the CDF alpha_n = P(R <= n) and inverse-CDF
sampling.  R = 0 is legal (it opens an empty interval); a defective law
with all mass at infinity is admitted behind an explicit model for
degenerate checks.  The module knows nothing of the mark laws: the tail
criterion n (1 - alpha_n) / E T, which joins the two, is reported by
``engine.classify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import ValidationError, check_at_least, check_float


@dataclass(frozen=True, eq=False)
class RadiusModel:
    """Base class: a radius law specified through its CDF alpha.

    A built-in law defines its CDF once, as the hook ``_alpha(idx)`` that
    evaluates alpha at every index of an integer array; ``alpha`` and
    ``alpha_array`` are that hook on one index and on 0..n-1, so both give
    the same bits.  A subclass may instead define only ``alpha``: the
    default hook then loops over it.
    """

    def _alpha(self, idx: np.ndarray) -> np.ndarray:
        if type(self).alpha is RadiusModel.alpha:
            raise NotImplementedError(f"{type(self).__name__} defines neither _alpha nor alpha")
        return np.array([self.alpha(n) for n in idx.tolist()], dtype=float)

    def alpha(self, n: int) -> float:
        n = check_at_least("index", n, 0)
        return float(self._alpha(np.array([n], dtype=np.int64))[0])

    def alpha_array(self, n: int) -> np.ndarray:
        """alpha_0 .. alpha_{n-1} as a float array."""
        return self._alpha(np.arange(n))

    @property
    def support_bound(self) -> Optional[int]:
        """Largest possible radius, or None when the support is unbounded."""
        raise NotImplementedError

    def pmf_array(self) -> np.ndarray:
        """P(R = 0..m) for bounded-support models."""
        raise ValidationError(f"{type(self).__name__} has unbounded support")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF R(u) = min{v : alpha_v > u}, vectorized over uniforms.

        Monotone in u, so shared uniforms realize stochastic dominance
        between models pathwise.
        """
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class GeometricTailRadius(RadiusModel):
    """P(R > n) = r^n, i.e. alpha_n = 1 - r^n (so R >= 1 almost surely)."""

    r: float

    def __post_init__(self) -> None:
        if not 0.0 < check_float("r", self.r) < 1.0:
            raise ValidationError(f"r must lie in (0, 1), got {self.r!r}")

    def _alpha(self, idx: np.ndarray) -> np.ndarray:
        return 1.0 - self.r ** idx.astype(float)

    @property
    def support_bound(self) -> Optional[int]:
        return None

    def quantile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.negative(u, out=np.empty_like(u))
        np.log1p(v, out=v)
        v /= math.log(self.r)
        np.floor(v, out=v)
        v += 1.0
        return v[()]  # a scalar for a scalar u

    def to_config(self) -> dict:
        return {"family": "geometric_tail", "r": self.r}


@dataclass(frozen=True)
class PowerLawTailRadius(RadiusModel):
    """1 - alpha_n = min(1, c / n^gamma) for n >= n0, and = 1 below n0.

    The head clamp (alpha = 0 for n < n0) maximizes radii: the survival
    and extinction criteria are tail conditions, so the head is free.
    """

    c: float
    gamma: float
    n0: int = 1

    def __post_init__(self) -> None:
        if not check_float("c", self.c) > 0.0:
            raise ValidationError(f"c must be positive, got {self.c!r}")
        if not check_float("gamma", self.gamma) > 0.0:
            raise ValidationError(f"gamma must be positive, got {self.gamma!r}")
        object.__setattr__(self, "n0", check_at_least("n0", self.n0, 1))

    def _alpha(self, idx: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            tail = np.minimum(1.0, self.c / idx.astype(float) ** self.gamma)
        out = 1.0 - tail
        out[idx < self.n0] = 0.0
        return out

    @property
    def support_bound(self) -> Optional[int]:
        return None

    def quantile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.subtract(1.0, u, out=np.empty_like(u))
        np.divide(self.c, v, out=v)
        if self.gamma != 1.0:  # x ** 1.0 == x, so skipping it keeps the bits
            np.power(v, 1.0 / self.gamma, out=v)
        np.floor(v, out=v)
        v += 1.0
        if self.n0 != 1:  # v >= 1 already
            np.maximum(v, float(self.n0), out=v)
        return v[()]  # a scalar for a scalar u

    def to_config(self) -> dict:
        return {"family": "power_tail", "c": self.c, "gamma": self.gamma, "n0": self.n0}


@dataclass(frozen=True)
class FiniteTableRadius(RadiusModel):
    """Explicit pmf P(R = 0..m); must sum to one."""

    p: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", tuple(check_float("pmf entry", v) for v in self.p))
        if len(self.p) == 0:
            raise ValidationError("finite radius table needs at least one entry")
        if any(v < 0.0 for v in self.p):
            raise ValidationError("pmf entries must be nonnegative")
        if abs(sum(self.p) - 1.0) > 1e-9:
            raise ValidationError(f"pmf must sum to 1, got {sum(self.p)!r}")

    def _alpha(self, idx: np.ndarray) -> np.ndarray:
        # exactly 1 beyond the support, whatever the cumsum rounds to
        cdf = np.append(np.minimum(np.cumsum(self.p), 1.0), 1.0)
        return cdf[np.minimum(idx, len(self.p))]

    @property
    def support_bound(self) -> Optional[int]:
        return len(self.p) - 1

    def pmf_array(self) -> np.ndarray:
        return np.array(self.p, dtype=float)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        # For u in [0, 1) the radius is the number of CDF entries <= u; the
        # last entry is 1 up to rounding and is never counted.  The count
        # needs no wider integer than len(p).
        u = np.asarray(u, dtype=float)
        count = np.zeros(u.shape, dtype=np.min_scalar_type(len(self.p)))
        for c in np.cumsum(self.p)[:-1].tolist():
            count += u >= c
        return count.astype(float)[()]  # a scalar for a scalar u

    def to_config(self) -> dict:
        return {"family": "table", "p": list(self.p)}


@dataclass(frozen=True)
class InfiniteRadius(RadiusModel):
    """Defective law with all mass at infinity: alpha identically 0.

    Only legal where explicitly permitted; it exercises the renewal-theorem
    endpoint where the coverage probability collapses to 1 / E T.
    """

    def _alpha(self, idx: np.ndarray) -> np.ndarray:
        return np.zeros(idx.shape)

    @property
    def support_bound(self) -> Optional[int]:
        return None

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(u).shape, np.inf)

    def to_config(self) -> dict:
        return {"family": "infinite"}


# family -> (required keys, optional keys)
_R_KEYS = {
    "geometric_tail": (("r",), ()),
    "power_tail": (("c", "gamma"), ("n0",)),
    "table": (("p",), ()),
    "infinite": ((), ()),
}


def radius_from_config(fragment: Mapping) -> RadiusModel:
    """Build a RadiusModel from a configuration fragment.

    Accepted fragments::

        {"family": "geometric_tail", "r": 0.9}
        {"family": "power_tail", "c": 3, "gamma": 1, "n0": 1}
        {"family": "table", "p": [...]}
        {"family": "infinite"}
    """
    if not isinstance(fragment, Mapping):
        raise ValidationError(f"radius fragment must be a mapping, got {type(fragment).__name__}")
    family = fragment.get("family")
    if family not in _R_KEYS:
        raise ValidationError(f"unknown radius family {family!r}; expected one of {tuple(_R_KEYS)}")
    required, optional = _R_KEYS[family]
    extra = set(fragment) - {"family", *required, *optional}
    if extra:
        raise ValidationError(f"unknown keys in radius fragment: {sorted(extra)}")
    missing = [key for key in required if key not in fragment]
    if missing:
        raise ValidationError(f"radius fragment for {family!r} is missing keys {missing}")
    if family == "geometric_tail":
        return GeometricTailRadius(r=fragment["r"])
    if family == "power_tail":
        return PowerLawTailRadius(c=fragment["c"], gamma=fragment["gamma"], n0=fragment.get("n0", 1))
    if family == "table":
        if not isinstance(fragment["p"], (list, tuple)):
            raise ValidationError(f"table p must be a list, got {fragment['p']!r}")
        return FiniteTableRadius(p=tuple(fragment["p"]))
    return InfiniteRadius()
