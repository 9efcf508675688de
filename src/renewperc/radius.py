"""Radius laws: the lengths of the intervals opened at marked sites.

A radius model exposes the CDF alpha_n = P(R <= n), inverse-CDF sampling,
and tail diagnostics.  R = 0 is legal (it opens an empty interval); a
defective law with all mass at infinity is admitted behind an explicit
model for degenerate checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import InfiniteMeanError, ValidationError, check_float, check_int
from .renewal import QSequence, interarrival


@dataclass(frozen=True)
class RadiusModel:
    """Base class: a radius law specified through its CDF alpha."""

    def alpha(self, n: int) -> float:
        raise NotImplementedError

    def alpha_array(self, n: int) -> np.ndarray:
        """alpha_0 .. alpha_{n-1} as a float array."""
        return np.array([self.alpha(i) for i in range(n)], dtype=float)

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

    def alpha(self, n: int) -> float:
        if n < 0:
            raise ValidationError("index must be nonnegative")
        return 1.0 - self.r**n

    def alpha_array(self, n: int) -> np.ndarray:
        return 1.0 - self.r ** np.arange(n, dtype=float)

    @property
    def support_bound(self) -> Optional[int]:
        return None

    def quantile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.floor(np.log1p(-u) / math.log(self.r)) + 1.0

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
        if self.n0 < 1:
            raise ValidationError(f"n0 must be >= 1, got {self.n0!r}")

    def alpha(self, n: int) -> float:
        if n < 0:
            raise ValidationError("index must be nonnegative")
        if n < self.n0:
            return 0.0
        return 1.0 - min(1.0, self.c / n**self.gamma)

    def alpha_array(self, n: int) -> np.ndarray:
        idx = np.arange(n, dtype=float)
        with np.errstate(divide="ignore"):
            tail = np.minimum(1.0, self.c / idx**self.gamma)
        out = 1.0 - tail
        out[: min(self.n0, n)] = 0.0
        return out

    @property
    def support_bound(self) -> Optional[int]:
        return None

    def quantile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.floor((self.c / (1.0 - u)) ** (1.0 / self.gamma)) + 1.0
        return np.maximum(float(self.n0), v)

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

    def alpha(self, n: int) -> float:
        if n < 0:
            raise ValidationError("index must be nonnegative")
        return min(1.0, math.fsum(self.p[: n + 1]))

    def alpha_array(self, n: int) -> np.ndarray:
        cdf = np.minimum(np.cumsum(self.p), 1.0)
        if n <= len(self.p):
            return cdf[:n].copy()
        return np.concatenate([cdf, np.ones(n - len(self.p))])

    @property
    def support_bound(self) -> Optional[int]:
        return len(self.p) - 1

    def pmf_array(self) -> np.ndarray:
        return np.array(self.p, dtype=float)

    def quantile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        cdf = np.cumsum(self.p)
        cdf[-1] = 1.0
        return np.searchsorted(cdf, u, side="right").astype(float)

    def to_config(self) -> dict:
        return {"family": "table", "p": list(self.p)}


@dataclass(frozen=True)
class InfiniteRadius(RadiusModel):
    """Defective law with all mass at infinity: alpha identically 0.

    Only legal where explicitly permitted; it exercises the renewal-theorem
    endpoint where the coverage probability collapses to 1 / E T.
    """

    def alpha(self, n: int) -> float:
        if n < 0:
            raise ValidationError("index must be nonnegative")
        return 0.0

    def alpha_array(self, n: int) -> np.ndarray:
        return np.zeros(n)

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
        return PowerLawTailRadius(
            c=fragment["c"], gamma=fragment["gamma"], n0=check_int("n0", fragment.get("n0", 1))
        )
    if family == "table":
        if not isinstance(fragment["p"], (list, tuple)):
            raise ValidationError(f"table p must be a list, got {fragment['p']!r}")
        return FiniteTableRadius(p=tuple(fragment["p"]))
    return InfiniteRadius()


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


class TailDiagnosis(str, enum.Enum):
    SUMMABLE = "summable-evidence"
    DIVERGENT = "divergent-evidence"
    INCONCLUSIVE = "inconclusive"


def tail_sum(model: RadiusModel, horizon: int) -> tuple[float, TailDiagnosis]:
    """Partial sum of 1 - alpha_k up to the horizon, with a decay diagnosis.

    The diagnosis compares the local power exponent of 1 - alpha between
    horizon/2 and horizon against 1 (the summability threshold).  It is
    finite-horizon evidence, never a proof.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    tail = 1.0 - model.alpha_array(horizon + 1)
    partial = float(tail.sum())
    d_end = tail[horizon]
    if d_end == 0.0:
        return partial, TailDiagnosis.SUMMABLE
    if horizon < 4:
        return partial, TailDiagnosis.INCONCLUSIVE
    d_mid = tail[horizon // 2]
    if d_mid <= 0.0:
        return partial, TailDiagnosis.INCONCLUSIVE
    rho = math.log(d_mid / d_end) / math.log(horizon / (horizon // 2))
    if rho <= 1.02:
        return partial, TailDiagnosis.DIVERGENT
    if rho >= 1.10:
        return partial, TailDiagnosis.SUMMABLE
    return partial, TailDiagnosis.INCONCLUSIVE


def _mean_interarrival(spec: QSequence, horizon: int = 100_000, tol: float = 1e-14) -> float:
    summary = interarrival(spec, horizon, tol)
    if not summary.converged:
        raise InfiniteMeanError(
            "mean inter-arrival did not converge at the horizon; "
            "the tail criteria require a finite mean"
        )
    return summary.mean


def criterion_ratio(model: RadiusModel, spec: QSequence, n: int) -> float:
    """The tail-criterion scalar n * (1 - alpha_n) / E T.

    Its limsup below 1 is the extinction criterion, its liminf above 1
    (together with C_k = O(k)) the survival criterion.
    """
    if n < 0:
        raise ValidationError("index must be nonnegative")
    mean = _mean_interarrival(spec)
    return n * (1.0 - model.alpha(n)) / mean


def sample(model: RadiusModel, rng: np.random.Generator):
    """Draw one radius by inverse CDF; returns math.inf for defective mass."""
    value = float(model.quantile(rng.random(1))[0])
    return math.inf if math.isinf(value) else int(value)
