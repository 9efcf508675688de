"""Renewal mark laws built on the house-of-cards chain.

The binary mark sequence xi_0, xi_1, ... is defined through an integer chain
zeta that starts at 0 and, from height s, either climbs to s+1 (probability
q_s) or collapses to 0 (probability 1 - q_s).  Marks are the zero set,
xi_i = 1 iff zeta_i = 0, so xi_0 = 1 and the gaps between successive marks
are i.i.d. copies of an inter-arrival time T with

    P(T = n) = (1 - q_{n-1}) * prod_{i <= n-2} q_i,   n >= 1,
    P(T > n) = prod_{i <= n-1} q_i,
    E T      = 1 + sum_{n >= 1} prod_{i <= n-1} q_i.

A family of climb probabilities q_0, q_1, ... therefore pins the whole law.
This module provides the families, the inter-arrival summary, the renewal
probabilities u_n = P(xi_n = 1), the running maxima q*_i, the coalescence
constants

    C_k = ( sum_{j=1..k} prod_{i=k..k+j-1} q*_i )^2,

and seeded sampling of mark paths.  Everything here is a pure function of
its inputs; law objects are frozen and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import ValidationError, check_float, check_int

# Climb probabilities are capped strictly below 1 so the chain cannot get
# absorbed (q_i = 1 would make T defective, which the model excludes).
Q_CAP = 1.0 - 1e-12


def _check_probability(name: str, value: float) -> float:
    value = check_float(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class QSequence:
    """A renewal law specified by its climb probabilities q_i.

    Subclasses implement ``q_at`` (and usually a vectorized ``q_array``).
    All values are clamped to [0, Q_CAP].
    """

    def q_at(self, i: int) -> float:
        raise NotImplementedError

    def q_array(self, n: int) -> np.ndarray:
        """Values q_0 .. q_{n-1} as a float array."""
        return np.array([self.q_at(i) for i in range(n)], dtype=float)

    @property
    def is_monotone(self) -> bool:
        """True when q_i is nondecreasing in i (enables the FKG bound)."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantQ(QSequence):
    """q_i = q for every i; the marks beyond site 0 are i.i.d. Bernoulli(1-q)."""

    q: float

    def __post_init__(self) -> None:
        _check_probability("q", self.q)

    def q_at(self, i: int) -> float:
        if i < 0:
            raise ValidationError("index must be nonnegative")
        return min(self.q, Q_CAP)

    def q_array(self, n: int) -> np.ndarray:
        return np.full(n, min(self.q, Q_CAP), dtype=float)

    @property
    def is_monotone(self) -> bool:
        return True

    def to_config(self) -> dict:
        return {"family": "constant", "q": self.q}


@dataclass(frozen=True)
class MarkovQ(QSequence):
    """q_0 at height 0 and q_1 at every height >= 1.

    The marks then form the two-state Markov chain with
    P(1 | 1) = 1 - q0 and P(1 | 0) = 1 - q1.
    """

    q0: float
    q1: float

    def __post_init__(self) -> None:
        _check_probability("q0", self.q0)
        _check_probability("q1", self.q1)

    def q_at(self, i: int) -> float:
        if i < 0:
            raise ValidationError("index must be nonnegative")
        return min(self.q0 if i == 0 else self.q1, Q_CAP)

    def q_array(self, n: int) -> np.ndarray:
        out = np.full(n, min(self.q1, Q_CAP), dtype=float)
        if n > 0:
            out[0] = min(self.q0, Q_CAP)
        return out

    @property
    def is_monotone(self) -> bool:
        return self.q0 <= self.q1

    def to_config(self) -> dict:
        return {"family": "markov", "q0": self.q0, "q1": self.q1}


@dataclass(frozen=True)
class PolynomialMonotoneQ(QSequence):
    """q_i = 1 - i^(-beta) for i >= i0, held constant at the i0 value below.

    Nondecreasing, climbing to 1 polynomially; the flat head keeps the law
    monotone without introducing a spurious q = 0 at small indices.
    """

    beta: float
    i0: int = 2

    def __post_init__(self) -> None:
        if not check_float("beta", self.beta) > 0.0:
            raise ValidationError(f"beta must be positive, got {self.beta!r}")
        if self.i0 < 2:
            raise ValidationError(f"i0 must be at least 2, got {self.i0!r}")

    def q_at(self, i: int) -> float:
        if i < 0:
            raise ValidationError("index must be nonnegative")
        j = max(i, self.i0)
        return min(1.0 - j ** (-self.beta), Q_CAP)

    def q_array(self, n: int) -> np.ndarray:
        idx = np.maximum(np.arange(n, dtype=float), float(self.i0))
        return np.minimum(1.0 - idx ** (-self.beta), Q_CAP)

    @property
    def is_monotone(self) -> bool:
        return True

    def to_config(self) -> dict:
        return {"family": "poly_monotone", "beta": self.beta, "i0": self.i0}


REPEAT_LAST = "repeat_last"


@dataclass(frozen=True)
class TableQ(QSequence):
    """Explicit head values q_0 .. q_m with a tail rule beyond the table.

    ``tail`` is either the string ``"repeat_last"`` (the final value repeats
    forever, so the law is eventually constant) or another QSequence whose
    formula takes over at absolute index len(values).
    """

    values: tuple
    tail: Union[str, QSequence] = REPEAT_LAST

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValidationError("table needs at least one q value")
        object.__setattr__(
            self, "values", tuple(_check_probability("table entry", v) for v in self.values)
        )
        if self.tail != REPEAT_LAST and not isinstance(self.tail, QSequence):
            raise ValidationError(f"unknown tail rule {self.tail!r}")

    def q_at(self, i: int) -> float:
        if i < 0:
            raise ValidationError("index must be nonnegative")
        if i < len(self.values):
            return min(self.values[i], Q_CAP)
        if self.tail == REPEAT_LAST:
            return min(self.values[-1], Q_CAP)
        return self.tail.q_at(i)

    def q_array(self, n: int) -> np.ndarray:
        m = len(self.values)
        if n <= m:
            return np.minimum(np.array(self.values[:n], dtype=float), Q_CAP)
        head = np.minimum(np.array(self.values, dtype=float), Q_CAP)
        if self.tail == REPEAT_LAST:
            tail = np.full(n - m, head[-1])
        else:
            tail = self.tail.q_array(n)[m:]
        return np.concatenate([head, tail])

    @property
    def is_monotone(self) -> bool:
        vals = self.values
        if any(a > b for a, b in zip(vals, vals[1:])):
            return False
        if self.tail == REPEAT_LAST:
            return True
        return self.tail.is_monotone and vals[-1] <= self.tail.q_at(len(vals))

    def to_config(self) -> dict:
        tail = self.tail if isinstance(self.tail, str) else self.tail.to_config()
        return {"family": "table", "q": list(self.values), "tail": tail}


# family -> (required keys, optional keys)
_Q_KEYS = {
    "constant": (("q",), ()),
    "markov": (("q0", "q1"), ()),
    "poly_monotone": (("beta",), ("i0",)),
    "table": (("q",), ("tail",)),
}


def q_sequence_from_config(fragment: Mapping) -> QSequence:
    """Build a QSequence from a configuration fragment.

    Accepted fragments::

        {"family": "constant", "q": 0.5}
        {"family": "markov", "q0": 0.3, "q1": 0.6}
        {"family": "poly_monotone", "beta": 0.25, "i0": 2}
        {"family": "table", "q": [...], "tail": "repeat_last" | <fragment>}

    Unknown keys are rejected.
    """
    if not isinstance(fragment, Mapping):
        raise ValidationError(f"q-spec fragment must be a mapping, got {type(fragment).__name__}")
    family = fragment.get("family")
    if family not in _Q_KEYS:
        raise ValidationError(f"unknown q family {family!r}; expected one of {tuple(_Q_KEYS)}")
    required, optional = _Q_KEYS[family]
    extra = set(fragment) - {"family", *required, *optional}
    if extra:
        raise ValidationError(f"unknown keys in q-spec fragment: {sorted(extra)}")
    missing = [key for key in required if key not in fragment]
    if missing:
        raise ValidationError(f"q-spec fragment for {family!r} is missing keys {missing}")
    if family == "constant":
        return ConstantQ(q=fragment["q"])
    if family == "markov":
        return MarkovQ(q0=fragment["q0"], q1=fragment["q1"])
    if family == "poly_monotone":
        return PolynomialMonotoneQ(beta=fragment["beta"], i0=check_int("i0", fragment.get("i0", 2)))
    if not isinstance(fragment["q"], (list, tuple)):
        raise ValidationError(f"table q must be a list, got {fragment['q']!r}")
    tail = fragment.get("tail", REPEAT_LAST)
    if isinstance(tail, Mapping):
        tail = q_sequence_from_config(tail)
    return TableQ(values=tuple(fragment["q"]), tail=tail)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def q_star(spec: QSequence, i: int) -> float:
    """Running maximum q*_i = max(q_0, ..., q_i)."""
    if i < 0:
        raise ValidationError("index must be nonnegative")
    return float(spec.q_array(i + 1).max())


def q_star_array(spec: QSequence, n: int) -> np.ndarray:
    """q*_0 .. q*_{n-1} as a float array."""
    return np.maximum.accumulate(spec.q_array(n))


def survival_products(spec: QSequence, n: int) -> np.ndarray:
    """P(T > 0), ..., P(T > n): the partial products prod_{i<k} q_i, k = 0..n."""
    out = np.empty(n + 1)
    out[0] = 1.0
    if n > 0:
        np.cumprod(spec.q_array(n), out=out[1:])
    return out


@dataclass(frozen=True)
class InterArrivalSummary:
    """Prefix of the inter-arrival law and its (possibly truncated) mean.

    ``pmf[k]`` holds P(T = k) for k = 1..horizon (index 0 is zero-padding).
    ``mean`` is 1 + sum of partial products, accumulated until a product
    fell below the tolerance; when ``converged`` is False the sum never got
    there and ``mean`` is only a lower bound for E T.
    """

    pmf: np.ndarray
    mean: float
    converged: bool
    horizon: int


def interarrival(spec: QSequence, horizon: int, tol: float = 1e-15) -> InterArrivalSummary:
    """Inter-arrival pmf prefix plus the truncated mean E T.

    The mean accumulates 1 + sum_{n>=1} P(T > n), stopping as soon as a
    partial product drops below ``tol`` (converged) or the horizon is hit
    (not converged; the value is then a lower bound, never an estimate).
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    if not tol > 0.0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    q = spec.q_array(horizon)
    surv = survival_products(spec, horizon)
    pmf = np.zeros(horizon + 1)
    pmf[1:] = (1.0 - q) * surv[:-1]
    mean = 1.0
    converged = False
    for n in range(1, horizon + 1):
        term = surv[n]
        mean += term
        if term < tol:
            converged = True
            break
    return InterArrivalSummary(pmf=pmf, mean=mean, converged=converged, horizon=horizon)


@dataclass(frozen=True)
class RenewalProbTable:
    """u_n = P(xi_n = 1 | xi_0 = 1) for n = 0..horizon."""

    u: np.ndarray
    horizon: int


def renewal_solve(f: np.ndarray, mult=None) -> np.ndarray:
    """Solve g_0 = 1, g_n = mult[n-1] * sum_{k=1..n} f_k g_{n-k} for n < len(f).

    ``f[0]`` is ignored; ``mult`` defaults to all ones (the plain renewal
    equation).  A reversed copy of g is maintained so both dot operands
    stay contiguous; the recursion is O(N^2) overall.
    """
    horizon = len(f) - 1
    scale = np.ones(horizon) if mult is None else mult
    g = np.empty(horizon + 1)
    g[0] = 1.0
    rev = np.empty(horizon + 1)
    rev[horizon] = 1.0
    for n in range(1, horizon + 1):
        value = scale[n - 1] * (f[1 : n + 1] @ rev[horizon - n + 1 :])
        g[n] = value
        rev[horizon - n] = value
    return g


def renewal_probabilities(spec: QSequence, horizon: int) -> RenewalProbTable:
    """Renewal probabilities u_n = sum_k P(T=k) u_{n-k}, by ``renewal_solve``."""
    if horizon < 0:
        raise ValidationError(f"horizon must be >= 0, got {horizon}")
    pmf = interarrival(spec, horizon).pmf if horizon else np.zeros(1)
    return RenewalProbTable(u=renewal_solve(pmf), horizon=horizon)


def markov_renewal_closed(q0: float, q1: float, i: int) -> float:
    """Closed-form u_i for the Markov family, via the spectral decomposition.

    The two-state mark chain has stationary mark probability
    pi = (1-q1) / (1-q1+q0) and second eigenvalue q1-q0, giving

        u_i = pi + (1 - pi) * (q1 - q0)^i,

    which matches the renewal recursion (u_0 = 1, geometric relaxation).
    """
    q0 = _check_probability("q0", q0)
    q1 = _check_probability("q1", q1)
    if q0 >= 1.0 or q1 >= 1.0:
        raise ValidationError("q0 and q1 must be < 1 for the closed form")
    if i < 0:
        raise ValidationError("index must be nonnegative")
    denom = 1.0 - q1 + q0
    pi = (1.0 - q1) / denom
    return pi + (q0 / denom) * (q1 - q0) ** i


# ---------------------------------------------------------------------------
# Coalescence constants C_k
# ---------------------------------------------------------------------------

# Inner-sum terms prod_{i=k..k+j-1} q*_i are nonincreasing in j, so once a
# term falls below this cutoff the remainder is at most k * cutoff.
_CK_TERM_CUTOFF = 1e-18


def _ck_inner_sum(log_qstar: np.ndarray, k: int) -> float:
    """sum_{j=1..k} prod_{i=k..k+j-1} q*_i, with early cutoff on tiny terms.

    Terms are nonincreasing in j, so the cumulative log-product is scanned
    in doubling blocks and the sum stops at the first term below the
    cutoff; the dropped remainder is at most k * cutoff.
    """
    limit = math.log(_CK_TERM_CUTOFF)
    total = 0.0
    offset = 0.0
    pos, end = k, 2 * k
    block = 128
    while pos < end:
        stop = min(pos + block, end)
        cum = offset + np.cumsum(log_qstar[pos:stop])
        idx = int(np.searchsorted(-cum, -limit))
        if idx < cum.size:
            total += float(np.exp(cum[: idx + 1]).sum())
            return total
        total += float(np.exp(cum).sum())
        offset = float(cum[-1])
        pos = stop
        block *= 2
    return total


def ck_at(spec: QSequence, k: int) -> float:
    """C_k = (sum_{j=1..k} prod_{i=k..k+j-1} q*_i)^2 for a single k."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    qs = q_star_array(spec, 2 * k)
    with np.errstate(divide="ignore"):
        log_qs = np.log(qs)
    return _ck_inner_sum(log_qs, k) ** 2


@dataclass(frozen=True)
class CoalescenceConstants:
    """C_1..C_kmax (index-aligned: c[k] = C_k, c[0] = nan) and C_k / k."""

    c: np.ndarray
    ratio: np.ndarray
    kmax: int


def ck_sequence(spec: QSequence, kmax: int) -> CoalescenceConstants:
    """All coalescence constants C_1..C_kmax plus the diagnostics C_k / k.

    C_k / k is the quantity whose boundedness separates the summable from
    the divergent regime in the concentration-based survival criterion.
    """
    if kmax < 1:
        raise ValidationError(f"kmax must be >= 1, got {kmax}")
    qs = q_star_array(spec, 2 * kmax)
    with np.errstate(divide="ignore"):
        log_qs = np.log(qs)
    c = np.empty(kmax + 1)
    c[0] = np.nan
    for k in range(1, kmax + 1):
        c[k] = _ck_inner_sum(log_qs, k) ** 2
    ratio = np.empty_like(c)
    ratio[0] = np.nan
    ratio[1:] = c[1:] / np.arange(1, kmax + 1)
    return CoalescenceConstants(c=c, ratio=ratio, kmax=kmax)


# ---------------------------------------------------------------------------
# Path sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryPath:
    """A sampled mark path xi_0..xi_N and its house-of-cards companion zeta."""

    xi: np.ndarray
    zeta: np.ndarray


def sample_path(spec: QSequence, n: int, rng: np.random.Generator) -> BinaryPath:
    """Sample xi_0..xi_n by iterating the house-of-cards chain.

    At height s the chain climbs iff the next uniform is <= q_s, so the
    path is a deterministic function of the stream.
    """
    if n < 0:
        raise ValidationError(f"horizon must be >= 0, got {n}")
    q = spec.q_array(n + 1)
    zeta = np.zeros(n + 1, dtype=np.int64)
    uniforms = rng.random(n)
    state = 0
    for i in range(1, n + 1):
        if uniforms[i - 1] <= q[state]:
            state += 1
        else:
            state = 0
        zeta[i] = state
    xi = (zeta == 0).astype(np.uint8)
    return BinaryPath(xi=xi, zeta=zeta)
