"""Seeded Monte Carlo for connectivity, relay propagation, and couplings.

Reproducibility contract: replicates are processed in fixed-size chunks;
chunk c draws from ``default_rng(SeedSequence([seed, c]))`` with a fixed
block layout (mark uniforms first, then radius uniforms), so a report is
a pure function of (seed, config, reps) regardless of scheduling.  Radii
are realized through the model's inverse CDF on the dedicated uniform
block, which makes stochastic dominance between radius models hold
pathwise under a shared seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_int
from .radius import RadiusModel
from .renewal import QSequence

CHUNK = 8192

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple:
    """Wilson score interval for a binomial proportion (robust near 0/1)."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
    # clamp against floating rounding so the interval always contains phat
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


@dataclass(frozen=True)
class SimReport:
    """Point estimate of a scalar probability target."""

    target: str
    n: int
    reps: int
    estimate: float
    stderr: float
    wilson_low: float
    wilson_high: float
    seed: int
    layout: str


@dataclass(frozen=True)
class CouplingReport:
    """Survival curve of a coalescence time over a j-grid.

    ``survival[j-1]`` estimates P(coalescence time >= j).  The constant
    ``coalescence_sum_sq`` is (sum_{j=1..k} survival_j)^2 with k the
    largest delay, the empirical counterpart of the C_k bound.
    """

    target: str
    delays: tuple
    reps: int
    horizon: int
    j_grid: tuple
    survival: np.ndarray
    stderr: np.ndarray
    wilson_low: np.ndarray
    wilson_high: np.ndarray
    coalescence_sum_sq: float
    seed: int
    layout: str


def _chunks(reps: int):
    for c in range(0, reps, CHUNK):
        yield c // CHUNK, min(CHUNK, reps - c)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))


def connectivity_successes(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> np.ndarray:
    """Per-replicate success indicators of the event {0 <-> n}.

    One pass per replicate: evolve the house-of-cards chain, track the
    frontier excess (furthest interval endpoint minus current site), and
    require the excess to stay >= 1 at every site entered.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if n < 0:
        raise ValidationError("site index must be nonnegative")
    qtab = spec.q_array(n + 1)
    out = np.empty(reps, dtype=bool)
    for ci, size in _chunks(reps):
        rng = _chunk_rng(seed, ci)
        u_xi = rng.random((size, n))
        u_rad = rng.random((size, n + 1))
        radii = np.asarray(model.quantile(u_rad), dtype=float)
        if n == 0:
            out[ci * CHUNK : ci * CHUNK + size] = True
            continue
        zeta = np.zeros(size, dtype=np.int64)
        excess = radii[:, 0].copy()
        alive = np.ones(size, dtype=bool)
        for s in range(1, n + 1):
            alive &= excess >= 1.0
            climb = u_xi[:, s - 1] <= qtab[zeta]
            zeta = np.where(climb, zeta + 1, 0)
            excess = np.where(~climb, np.maximum(excess - 1.0, radii[:, s]), excess - 1.0)
        out[ci * CHUNK : ci * CHUNK + size] = alive & (zeta == 0)
    return out


def dual_successes(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> np.ndarray:
    """Per-replicate indicators of {Y_n = 1} under the relay gap rule."""
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if n < 0:
        raise ValidationError("site index must be nonnegative")
    qtab = spec.q_array(n + 1)
    out = np.empty(reps, dtype=bool)
    for ci, size in _chunks(reps):
        rng = _chunk_rng(seed, ci)
        u_xi = rng.random((size, n))
        u_rad = rng.random((size, n))
        if n == 0:
            out[ci * CHUNK : ci * CHUNK + size] = True
            continue
        radii = np.asarray(model.quantile(u_rad), dtype=float)
        zeta = np.zeros(size, dtype=np.int64)
        last = np.zeros(size, dtype=np.int64)
        for i in range(1, n + 1):
            climb = u_xi[:, i - 1] <= qtab[zeta]
            zeta = np.where(climb, zeta + 1, 0)
            informed = (~climb) & (radii[:, i - 1] >= (i - last))
            last = np.where(informed, i, last)
        out[ci * CHUNK : ci * CHUNK + size] = last == n
    return out


def _report(target: str, n: int, successes: np.ndarray, seed: int, layout: str) -> SimReport:
    reps = successes.size
    k = int(successes.sum())
    phat = k / reps
    lo, hi = wilson_interval(k, reps)
    return SimReport(
        target=target,
        n=n,
        reps=reps,
        estimate=phat,
        stderr=math.sqrt(phat * (1.0 - phat) / reps),
        wilson_low=lo,
        wilson_high=hi,
        seed=seed,
        layout=layout,
    )


def simulate_connectivity(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> SimReport:
    """Unbiased estimate of P(0 <-> n) with Wilson 95% uncertainty."""
    successes = connectivity_successes(spec, model, n, reps, seed)
    return _report("connectivity", n, successes, seed, f"conn-v1/chunk={CHUNK}")


def simulate_dual(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> SimReport:
    """Unbiased estimate of P(Y_n = 1) with Wilson 95% uncertainty."""
    successes = dual_successes(spec, model, n, reps, seed)
    return _report("dual", n, successes, seed, f"dual-v1/chunk={CHUNK}")


def coalescence_times(
    spec: QSequence, delays, horizon: int, reps: int, seed: int
) -> np.ndarray:
    """First time all chains started at the given delays renew together.

    All chains share one uniform per step (chain d climbs iff U <= q at
    its own height), so chains that meet stay merged.  Returns 0 for
    replicates still uncoalesced at the horizon (censored).
    """
    delays = tuple(check_int("delays", d) for d in delays)
    if len(delays) == 0:
        raise ValidationError("delays must be nonempty")
    if any(d < 0 for d in delays):
        raise ValidationError("delays must be nonnegative")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    qtab = spec.q_array(horizon + max(delays) + 1)
    out = np.empty(reps, dtype=np.int64)
    for ci, size in _chunks(reps):
        rng = _chunk_rng(seed, ci)
        Z = np.tile(np.array(delays, dtype=np.int64), (size, 1))
        tau = np.zeros(size, dtype=np.int64)
        for step in range(1, horizon + 1):
            u = rng.random(size)
            climb = u[:, None] <= qtab[Z]
            Z = np.where(climb, Z + 1, 0)
            fresh = (~climb.any(axis=1)) & (tau == 0)
            tau[fresh] = step
        out[ci * CHUNK : ci * CHUNK + size] = tau
    return out


def simulate_coupling(
    spec: QSequence, delays, horizon: int, reps: int, seed: int
) -> CouplingReport:
    """Survival curve of the coalescence time of delayed chains.

    With delays {0, l} this is the pairwise coalescence time; with delays
    {0..k} it is the joint time whose squared partial survival sum the
    constant C_k dominates.
    """
    delays = tuple(check_int("delays", d) for d in delays)
    taus = coalescence_times(spec, delays, horizon, reps, seed)
    j_grid = tuple(range(1, horizon + 1))
    censored = taus == 0
    survival = np.empty(len(j_grid))
    lo = np.empty_like(survival)
    hi = np.empty_like(survival)
    se = np.empty_like(survival)
    for idx, j in enumerate(j_grid):
        k = int((censored | (taus >= j)).sum())
        survival[idx] = k / reps
        se[idx] = math.sqrt(survival[idx] * (1.0 - survival[idx]) / reps)
        lo[idx], hi[idx] = wilson_interval(k, reps)
    kmax = max(delays)
    window = survival[: min(kmax, horizon)]
    sum_sq = float(window.sum()) ** 2 if kmax >= 1 else 0.0
    return CouplingReport(
        target="tau" if len(delays) == 2 else "Tk",
        delays=delays,
        reps=reps,
        horizon=horizon,
        j_grid=j_grid,
        survival=survival,
        stderr=se,
        wilson_low=lo,
        wilson_high=hi,
        coalescence_sum_sq=sum_sq,
        seed=seed,
        layout=f"coupling-v1/chunk={CHUNK}",
    )
