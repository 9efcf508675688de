"""Seeded Monte Carlo for connectivity, relay propagation, and couplings.

Reproducibility contract: replicates are processed in fixed-size chunks;
chunk c draws from ``default_rng(SeedSequence([seed, c]))`` with a fixed
block layout (mark uniforms first, then radius uniforms), so a report is
a pure function of (seed, config, reps) regardless of scheduling.  Radii
are realized through the model's inverse CDF on the dedicated uniform
block, which makes stochastic dominance between radius models hold
pathwise under a shared seed.

The kernels read that stream into buffers allocated once per call and
walk it site-major, ``(sites, replicates)``, so each step of a path is a
few in-place ufuncs on contiguous rows.  The layout ids (``conn-v1``,
``dual-v1``, ``coupling-v1``) name the stream, not the memory layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_int
from .radius import RadiusModel
from .renewal import QSequence

CHUNK = 8192
_STEP_BLOCK = 64  # coupling steps drawn per rng call
_TILE = 512  # replicates drawn and transposed at a time

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


def _site_major_chunks(model: RadiusModel, seed: int, reps: int, n: int, n_rad: int):
    """Yield ``(rows, marks, radii)`` for every chunk, site-major.

    The draws read the stream of ``rng.random((size, n))`` and then
    ``rng.random((size, n_rad))``: consecutive fills of _TILE replicates
    give the same numbers, and each tile is transposed into ``marks``, or
    through the quantile and the cap into ``radii``, before the next is
    drawn.  Row s of ``marks`` holds the mark uniforms of site s + 1 and
    row s of ``radii`` the radii of the s-th radius column; the next chunk
    overwrites both.  Radii are capped at n: no check on a path of n sites
    tells a radius of n from a longer one, and the cap keeps ``inf * 0`` (an
    unmarked infinite radius) finite.
    """
    width = min(reps, CHUNK)
    tile = np.empty(min(width, _TILE) * max(n, n_rad))
    marks = np.empty((n, width))
    radii = np.empty((n_rad, width))
    for ci, size in _chunks(reps):
        rng = _chunk_rng(seed, ci)
        for r in range(0, size, _TILE):
            block = tile[: min(_TILE, size - r) * n].reshape(-1, n)
            rng.random(out=block)
            marks[:, r : r + len(block)] = block.T
        for r in range(0, size, _TILE):
            block = tile[: min(_TILE, size - r) * n_rad].reshape(-1, n_rad)
            rng.random(out=block)
            quantiles = np.asarray(model.quantile(block), dtype=float)
            np.minimum(quantiles.T, n, out=radii[:, r : r + len(block)])
        yield slice(ci * CHUNK, ci * CHUNK + size), marks[:, :size], radii[:, :size]


def _renewals(qtab: np.ndarray, marks: np.ndarray):
    """Yield, site by site, which replicates' house-of-cards chain renews.

    ``marks`` holds the mark uniforms site-major; the chain at height
    zeta climbs when its uniform is <= q_zeta and renews (drops to 0, the
    site is marked) otherwise.  The yielded vector is overwritten by the
    next step.
    """
    size = marks.shape[1]
    zeta = np.zeros(size, dtype=np.intp)
    qz = np.empty(size)
    climb = np.empty(size, dtype=bool)
    mark = np.empty(size, dtype=bool)
    for row in marks:
        qtab.take(zeta, out=qz)
        np.less_equal(row, qz, out=climb)
        zeta += 1
        zeta *= climb
        yield np.logical_not(climb, out=mark)


def connectivity_successes(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> np.ndarray:
    """Per-replicate success indicators of the event {0 <-> n}.

    Walk the path across a chunk and keep ``reach``, the furthest endpoint
    s + R_s of the intervals opened so far; site s is covered when
    ``reach >= s`` on entry, and the event needs every site covered and
    site n marked.  Each step adds ``R_s * mark_s + s``: an unmarked site
    gives s, which cannot raise a reach that covered it, and the radius
    cap at n keeps ``R_s * 0`` finite for an infinite radius.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if n < 0:
        raise ValidationError("site index must be nonnegative")
    out = np.ones(reps, dtype=bool)
    if n == 0:
        return out
    qtab = spec.q_array(n + 1)
    for rows, marks, radii in _site_major_chunks(model, seed, reps, n, n + 1):
        size = marks.shape[1]
        reach = radii[0].copy()
        alive = np.ones(size, dtype=bool)
        covered = np.empty(size, dtype=bool)
        tip = np.empty(size)
        for s, mark in enumerate(_renewals(qtab, marks), start=1):
            alive &= np.greater_equal(reach, s, out=covered)
            np.multiply(radii[s], mark, out=tip)
            tip += s
            np.maximum(reach, tip, out=reach)
        np.logical_and(alive, mark, out=out[rows])
    return out


def dual_successes(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> np.ndarray:
    """Per-replicate indicators of {Y_n = 1} under the relay gap rule.

    ``last`` is the last informed site; site i is informed when it is
    marked and its radius reaches back to ``last``, i.e. when
    ``last + R * mark_i >= i``, and then ``last = max(last, i * informed)``.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if n < 0:
        raise ValidationError("site index must be nonnegative")
    out = np.ones(reps, dtype=bool)
    if n == 0:
        return out
    qtab = spec.q_array(n + 1)
    for rows, marks, radii in _site_major_chunks(model, seed, reps, n, n):
        size = marks.shape[1]
        last = np.zeros(size)
        informed = np.empty(size, dtype=bool)
        tip = np.empty(size)
        for i, mark in enumerate(_renewals(qtab, marks), start=1):
            np.multiply(radii[i - 1], mark, out=tip)
            tip += last
            np.greater_equal(tip, i, out=informed)
            np.multiply(informed, i, out=tip)
            np.maximum(last, tip, out=last)
        np.equal(last, n, out=out[rows])
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
    replicates still uncoalesced at the horizon (censored).  Chains are
    stored delay-major, ``(delays, replicates)``; a chunk stops drawing
    once all its replicates have coalesced, since the rest of its stream
    cannot change tau.
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
    out = np.zeros(reps, dtype=np.int64)
    width = min(reps, CHUNK)
    steps = np.empty(min(horizon, _STEP_BLOCK) * width)
    start = np.array(delays, dtype=np.intp)[:, None]
    for ci, size in _chunks(reps):
        rng = _chunk_rng(seed, ci)
        tau = out[ci * CHUNK : ci * CHUNK + size]
        Z = np.repeat(start, size, axis=1)
        qz = np.empty(Z.shape)
        climb = np.empty(Z.shape, dtype=bool)
        fresh = np.empty(size, dtype=bool)
        done = np.zeros(size, dtype=bool)
        for step in range(1, horizon + 1):
            row = (step - 1) % _STEP_BLOCK
            if row == 0:
                block = steps[: min(_STEP_BLOCK, horizon + 1 - step) * size].reshape(-1, size)
                rng.random(out=block)
            qtab.take(Z, out=qz)
            np.less_equal(block[row], qz, out=climb)
            Z += 1
            Z *= climb
            np.logical_or.reduce(climb, axis=0, out=fresh)
            fresh |= done
            np.logical_not(fresh, out=fresh)
            tau[fresh] = step
            done |= fresh
            if done.all():
                break
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
    counts = np.bincount(taus, minlength=horizon + 1)
    # censored replicates (tau = 0) survive every j; the rest survive j <= tau
    at_least = counts[0] + np.cumsum(counts[:0:-1])[::-1]
    survival = np.empty(len(j_grid))
    lo = np.empty_like(survival)
    hi = np.empty_like(survival)
    se = np.empty_like(survival)
    for idx, k in enumerate(at_least.tolist()):
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
