"""Seeded Monte Carlo for connectivity, relay propagation, and couplings.

Reproducibility contract: replicates are processed in fixed-size chunks,
and chunk c draws from ``default_rng(SeedSequence([seed, c]))``, so a
report is a pure function of (seed, config, reps) regardless of
scheduling.  Connectivity and relay chunks (layouts ``conn-v2`` and
``dual-v2``) read their uniforms in site order: one row of radius uniforms
for site 0, then a row of mark uniforms and a row of radius uniforms for
each site s = 1, 2, ...  A site's rows therefore do not depend on how far
the path goes, and one walk to the largest requested n gives the indicator
at every smaller n, exactly as a walk that stops there.  Radii are
realized through the model's inverse CDF on their own uniforms, which
makes stochastic dominance between radius models hold pathwise under a
shared seed.  Coupling chunks (``coupling-v1``) draw one uniform per step
and replicate, step-major.

The kernels keep one value per replicate of a chunk in each state row, so
each site of a path is a few in-place ufuncs on contiguous rows.  How many
sites or steps one rng call draws is not part of the stream.
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
_SITE_TILE = 8  # sites drawn per rng call; not part of the stream
_LAYOUTS = {"connectivity": f"conn-v2/chunk={CHUNK}", "dual": f"dual-v2/chunk={CHUNK}"}

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


def _site_rows(spec: QSequence, model: RadiusModel, top: int, reps: int, seed: int):
    """Yield ``(cols, s, mark, radius)`` for s = 0..top of every chunk, in stream order.

    Chunk c draws from its own generator one row of ``size`` radius
    uniforms for site 0, then, for s = 1, 2, ..., a row of mark uniforms
    and a row of radius uniforms for site s.  The rows are drawn _SITE_TILE
    sites at a time into one reused ``(sites, 2, size)`` buffer, and the
    radius rows go through the quantile and the cap at ``top`` in place.
    ``cols`` is the chunk's slice of replicates, ``radius`` site s's capped
    radii, and ``mark`` whether the house-of-cards chain renews at s (None
    at site 0, which is always marked): at height zeta the chain climbs
    when its uniform is <= q_zeta and renews to 0 otherwise.  The rows are
    overwritten after the next yield.  A site's rows do not depend on
    ``top``, so every walk reads the same rows at the sites it shares.
    """
    qtab = spec.q_array(top + 1)
    width = min(reps, CHUNK)
    tile = np.empty(min(top, _SITE_TILE) * 2 * width)
    zeta = np.empty(width, dtype=np.intp)
    qz = np.empty(width)
    climb = np.empty(width, dtype=bool)
    mark = np.empty(width, dtype=bool)
    for ci, size in _chunks(reps):
        rng = _chunk_rng(seed, ci)
        cols = slice(ci * CHUNK, ci * CHUNK + size)
        radius = tile[:size]
        rng.random(out=radius)
        np.minimum(model.quantile(radius), top, out=radius)
        yield cols, 0, None, radius
        z, q, c, m = zeta[:size], qz[:size], climb[:size], mark[:size]
        z.fill(0)
        for first in range(1, top + 1, _SITE_TILE):
            block = tile[: min(_SITE_TILE, top + 1 - first) * 2 * size].reshape(-1, 2, size)
            rng.random(out=block)
            radii = block[:, 1]
            np.minimum(model.quantile(radii), top, out=radii)
            # heights stay below top, inside the table
            for s, (uniforms, radius) in enumerate(block, start=first):
                qtab.take(z, out=q, mode="clip")
                np.less_equal(uniforms, q, out=c)
                z += 1
                z *= c
                yield cols, s, np.logical_not(c, out=m), radius


def _walk(spec: QSequence, model: RadiusModel, ns, reps: int, seed: int, relay: bool) -> np.ndarray:
    """Indicators at every site of ``ns``, one row each, from one walk to max(ns).

    Connectivity keeps ``reach``, the furthest endpoint s + R_s of the
    intervals opened so far; site s is covered when ``reach >= s`` on
    entry, and {0 <-> n} needs every site up to n covered and site n
    marked.  Each step adds ``R_s * mark_s + s``: an unmarked site gives s,
    which cannot raise a reach that covered it.  The relay (``relay=True``)
    keeps ``last``, the last informed site; site i is informed when it is
    marked and its own radius reaches back to ``last``, i.e. when
    ``last + R_i * mark_i >= i``, and {Y_n = 1} is site n informed.

    Radii are capped at N = max(ns).  No check at a site n <= N tells a
    radius of N from a longer one, and the cap keeps ``inf * 0`` (an
    unmarked infinite radius) finite, so the row of each n is exactly the
    indicator of a walk that stops at n.
    """
    ns = list(ns)
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if not ns:
        raise ValidationError("at least one site index is needed")
    if min(ns) < 0:
        raise ValidationError("site index must be nonnegative")
    out = np.ones((len(ns), reps), dtype=bool)
    top = max(ns)
    if top == 0:
        return out
    targets: dict = {}
    for row, n in enumerate(ns):
        targets.setdefault(n, []).append(row)
    for cols, s, mark, radius in _site_rows(spec, model, top, reps, seed):
        if s == 0:
            size = radius.size
            state = np.zeros(size) if relay else radius.copy()  # last or reach
            alive = np.ones(size, dtype=bool)
            hit = np.empty(size, dtype=bool)
            tip = np.empty(size)
            continue
        np.multiply(radius, mark, out=tip)
        if relay:
            tip += state
            np.greater_equal(tip, s, out=hit)
            np.multiply(hit, s, out=tip)
        else:
            alive &= np.greater_equal(state, s, out=hit)
            tip += s
        np.maximum(state, tip, out=state)
        if s in targets:
            if not relay:
                np.logical_and(alive, mark, out=hit)
            for row in targets[s]:
                out[row, cols] = hit
    return out


def connectivity_successes(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> np.ndarray:
    """Per-replicate success indicators of the event {0 <-> n} (see ``_walk``)."""
    return _walk(spec, model, [n], reps, seed, relay=False)[0]


def dual_successes(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> np.ndarray:
    """Per-replicate indicators of {Y_n = 1} under the relay gap rule (see ``_walk``)."""
    return _walk(spec, model, [n], reps, seed, relay=True)[0]


def _report(target: str, n: int, successes: np.ndarray, seed: int) -> SimReport:
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
        layout=_LAYOUTS[target],
    )


def _sim_reports(target: str, spec: QSequence, model: RadiusModel, ns, reps: int, seed: int) -> list:
    """One report per site of ``ns`` (``target`` "connectivity" or "dual"), from one walk.

    The reports share their paths: each equals the one-site report at its
    n, and estimates at different n are correlated.
    """
    successes = _walk(spec, model, ns, reps, seed, relay=target == "dual")
    return [_report(target, n, row, seed) for n, row in zip(ns, successes)]


def simulate_connectivity(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> SimReport:
    """Unbiased estimate of P(0 <-> n) with Wilson 95% uncertainty."""
    return _report("connectivity", n, connectivity_successes(spec, model, n, reps, seed), seed)


def simulate_dual(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> SimReport:
    """Unbiased estimate of P(Y_n = 1) with Wilson 95% uncertainty."""
    return _report("dual", n, dual_successes(spec, model, n, reps, seed), seed)


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
