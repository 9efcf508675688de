"""Seeded Monte Carlo for connectivity, relay propagation, and couplings.

Reproducibility contract: replicates are processed in fixed-size chunks,
and chunk c draws from ``default_rng(SeedSequence([seed, c]))``, so a
report is a pure function of (seed, config, reps) regardless of
scheduling.  Connectivity and relay chunks (layouts ``conn-v2`` and
``dual-v2``) read their uniforms in site order: one row of radius uniforms
for site 0, then a row of mark uniforms and a row of radius uniforms for
each site s = 1, 2, ...  A site's rows therefore do not depend on how far
the path goes, and one walk to the largest requested n gives the indicator
at every smaller n, exactly as a walk that stops there; the two layouts
read the same uniforms, so one walk also gives both targets (``verify``).
Radii are realized through the model's inverse CDF on their own uniforms,
which makes stochastic dominance between radius models hold pathwise
under a shared seed.  Coupling chunks (``coupling-v1``) draw one uniform per step
and replicate, step-major.

The kernels keep one value per replicate of a chunk in each state row, so
each site of a path is a few in-place ufuncs on contiguous rows.  The
walk's radius, reach and relay rows hold unsigned integers of the
narrowest type that holds 2 max(n), which is exact because radii are
capped at max(n); a layout id says nothing of that type.  The mark chain's
row is its height, or for a two-state law (ConstantQ, MarkovQ) one climb
flag, read off the same uniforms with the same bits.  How many
sites or steps one rng call draws is not part of the stream.  Chunks may
run concurrently, on one thread pool per process sized to the CPUs it may
use; a chunk writes only its own replicates, so no report depends on it.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_at_least, check_int
from .radius import RadiusModel
from .renewal import QSequence, _two_state

CHUNK = 8192
_STEP_BLOCK = 8  # coupling steps drawn per rng call; not part of the stream
_SITE_TILE = 8  # sites drawn per rng call; not part of the stream
# below this many replicate-rows a call runs inline: its chunks hand the
# interpreter lock back and forth more than their numpy calls overlap
_THREAD_MIN = 1 << 22
# the CPUs this process may run on (no sched_getaffinity on macOS or Windows)
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_LAYOUTS = {"connectivity": f"conn-v2/chunk={CHUNK}", "dual": f"dual-v2/chunk={CHUNK}"}

_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple:
    """Wilson score interval for a binomial proportion (robust near 0/1)."""
    trials, successes = check_at_least("trials", trials, 1), check_int("successes", successes)
    if not 0 <= successes <= trials:
        raise ValidationError(f"successes must lie in 0..{trials}, got {successes}")
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


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, chunk_index]))


@functools.cache
def _executor() -> ThreadPoolExecutor:
    """The process's thread pool for chunks past a caller's own, made on first use."""
    return ThreadPoolExecutor(_CPUS - 1, thread_name_prefix="renewperc-mc")


if hasattr(os, "register_at_fork"):  # a forked child inherits the pool but none of its threads
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _in_chunks(reps: int, rows: int, kernel, buffers) -> None:
    """Run ``kernel(ci, size, *bufs)`` on every chunk of ``reps`` replicates of ``rows`` rows.

    Worker w of W = min(CPUs, chunks) runs chunks w, w + W, ... with one
    ``bufs = buffers()``; worker 0 is the calling thread, the rest use the
    thread pool, and W = 1 below _THREAD_MIN replicate-rows.  A kernel reads
    only its chunk's generator and writes only its chunk's replicates, so
    the result does not depend on W.
    """
    chunks = [(c // CHUNK, min(CHUNK, reps - c)) for c in range(0, reps, CHUNK)]
    workers = min(_CPUS, len(chunks)) if rows * reps >= _THREAD_MIN else 1

    def run(w, bufs):
        for ci, size in chunks[w::workers]:
            kernel(ci, size, *bufs)

    futures = [_executor().submit(run, w, buffers()) for w in range(1, workers)]
    try:
        run(0, buffers())
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _climber(spec: QSequence, length: int) -> tuple:
    """``(climb, row_types)``: ``climb(u, climbs, tmp, *rows)`` turns the last climbs into the next.

    ``tmp`` is a free bool row.  A two-state law (see ``_two_state``) climbs
    with q_0 from height 0 and with q_1 above it, so a site climbs iff
    u <= lo, or u <= hi and the last site selects hi: it climbed when
    q_0 <= q_1, it did not otherwise (on bools a > b is a and not b).  Any
    other law keeps two ``rows`` of these types: each chain's height, below
    ``length``, and its q.
    """
    lumped = _two_state(spec)
    if lumped is None:
        qtab = spec.q_array(length)

        def climb(u, climbs, tmp, z, q):
            qtab.take(z, out=q, mode="clip")
            np.less_equal(u, q, out=climbs)
            z += 1
            z *= climbs

        return climb, (np.intp, float)
    (lo, hi), join = sorted(lumped), np.logical_and if lumped[0] <= lumped[1] else np.greater

    def climb(u, climbs, tmp):
        if lo < hi:
            join(np.less_equal(u, hi, out=tmp), climbs, out=climbs)
            climbs |= np.less_equal(u, lo, out=tmp)
        else:
            np.less_equal(u, lo, out=climbs)

    return climb, ()


def _walk(spec: QSequence, model: RadiusModel, ns, reps: int, seed: int, targets) -> np.ndarray:
    """Indicators ``out[t, i]`` of target t at site ``ns[i]``, from one walk to max(ns).

    ``targets`` lists "connectivity", "dual" or both.  Site s is marked when
    its mark uniform exceeds q at the chain's height (see ``_climber``);
    each target updates its own state from the one draw of marks and radii.

    Connectivity keeps ``reach``, the furthest endpoint s + R_s of the
    intervals opened at covered marked sites; site s is covered when
    ``reach >= s`` on entry.  Each step adds ``R_s * hit_s + s``, with hit_s
    "covered and marked": any other site gives s, which cannot raise a
    reach that covered it.  So a gap at s stops the reach below s for
    good, and {0 <-> n}, every site up to n covered and site n marked, is
    hit_n.  The relay ("dual") keeps ``last``, the last informed site,
    from 0; site i is informed when it is marked and its own radius
    reaches back to ``last``, i.e. when ``last + R_i * mark_i >= i``, and
    {Y_n = 1} is site n informed.

    Radii are capped at N = max(ns).  No check at a site n <= N tells a
    radius of N from a longer one, and the cap keeps ``inf * 0`` (an
    unmarked infinite radius) finite, so the row of each n is exactly the
    indicator of a walk that stops at n.  The cap also makes the rows
    integers: a capped radius cast to an integer type (a floor, as radii
    are nonnegative) meets every integer threshold that it met as a
    float, and a reach s + R_s or a sum last + R_i stays at most 2N, so
    rows of ``np.min_scalar_type(2 * N)`` hold every value exactly.
    """
    ns = [check_int("n", n) for n in ns]
    reps, seed = check_at_least("reps", reps, 1), check_at_least("seed", seed, 0)
    if not ns:
        raise ValidationError("at least one site index is needed")
    if min(ns) < 0:
        raise ValidationError("site index must be nonnegative")
    if not targets or len(set(targets)) < len(targets) or not set(targets) <= _LAYOUTS.keys():
        raise ValidationError(f"targets must be distinct names of {sorted(_LAYOUTS)}, got {targets!r}")
    out = np.ones((len(targets), len(ns), reps), dtype=bool)
    top = max(ns)
    if top == 0:
        return out
    rows_at = {n: [row for row, m in enumerate(ns) if m == n] for n in ns}
    climber, row_types = _climber(spec, top + 1)  # heights stay below top
    width, ints = min(reps, CHUNK), np.min_scalar_type(2 * top)

    def buffers():  # uniforms; tip and each target's state; two bool rows; the climber's rows
        return (np.empty(min(top, _SITE_TILE) * 2 * width), np.empty((1 + len(targets), width), ints),
                np.empty((2, width), dtype=bool), *(np.empty(width, dtype=t) for t in row_types))

    def chunk(ci, size, tile, int_rows, flags, *rows):
        rng = _chunk_rng(seed, ci)
        tip, *states = int_rows[:, :size]  # a state is the reach or the relay's last
        climb, hit = flags[:, :size]
        rows = [a[:size] for a in rows]
        walks = list(zip(targets, states, out[:, :, ci * CHUNK : ci * CHUNK + size]))
        rng.random(out=tile[:size])  # site 0's radii, which only connectivity reads
        for target, state, _ in walks:
            if target == "connectivity":
                np.minimum(model.quantile(tile[:size]), top, out=state, casting="unsafe")
            else:
                state.fill(0)
        climb.fill(False)  # site 0 is marked: its chain is at height 0
        if rows:  # the heights
            rows[0].fill(0)
        for first in range(1, top + 1, _SITE_TILE):
            block = tile[: min(_SITE_TILE, top + 1 - first) * 2 * size].reshape(-1, 2, size)
            rng.random(out=block)
            radii = block[:, 1].view(ints)[:, :size]  # the capped radii overwrite their uniforms
            np.minimum(model.quantile(block[:, 1]), top, out=radii, casting="unsafe")
            for s, uniforms, radius in zip(range(first, top + 1), block[:, 0], radii):
                climber(uniforms, climb, hit, *rows)
                for target, state, hits in walks:  # hit > climb: hit and site s marked
                    if target == "connectivity":
                        np.greater(np.greater_equal(state, s, out=hit), climb, out=hit)
                        np.multiply(radius, hit, out=tip)
                        tip += s
                    else:
                        np.greater_equal(np.add(radius, state, out=tip), s, out=hit)
                        np.greater(hit, climb, out=hit)
                        np.copyto(tip, hit)
                        tip *= s
                    np.maximum(state, tip, out=state)
                    if s in rows_at:
                        hits[rows_at[s]] = hit

    _in_chunks(reps, top, chunk, buffers)
    return out


def connectivity_successes(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> np.ndarray:
    """Per-replicate success indicators of the event {0 <-> n} (see ``_walk``)."""
    return _walk(spec, model, [n], reps, seed, ("connectivity",))[0, 0]


def dual_successes(
    spec: QSequence, model: RadiusModel, n: int, reps: int, seed: int
) -> np.ndarray:
    """Per-replicate indicators of {Y_n = 1} under the relay gap rule (see ``_walk``)."""
    return _walk(spec, model, [n], reps, seed, ("dual",))[0, 0]


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


def _sim_reports(targets, spec: QSequence, model: RadiusModel, ns, reps: int, seed: int) -> list:
    """One report per target of ``targets`` and site of ``ns``, target-major, from one walk.

    The reports share their paths: each equals the one-site report of its
    target at its n, and any two estimates are correlated.
    """
    successes = _walk(spec, model, ns, reps, seed, targets)
    return [_report(t, n, row, seed) for t, rows in zip(targets, successes) for n, row in zip(ns, rows)]


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
    its own height, see ``_climber``), so chains that meet stay merged.  Returns 0 for
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
    horizon, reps = check_at_least("horizon", horizon, 1), check_at_least("reps", reps, 1)
    seed = check_at_least("seed", seed, 0)
    climber, row_types = _climber(spec, horizon + max(delays) + 1)
    out = np.zeros(reps, dtype=np.int64)
    width = min(reps, CHUNK)
    start = np.array(delays, dtype=np.intp)[:, None]
    chains = len(delays) * width

    def buffers():  # steps, climbs of every chain, two flag rows, then the climber's rows
        return (np.empty(min(horizon, _STEP_BLOCK) * width), np.empty(chains, dtype=bool),
                np.empty((2, width), dtype=bool), *(np.empty(chains, dtype=t) for t in row_types))

    def chunk(ci, size, steps, climbs, flags, *rows):
        rng = _chunk_rng(seed, ci)
        tau = out[ci * CHUNK : ci * CHUNK + size]
        climb, *rows = (a[: len(delays) * size].reshape(-1, size) for a in (climbs, *rows))
        fresh, done = flags[:, :size]
        np.greater(start, 0, out=climb)  # a chain above height 0 did not just renew
        if rows:  # the heights
            np.copyto(rows[0], start)
        done.fill(False)
        for step in range(1, horizon + 1):
            row = (step - 1) % _STEP_BLOCK
            if row == 0:
                block = steps[: min(_STEP_BLOCK, horizon + 1 - step) * size].reshape(-1, size)
                rng.random(out=block)
            climber(block[row], climb, fresh, *rows)  # fresh is free until the reduce
            np.logical_or.reduce(climb, axis=0, out=fresh)
            fresh |= done
            np.logical_not(fresh, out=fresh)
            tau[fresh] = step
            done |= fresh
            if done.all():
                break

    _in_chunks(reps, horizon * len(delays), chunk, buffers)
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
