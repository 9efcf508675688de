"""Exhaustive enumeration oracles for tiny instances.

Ground truth against the exact engine and the simulator.  The code here
deliberately shares no arithmetic kernels with the engine, only the laws,
which each enumeration reads once through ``q_array``, ``alpha_array`` and
``pmf_array``: path probabilities come from a walk of the house-of-cards
chain over those q values, the coverage test unions intervals site by
site, and the relay test applies the gap rule directly.  Radii are
enumerated only at marked sites (they are irrelevant elsewhere) and only
through their endpoint truncated at the last site that can matter, with
the truncated outcome carrying the aggregated tail probability; both
reductions are exact.

The connectivity and relay oracles hold the (mark vector, radius
assignment) pairs as dense arrays with one axis per enumerated site, whose
choices are "unmarked" (factor 1.0, state unchanged) and the site's radius
outcomes.  So each pair carries the weight and state of a per-assignment
loop: P(marks) from one walk over all mark vectors (the products of
``_path_probability``) times the outcome probabilities in site order, and
the coverage union as a literal OR of interval bit sets (radius r at site
s sets bits s+1..s+r).  The hit weights are put in ``itertools.product``
order (by vector; within one vector the dense order is that order) and
summed by a sequential ``cumsum``, so every value equals the loop's.
After each site's axis the pairs that can no longer hit are dropped, in
order, with their weights: a cover whose bit s+1 is still clear after
site s (no later interval opens it), a relay whose last informed site is
below s+1 minus the radius support bound (no later site reaches back to
it).  The hits, their weights and their order stay the same.  Blocks fix
the leading mark bits and hold at most ``_BLOCK`` pairs unless one vector
has more: site s allows at most n-s+1 (coverage) or s+1 (relay) outcomes,
so a vector has at most (n+1)! = 362,880 for n <= 8.  The cap is charged
from the full outcome counts before any array is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationCapError, UnboundedRadiusError, ValidationError, check_at_least
from .radius import FiniteTableRadius, RadiusModel
from .renewal import ConstantQ, MarkovQ, PolynomialMonotoneQ, QSequence, TableQ

_GF_SITE_LIMIT = 12
_SITE_LIMIT = 8
_BLOCK = 1 << 15  # (mark vector, radius assignment) pairs per block, unless one vector has more


@dataclass(frozen=True)
class TinyConfig:
    """A problem instance small enough for exhaustive enumeration."""

    spec: QSequence
    model: RadiusModel
    n: int
    cap: int = 10**8

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_at_least("n", self.n, 0))
        object.__setattr__(self, "cap", check_at_least("cap", self.cap, 0))


def _path_probability(qs: list, bits) -> float:
    """P(xi_1..xi_k = bits | xi_0 = 1) by walking the chain; qs holds q_0..q_{k-1}."""
    prob = 1.0
    state = 0
    for b in bits:
        q = qs[state]
        if b:
            prob *= 1.0 - q
            state = 0
        else:
            prob *= q
            state += 1
    return prob


def enumerate_gf(cfg: TinyConfig) -> np.ndarray:
    """S_0..S_n as the full sum over all 2^k mark vectors per term."""
    n = cfg.n
    if n > _GF_SITE_LIMIT:
        raise ValidationError(f"series enumeration is limited to n <= {_GF_SITE_LIMIT}")
    if 2 ** (n + 1) > cfg.cap:
        raise EnumerationCapError(f"2^{n + 1} terms exceed the cap {cfg.cap}")
    qs = cfg.spec.q_array(n).tolist()
    alph = cfg.model.alpha_array(n).tolist()
    S = np.empty(n + 1)
    S[0] = 1.0
    for k in range(1, n + 1):
        total = 0.0
        for bits in itertools.product((0, 1), repeat=k):
            term = _path_probability(qs, bits)
            for i, b in enumerate(bits):
                if b:
                    term *= alph[i]
            total += term
        S[k] = total
    return S


def _check_support(cfg: TinyConfig) -> int:
    if cfg.n > _SITE_LIMIT:
        raise ValidationError(f"enumeration is limited to n <= {_SITE_LIMIT}")
    m = cfg.model.support_bound
    if m is None:
        raise UnboundedRadiusError("enumeration needs bounded radius support")
    return m


def _enumerate(cfg: TinyConfig, truncations: dict, idle: int, step, live, hit) -> float:
    """Sum P(marks, radii) over the assignments whose final state is a hit.

    ``truncations`` maps each enumerated site, in site order, to the value
    at which its radius is truncated.  Sites 1..n-1 may be unmarked; the
    others are always marked.  Each site is one axis of a dense array
    whose choices are "unmarked" (factor 1.0, radius ``idle``) and its
    radius outcomes.  A leaf's weight is its vector's P(marks) times one
    factor per axis, in site order; its state grows by
    ``step(state[..., None], site, radii)``, and after each site only the
    leaves whose state is ``live(state, site)`` are kept, in their order.
    Runs of mark vectors that fix the leading bits are enumerated one
    block at a time.
    """
    n, m = cfg.n, cfg.model.support_bound
    vids = np.arange(1 << (n - 1))  # bit n-1-s marks site s of 1..n-1; site n is always marked
    marks = [(vids >> (n - 1 - s)) & 1 == 1 for s in range(1, n)] + [True]
    qs = cfg.spec.q_array(n)
    p_marks, height = np.ones(vids.size), np.zeros(vids.size, dtype=np.int64)
    for b in marks:  # the products of _path_probability, in its order
        q = qs[height]
        p_marks *= np.where(b, 1.0 - q, q)
        height = np.where(b, 0, height + 1)
    pmf, tail = cfg.model.pmf_array().tolist(), (1.0 - np.append(0.0, cfg.model.alpha_array(n))).tolist()
    size = np.ones(vids.size, dtype=np.int64)  # radius assignments per mark vector
    axes = []  # (site, its vector bit or 0, its choices' radii, probabilities and marks)
    for site, top in truncations.items():
        t = min(m, top)  # larger radii act like t: their mass joins the top outcome
        choices = [(r, p, 1) for r, p in enumerate(pmf[:t] + [tail[t]]) if p > 0.0]
        bit = 1 << (n - 1 - site) if 0 < site < n else 0
        size *= np.where(marks[site - 1], len(choices), 1) if bit else len(choices)
        if bit:
            choices.insert(0, (idle, 1.0, 0))
        radii, probs, mark = zip(*choices)
        axes.append((site, bit, np.array(radii, np.int16), np.array(probs), np.array(mark, np.int16)))
    if size[p_marks != 0.0].sum() > cfg.cap:
        raise EnumerationCapError(f"enumeration exceeds the cap {cfg.cap}")

    def block(lo: int, hi: int, total: float) -> float:
        """Add to total the hits of mark vectors lo..hi-1, which share their leading bits."""
        weight, state, vid = p_marks[lo:hi], np.zeros((), dtype=np.int16), np.int16(0)
        for site, bit, *choices in axes:
            varies = 0 < bit < hi - lo
            if hi - lo <= bit:  # a leading bit: marked or not in the whole block
                choices = [c[1:] if lo & bit else c[:1] for c in choices]
            radii, probs, mark = choices
            # the weight's axes: the choices so far, this site's mark, the later marks
            weight = weight.reshape(state.size, 1 + varies, -1)[:, mark * varies, :]
            weight *= probs[:, None]
            state = step(state[..., None], site, radii)
            keep = live(state, site).ravel()
            if not keep.any():
                return total
            weight, state = weight.reshape(keep.size, -1)[keep], state.ravel()[keep]
            if hi - lo > 1:
                vid = np.add.outer(vid, mark * bit).ravel()[keep]
        hits = hit(state).ravel()
        weight = weight.ravel()[hits]
        if hi - lo > 1:  # by vector: within one vector the dense order is product order
            weight = weight[np.argsort(vid.ravel()[hits], kind="stable")]
        weight[:1] += total
        return float(np.cumsum(weight)[-1]) if weight.size else total

    total, todo = 0.0, [(0, vids.size)]
    while todo:
        lo, hi = todo.pop()
        if hi - lo > 1 and size[lo:hi].sum() > _BLOCK:
            todo += [((lo + hi) // 2, hi), (lo, (lo + hi) // 2)]
        else:
            total = block(lo, hi, total)
    return total


def enumerate_connectivity(cfg: TinyConfig) -> float:
    """P(0 <-> n): full enumeration of mark vectors and radius assignments.

    The radii at site 0 and the marked sites left of n are enumerated, and
    each assignment is tested for coverage of {1..n} by a literal union of
    the opened intervals, held as bit sets: radius r at site s opens the
    bits s+1..s+r, and the truncation opens no bit past n.
    """
    _check_support(cfg)
    n = cfg.n
    if n == 0:
        return 1.0
    target = ((1 << n) - 1) << 1
    return _enumerate(
        cfg,
        {site: n - site for site in range(n)},
        0,
        lambda covered, site, radii: covered | (((1 << radii) - 1) << (site + 1)),
        lambda covered, site: covered >> (site + 1) & 1 == 1,  # no later site covers site + 1
        lambda covered: covered == target,
    )


def enumerate_dual(cfg: TinyConfig) -> float:
    """P(Y_n = 1): full enumeration of the relay propagation.

    Site 0 starts informed; site i becomes informed iff it is marked and
    its radius reaches the last informed site (R_i >= i - last).  The
    radius at site 0 is never consulted, and an unmarked site's label -1
    never reaches.
    """
    m = _check_support(cfg)
    n = cfg.n
    if n == 0:
        return 1.0
    return _enumerate(
        cfg,
        {site: site for site in range(1, n + 1)},
        -1,
        lambda last, site, radii: np.where(radii >= site - last, site, last),
        lambda last, site: last >= site + 1 - m,  # no later site reaches back further than m
        lambda last: last == n,
    )


def random_tiny_configs(
    count: int,
    seed: int,
    n_max: int = 8,
    support_max: int = 4,
) -> list:
    """A reproducible battery of randomized tiny instances.

    Mark laws rotate over the four families and radius laws are random
    finite tables with support bound <= support_max; path lengths are
    drawn from 2..n_max, and n_max may not exceed the enumeration limit of
    8 sites.  The same (count, seed) always yields the same battery.
    """
    count, seed = check_at_least("count", count, 1), check_at_least("seed", seed, 0)
    n_max, support_max = check_at_least("n_max", n_max, 2), check_at_least("support_max", support_max, 1)
    if n_max > _SITE_LIMIT:
        raise ValidationError(f"n_max must be <= {_SITE_LIMIT}, the enumeration limit, got {n_max!r}")
    configs = []
    for idx in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        kind = idx % 4
        if kind == 0:
            spec: QSequence = ConstantQ(q=float(rng.uniform(0.05, 0.85)))
        elif kind == 1:
            spec = MarkovQ(q0=float(rng.uniform(0.05, 0.8)), q1=float(rng.uniform(0.05, 0.8)))
        elif kind == 2:
            values = tuple(float(v) for v in rng.uniform(0.05, 0.9, size=int(rng.integers(2, 5))))
            spec = TableQ(values=values, tail="repeat_last")
        else:
            spec = PolynomialMonotoneQ(beta=float(rng.uniform(0.15, 0.45)), i0=2)
        m = int(rng.integers(1, support_max + 1))
        pmf = rng.dirichlet(np.ones(m + 1))
        model = FiniteTableRadius(p=tuple(float(v) for v in pmf / pmf.sum()))
        n = int(rng.integers(2, n_max + 1))
        configs.append(TinyConfig(spec=spec, model=model, n=n))
    return configs
