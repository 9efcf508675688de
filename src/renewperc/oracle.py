"""Exhaustive enumeration oracles for tiny instances.

Ground truth against the exact engine and the simulator.  The code here
deliberately shares no arithmetic kernels with the engine, only the laws,
which each enumeration reads once through ``q_array`` and ``alpha_array``:
path probabilities come from a scalar walk of the house-of-cards chain
over those q values, the coverage test unions intervals site by site, and
the relay test applies the gap rule directly.  Radii are enumerated only
at marked sites (they are irrelevant elsewhere) and only through their
endpoint truncated at the last site that can matter, with the truncated
outcome carrying the aggregated tail probability; both reductions are
exact.

For each mark vector the radius assignments are held as one numpy product
array, built one marked site at a time in the order of
``itertools.product``: the weights multiply in site order, the coverage
union is a literal OR of interval bit sets (radius r at site s sets bits
s+1..s+r), and the hits are summed sequentially, so every value equals
that of a per-assignment loop.  The truncation at site s allows at most
n-s+1 (coverage) or s+1 (relay) outcomes, so with n <= 8 a product holds
at most (n+1)! = 362,880 entries.  The cap budget is charged before an
array is built.
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


def _marked_outcomes(model: RadiusModel, truncate_at: int) -> tuple[np.ndarray, np.ndarray]:
    """Radius outcomes (values, probabilities) with the top value aggregated.

    Values above ``truncate_at`` act exactly like ``truncate_at`` for the
    event being enumerated, so they are merged into one outcome carrying
    P(R >= truncate_at).  Outcomes of probability zero are dropped.
    """
    t = min(model.support_bound, truncate_at)
    top = 1.0 - (model.alpha(t - 1) if t >= 1 else 0.0)
    probs = np.append(model.pmf_array()[:t], top)
    keep = probs > 0.0
    return np.arange(t + 1, dtype=np.int64)[keep], probs[keep]


def _check_support(cfg: TinyConfig) -> int:
    if cfg.n > _SITE_LIMIT:
        raise ValidationError(f"enumeration is limited to n <= {_SITE_LIMIT}")
    m = cfg.model.support_bound
    if m is None:
        raise UnboundedRadiusError("enumeration needs bounded radius support")
    return m


def _enumerate(cfg: TinyConfig, sites, outcomes: dict, step, hit) -> float:
    """Sum P(marks, radii) over the assignments whose final state is a hit.

    ``sites(bits)`` lists the sites whose radius is enumerated for a mark
    vector; ``outcomes[site]`` holds that site's (labels, probabilities).
    The product over those sites is held as arrays built one site at a
    time in the order of ``itertools.product``: the weights by
    ``multiply.outer`` (each term multiplied in site order) and the state
    by ``step(state[:, None], site, labels)``.  The hits are added to the
    total one by one in that order, so the sum is the sequential one.
    """
    total = 0.0
    budget = cfg.cap
    qs = cfg.spec.q_array(cfg.n).tolist()
    for bits in itertools.product((0, 1), repeat=cfg.n):
        if bits[-1] != 1:
            continue
        p_marks = _path_probability(qs, bits)
        if p_marks == 0.0:
            continue
        marked = sites(bits)
        size = 1
        for site in marked:
            size *= len(outcomes[site][1])
        budget -= size
        if budget < 0:
            raise EnumerationCapError(f"enumeration exceeds the cap {cfg.cap}")
        weight = np.array([p_marks])
        state = np.zeros(1, dtype=np.int64)
        for site in marked:
            labels, probs = outcomes[site]
            weight = np.multiply.outer(weight, probs).ravel()
            state = step(state[:, None], site, labels).ravel()
        total = float(np.cumsum(np.append(total, weight[hit(state)]))[-1])
    return total


def enumerate_connectivity(cfg: TinyConfig) -> float:
    """P(0 <-> n): full enumeration of mark vectors and radius assignments.

    For each mark vector the radii at site 0 and the marked sites left of
    n are enumerated, and each assignment is tested for coverage of
    {1..n} by a literal union of the opened intervals, held as bit sets:
    radius r at site s opens the bits s+1..s+r.
    """
    _check_support(cfg)
    n = cfg.n
    if n == 0:
        return 1.0
    intervals = {}
    for site in range(n):
        radii, probs = _marked_outcomes(cfg.model, n - site)
        intervals[site] = (((1 << radii) - 1) << (site + 1), probs)
    target = ((1 << n) - 1) << 1
    return _enumerate(
        cfg,
        lambda bits: [0] + [i for i in range(1, n) if bits[i - 1]],
        intervals,
        lambda covered, site, opened: covered | opened,
        lambda covered: covered & target == target,
    )


def enumerate_dual(cfg: TinyConfig) -> float:
    """P(Y_n = 1): full enumeration of the relay propagation.

    Site 0 starts informed; site i becomes informed iff it is marked and
    its radius reaches the last informed site (R_i >= i - last).  The
    radius at site 0 is never consulted.
    """
    _check_support(cfg)
    n = cfg.n
    if n == 0:
        return 1.0
    return _enumerate(
        cfg,
        lambda bits: [i for i in range(1, n + 1) if bits[i - 1]],
        {site: _marked_outcomes(cfg.model, site) for site in range(1, n + 1)},
        lambda last, site, radii: np.where(radii >= site - last, site, last),
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
