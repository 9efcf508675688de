"""Seeded op plans for the four benchmark workloads.

An op is one ``renewperc`` CLI command: the argv tail after the command
name, the JSON config the command reads, and the inputs recorded as run
provenance.  Every op is a pure function of (workload, seed, op index), so
a run cut short by its time budget still agrees op-for-op with a longer run
on the same seed.

Two plan shapes are used:

* fresh plans (exact-large, sweep-grid) draw new laws for every op, so the
  engine's module-level C_k cache cannot carry work from one op to the
  next, just as separate CLI processes cannot;
* decks (mc-long, verify-tiny) are a fixed seeded list of ops replayed in
  order.  Neither command touches a cache, every replay must reproduce the
  first digest byte for byte, and a run holds a fixed, small number of
  distinct 4-standard-error Monte Carlo checks (each has a ~6e-5 chance of a
  false alarm), however many times the deck is replayed.

Ops are run in whole cycles (one cycle of a fresh plan, one pass of a
deck), so every run has the same mix of op kinds and cost regimes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("exact-large", "sweep-grid", "mc-long", "verify-tiny")

# Workload tags keep the seeded streams of different workloads apart.
_TAGS = {name: i + 1 for i, name in enumerate(WORKLOADS)}

# Climb probabilities strictly below 0.5 drain the house-of-cards mass to
# exact zeros; above 0.5, q * (smallest subnormal) rounds back to the
# smallest subnormal, so thousands of subnormal heights survive every step
# and the series kernel runs several times slower.  The narrow ranges keep
# the height where mass turns subnormal (and so the cost) nearly fixed.
DRAINS = (0.30, 0.45)
SUBNORMAL = (0.58, 0.62)


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload plan."""

    op_id: str
    command: str
    config: dict
    inputs: dict
    work: float  # work units this op contributes to work_units_per_s


@dataclass(frozen=True)
class Size:
    """Op sizes; ``full`` is the benchmark, ``tiny`` the smoke test."""

    exact_horizons: tuple  # per exact-large slot
    sweep_horizon: int
    sweep_classify: int
    sweep_radius_points: int
    mc_sites: tuple  # simulate; dual uses half of each
    mc_reps: int
    coupling_horizon: int
    verify_pairs: tuple
    verify_reps: int


SIZES = {
    "full": Size(
        exact_horizons=(20_000, 5_000, 10_000, 10_000, 5_000),
        sweep_horizon=2_000,
        sweep_classify=10_000,
        sweep_radius_points=5,
        mc_sites=(50, 100, 200),
        mc_reps=100_000,
        coupling_horizon=50,
        # (n, support bound) of the ConstantQ and MarkovQ config of each op
        verify_pairs=(
            ((8, 3), (3, 2)),
            ((3, 3), (8, 2)),
            ((7, 3), (5, 2)),
            ((6, 3), (7, 2)),
            ((5, 3), (6, 2)),
            ((7, 1), (4, 3)),
            ((4, 2), (8, 1)),
        ),
        verify_reps=20_000,
    ),
    "tiny": Size(
        exact_horizons=(400, 200, 300, 300, 200),
        sweep_horizon=200,
        sweep_classify=1_000,
        sweep_radius_points=2,
        mc_sites=(6, 10),
        mc_reps=2_000,
        coupling_horizon=10,
        verify_pairs=(((4, 2), (3, 1)), ((2, 1), (5, 2))),
        verify_reps=2_000,
    ),
}

# exact-large cycle: (q family, cost regime).  Two ops drain, three keep
# subnormal mass, in every cycle of every seed.
_EXACT_SLOTS = (
    ("constant", "drains"),
    ("constant", "subnormal"),
    ("markov", "drains"),
    ("markov", "subnormal"),
    ("poly_monotone", "subnormal"),
)


def _rng(workload: str, seed: int, *index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _TAGS[workload], *index]))


def _radius(rng: np.random.Generator) -> dict:
    return {"family": "power_tail", "c": float(rng.uniform(2.0, 4.0)), "gamma": 1.0, "n0": 1}


def regime(q: dict) -> str:
    """Cost regime from the limit of the climb probability q_s as s grows."""
    limit = {"constant": q.get("q"), "markov": q.get("q1"), "poly_monotone": 1.0}[q["family"]]
    return "drains" if limit < 0.5 else "subnormal"


def cycle_length(workload: str, size: Size) -> int:
    return {
        "exact-large": len(_EXACT_SLOTS),
        "sweep-grid": 2,
        "mc-long": 3,
        "verify-tiny": len(size.verify_pairs),
    }[workload]


def exact_op(seed: int, index: int, size: Size) -> Op:
    slot = index % len(_EXACT_SLOTS)
    family, cost = _EXACT_SLOTS[slot]
    rng = _rng("exact-large", seed, index)
    lo, hi = DRAINS if cost == "drains" else SUBNORMAL
    if family == "constant":
        q = {"family": "constant", "q": float(rng.uniform(lo, hi))}
    elif family == "markov":
        q = {"family": "markov", "q0": float(rng.uniform(0.2, 0.4)), "q1": float(rng.uniform(lo, hi))}
    else:
        q = {"family": "poly_monotone", "beta": float(rng.uniform(0.24, 0.26)), "i0": 2}
    horizon = size.exact_horizons[slot]
    config = {"q": q, "radius": _radius(rng), "horizon": horizon}
    inputs = {"q": q, "radius": config["radius"], "horizon": horizon, "regime": regime(q)}
    return Op(f"exact-{index}", "exact", config, inputs, work=float(horizon))


def sweep_op(seed: int, index: int, size: Size) -> Op:
    rng = _rng("sweep-grid", seed, index)
    climbs = [float(rng.uniform(*DRAINS))] + sorted(float(v) for v in rng.uniform(*SUBNORMAL, size=2))
    cs = sorted(float(v) for v in rng.uniform(1.0, 5.0, size=size.sweep_radius_points))
    if index % 2 == 0:
        q, key = {"family": "constant", "q": 0.5}, "q.q"
    else:
        q, key = {"family": "markov", "q0": float(rng.uniform(0.2, 0.4)), "q1": 0.5}, "q.q1"
    # sorted grid keys put the q key in the outer loop, so consecutive
    # points share a law and the C_k cache is reused within the op
    grid = {key: climbs, "radius.c": cs}
    config = {
        "q": q, "radius": {"family": "power_tail", "c": 1.0, "gamma": 1.0, "n0": 1},
        "grid": grid, "horizon": size.sweep_horizon,
        "classify_horizon": size.sweep_classify, "workers": 1,
    }
    points = len(climbs) * len(cs)
    inputs = {"q": q, "grid": grid, "horizon": size.sweep_horizon, "points": points}
    return Op(f"sweep-{index}", "sweep", config, inputs, work=float(points))


def mc_deck(seed: int, size: Size) -> list:
    rng = _rng("mc-long", seed)
    q = {"family": "markov", "q0": float(rng.uniform(0.2, 0.4)), "q1": float(rng.uniform(*DRAINS))}
    radius = _radius(rng)
    sim_seed = int(rng.integers(0, 2**31))
    reps = size.mc_reps
    # simulate, dual and coupling cost about 4 : 2 : 1, so the median op of a
    # run is always a dual op rather than a mix of two op kinds
    ops = []
    for command, sites in (("simulate", list(size.mc_sites)), ("dual", [n // 2 for n in size.mc_sites])):
        config = {"q": q, "radius": radius, "n": sites, "reps": reps, "seed": sim_seed}
        ops.append(Op(f"{command}-0", command, config, dict(config), work=float(reps * sum(sites))))
    delays = [0, 1, 2, 3]
    config = {
        "q": q, "delays": delays, "coupling_horizon": size.coupling_horizon,
        "reps": reps, "seed": sim_seed,
    }
    work = float(reps * size.coupling_horizon * len(delays))
    ops.append(Op("coupling-0", "coupling", config, dict(config), work=work))
    return ops


def _tiny_shape(cfg) -> tuple:
    return (cfg.n, cfg.model.support_bound)


def battery_seeds(seed: int, size: Size, random_tiny_configs) -> list:
    """Seeds of verify batteries whose configs have a fixed (n, support) profile.

    Oracle cost grows like (support + 2)^n, so a battery drawn freely costs
    anywhere from milliseconds to seconds.  Battery seeds are drawn from
    the workload seed and kept when the battery's ConstantQ and MarkovQ
    configs have the (n, support) pair the op slot asks for; the laws and
    radius tables inside stay random.  The number of draws this takes
    varies by seed, so callers keep the search out of any timed region.
    """
    rng = _rng("verify-tiny", seed)
    wanted = {pair: None for pair in size.verify_pairs}
    missing = len(wanted)
    n_max, support_max = _verify_bounds(size)
    while missing:
        battery_seed = int(rng.integers(0, 2**31))
        configs = random_tiny_configs(2, battery_seed, n_max=n_max, support_max=support_max)
        pair = (_tiny_shape(configs[0]), _tiny_shape(configs[1]))
        if pair in wanted and wanted[pair] is None:
            wanted[pair] = battery_seed
            missing -= 1
    return [wanted[pair] for pair in size.verify_pairs]


def _verify_bounds(size: Size) -> tuple:
    pairs = size.verify_pairs
    return max(n for pair in pairs for n, _ in pair), max(m for pair in pairs for _, m in pair)


def verify_deck(size: Size, seeds: list) -> list:
    """One verify op per battery seed from ``battery_seeds``."""
    n_max, support_max = _verify_bounds(size)
    ops = []
    for index, (pair, battery_seed) in enumerate(zip(size.verify_pairs, seeds)):
        config = {
            "configs": 2, "n_max": n_max, "support_max": support_max,
            "reps": size.verify_reps, "seed": battery_seed,
        }
        inputs = dict(config, shapes=[list(p) for p in pair])
        ops.append(Op(f"verify-{index}", "verify", config, inputs, work=2.0))
    return ops


class Plan:
    """The op sequence of one workload run, indexed from 0 without end."""

    def __init__(self, workload: str, seed: int, size: Size, verify_seeds=None):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.cycle = cycle_length(workload, size)
        self.verify_seeds = verify_seeds
        self._deck = None
        if workload == "mc-long":
            self._deck = mc_deck(seed, size)
        elif workload == "verify-tiny":
            self._deck = verify_deck(size, verify_seeds)

    def op(self, index: int) -> Op:
        if self._deck is not None:
            return self._deck[index % len(self._deck)]
        if self.workload == "exact-large":
            return exact_op(self.seed, index, self.size)
        return sweep_op(self.seed, index, self.size)
