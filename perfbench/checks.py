"""Output checks for benchmark ops.

Each check reads what the CLI wrote and returns a list of problems; an
empty list means the op's outputs are correct.  References come either
from independent formulas (the i.i.d. product for ConstantQ, fsum of the
series) or from the package's public exact functions, called outside the
timed and traced region.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# the repository's own exact-vs-exact and Monte Carlo tolerances
EXACT_TOL = 1e-12
MC_SE = 4.0


def read_csv(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))


def power_tail_alpha(radius: dict, n: int) -> np.ndarray:
    """alpha_0..alpha_{n-1} of the power-tail radius law, from its definition."""
    idx = np.arange(n, dtype=float)
    with np.errstate(divide="ignore"):
        tail = np.minimum(1.0, radius["c"] / idx ** radius["gamma"])
    alpha = 1.0 - tail
    alpha[: min(int(radius["n0"]), n)] = 0.0
    return alpha


def iid_series(q: float, radius: dict, n: int) -> np.ndarray:
    """S_0..S_n for ConstantQ(q): cumprod(1 - (1-q)(1-alpha_i))."""
    out = np.empty(n + 1)
    out[0] = 1.0
    np.cumprod(1.0 - (1.0 - q) * (1.0 - power_tail_alpha(radius, n)), out=out[1:])
    return out


def check_exact(rows: list, summary: dict, op_config: dict) -> list:
    """S_0 = 1, S nonincreasing, f >= 0, hi = 1/(1 + fsum S), lo <= hi, i.i.d. match."""
    problems = []
    horizon = int(op_config["horizon"])
    if len(rows) != horizon + 1:
        return [f"expected {horizon + 1} rows, got {len(rows)}"]
    S = np.array([float(r["S_n"]) for r in rows])
    f = np.array([float(r["f_n"]) for r in rows])
    if S[0] != 1.0:
        problems.append(f"S_0 = {S[0]!r}")
    if (np.diff(S) > 0.0).any():
        problems.append("S is not nonincreasing")
    if (f < 0.0).any():
        problems.append("negative dual pmf f")
    bracket = summary["bracket"]
    hi_ref = 1.0 / (1.0 + math.fsum(S[1:].tolist()))
    if abs(bracket["hi"] - hi_ref) > EXACT_TOL * hi_ref:
        problems.append(f"hi {bracket['hi']!r} differs from 1/(1 + fsum S) = {hi_ref!r}")
    if not bracket["lo"] <= bracket["hi"]:
        problems.append(f"lo {bracket['lo']!r} > hi {bracket['hi']!r}")
    q = op_config["q"]
    if q["family"] == "constant":
        ref = iid_series(q["q"], op_config["radius"], horizon)
        err = float(np.max(np.abs(S - ref)))
        if err > EXACT_TOL:
            problems.append(f"S differs from the i.i.d. product by {err:.3e}")
    return problems


def check_sweep(rows: list, points: int) -> list:
    if len(rows) != points:
        return [f"expected {points} rows, got {len(rows)}"]
    problems = []
    for i, row in enumerate(rows):
        if row["error"]:
            problems.append(f"row {i}: error {row['error']!r}")
        elif not float(row["bracket_lo"]) <= float(row["bracket_hi"]):
            problems.append(f"row {i}: lo > hi")
    return problems


def check_estimates(rows: list, exact_v: dict) -> list:
    """Each estimate within 4 standard errors of the exact v_n."""
    problems = []
    if len(rows) != len(exact_v):
        return [f"expected {len(exact_v)} rows, got {len(rows)}"]
    for row in rows:
        n, reps = int(row["n"]), int(row["reps"])
        est, v = float(row["estimate"]), exact_v[n]
        se = max(float(row["stderr"]), math.sqrt(v * (1.0 - v) / reps), 1.0 / reps)
        if abs(est - v) > MC_SE * se:
            problems.append(f"n={n}: estimate {est!r} is {abs(est - v) / se:.2f} SE from exact {v!r}")
    return problems


def check_coupling(rows: list, horizon: int) -> list:
    if len(rows) != horizon:
        return [f"expected {horizon} rows, got {len(rows)}"]
    surv = np.array([float(r["survival"]) for r in rows])
    problems = []
    if (surv < 0.0).any() or (surv > 1.0).any():
        problems.append("survival outside [0, 1]")
    if (np.diff(surv) > 0.0).any():
        problems.append("survival is not nonincreasing")
    return problems


def check_verify(rows: list, configs: int) -> list:
    if len(rows) != configs:
        return [f"expected {configs} rows, got {len(rows)}"]
    return [f"config {r['config_index']}: {r['status']}" for r in rows if r["status"] != "pass"]
