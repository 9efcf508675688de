"""Exact evaluation of the coverage-percolation series and its bounds.

The central object is the partial generating-function series

    S_0 = 1,   S_n = E prod_{i=0..n-1} alpha_i^(xi_{i+1}),   n >= 1,

computed exactly by ``gf_partial``: for a law that lumps to at most four
heights (q_h constant from some height m on) by one blocked transfer
pass, which also gives u, and else in renewal form, by the blocked kernel
``renewal_solve`` and its Toeplitz-block GEMMs.  The dual occupancy v
always comes from the kernel.  The series has three faces:

* dual law: S_{n} is the survival function P(T_Y >= n+1) of the
  inter-arrival time of the dual relay process, so f_k = S_{k-1} - S_k is
  its pmf (formed without the subtraction, see gf_partial), and the dual
  occupancy v_n follows the renewal recursion;
* coverage probability: P(cover all of N) = (1 + sum_{n>=1} S_n)^(-1),
  so the truncated sum gives the rigorous upper endpoint
  hi = (1 + partial_sum)^(-1) for free, and any upper bound on the tail
  sum_{n>N} S_n gives a lower endpoint;
* closed bounds: Jensen gives S_n >= prod alpha_i^(u_{i+1}), the
  coalescence-based concentration inequality gives
  S_n <= prod alpha_i^(u_{i+1}) * exp(C_n * sum_i (log alpha_i)^2),
  and for nondecreasing q the FKG inequality gives
  S_n >= prod [1 - u_{i+1} (1 - alpha_i)].

Sites with alpha_i = 0 annihilate the Jensen product and are excluded
from the concentration exponent (alpha^xi <= 1 on those coordinates keeps
the inequality valid); all exponent products are accumulated in log space.

The bracket's lo takes the first tail bound that applies in the chain of
links of its ``tail`` choice (``_TAIL_CHAINS``): "auto" tries the
provable-zero, concentration and geometric links in that order,
"concentration" and "geometric-extrapolation" the zero link and then
their own, "none" no link.  The zero link applies where S_N = 0
provably: some q_i = 0 with i < m, m the number of zero alpha below N,
and S is nonincreasing.  It gives lo = hi, reported as certified
"geometric-extrapolation" even under "concentration".  The concentration
link and bounds_report's concentration_lower share one tail bound (the
concentration terms for n = N+1..secondary plus a geometric remainder)
and are both (1 + head + tail)^(-1); they differ only in their head, the
exact S_1..S_N against its per-term concentration bounds.  One evaluation
builds alpha and that concentration series once for both (``_tables``),
and evaluations of one law in a row share u and C_k.  That tail is
certified only when summed to numerical exhaustion (last term and
remainder below 1e-15 of 1 + head).  The geometric link fits the last
decade of S and is never certified; an S_N that rounded to 0 gets a
zero remainder.  When no link applies, lo = 0 with tail_method "none"
and the chain's fallback note (see percolation_probability).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InternalConsistencyError,
    MonotonicityError,
    UnboundedRadiusError,
    ValidationError,
    check_at_least,
)
from .radius import RadiusModel
from .renewal import (
    _LIFT,
    ConstantQ,
    QSequence,
    _interarrival,
    _lumped,
    _toeplitz_product,
    ck_at,
    ck_sequence,
    renewal_probabilities,
    renewal_solve,
    survival_products,
)

TAIL_CONCENTRATION = "concentration"
TAIL_GEOMETRIC = "geometric-extrapolation"
TAIL_NONE = "none"

VERDICT_EXTINCT_INFINITE_MEAN = "extinct-infinite-mean"
VERDICT_EXTINCT_TAIL = "extinct-tail-evidence"
VERDICT_SURVIVE_TAIL = "survive-tail-evidence"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GfTable:
    """The series S_0..S_N (nonincreasing, S_0 = 1) and the dual pmf f_0..f_N.

    dual_pmf[n] = S_{n-1} - S_n for n >= 1 (dual_pmf[0] = 0), formed
    without the subtraction (see gf_partial).
    """

    S: np.ndarray
    dual_pmf: np.ndarray
    horizon: int
    partial_sum: float


def _gf_table(S: np.ndarray, f: np.ndarray) -> GfTable:
    # rounded, S may rise by an ulp where flat; this moves hi only upward
    S = np.minimum.accumulate(S, out=S)
    return GfTable(S=S, dual_pmf=f, horizon=S.size - 1, partial_sum=float(S[1:].sum()))


def _iid_series(q: float, alph: np.ndarray) -> np.ndarray:
    """S_1..S_N for i.i.d. marks of density p = 1 - q: prod_{i<n} [q + p alpha_i].

    q + p alpha_i is 1 - p (1 - alpha_i) without the subtraction, which
    would round a small q + p alpha_i to 0.
    """
    return np.cumprod(q + (1.0 - q) * alph)


def _iid_table(q: float, alph: np.ndarray) -> GfTable:
    """Series and dual pmf of i.i.d. marks: f_n = p (1 - alpha_{n-1}) S_{n-1}."""
    S = np.empty(alph.size + 1)
    S[0] = 1.0
    S[1:] = _iid_series(q, alph)
    f = np.zeros_like(S)
    f[1:] = (1.0 - q) * (1.0 - alph) * S[:-1]
    return _gf_table(S, f)


def _pass(q: np.ndarray, alph: np.ndarray, x: np.ndarray, blocks: int) -> tuple:
    """Prefix products P[b, j] = M(alph[b, j]) ... M(alph[b, 0]) and the start states of ``blocks`` blocks.

    The pass of a law lumped to heights 0..m is x_{i+1} = M(alpha_i) x_i
    from x_0 = x: M(a) climbs the unmarked mass q_h x_h one height (m
    stays at m) and sends the marked mass a sum_h (1 - q_h) x_h to height
    0.  Row b of ``alph`` is block b's (one row serves every block).  All
    entries are nonnegative, so the rounding error stays componentwise
    relative.
    """
    k = q.size
    P = np.zeros((*alph.shape, k, k))
    P[..., range(1, k), range(k - 1)] = q[:-1]
    P[..., -1, -1] = q[-1]
    P[..., 0, :] = alph[..., None] * (1.0 - q)
    for j in range(1, alph.shape[1]):
        np.matmul(P[:, j], P[:, j - 1], out=P[:, j])
    starts = np.empty((blocks, k))
    for b in range(blocks):
        starts[b], x = x, P[b % len(P), -1].dot(x)
    return P, starts


def _lumped_table(spec: QSequence, q: np.ndarray, alph: np.ndarray) -> GfTable:
    """Series and dual pmf of a law lumped to q_0..q_m, by ``_pass`` in blocks of isqrt(n) sites.

    On alpha's zero prefix, sites 0..z-1, a mark zeroes its path, so S_n is
    P(T > n) as survival_products forms it; the pass takes the other n sites.
    """
    N, k = alph.size, q.size
    z = np.count_nonzero(alph == 0.0)  # alpha is a CDF
    S, f, x = np.empty(N + 1), np.zeros(N + 1), np.zeros(k)
    S[: z + 1] = survival_products(spec, z)
    f[1 : z + 1] = (1.0 - spec.q_array(z)) * S[:z]
    x[min(z, k - 1)] = S[z]
    if n := N - z:
        B = math.isqrt(n)
        a = np.ones(-(-n // B) * B)
        a[:n] = alph[z:]
        X = np.einsum("bjhk,bk->bjh", *_pass(q, a.reshape(-1, B), x, a.size // B)).reshape(-1, k)[:n]
        S[z + 1 :] = np.einsum("nh->n", X)
        f[z + 1 :] = (1.0 - alph[z:]) * np.einsum("nh,h->n", np.vstack((x, X[:-1])), 1.0 - q)
    return _gf_table(S, f)


def gf_partial(spec: QSequence, model: RadiusModel, horizon: int) -> GfTable:
    """Exact S_1..S_N and the dual pmf, by a transfer pass for lumped laws.

    A law that lumps to the heights 0..m (see ``_lumped``) has S in
    O(N m^2): the i.i.d. product when every q_h agrees, else the blocked
    pass x_{i+1} = M(alpha_i) x_i of ``_lumped_table``, with S_n = sum x_n
    and f_n = (1 - alpha_{n-1}) sum_h (1 - q_h) x_{n-1,h}.

    Every other law goes through g = renewal_solve(P(T = .), alpha), at
    O(N K) for P(T = .) supported on 1..K, and S = g * P(T > .) for n <= N
    by ``_toeplitz_product`` (an FFT loses about 1e-7 relative on the small
    S_n that the tail fits and the 1e-12 exact checks rely on).  In
    floating point P(T > s) is constant from some s0 on: 0 once the
    products drain, or a stalled subnormal c where q > 0.5 (q * c rounds
    back to c).  Only s < s0 is convolved and the constant tail adds
    c * (g_0 + ... + g_{n-s0}) to S_n, so no term is dropped and the cost
    is O(N s0).  The dual pmf is f_n = (1 - alpha_{n-1}) h_n with
    h = P(T = .) * g, the sum that g_n = alpha_{n-1} h_n scales; unlike
    S_{n-1} - S_n it is exactly 0 where S is flat.  Both products run on
    P(T > .) and P(T = .) lifted by 2^_LIFT, as in renewal_solve: these
    kernels lie in [0, 1] and g in [0, 1], so the lifted sums stay finite,
    subnormal products become normal, and where the unlifted sums stayed
    normal the bits are the same.  O(N) space.
    """
    horizon = check_at_least("horizon", horizon, 1)
    alpha = model.alpha_array(horizon)
    q = _lumped(spec)
    if q is not None:
        return _iid_table(q[0], alpha) if q.min() == q.max() else _lumped_table(spec, q, alpha)
    summary, surv = _interarrival(spec, horizon)
    pmf = summary.pmf
    g = renewal_solve(pmf, alpha)
    s0 = np.count_nonzero(surv > surv[-1])
    lifted = np.ldexp(surv, _LIFT)
    S = _toeplitz_product(lifted[:s0], g, 0, horizon + 1)
    S[s0:] += lifted[-1] * np.cumsum(g[: horizon + 1 - s0])
    f = _toeplitz_product(np.ldexp(pmf[: np.flatnonzero(pmf)[-1] + 1], _LIFT), g, 0, horizon + 1)
    f[1:] *= 1.0 - alpha
    return _gf_table(np.ldexp(S, -_LIFT, out=S), np.ldexp(f, -_LIFT, out=f))


@dataclass(frozen=True)
class DualLaw:
    """Inter-arrival pmf f and occupancy v of the dual relay process.

    f[k] = P(T_Y = k) = S_{k-1} - S_k (f[0] is zero-padding; the table's
    dual_pmf) and v_n solves the renewal recursion v_n = sum_k f_k v_{n-k}
    with v_0 = 1, so v_n = P(site n is reached) equals the forward
    connectivity P(0 <-> n).
    """

    f: np.ndarray
    v: np.ndarray
    mean_partial: float
    horizon: int


def dual_law(gf: GfTable, spec: QSequence, model: RadiusModel) -> DualLaw:
    """Dual inter-arrival law from the series, cross-checked at k = 1.

    Requires the table to come from the same (spec, model) pair; the
    closed form P(T_Y = 1) = (1 - q_0)(1 - alpha_0) is re-derived and any
    disagreement beyond 1e-10 raises.
    """
    f = gf.dual_pmf
    closed = (1.0 - spec.q_at(0)) * (1.0 - model.alpha(0))
    if abs(f[1] - closed) > 1e-10:
        raise InternalConsistencyError(
            f"dual pmf f_1 = {f[1]!r} disagrees with closed form {closed!r}; "
            "was the table computed from the same law?"
        )
    v = renewal_solve(f)
    return DualLaw(f=f, v=v, mean_partial=1.0 + gf.partial_sum, horizon=gf.horizon)


@dataclass(frozen=True)
class PercolationBracket:
    """Interval [lo, hi] for the coverage probability, certified only when ``certified``.

    hi is always (1 + partial_sum)^(-1); lo folds in a tail bound whose
    provenance is recorded in tail_method/certified (see module docstring).
    """

    lo: float
    hi: float
    horizon: int
    tail_method: str
    certified: bool
    notes: tuple = ()


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _coverage(terms: np.ndarray) -> float:
    """The coverage probability (1 + sum(terms))^(-1) of a series of S_n values or bounds."""
    return 1.0 / (1.0 + float(terms.sum()))


def _series_vanishes(spec: QSequence, alph: np.ndarray) -> bool:
    """True when S_n = 0 exactly from n = m on, m the zero prefix of alpha.

    alpha, a CDF, is 0 on sites 0..m-1, so a mark at any site 1..m zeroes
    its path's product; every path has one iff some q_i = 0 with i < m.
    """
    return not spec.q_array(np.count_nonzero(alph == 0.0)).all()


def _geometric_remainder(terms: np.ndarray) -> Optional[float]:
    """Geometric continuation of positive ``terms`` fitted over their last decade, or None."""
    last = float(terms[-1])
    if last == 0.0:  # a zero term continues as zeros (S is nonincreasing)
        return 0.0
    w = min(max(3, terms.size // 10), terms.size - 1)
    if w < 1:
        return None
    prev = float(terms[-1 - w])
    if prev <= 0.0 or last >= prev:
        return None
    r = (last / prev) ** (1.0 / w)
    if r >= 1.0 - 1e-9:
        return None
    return last * r / (1.0 - r)


# One slot each: a sweep's radius points, run law by law, share u and C_k,
# and the bracket and the bounds of one evaluation share alpha and the terms.
@functools.lru_cache(maxsize=1)
def _renewal_u(spec: QSequence, horizon: int) -> np.ndarray:
    """Read-only u_0..u_N: 1 - q for i.i.d. marks, and for another lumped law
    height 0 (only marked mass, as m >= 1) of ``_pass`` with alpha = 1,
    which gives every block the same products, the powers of M(1)."""
    q = _lumped(spec)
    if q is None:
        return _frozen(renewal_probabilities(spec, horizon).u)
    if q.min() == q.max():
        return _frozen(np.append(1.0, np.full(horizon, 1.0 - q[0])))
    B = max(1, math.isqrt(horizon))
    P, starts = _pass(q, np.ones((1, B)), np.eye(q.size)[0], -(-horizon // B))
    return _frozen(np.append(1.0, (starts @ P[0, :, 0].T).reshape(-1)[:horizon]))


@functools.lru_cache(maxsize=1)
def _ck(spec: QSequence, secondary: int) -> np.ndarray:
    """Read-only C_1..C_secondary."""
    return _frozen(ck_sequence(spec, secondary).c[1:])


@functools.lru_cache(maxsize=1)
def _tables(spec: QSequence, model: RadiusModel, horizon: int, secondary: int) -> tuple:
    """Read-only (alpha_0..alpha_{secondary-1}, u_0..u_N, concentration terms, lam).

    The terms bound S_n <= prod alpha_i^(u_{i+1}) * exp(C_n sum_i (log alpha_i)^2)
    for n = 1..secondary, excluding alpha_i = 0 coordinates, and lam_n is
    the log of the first factor; both are None when every alpha is zero
    (C_k is then never built).  Beyond u_N the
    exponent uses u_lb = min(window) - spread(window), a lower bound on
    the renewal probabilities, which only weakens the bound.
    """
    alph = model.alpha_array(secondary)
    u = _renewal_u(spec, horizon)
    pos = alph > 0.0
    terms = lam = None
    if pos.any():
        log_a = np.zeros(secondary)
        log_a[pos] = np.log(alph[pos])
        window = u[max(1, horizon // 2) :]
        u_lb = max(0.0, float(window.min()) - float(window.max() - window.min()))
        weights = np.full(secondary, u_lb)
        weights[:horizon] = u[1:]
        lam = _frozen(np.cumsum(weights * log_a))
        sig = np.cumsum(log_a * log_a)
        with np.errstate(over="ignore"):
            terms = _frozen(np.exp(lam + _ck(spec, secondary) * sig))
    return _frozen(alph), u, terms, lam


def _concentration_lower(terms, horizon: int, head_sum: Optional[float] = None):
    """Returns (lower, certified, notes) for lower = (1 + head + tail)^(-1).

    tail sums the concentration ``terms`` (see _tables) over
    n = N+1..secondary plus a geometric remainder; head is ``head_sum``
    (the bracket's exact partial sum) or, when None, the same terms
    summed over n = 1..N.  lower is None when there are no terms and 0.0
    when the terms overflow or show no decay.
    """
    if terms is None:
        return None, False, ("concentration bound unavailable: alpha identically zero",)
    tail = terms[horizon:]
    with np.errstate(over="ignore"):
        scale = 1.0 + (float(terms[:horizon].sum()) if head_sum is None else head_sum)
        explicit = float(tail.sum())
    if not math.isfinite(scale + explicit):
        return 0.0, False, ("concentration terms overflow (exploding C_k)",)
    last = float(tail[-1])
    remainder = _geometric_remainder(tail)
    if remainder is None:
        return 0.0, False, ("concentration tail terms show no decay at the secondary horizon",)
    cutoff = 1e-15 * scale
    certified = last < cutoff and remainder < cutoff
    notes = ()
    if last == 0.0:
        notes = ("tail terms vanish within the secondary horizon",)
    elif not certified:
        notes = ("tail completed geometrically beyond the secondary horizon",)
    return 1.0 / (scale + (explicit + remainder)), certified, notes


def _secondary_horizon(horizon: int, requested: Optional[int]) -> int:
    """The concentration tail's secondary horizon: ``requested`` or a default."""
    if requested is None:
        return horizon + max(1000, min(horizon, 100_000))
    return check_at_least("secondary_horizon", requested, horizon + 1)


def _zero_link(gf: GfTable, spec: QSequence, model: RadiusModel, secondary: int):
    """lo = hi, certified, where S_N = 0 provably; any other S_N = 0 is underflow."""
    if float(gf.S[gf.horizon]) == 0.0 and _series_vanishes(spec, model.alpha_array(gf.horizon)):
        return _coverage(gf.S[1:]), True, TAIL_GEOMETRIC, ("series terms are exactly zero at the horizon",)
    return None, False, TAIL_GEOMETRIC, ()


def _concentration_link(gf: GfTable, spec: QSequence, model: RadiusModel, secondary: int):
    """The concentration tail that bounds_report shares; a lower of None or 0.0 fails."""
    terms = _tables(spec, model, gf.horizon, secondary)[2]
    lower, certified, notes = _concentration_lower(terms, gf.horizon, gf.partial_sum)
    return lower or None, certified, TAIL_CONCENTRATION, notes


def _geometric_link(gf: GfTable, spec: QSequence, model: RadiusModel, secondary: int):
    """The geometric continuation of S fitted over its last decade, never certified."""
    remainder = _geometric_remainder(gf.S[1:])
    if remainder is None:
        return None, False, TAIL_GEOMETRIC, ()
    lo = 1.0 / (1.0 + gf.partial_sum + remainder)
    return lo, False, TAIL_GEOMETRIC, ("tail extrapolated from the last decade of S",)


_NOT_DECAYING = "warning: series not decaying at the horizon; lower endpoint dropped to 0"
_FAILED = "warning: concentration tail failed; lower endpoint dropped to 0"
# tail choice -> (links tried in order, the note when none applies and lo drops to 0)
_TAIL_CHAINS = {
    "auto": ((_zero_link, _concentration_link, _geometric_link), _NOT_DECAYING),
    TAIL_CONCENTRATION: ((_zero_link, _concentration_link), _FAILED),
    TAIL_GEOMETRIC: ((_zero_link, _geometric_link), _NOT_DECAYING),
    TAIL_NONE: ((), "no tail bound requested; lower endpoint is trivial"),
}
_TAIL_CHOICES = tuple(_TAIL_CHAINS)


def percolation_probability(
    gf: GfTable, spec: QSequence, model: RadiusModel, tail: str = "auto", *,
    secondary_horizon: Optional[int] = None,
) -> PercolationBracket:
    """Two-sided bracket for the coverage probability from a series table.

    hi = (1 + partial_sum)^(-1) always.  lo takes the first tail bound in
    ``tail``'s chain that applies: "auto" (provable zero, concentration,
    geometric), "concentration" (zero, then concentration: rigorous given
    the C_k inputs), "geometric-extrapolation" (zero, then geometric:
    heuristic, never certified) or "none" (no link).  Every link's notes
    are kept.  When no link applies, lo = 0 with tail_method "none" and
    the note "warning: concentration tail failed; lower endpoint dropped
    to 0" under "concentration", "no tail bound requested; lower endpoint
    is trivial" under "none", else "warning: series not decaying at the
    horizon; lower endpoint dropped to 0".
    """
    if tail not in _TAIL_CHAINS:
        raise ValidationError(f"tail must be one of {_TAIL_CHOICES}, got {tail!r}")
    secondary = _secondary_horizon(gf.horizon, secondary_horizon)
    links, fallback = _TAIL_CHAINS[tail]
    notes: list = []
    for link in links:
        lo, certified, method, extra = link(gf, spec, model, secondary)
        notes.extend(extra)
        if lo is not None:
            break
    else:
        lo, certified, method = 0.0, False, TAIL_NONE
        notes.append(fallback)
    return PercolationBracket(lo, _coverage(gf.S[1:]), gf.horizon, method, certified, tuple(notes))


@dataclass(frozen=True)
class BoundsReport:
    """Closed-product bounds on the coverage probability at one horizon.

    jensen_upper and fkg_upper truncate series of per-term lower bounds on
    S_n, so they are valid upper bounds at any horizon; concentration_lower
    needs its series summed to (near) convergence and is reported as 0.0
    when its terms overflow or show no decay.  Optional entries are None when the
    bound does not apply (non-monotone law, all-zero alpha, non-constant q).
    jensen_upper is the vacuous 1.0 when alpha_0 = 0, and notes say so.
    """

    jensen_upper: float
    fkg_upper: Optional[float]
    concentration_lower: Optional[float]
    iid_closed: Optional[float]
    horizon: int
    notes: tuple = ()


def bounds_report(
    spec: QSequence, model: RadiusModel, horizon: int, fkg: Optional[bool] = None, *,
    secondary_horizon: Optional[int] = None,
) -> BoundsReport:
    """Evaluate the Jensen, FKG, and concentration bounds by direct summation.

    ``fkg`` requests the monotone-only FKG bound explicitly (True raises
    MonotonicityError on a non-monotone law); None computes it only when
    the law is monotone.
    """
    n = check_at_least("horizon", horizon, 1)
    secondary = _secondary_horizon(n, secondary_horizon)
    monotone = spec.is_monotone
    if fkg is True and not monotone:
        raise MonotonicityError("FKG bound requires a nondecreasing q sequence")
    alph, u, terms, lam = _tables(spec, model, n, secondary)
    alph = alph[:n]
    # alpha is a CDF: alpha_0 > 0 makes every alpha positive, and alpha_0 = 0
    # zeroes every Jensen term
    jensen_upper = _coverage(np.exp(lam[:n])) if alph[0] > 0.0 else 1.0

    fkg_upper = None
    if fkg is True or (fkg is None and monotone):
        fkg_upper = _coverage(np.cumprod(1.0 - u[1:] * (1.0 - alph)))

    concentration_lower, _, notes = _concentration_lower(terms, n)
    if alph[0] == 0.0:
        notes = ("jensen_upper is vacuous (1.0): alpha_0 = 0 zeroes every Jensen term", *notes)

    iid = isinstance(spec, ConstantQ) and spec.q < 1.0
    return BoundsReport(
        jensen_upper=jensen_upper, fkg_upper=fkg_upper, concentration_lower=concentration_lower,
        iid_closed=_coverage(_iid_series(spec.q_at(0), alph)) if iid else None, horizon=n, notes=notes,
    )


def forward_connectivity(spec: QSequence, model: RadiusModel, n: int) -> float:
    """P(0 <-> n): site n is marked and every site 1..n is covered.

    Exact dynamic program over (house-of-cards height, reach excess),
    where the reach excess is the furthest interval endpoint minus the
    current site, capped by the radius support bound m.  One array step
    per site, O(n^2 m) time.  Requires bounded radius support; unbounded
    models should go through the series/dual path instead.
    """
    n = check_at_least("n", n, 0)
    m = model.support_bound
    if m is None:
        raise UnboundedRadiusError(
            "forward connectivity DP needs bounded radius support; "
            "use the series/dual path for unbounded laws"
        )
    if n == 0:
        return 1.0
    pR = model.pmf_array()
    cdf = np.cumsum(pR)
    q = spec.q_array(n)[:, None]
    # W[s, e]: s sites since the last mark, reach e sites ahead; a site
    # with e = 0 is uncovered, so only the columns W[:, 1:] live on
    W = np.zeros((n + 1, m + 1))
    W[0] = pR
    for j in range(1, n + 1):  # before site j, only heights s < j carry weight
        live = W[:j, 1:]
        marked = (live * (1.0 - q[:j])).sum(axis=0)  # by the reach carried in
        W[1 : j + 1, :m] = live * q[:j]
        W[0, :m] = marked * cdf[:m]  # the new radius falls short of the reach
        W[0, m] = 0.0
        W[0, 1:] += pR[1:] * np.cumsum(marked)  # the new radius reaches further
    return float(W[0].sum())


@dataclass(frozen=True)
class ClassifyReport:
    """Finite-horizon survival/extinction diagnosis.

    Every verdict except the infinite-mean one is finite-horizon evidence,
    not proof; the windows record the statistics behind it.
    """

    mean: float
    mean_converged: bool
    tail_product: float
    ratio_window: tuple
    ck_window: tuple
    verdict: str
    notes: tuple = ()


# A partial product still this large at the mean horizon is taken as
# divergence of E T (the uninteresting regime where coverage dies).
_DIVERGENCE_FLOOR = 1e-6


def classify(spec: QSequence, model: RadiusModel, horizon: int) -> ClassifyReport:
    """Three-way survival diagnosis from the tail-criterion windows.

    Checks, in order: divergent mean (extinction, no tail analysis
    needed); a series that vanishes, as the bracket certifies (survival);
    window maximum of n (1 - alpha_n) / E T below 1 (extinction
    evidence); window minimum above 1 together with a nonincreasing
    C_k / k trend (survival evidence); otherwise inconclusive.
    """
    horizon = check_at_least("horizon", horizon, 4)
    notes: list = []
    mean_horizon = max(1000, min(horizon, 50_000))
    summary, surv = _interarrival(spec, mean_horizon, tol=1e-12)
    tail_product = float(surv[mean_horizon])
    if not summary.converged:
        divergent = tail_product >= _DIVERGENCE_FLOOR
        return ClassifyReport(
            mean=summary.mean, mean_converged=False, tail_product=tail_product,
            ratio_window=(), ck_window=(),
            verdict=VERDICT_EXTINCT_INFINITE_MEAN if divergent else VERDICT_INCONCLUSIVE,
            notes=("partial products bounded away from zero at the horizon" if divergent
                   else "mean neither converged nor clearly divergent at the horizon",),
        )

    mean = summary.mean
    grid = sorted({max(2, int(horizon * g)) for g in (0.5, 0.62, 0.75, 0.88, 1.0)})
    alph = model.alpha_array(grid[-1] + 1)
    ratio_window = tuple((k, k * (1.0 - float(alph[k])) / mean) for k in grid)
    ck_window = tuple((k, ck_at(spec, k) / k) for k in grid)
    ratios = [r for _, r in ratio_window]
    rmin, rmax = min(ratios), max(ratios)
    ck_trend_ok = ck_window[-1][1] <= ck_window[0][1] + 1e-12
    # the truncated mean carries ~1e-12 relative error, so ratios within
    # this band of the threshold cannot be called either way
    margin = 1e-9
    if _series_vanishes(spec, alph):
        verdict = VERDICT_SURVIVE_TAIL
        notes.append(
            "series vanishes: some q_i = 0 below the sites where alpha = 0, "
            "so the coverage probability is positive"
        )
    elif rmax < 1.0 - margin:
        verdict = VERDICT_EXTINCT_TAIL
    elif rmin > 1.0 + margin and ck_trend_ok:
        verdict = VERDICT_SURVIVE_TAIL
    else:
        verdict = VERDICT_INCONCLUSIVE
        if rmin > 1.0 and not ck_trend_ok:
            notes.append("tail ratio above 1 but C_k / k not settling; no survival evidence")
    return ClassifyReport(
        mean=mean, mean_converged=True, tail_product=tail_product,
        ratio_window=ratio_window, ck_window=ck_window,
        verdict=verdict, notes=tuple(notes),
    )
