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

    C_k = ( sum_{j=1..k} prod_{i=k..k+j-1} q*_i )^2.

Everything here is a pure function of its inputs; law objects are frozen
and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .errors import ValidationError, check_at_least, check_float, check_fragment, family_fragment

# Climb probabilities are capped strictly below 1 so the chain cannot get
# absorbed (q_i = 1 would make T defective, which the model excludes).
Q_CAP = 1.0 - 1e-12


def _check_probability(name: str, value: float) -> float:
    value = check_float(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class QSequence:
    """A renewal law specified by its climb probabilities q_i.

    A built-in law defines its formula once, as the hook ``_q(idx)`` that
    evaluates q at every index of an integer array; ``q_at`` and
    ``q_array`` are that hook on one index and on 0..n-1, so both give the
    same bits.  A subclass may instead define only ``q_at``: the default
    hook then loops over it.  All values are clamped to [0, Q_CAP].
    """

    def _q(self, idx: np.ndarray) -> np.ndarray:
        if type(self).q_at is QSequence.q_at:
            raise NotImplementedError(f"{type(self).__name__} defines neither _q nor q_at")
        return np.array([self.q_at(i) for i in idx.tolist()], dtype=float)

    def q_at(self, i: int) -> float:
        i = check_at_least("index", i, 0)
        return float(self._q(np.array([i], dtype=np.int64))[0])

    def q_array(self, n: int) -> np.ndarray:
        """Values q_0 .. q_{n-1} as a float array."""
        return self._q(np.arange(n))

    @property
    def is_monotone(self) -> bool:
        """True when q_i is nondecreasing in i (enables the FKG bound)."""
        raise NotImplementedError

    def to_config(self) -> dict:
        """The fragment ``q_sequence_from_config`` reads back: the family and keys of its row."""
        return family_fragment(self, _Q_FAMILIES)


@dataclass(frozen=True)
class ConstantQ(QSequence):
    """q_i = q for every i; the marks beyond site 0 are i.i.d. Bernoulli(1-q)."""

    q: float

    def __post_init__(self) -> None:
        _check_probability("q", self.q)

    def _q(self, idx: np.ndarray) -> np.ndarray:
        return np.full(idx.shape, min(self.q, Q_CAP), dtype=float)

    @property
    def is_monotone(self) -> bool:
        return True


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

    def _q(self, idx: np.ndarray) -> np.ndarray:
        return np.where(idx == 0, float(min(self.q0, Q_CAP)), float(min(self.q1, Q_CAP)))

    @property
    def is_monotone(self) -> bool:
        return self.q0 <= self.q1


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
        object.__setattr__(self, "i0", check_at_least("i0", self.i0, 2))

    def _q(self, idx: np.ndarray) -> np.ndarray:
        j = np.maximum(idx.astype(float), float(self.i0))
        return np.minimum(1.0 - j ** (-self.beta), Q_CAP)

    @property
    def is_monotone(self) -> bool:
        return True


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

    def _q(self, idx: np.ndarray) -> np.ndarray:
        m = len(self.values)
        out = np.minimum(np.array(self.values, dtype=float), Q_CAP)[np.minimum(idx, m - 1)]
        beyond = idx >= m
        if self.tail != REPEAT_LAST and beyond.any():
            out[beyond] = self.tail._q(idx[beyond])
        return out

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


# family -> (law class, required keys, optional keys); a key names the class's
# field, except a table's "q" (its values); an absent key takes the field's default
_Q_FAMILIES = {
    "constant": (ConstantQ, ("q",), ()),
    "markov": (MarkovQ, ("q0", "q1"), ()),
    "poly_monotone": (PolynomialMonotoneQ, ("beta",), ("i0",)),
    "table": (TableQ, ("q",), ("tail",)),
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
    family, fields = check_fragment(fragment, _Q_FAMILIES, "q-spec", "q")
    if family == "table":
        if not isinstance(fragment["q"], (list, tuple)):
            raise ValidationError(f"table q must be a list, got {fragment['q']!r}")
        fields["values"] = fields.pop("q")
        if isinstance(fields.get("tail"), Mapping):
            fields["tail"] = q_sequence_from_config(fields["tail"])
    return _Q_FAMILIES[family][0](**fields)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


# The most heights a law lumps to: the lumped pass holds a matrix of that
# order per site, 2.5 MB at 4 heights and N = 2e4 (15 MB at 9, and no faster).
_MAX_HEIGHTS = 4


def _lumped(spec: QSequence) -> Optional[np.ndarray]:
    """Clamped q_0..q_m, m >= 1 least, where q_h = q_m for every h >= m; None for another law.

    The house-of-cards chain of ConstantQ, MarkovQ and a repeat_last TableQ
    lumps to the heights 0..m, m standing for all heights from m on; a
    table that needs more than _MAX_HEIGHTS heights does not lump.
    """
    if isinstance(spec, TableQ) and spec.tail == REPEAT_LAST:
        q = spec.q_array(max(2, len(spec.values)))
    elif isinstance(spec, (ConstantQ, MarkovQ)):
        q = spec.q_array(2)
    else:
        return None
    m = q.size - 1
    while m > 1 and q[m - 1] == q[m]:
        m -= 1
    return q[: m + 1] if m < _MAX_HEIGHTS else None


def q_star_array(spec: QSequence, n: int) -> np.ndarray:
    """q*_0 .. q*_{n-1} as a float array."""
    return np.maximum.accumulate(spec.q_array(n))


def survival_products(spec: QSequence, n: int) -> np.ndarray:
    """P(T > 0), ..., P(T > n): the partial products prod_{i<k} q_i, k = 0..n."""
    n = check_at_least("n", n, 0)
    out = np.empty(n + 1)
    out[0], out[1:] = 1.0, spec.q_array(n)
    # a doubling prefix carries out[lo] in, as one cumprod does; a product p
    # with p * min(q) == p stays p, as q <= 1, so a stalled subnormal tail is filled
    lo, hi, tiny = 0, min(64, n), np.finfo(float).tiny
    while lo < n:
        np.cumprod(out[lo : hi + 1], out=out[lo : hi + 1])
        if out[hi] < tiny and out[hi] * out[hi + 1 :].min(initial=1.0) == out[hi]:
            out[hi + 1 :] = out[hi]
            break
        lo, hi = hi, min(2 * hi, n)
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
    return _interarrival(spec, horizon, tol)[0]


def _interarrival(spec: QSequence, horizon: int, tol: float = 1e-15) -> tuple:
    """``interarrival`` and the survival products P(T > 0), ..., P(T > horizon) it builds."""
    horizon = check_at_least("horizon", horizon, 1)
    if not tol > 0.0:
        raise ValidationError(f"tol must be positive, got {tol!r}")
    q = spec.q_array(horizon)
    surv = survival_products(spec, horizon)
    pmf = np.zeros(horizon + 1)
    pmf[1:] = (1.0 - q) * surv[:-1]
    below = np.flatnonzero(surv[1:] < tol)
    converged = below.size > 0
    stop = int(below[0]) + 1 if converged else horizon
    # cumsum adds in sequence, as a running sum of the terms would
    mean = np.cumsum(np.concatenate(([1.0], surv[1 : stop + 1])))[-1]
    return InterArrivalSummary(pmf=pmf, mean=mean, converged=converged, horizon=horizon), surv


@dataclass(frozen=True)
class RenewalProbTable:
    """u_n = P(xi_n = 1 | xi_0 = 1) for n = 0..horizon."""

    u: np.ndarray
    horizon: int


# Block length of renewal_solve.  The blocked plain solve's worst relative
# error on u at N = 2e4 (constant and Markov laws against their closed
# forms) was 4.5e-12 with 64, 7e-12 with 128 and 1e-11 with 256.
_BLOCK = 128

# The renewal form's long products (renewal_solve's updates, S and the dual
# pmf) run on kernels scaled by 2^_LIFT and are scaled back by 2^-_LIFT.  A
# kernel entry of a pmf or of survival products may be subnormal (P(T > s)
# can stall at 5e-324), and every product with a subnormal operand or result
# is slow on x86 and loses relative precision.  Lifted, those products are
# normal; for terms the unlifted sum kept normal, power-of-two scaling is
# exact and the bits are the same.  Kernel entries in [0, 1] and factors of
# at most 1 keep every lifted sum below 2^_LIFT times the number of terms.
_LIFT = 600

# renewal_solve works in groups of _GROUP blocks.  A GEMM of _toeplitz_product
# spans at most _ROWS output blocks, under 2^19 multiply-adds, which OpenBLAS
# runs on the calling thread; threaded, such GEMMs stalled for up to 16 ms.
_GROUP, _ROWS = 8, 31


def _toeplitz_product(x: np.ndarray, h: np.ndarray, t0: int, n: int, out=None) -> np.ndarray:
    """Entries t0 .. t0+n-1 of the full convolution x * h, as _BLOCK x _BLOCK GEMMs.

    With B = _BLOCK, output t0 + B i + r is sum_m sum_p H[i+m, p] X_m[p, r]
    for H[c, p] = h[t0 - len(x) + 1 + B c + p] and the Toeplitz blocks
    X_m[p, r] = x[len(x) - 1 - B m - p + r], zero outside h and x.  Rows of H
    outside its nonzero span are skipped (a causal product does its triangle).
    Each GEMM is added, through one buffer, to ``out`` (zeros when None),
    which takes the outputs up to whole blocks; the first n are returned.
    The shapes and BLAS kernels, not values or thread count, order each sum.
    """
    B = _BLOCK
    I, M = -(-n // B), (len(x) + B - 2) // B + 1
    d, size = t0 - len(x) + 1, (I + M - 1) * B
    if not 0 <= d <= len(h) - size:  # h does not span H: a zero-padded copy does
        h, d = np.concatenate((np.zeros(max(0, -d)), h[max(0, d) :], np.zeros(size))), 0
    H = h[d : d + size].reshape(-1, B)
    rows = np.flatnonzero(H.any(axis=1))
    first, stop = (int(rows[0]), int(rows[-1]) + 1) if rows.size else (0, 0)
    # row p of X_m is xp[B m + p :][:B] reversed
    xp = np.concatenate((np.zeros(B - 1), x[::-1], np.zeros(2 * B)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, B)
    sums = (np.zeros(I * B) if out is None else out)[: I * B].reshape(I, B)
    buf = np.empty((_ROWS, B))
    for m in range(M):
        X = np.ascontiguousarray(windows[B * m : B * m + B, ::-1])
        end = min(I, stop - m)
        for a in range(max(0, first - m), end, _ROWS):
            b = min(a + _ROWS, end)
            sums[a:b] += np.matmul(H[a + m : b + m], X, out=buf[: b - a])
    return sums.reshape(-1)[:n]


def renewal_solve(f: np.ndarray, mult=None) -> np.ndarray:
    """Solve g_0 = 1, g_n = mult[n-1] * sum_{k=1..n} f_k g_{n-k} for n < len(f).

    ``f[0]`` is ignored; ``mult`` defaults to all ones (the plain renewal
    equation).  f_1, f_2, ... must be a (possibly defective) pmf and
    ``mult`` lie in [0, 1], as for every law of this package, so that
    0 <= g_n <= 1.  Only f_1..f_K enter, K the last index with f_K != 0:
    the terms left out are exact zeros, and the cost is O(N K).  g is built
    in blocks of _BLOCK indices, in groups of _GROUP blocks.  A finished
    block adds its share of the sum to the rest of its group with one
    "valid" np.convolve, and a finished group adds its share to the next K
    indices with one _toeplitz_product straight into the running sums, both
    against the kernel lifted by 2^_LIFT (subnormal f_k g_{n-k} are formed
    as normal numbers) and zero-padded once (the far products read it as
    views); each block reads those sums scaled back by 2^-_LIFT.  Inside a
    block the plain equation applies the lower-triangular Toeplitz inverse
    of the block, whose first column is the first block's own solution; a
    ``mult`` solve keeps one dot per index.  Every operation is on
    nonnegative numbers (no FFT, which loses 1e-7 relative), so the rounding
    error stays componentwise relative.
    """
    horizon = len(f) - 1
    g = np.zeros(horizon + 1)
    g[0] = 1.0
    support = np.flatnonzero(f[1:])
    if not support.size:
        return g
    K = int(support[-1]) + 1
    kernel = np.array(f[: K + 1], dtype=float)
    kernel[0] = 0.0
    scale = np.ones(horizon + 1)  # scale[n] multiplies g_n
    if mult is not None:
        scale[1:] = mult
    rev = np.zeros(_BLOCK)  # rev[_BLOCK - 1 - k] = f_k for k < _BLOCK
    rev[_BLOCK - 1 - min(K, _BLOCK - 1) :] = kernel[_BLOCK - 1 :: -1]
    # dots[i](x) = f_i x_0 + ... + f_1 x_{i-1}, the in-block sum at offset i
    dots = [rev[_BLOCK - 1 - i : _BLOCK - 1].dot for i in range(min(_BLOCK, horizon + 1))]
    lifted = np.ldexp(np.concatenate((kernel, np.zeros((_GROUP + 1) * _BLOCK))), _LIFT)
    acc = np.zeros(horizon + _BLOCK)  # 2^_LIFT sum_k f_k g_{n-k} over the finished blocks
    inverse = None
    for a in range(0, horizon + 1, _BLOCK):
        b = min(a + _BLOCK, horizon + 1)
        block = g[a:b]
        sums = np.ldexp(acc[a:b], -_LIFT)
        if inverse is not None:
            block[:] = np.convolve(sums, inverse[: b - a])[: b - a]
        else:
            sums, factors = sums.tolist(), scale[a:b].tolist()
            for i in range(1 if a == 0 else 0, b - a):
                block[i] = factors[i] * (sums[i] + dots[i](block[:i]))
            if mult is None:
                inverse = g[:b].copy()
        start = a - a % (_GROUP * _BLOCK)
        end = min(start + _GROUP * _BLOCK, horizon + 1)
        near, reach = min(end, b + K), min(horizon + 1, end + K)
        if near > b:
            acc[b:near] += np.convolve(lifted[1 : near - a], block, "valid")
        if b == end < reach:
            _toeplitz_product(g[start:end], lifted, end - start, reach - end, acc[end:])
    return g


def renewal_probabilities(spec: QSequence, horizon: int) -> RenewalProbTable:
    """Renewal probabilities u_n = sum_k P(T=k) u_{n-k}, by ``renewal_solve``."""
    horizon = check_at_least("horizon", horizon, 0)
    pmf = interarrival(spec, horizon).pmf if horizon else np.zeros(1)
    return RenewalProbTable(u=renewal_solve(pmf), horizon=horizon)


def markov_renewal_closed(q0: float, q1: float, i):
    """Closed-form u_i for the Markov family, via the spectral decomposition.

    The two-state mark chain has stationary mark probability
    pi = (1-q1) / (1-q1+q0) and second eigenvalue s = q1-q0, giving

        u_i = pi + (1 - pi) * s^i,

    which matches the renewal recursion (u_0 = 1, geometric relaxation).
    For s < 0 the odd powers would subtract, so with i = 2j + r it is
    evaluated as

        u_i = s^(2j) u_r - pi * expm1(2j log|s|),   u_0 = 1, u_1 = 1 - q0,

    where every term is nonnegative and the error stays relative.  For
    |s| > 1/2, log|s| is taken as log1p(-((1 - q0) + q1)), whose argument
    is exact up to one rounding, as log(q0 - q1) would lose the relative
    accuracy of s^(2j) - 1 when |s| is near 1.  The gap to pi is at most
    |s|^(i-1); where that is below ulp(pi)/8 it cannot move pi, and u_i is pi.
    ``i`` may be an integer array, which gives the array of u_i.
    """
    q0 = _check_probability("q0", q0)
    q1 = _check_probability("q1", q1)
    if q0 >= 1.0 or q1 >= 1.0:
        raise ValidationError("q0 and q1 must be < 1 for the closed form")
    i = np.asarray(i)
    if np.any(i < 0):
        raise ValidationError("index must be nonnegative")
    denom = 1.0 - q1 + q0
    pi = (1.0 - q1) / denom
    s = q1 - q0
    u = np.full(i.shape, pi)
    live = (i - 1) * math.log(abs(s)) >= math.log(np.spacing(pi) / 8) - 1 if s else i == 0
    if s >= 0.0:
        u[live] = pi + (q0 / denom) * s ** i[live]
        return u[()]
    r = i[live] % 2
    log_abs_s = math.log1p(-((1.0 - q0) + q1)) if s < -0.5 else math.log(-s)
    e = (i[live] - r) * log_abs_s
    u[live] = np.exp(e) * np.where(r, 1.0 - q0, 1.0) - pi * np.expm1(e)
    return u[()]


# ---------------------------------------------------------------------------
# Coalescence constants C_k
# ---------------------------------------------------------------------------

# Inner-sum terms prod_{i=k..k+j-1} q*_i are nonincreasing in j, so once a
# term falls below this cutoff the remainder is at most k * cutoff; that
# first term is still included.  As q* is nondecreasing, the j-th term is
# nondecreasing in k, and so are its running products (rounding is monotone):
# the rows k that ck_sequence still sums at step j form a suffix of k >= j.
_CK_TERM_CUTOFF = 1e-18


def ck_at(spec: QSequence, k: int) -> float:
    """C_k = (sum_{j=1..k} prod_{i=k..k+j-1} q*_i)^2 for a single k.

    Row k of the ck_sequence sweep, bit for bit: the terms are the running
    products of q*_k, q*_{k+1}, ..., cut after the first term at or below
    the cutoff, and added in order.
    """
    k = check_at_least("k", k, 1)
    sums = _lumped_row(spec, k)
    if sums is None:
        sums = _row_sums(q_star_array(spec, 2 * k)[k:])
    t = float(sums[-1])
    return t * t  # as np.square in the sweep; t ** 2 goes through pow


def _row_sums(factors: np.ndarray) -> np.ndarray:
    """Running sums of one row's terms, the running products of its q* factors, up to the cutoff."""
    m = 64  # a doubling prefix stops long before the products can stall at 5e-324
    while (terms := np.cumprod(factors[:m]))[-1] > _CK_TERM_CUTOFF and m < factors.size:
        m *= 2
    return np.cumsum(terms[: np.count_nonzero(terms > _CK_TERM_CUTOFF) + 1])


def _lumped_row(spec: QSequence, kmax: int) -> Optional[np.ndarray]:
    """``_row_sums`` of every row k >= 1 of a law lumped to two heights, or None for another law.

    From index 1 on, q* of such a law is max(q_0, q_1), so every row sums
    the same terms, and row k is entry min(k, len) - 1 of the result.
    """
    q = _lumped(spec)
    return None if q is None or len(q) > 2 else _row_sums(np.full(kmax, max(q)))


@dataclass(frozen=True)
class CoalescenceConstants:
    """C_1..C_kmax (index-aligned: c[k] = C_k, c[0] = nan) and C_k / k."""

    c: np.ndarray
    ratio: np.ndarray
    kmax: int


def ck_sequence(spec: QSequence, kmax: int) -> CoalescenceConstants:
    """All coalescence constants C_1..C_kmax plus the diagnostics C_k / k.

    One sweep over j updates all k: the rows still summing form a suffix
    lo..kmax, so a step is one slice multiply, one add and one searchsorted,
    and the total work equals that of summing each k on its own.  A law
    lumped to two heights sums its one shared row instead (``_lumped_row``).

    C_k / k is the quantity whose boundedness separates the summable from
    the divergent regime in the concentration-based survival criterion.
    """
    kmax = check_at_least("kmax", kmax, 1)
    sums = _lumped_row(spec, kmax)
    if sums is not None:  # row k is sums[min(k, len) - 1]
        total = np.empty(kmax + 1)
        total[1 : sums.size + 1] = sums
        total[sums.size + 1 :] = sums[-1]
    else:
        qs = q_star_array(spec, 2 * kmax)
        total = np.zeros(kmax + 1)
        term = np.ones(kmax + 1)  # term[k]: the j-th term of row k
        lo = j = 1
        while lo <= kmax:
            total[lo:] += np.multiply(term[lo:], qs[lo + j - 1 : kmax + j], out=term[lo:])
            j += 1
            lo = max(lo + int(np.searchsorted(term[lo:], _CK_TERM_CUTOFF, side="right")), j)
    c = np.square(total, out=total)  # in place: a new array here grew peak RSS by ~4 MB
    c[0] = np.nan
    ratio = np.empty_like(c)
    ratio[0] = np.nan
    ratio[1:] = c[1:] / np.arange(1, kmax + 1)
    return CoalescenceConstants(c=c, ratio=ratio, kmax=kmax)
