import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renewperc import (
    ConstantQ,
    FiniteTableRadius,
    InfiniteRadius,
    MarkovQ,
    PolynomialMonotoneQ,
    QSequence,
    TableQ,
    ValidationError,
    ck_at,
    ck_sequence,
    interarrival,
    q_sequence_from_config,
    q_star_array,
    renewal_probabilities,
    simulate_connectivity,
    survival_products,
)
from renewperc.renewal import _CK_TERM_CUTOFF, _LIFT, Q_CAP, _lumped_row, _toeplitz_product, renewal_solve

SPECS = [
    ConstantQ(0.5),
    ConstantQ(0.05),
    MarkovQ(0.3, 0.6),
    MarkovQ(0.7, 0.2),
    TableQ((0.9, 0.2, 0.5)),
    PolynomialMonotoneQ(0.25, 2),
]


def test_q_at_examples():
    assert ConstantQ(0.5).q_at(7) == 0.5
    assert PolynomialMonotoneQ(0.5, 2).q_at(2) == pytest.approx(1 - 1 / math.sqrt(2), abs=1e-12)
    mk = MarkovQ(0.3, 0.6)
    assert mk.q_at(0) == 0.3
    assert mk.q_at(5) == 0.6
    assert MarkovQ(0, 0).q_array(2).dtype == float


def test_q_at_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        ConstantQ(1.5)
    with pytest.raises(ValidationError):
        MarkovQ(-0.1, 0.5)
    with pytest.raises(ValidationError):
        PolynomialMonotoneQ(0.25, 1)
    with pytest.raises(ValidationError):
        TableQ(())
    with pytest.raises(ValidationError):
        ConstantQ(0.5).q_at(-1)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_q_star_is_running_max(values):
    spec = TableQ(tuple(values))
    stars = q_star_array(spec, len(values))
    assert stars[0] == spec.q_at(0)
    for i in range(1, len(values)):
        assert stars[i] == max(stars[i - 1], spec.q_at(i))


_Q = st.floats(0.0, 1.0)
_LAWS = st.one_of(
    st.builds(ConstantQ, _Q),
    st.builds(MarkovQ, _Q, _Q),
    st.builds(PolynomialMonotoneQ, st.floats(0.05, 3.0), st.integers(2, 50)),
    st.lists(_Q, min_size=1, max_size=6).map(lambda v: TableQ(tuple(v))),
    st.tuples(st.lists(_Q, min_size=1, max_size=6), st.floats(0.05, 3.0)).map(
        lambda t: TableQ(tuple(t[0]), tail=PolynomialMonotoneQ(t[1]))
    ),
)


@settings(max_examples=200, deadline=None)
@given(_LAWS, st.integers(0, 3000), st.integers(1, 3001))
def test_q_at_is_q_array_bit_for_bit(spec, i, extra):
    values = spec.q_array(i + extra)
    assert spec.q_at(i) == values[i]
    assert type(spec.q_at(i)) is float


def _no_arange(*args, **kwargs):
    raise AssertionError("a scalar lookup built an index range")


def test_q_at_far_index_costs_one_entry(monkeypatch):
    monkeypatch.setattr(np, "arange", _no_arange)
    for spec in SPECS + [TableQ((0.1,), tail=PolynomialMonotoneQ(0.5))]:
        assert 0.0 <= spec.q_at(10**12) <= Q_CAP
    assert TableQ((0.9, 0.2, 0.5)).q_at(10**12) == 0.5


def test_scalar_only_subclass_gets_its_array():
    @dataclass(frozen=True)
    class Alternating(QSequence):
        def q_at(self, i):
            return 0.25 if i % 2 else 0.75

    spec = Alternating()
    assert spec.q_array(4).tolist() == [0.75, 0.25, 0.75, 0.25]
    assert survival_products(spec, 2).tolist() == [1.0, 0.75, 0.1875]
    assert TableQ((0.5,), tail=spec).q_array(3).tolist() == [0.5, 0.25, 0.75]
    with pytest.raises(NotImplementedError):
        QSequence().q_array(3)


@pytest.mark.parametrize(
    "spec",
    [
        ConstantQ(0.6),  # stalls at 5e-324 from index 1457
        ConstantQ(0.5),  # the product ties to 0
        PolynomialMonotoneQ(0.25),  # stalls at 1.5e-323 from index 3972
        TableQ((0.6,) * 3000 + (0.3,)),  # stalls, then q drops below 1/2 and the product reaches 0
    ],
)
def test_survival_products_are_one_sequential_cumprod(spec):
    for n in (0, 1, 63, 64, 65, 1500, 10**4):
        expected = np.concatenate([[1.0], np.cumprod(spec.q_array(n))])
        assert survival_products(spec, n).tobytes() == expected.tobytes(), n


def test_interarrival_constant_half():
    summary = interarrival(ConstantQ(0.5), 200, tol=1e-16)
    # P(T=3) = q^2 (1-q) = 0.125, E T = 1/(1-q) = 2
    assert summary.pmf[3] == pytest.approx(0.125, abs=1e-15)
    assert summary.mean == pytest.approx(2.0, abs=1e-12)
    assert summary.converged


def test_interarrival_reports_lower_bound_when_slow():
    summary = interarrival(ConstantQ(0.999), 50, tol=1e-12)
    assert not summary.converged
    assert summary.mean < 1.0 / (1.0 - 0.999)


def test_interarrival_rejects_bad_tol():
    with pytest.raises(ValidationError):
        interarrival(ConstantQ(0.5), 10, tol=0.0)
    with pytest.raises(ValidationError):
        interarrival(ConstantQ(0.5), 0, tol=1e-12)


def test_interarrival_poly_mean_matches_series_oracle():
    spec = PolynomialMonotoneQ(0.25, 2)
    # independent oracle: plain-Python accumulation of 1 + sum of products
    def brute(n):
        total, prod = 1.0, 1.0
        for i in range(n):
            prod *= spec.q_at(i)
            total += prod
        return total

    two_horizons = (brute(2000), brute(4000))
    assert two_horizons[0] == pytest.approx(two_horizons[1], abs=1e-12)
    summary = interarrival(spec, 4000, tol=1e-15)
    assert summary.converged
    assert summary.mean == pytest.approx(two_horizons[1], abs=1e-12)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("horizon", [1, 7, 60])
def test_interarrival_mass_conservation(spec, horizon):
    summary = interarrival(spec, horizon)
    leftover = survival_products(spec, horizon)[horizon]
    assert math.fsum(summary.pmf[1:]) + leftover == pytest.approx(1.0, abs=5e-13)


def _running_sum_mean(spec, horizon, tol):
    """The mean as a running sum 1 + P(T>1) + ..., stopping after the first term below tol."""
    surv = survival_products(spec, horizon)
    mean = 1.0
    for n in range(1, horizon + 1):
        mean += surv[n]
        if surv[n] < tol:
            return mean, True
    return mean, False


@pytest.mark.parametrize("horizon,tol", [(50, 1e-12), (1000, 1e-15), (5000, 1e-12), (20_000, 1e-14)])
@pytest.mark.parametrize(
    "spec", SPECS + [ConstantQ(0.999), ConstantQ(1.0), TableQ((0.0,))], ids=repr
)
def test_interarrival_mean_is_the_running_sum(spec, horizon, tol):
    summary = interarrival(spec, horizon, tol)
    assert (summary.mean, summary.converged) == _running_sum_mean(spec, horizon, tol)


def _reference_solve(f, mult=None):
    """g_0 = 1, g_n = mult[n-1] * sum_{k=1..n} f_k g_{n-k}, each sum by math.fsum."""
    g = np.zeros(len(f))
    g[0] = 1.0
    for n in range(1, len(f)):
        h = math.fsum((f[1 : n + 1] * g[n - 1 :: -1]).tolist())
        g[n] = h if mult is None else mult[n - 1] * h
    return g


def _assert_matches_reference(f, mult=None):
    got, want = renewal_solve(f, mult), _reference_solve(f, mult)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-300)


# f with support 1..3, support up to ~600 (drains to exact zeros), full
# support, no mass at all, and all mass at 1
KERNEL_LAWS = {
    "short": TableQ((0.3, 0.6, 0.0)),
    "drains": ConstantQ(0.3),
    "full": PolynomialMonotoneQ(0.25),
    "unit": TableQ((0.0,)),
}


@pytest.mark.parametrize("mult_kind", ["none", "random", "zeros"])
@pytest.mark.parametrize("kind", [*KERNEL_LAWS, "zeros"])
@pytest.mark.parametrize("horizon", [1, 127, 128, 129, 257, 1023, 1024, 1025, 2049, 3000])
def test_renewal_solve_matches_reference(horizon, kind, mult_kind):
    f = np.zeros(horizon + 1) if kind == "zeros" else interarrival(KERNEL_LAWS[kind], horizon).pmf
    mult = {
        "none": None,
        "random": np.random.default_rng(horizon).random(horizon),
        "zeros": InfiniteRadius().alpha_array(horizon),
    }[mult_kind]
    _assert_matches_reference(f, mult)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 400),
    st.integers(1, 400),
    st.floats(0.0, 1.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_renewal_solve_random_kernels(horizon, support, mass, scaled, seed):
    rng = np.random.default_rng(seed)
    f = np.zeros(horizon + 1)
    k = min(support, horizon)
    f[1 : k + 1] = rng.random(k) * (rng.random(k) < 0.7)
    total = f.sum()
    if total > 0.0:
        f *= mass / total
    _assert_matches_reference(f, rng.random(horizon) if scaled else None)


def _fsum_convolution(x, h, t0, n):
    """Entries t0 .. t0+n-1 of the full convolution x * h, each sum by math.fsum."""
    out = np.zeros(n)
    for t in range(t0, t0 + n):
        lo, hi = max(0, t - len(h) + 1), min(len(x), t + 1)
        if lo < hi:
            out[t - t0] = math.fsum((x[lo:hi] * h[t - hi + 1 : t - lo + 1][::-1]).tolist())
    return out


@pytest.mark.parametrize("hlen", [1, 128, 700, 1025])
@pytest.mark.parametrize("xlen", [1, 127, 128, 129, 1023, 1024, 1025])
def test_toeplitz_product_matches_fsum(xlen, hlen):
    rng = np.random.default_rng([xlen, hlen])
    x, h = rng.random(xlen), rng.random(hlen)
    h[rng.integers(0, hlen + 1) :] = 0.0  # a kernel that ends in zeros, or none at all
    for t0 in (0, xlen // 2, xlen - 1, xlen + 5, xlen + hlen + 3):
        n = int(rng.integers(1, 400))
        got, want = _toeplitz_product(x, h, t0, n), _fsum_convolution(x, h, t0, n)
        assert got.shape == (n,)
        assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_toeplitz_product_on_a_long_lifted_subnormal_kernel():
    # P(T > .) stalls at a subnormal here; 40 output blocks take several GEMMs
    # per Toeplitz block of x
    surv = survival_products(ConstantQ(0.6), 5200)
    assert np.any((surv > 0.0) & (surv < np.finfo(float).tiny))
    lifted = np.ldexp(surv, _LIFT)
    x = np.random.default_rng(5).random(300)
    for t0 in (0, 299, 700):
        want = _fsum_convolution(x, lifted, t0, 5000)
        assert np.all(np.abs(_toeplitz_product(x, lifted, t0, 5000) - want) <= 1e-13 * want)


def test_toeplitz_product_adds_into_out():
    rng = np.random.default_rng(11)
    x, h = rng.random(300), rng.random(900)
    base = rng.random(5 * 128)
    out = base.copy()
    got = _toeplitz_product(x, h, 299, 450, out)
    assert got.shape == (450,) and np.shares_memory(got, out)
    # the 450 outputs round up to 4 blocks of 128, which all go to out
    want = base[:512] + _fsum_convolution(x, h, 299, 512)
    assert np.all(np.abs(out[:512] - want) <= 1e-13 * want)
    assert np.array_equal(out[512:], base[512:])


def test_renewal_probabilities_constant():
    table = renewal_probabilities(ConstantQ(0.5), 40)
    assert table.u[0] == 1.0
    assert np.allclose(table.u[1:], 0.5, atol=1e-13)


def test_renewal_probabilities_deterministic_marks():
    table = renewal_probabilities(TableQ((0.0,)), 20)
    assert np.allclose(table.u, 1.0, atol=0)


def test_renewal_probabilities_markov_limit():
    # two-state stationary mark probability (1-q1)/(1-q1+q0) = 0.4/0.7
    table = renewal_probabilities(MarkovQ(0.3, 0.6), 200)
    assert table.u[200] == pytest.approx(0.4 / 0.7, abs=1e-12)


@pytest.mark.parametrize(
    "spec,horizon,tol",
    [
        (ConstantQ(0.5), 100, 1e-12),
        (MarkovQ(0.3, 0.6), 300, 1e-12),
        (PolynomialMonotoneQ(0.25, 2), 3000, 5e-3),
    ],
)
def test_renewal_probabilities_converge_to_inverse_mean(spec, horizon, tol):
    mean = interarrival(spec, 10_000, tol=1e-15).mean
    table = renewal_probabilities(spec, horizon)
    assert abs(table.u[horizon] - 1.0 / mean) <= tol


@pytest.mark.parametrize("spec", SPECS)
def test_renewal_recursion_recheck_by_direct_convolution(spec):
    horizon = 60
    table = renewal_probabilities(spec, horizon)
    pmf = interarrival(spec, horizon).pmf
    for n in range(1, horizon + 1):
        direct = math.fsum(pmf[k] * table.u[n - k] for k in range(1, n + 1))
        assert table.u[n] == pytest.approx(direct, abs=1e-12)


LARGE_N = 20_000


@pytest.mark.parametrize("q", [round(0.05 * i, 2) for i in range(1, 20)])
def test_renewal_probabilities_constant_large_horizon(q):
    spec = ConstantQ(q)
    for u in (renewal_solve(interarrival(spec, LARGE_N).pmf), renewal_probabilities(spec, LARGE_N).u):
        assert u[0] == 1.0
        assert np.max(np.abs(u[1:] - (1.0 - q))) <= 1e-11 * (1.0 - q)


@pytest.mark.parametrize("q1", [0.2, 0.6, 0.9])
@pytest.mark.parametrize("q0", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_renewal_probabilities_markov_large_horizon(q0, q1):
    # the renewal kernel against the lumped transfer pass, two independent algorithms
    spec = MarkovQ(q0, q1)
    kernel = renewal_solve(interarrival(spec, LARGE_N).pmf)
    u = renewal_probabilities(spec, LARGE_N).u
    assert np.max(np.abs(kernel - u) / u) <= 1e-11


def _lumped_u_exact(q, n):
    """u_0..u_n of the chain lumped to heights 0..m, q = (q_0..q_m), as x_{i+1} = M(1) x_i in exact rationals."""
    q = [Fraction(v) for v in q]
    x, u = [Fraction(1)] + [Fraction(0)] * (len(q) - 1), [Fraction(1)]
    for _ in range(n):
        climbed = [v * h for v, h in zip(x, q)]
        x = [sum(v * (1 - h) for v, h in zip(x, q))] + climbed[:-2] + [climbed[-2] + climbed[-1]]
        u.append(x[0])
    return np.array([float(v) for v in u])


@pytest.mark.parametrize("q0", [Q_CAP, 1.0 - 1e-6])
def test_lumped_u_is_relatively_accurate_when_q1_below_q0(q0):
    # u_n is about 2e-12 at odd n here; the powers of M(1) hold only
    # nonnegative entries, so nothing subtracts
    want = _lumped_u_exact((q0, 0.0), 400)
    got = renewal_probabilities(MarkovQ(q0, 0.0), 400).u
    assert np.max(np.abs(got - want) / want) <= 1e-13


@pytest.mark.parametrize(
    "values",
    [(0.9, 0.2, 0.5), (0.3, 0.6, 0.5), (0.2, 0.3, 0.6), (0.1, 0.9, 0.2, 0.7), (Q_CAP, 0.0, Q_CAP, 0.3)],
)
def test_lumped_u_of_tables_matches_the_exact_height_recursion(values):
    want = _lumped_u_exact(values, 200)
    got = renewal_probabilities(TableQ(values), 200).u
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_ck_constant_half_hand_value():
    # inner sum at k=2: q + q^2 = 0.75, squared = 0.5625
    table = ck_sequence(ConstantQ(0.5), 2)
    assert table.c[2] == pytest.approx(0.5625, abs=1e-15)
    assert table.ratio[2] == pytest.approx(0.5625 / 2, abs=1e-15)


def test_ck_constant_closed_form():
    q = 0.7
    table = ck_sequence(ConstantQ(q), 60)
    for k in (1, 2, 5, 20, 60):
        expected = (q * (1 - q**k) / (1 - q)) ** 2
        assert table.c[k] == pytest.approx(expected, rel=1e-12)
        assert ck_at(ConstantQ(q), k) == pytest.approx(expected, rel=1e-12)


def test_ck_doeblin_family_is_bounded():
    spec = TableQ((0.3, 0.7, 0.5))
    eps = 1.0 - 0.7
    bound = ((1 - eps) / eps) ** 2
    table = ck_sequence(spec, 120)
    assert np.all(table.c[1:] <= bound + 1e-12)


CK_LAWS = [
    ConstantQ(0.7),
    MarkovQ(0.6, 0.3),  # raw q is not monotone
    PolynomialMonotoneQ(0.25),
    TableQ((0.9, 0.2, 0.5)),
    TableQ((0.0, 0.0, 0.3)),  # log q* = -inf at the head
    ConstantQ(0.999),  # no term reaches the cutoff: the j <= k cap binds
]


@pytest.mark.parametrize("kmax", [1, 2, 3000])
@pytest.mark.parametrize("spec", CK_LAWS, ids=repr)
def test_ck_sequence_matches_single_k(spec, kmax):
    table = ck_sequence(spec, kmax)
    assert table.c.shape == (kmax + 1,) and math.isnan(table.c[0])
    # every row, bit for bit: ck_at is row k of the same sweep
    assert [ck_at(spec, k) for k in range(1, kmax + 1)] == table.c[1:].tolist()


def _ck_log_reference(spec, kmax):
    """C_1..C_kmax with each term the exp of a running sum of log q*, cut as the sweep cuts."""
    with np.errstate(divide="ignore"):
        logs = np.log(q_star_array(spec, 2 * kmax))
    c = np.empty(kmax)
    for k in range(1, kmax + 1):
        cum = np.cumsum(logs[k : 2 * k])
        stop = np.count_nonzero(cum > math.log(_CK_TERM_CUTOFF)) + 1
        c[k - 1] = math.fsum(np.exp(cum[:stop]).tolist()) ** 2
    return c


@pytest.mark.parametrize("spec", CK_LAWS, ids=repr)
def test_ck_sequence_matches_a_log_space_reference(spec):
    got, want = ck_sequence(spec, 3000).c[1:], _ck_log_reference(spec, 3000)
    assert np.all(np.abs(got - want) <= 1e-13 * want)


@pytest.mark.parametrize("spec", CK_LAWS, ids=repr)
def test_ck_sequence_prefix_is_stable(spec):
    assert np.array_equal(ck_sequence(spec, 500).c[1:], ck_sequence(spec, 3000).c[1:501])


_CK_Q = st.one_of(st.sampled_from([0.0, 1e-300, 0.5, 0.7, 0.999, Q_CAP, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["constant", "markov", "table"]), st.lists(_CK_Q, min_size=2, max_size=4), st.integers(1, 3000))
@example("table", [0.2, 0.3, 0.6], 500)
def test_lumped_ck_rows_match_the_sweep(kind, q, kmax):
    # tables of 2-4 heights with their max at any index; the same law with a
    # QSequence tail is not lumped (renewal._lumped gives None), so it runs the general sweep
    spec = {"constant": ConstantQ(q[0]), "markov": MarkovQ(q[0], q[1]), "table": TableQ(tuple(q))}[kind]
    values = spec.q_array(len(q)).tolist()
    swept = TableQ(tuple(values[:-1]), tail=ConstantQ(values[-1]))
    assert np.array_equal(spec.q_array(2 * kmax), swept.q_array(2 * kmax))
    # rows share one sum only where q* peaks by index 1: (0.2, 0.3, 0.6) keeps the sweep
    assert (_lumped_row(spec, kmax) is None) == (max(values[:2]) < max(values))
    lumped, general = ck_sequence(spec, kmax), ck_sequence(swept, kmax)
    assert np.array_equal(lumped.c[1:], general.c[1:]) and np.array_equal(lumped.ratio[1:], general.ratio[1:])
    for k in {1, kmax // 2 + 1, kmax}:
        assert ck_at(spec, k) == ck_at(swept, k) == general.c[k]


# Under InfiniteRadius site 0 covers every site, so {0 <-> n} is {site n is
# marked} and simulate_connectivity estimates the renewal probability u_n.


def test_zero_climb_law_marks_every_site():
    # q_0 = 0 collapses the chain at every step; with every radius 1, {0 <-> n}
    # needs all sites 0..n marked
    report = simulate_connectivity(TableQ((0.0,)), FiniteTableRadius((0.0, 1.0)), 500, 2000, seed=7)
    assert report.estimate == 1.0


def test_simulated_renewal_rate_matches_u():
    # marks beyond site 0 are i.i.d. under constant q, so u_n = 1 - q
    reps = 200_000
    report = simulate_connectivity(ConstantQ(0.5), InfiniteRadius(), 20, reps, seed=123)
    assert abs(report.estimate - 0.5) <= 4 * math.sqrt(0.25 / reps)


def test_simulated_rare_renewals_need_long_runs():
    # q = 0.999 below height 200 and 0 at it: u_201 ~ 0.999^200 comes from the
    # run that climbs to height 200 without a renewal, u_1000 from rare renewals
    spec = TableQ((0.999,) * 200 + (0.0,))
    u = renewal_probabilities(spec, 1000).u
    assert u[201] > 0.8 and u[1000] < 0.01
    reps = 20_000
    for n in (200, 201, 1000):
        report = simulate_connectivity(spec, InfiniteRadius(), n, reps, seed=n)
        se = max(math.sqrt(u[n] * (1.0 - u[n]) / reps), 1.0 / reps)
        assert abs(report.estimate - u[n]) <= 4 * se


def test_table_tail_rules():
    repeat = TableQ((0.2, 0.8))
    assert repeat.q_at(10) == 0.8
    formula = TableQ((0.1,), tail=ConstantQ(0.4))
    assert formula.q_at(0) == 0.1
    assert formula.q_at(3) == 0.4
    assert np.allclose(formula.q_array(4), [0.1, 0.4, 0.4, 0.4])


def test_monotonicity_flags():
    assert ConstantQ(0.3).is_monotone
    assert MarkovQ(0.2, 0.6).is_monotone
    assert not MarkovQ(0.6, 0.2).is_monotone
    assert PolynomialMonotoneQ(0.25).is_monotone
    assert TableQ((0.1, 0.5, 0.5)).is_monotone
    assert not TableQ((0.5, 0.1)).is_monotone


def test_config_fragments_round_trip():
    fragments = [
        {"family": "constant", "q": 0.5},
        {"family": "markov", "q0": 0.3, "q1": 0.6},
        {"family": "poly_monotone", "beta": 0.25, "i0": 2},
        {"family": "table", "q": [0.9, 0.2, 0.5], "tail": "repeat_last"},
    ]
    for fragment in fragments:
        spec = q_sequence_from_config(fragment)
        again = q_sequence_from_config(spec.to_config())
        assert again == spec


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        q_sequence_from_config({"family": "constant", "q": 0.5, "oops": 1})
    with pytest.raises(ValidationError):
        q_sequence_from_config({"family": "unknown"})
