import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewperc import (
    ValidationError,
    ConstantQ,
    FiniteTableRadius,
    GeometricTailRadius,
    InfiniteRadius,
    InternalConsistencyError,
    MarkovQ,
    MonotonicityError,
    PolynomialMonotoneQ,
    PowerLawTailRadius,
    QSequence,
    TableQ,
    TinyConfig,
    UnboundedRadiusError,
    bounds_report,
    classify,
    dual_law,
    enumerate_connectivity,
    enumerate_gf,
    forward_connectivity,
    gf_partial,
    percolation_probability,
    random_tiny_configs,
    renewal_probabilities,
    survival_products,
)
from renewperc import engine
from renewperc.radius import RadiusModel
from renewperc.renewal import Q_CAP, _toeplitz_product, interarrival, renewal_solve
from renewperc.engine import (
    TAIL_CONCENTRATION,
    TAIL_GEOMETRIC,
    TAIL_NONE,
    VERDICT_EXTINCT_INFINITE_MEAN,
    VERDICT_EXTINCT_TAIL,
    VERDICT_INCONCLUSIVE,
    VERDICT_SURVIVE_TAIL,
)

HAND_SPEC = MarkovQ(0.3, 0.6)
HAND_MODEL = FiniteTableRadius((0.0, 0.5, 0.5))


# ---------------------------------------------------------------------------
# gf_partial
# ---------------------------------------------------------------------------


def test_gf_hand_value():
    gf = gf_partial(ConstantQ(0.5), FiniteTableRadius((0.3, 0.3, 0.4)), 2)
    assert gf.S[1] == pytest.approx(0.65, abs=1e-14)
    assert gf.S[2] == pytest.approx(0.52, abs=1e-14)


def test_gf_point_interval_radius():
    # alpha = (0, 1, 1, ...): only the first site matters, S_n = P(mark absent) = q
    gf = gf_partial(ConstantQ(0.5), FiniteTableRadius((0.0, 1.0)), 12)
    assert np.allclose(gf.S[1:], 0.5, atol=1e-14)


def test_gf_infinite_radius_gives_pure_products():
    spec = MarkovQ(0.3, 0.6)
    gf = gf_partial(spec, InfiniteRadius(), 30)
    assert np.allclose(gf.S, survival_products(spec, 30), atol=1e-14)


# at 5000 the products of MarkovQ(0.3, 0.6) have stalled at the smallest
# subnormal for thousands of terms, and those of ConstantQ(0.4) are 0
@pytest.mark.parametrize("spec", [MarkovQ(0.3, 0.6), ConstantQ(0.4)], ids=repr)
def test_gf_keeps_the_constant_tail_of_the_products(spec):
    gf = gf_partial(spec, InfiniteRadius(), 5000)
    assert np.array_equal(gf.S, survival_products(spec, 5000))


def test_gf_nonincreasing_on_random_configs():
    for cfg in random_tiny_configs(10, seed=11, n_max=8):
        S = gf_partial(cfg.spec, cfg.model, 40).S
        assert np.all(np.diff(S) <= 1e-14)


def test_gf_matches_enumeration_oracle():
    for cfg in random_tiny_configs(8, seed=5, n_max=8):
        small = TinyConfig(cfg.spec, cfg.model, min(cfg.n + 4, 12))
        expected = enumerate_gf(small)
        got = gf_partial(cfg.spec, cfg.model, small.n).S
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_gf_iid_factorization():
    model = GeometricTailRadius(0.9)
    for n in (200, 20_000):
        for p in (0.2, 0.5, 0.8):
            gf = gf_partial(ConstantQ(1 - p), model, n)
            expected = np.cumprod(1 - p * (1 - model.alpha_array(n)))
            assert np.max(np.abs(gf.S[1:] - expected)) <= 1e-12


def _markov_transfer_series(q0, q1, alpha):
    """S_n for MarkovQ(q0, q1) by the 2-state mark chain, independent of gf_partial.

    The marks are Markov with P(1 | 1) = 1 - q0 and P(1 | 0) = 1 - q1, and
    xi_0 = 1; site i contributes alpha_i when xi_{i+1} = 1.
    """
    unmarked, marked = 0.0, 1.0
    S = [1.0]
    for a in alpha:
        unmarked, marked = (
            marked * q0 + unmarked * q1,
            a * (marked * (1.0 - q0) + unmarked * (1.0 - q1)),
        )
        S.append(unmarked + marked)
    return np.array(S)


@pytest.mark.parametrize("q0, q1", [(0.3, 0.4), (0.3, 0.6), (0.7, 0.2)])
def test_gf_markov_matches_transfer_product_at_large_horizon(q0, q1):
    model = PowerLawTailRadius(c=3.0, gamma=1.0, n0=1)
    n = 5000
    expected = _markov_transfer_series(q0, q1, model.alpha_array(n))
    got = gf_partial(MarkovQ(q0, q1), model, n).S
    assert np.max(np.abs(got - expected) / expected) <= 1e-12


def _kernel_series(spec, model, n):
    """S and the dual pmf from g = renewal_solve(P(T = .), alpha) and full convolutions."""
    pmf = interarrival(spec, n).pmf
    alpha = model.alpha_array(n)
    g = renewal_solve(pmf, alpha)
    S = np.convolve(g, survival_products(spec, n))[: n + 1]
    f = np.convolve(g, pmf)[: n + 1]
    f[1:] *= 1.0 - alpha
    return S, f


def _clear_memos():
    for memo in (engine._tables, engine._renewal_u, engine._ck):
        memo.cache_clear()


def _assert_close_above(got, want, rtol):
    """got within rtol of want where want >= 1e-290; below that, within 1e-290 * rtol."""
    assert np.all(np.abs(got - want) <= rtol * np.maximum(want, 1e-290))


_Q = st.one_of(st.sampled_from([0.0, 0.5, Q_CAP, 1.0]), st.floats(0.0, 1.0))
# laws that lump to at most four heights, some tables with their last value repeated
_LUMPED_LAWS = st.one_of(
    st.builds(ConstantQ, _Q),
    st.builds(MarkovQ, _Q, _Q),
    st.tuples(st.lists(_Q, min_size=1, max_size=4), st.integers(0, 3)).map(
        lambda t: TableQ(tuple(t[0]) + (t[0][-1],) * t[1])
    ),
)
_RADII = st.one_of(
    st.builds(PowerLawTailRadius, st.floats(0.1, 5.0), st.floats(0.2, 2.0), st.integers(1, 3)),
    st.builds(GeometricTailRadius, st.floats(0.01, 0.99)),
    st.lists(st.integers(0, 4), min_size=1, max_size=5)
    .filter(any)
    .map(lambda w: FiniteTableRadius(tuple(x / sum(w) for x in w))),
    st.just(InfiniteRadius()),
)


@settings(max_examples=400, deadline=None)
@given(_LUMPED_LAWS, _RADII, st.integers(1, 400))
def test_lumped_laws_match_the_kernel(spec, model, horizon):
    assert engine._lumped(spec) is not None
    gf = gf_partial(spec, model, horizon)
    S, f = _kernel_series(spec, model, horizon)
    _assert_close_above(gf.S, S, 1e-12)
    _assert_close_above(gf.dual_pmf, f, 1e-12)
    assert gf.S[0] == 1.0 and gf.dual_pmf[0] == 0.0
    u, want = engine._renewal_u(spec, horizon), renewal_probabilities(spec, horizon).u
    assert u[0] == 1.0
    _assert_close_above(u, want, 1e-12)


_RENEWAL_FORM_LAWS = st.one_of(
    st.builds(PolynomialMonotoneQ, st.floats(0.05, 2.0)),
    st.builds(lambda v, q: TableQ(tuple(v), tail=ConstantQ(q)), st.lists(_Q, min_size=1, max_size=3), _Q),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_LUMPED_LAWS, _RENEWAL_FORM_LAWS), _RADII, st.integers(1, 3000))
def test_gf_series_is_nonincreasing(spec, model, horizon):
    # where S is flat its rounded terms may wobble by an ulp; the bracket's
    # zero link and geometric remainder rely on S never rising
    S = gf_partial(spec, model, horizon).S
    assert S[0] == 1.0 and np.all(np.diff(S) <= 0.0)


@pytest.mark.parametrize(
    "spec, lumped",
    [
        (ConstantQ(0.4), True),
        (MarkovQ(0.3, 0.6), True),
        (TableQ((0.3,)), True),
        (TableQ((0.9, 0.2)), True),
        (TableQ((0.9, 0.2, 0.5)), True),
        (TableQ((0.1, 0.9, 0.2, 0.7, 0.7)), True),
        (TableQ((0.1, 0.9, 0.2, 0.7, 0.3)), False),
        (TableQ((0.9, 0.2), tail=ConstantQ(0.2)), False),
        (PolynomialMonotoneQ(0.25), False),
    ],
    ids=repr,
)
def test_only_two_state_laws_skip_the_kernel(monkeypatch, spec, lumped):
    calls = []

    def solve(*args):
        calls.append("mult" if len(args) == 2 else "plain")
        return renewal_solve(*args)

    def probabilities(*args):
        calls.append("u")
        return renewal_probabilities(*args)

    monkeypatch.setattr(engine, "renewal_solve", solve)
    monkeypatch.setattr(engine, "renewal_probabilities", probabilities)
    _clear_memos()
    gf_partial(spec, GeometricTailRadius(0.9), 200)
    engine._renewal_u(spec, 200)
    assert calls == ([] if lumped else ["mult", "u"])


# Laws whose kernels P(T = .) and P(T > .) turn subnormal: P(T > s) of the
# first is subnormal from s = 1386 on and stalls at 5e-324, that of the
# second drains through 50 subnormals to 0 at s = 881.
_SUBNORMAL_LAWS = [
    (TableQ((0.9, 0.2, 0.5), tail=ConstantQ(0.6)), 2500),
    (PolynomialMonotoneQ(0.1), 2000),
]


def _longdouble_solve(f, mult=None):
    """renewal_solve's recursion, one dot per index, in np.longdouble."""
    f = np.asarray(f, dtype=np.longdouble)
    g = np.zeros(len(f), dtype=np.longdouble)
    g[0] = 1.0
    for n in range(1, len(f)):
        g[n] = np.dot(f[n:0:-1], g[:n])
        if mult is not None:
            g[n] *= np.longdouble(mult[n - 1])
    return g


@pytest.fixture(scope="module", params=_SUBNORMAL_LAWS, ids=lambda p: repr(p[0]))
def subnormal_case(request):
    # an 80-bit long double keeps products near 1e-308 normal; a 64-bit one does not
    if np.finfo(np.longdouble).minexp > -16000:
        pytest.skip("np.longdouble has the float64 exponent range here")
    spec, n = request.param
    assert engine._lumped(spec) is None  # these laws test the renewal form
    surv = survival_products(spec, n)
    assert np.any((surv > 0.0) & (surv < np.finfo(float).tiny))
    pmf = interarrival(spec, n).pmf
    alpha = PowerLawTailRadius(3, 1, 1).alpha_array(n)
    return spec, n, pmf, surv, alpha, _longdouble_solve(pmf), _longdouble_solve(pmf, alpha)


def _assert_relative_where_normal(got, want):
    keep = want >= np.finfo(float).tiny
    assert np.all(np.abs(got[keep] - want[keep]) <= 1e-12 * want[keep])


def test_renewal_solve_is_relatively_accurate_on_subnormal_kernels(subnormal_case):
    spec, n, pmf, surv, alpha, u_ref, g_ref = subnormal_case
    _assert_relative_where_normal(renewal_solve(pmf), u_ref)
    _assert_relative_where_normal(renewal_solve(pmf, alpha), g_ref)


def test_gf_is_relatively_accurate_on_subnormal_kernels(subnormal_case):
    spec, n, pmf, surv, alpha, u_ref, g_ref = subnormal_case
    S_ref = np.convolve(g_ref, surv.astype(np.longdouble))[: n + 1]
    f_ref = np.convolve(g_ref, pmf.astype(np.longdouble))[: n + 1]
    f_ref[1:] *= 1.0 - alpha.astype(np.longdouble)
    gf = gf_partial(spec, PowerLawTailRadius(3, 1, 1), n)
    _assert_relative_where_normal(gf.S, S_ref)
    _assert_relative_where_normal(gf.dual_pmf, f_ref)


def test_lifted_gf_convolutions_keep_the_unlifted_bits():
    # P(T > .) stalls at a subnormal here, yet where the unlifted sums stay
    # normal the power-of-two lift changes no bit of S or f
    spec, model, n = PolynomialMonotoneQ(0.25), PowerLawTailRadius(3, 1, 1), 5000
    pmf, surv = interarrival(spec, n).pmf, survival_products(spec, n)
    alpha = model.alpha_array(n)
    g = renewal_solve(pmf, alpha)
    s0 = np.count_nonzero(surv > surv[-1])
    assert 0.0 < surv[-1] < np.finfo(float).tiny
    S = _toeplitz_product(surv[:s0], g, 0, n + 1)
    S[s0:] += surv[-1] * np.cumsum(g[: n + 1 - s0])
    f = _toeplitz_product(pmf[: np.flatnonzero(pmf)[-1] + 1], g, 0, n + 1)
    f[1:] *= 1.0 - alpha
    gf = gf_partial(spec, model, n)
    assert np.array_equal(gf.S, S) and np.array_equal(gf.dual_pmf, f)


def test_every_gemm_is_small_enough_for_the_calling_thread(monkeypatch):
    # OpenBLAS runs a GEMM of under 2^19 multiply-adds on the calling thread
    sizes = []
    matmul = np.matmul

    def counted(a, b, **kwargs):
        sizes.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, **kwargs)

    model, n = PowerLawTailRadius(3, 1, 1), 5000
    gf = gf_partial(ConstantQ(0.6), model, n)
    monkeypatch.setattr(np, "matmul", counted)
    dual_law(gf, ConstantQ(0.6), model)  # the v solve, on a dual pmf of full support
    solve_gemms = len(sizes)
    gf_partial(PolynomialMonotoneQ(0.25), model, n)
    assert 0 < solve_gemms < len(sizes) and max(sizes) < 2**19


# ---------------------------------------------------------------------------
# dual_law
# ---------------------------------------------------------------------------


def test_dual_first_mass_closed_form():
    gf = gf_partial(ConstantQ(0.5), InfiniteRadius(), 10)
    dual = dual_law(gf, ConstantQ(0.5), InfiniteRadius())
    assert dual.f[1] == pytest.approx(0.5, abs=1e-14)


def test_dual_dies_when_radius_zero():
    model = FiniteTableRadius((1.0,))
    gf = gf_partial(HAND_SPEC, model, 10)
    assert np.allclose(gf.S, 1.0, atol=0)  # alpha = 1 everywhere keeps all mass
    dual = dual_law(gf, HAND_SPEC, model)
    assert np.allclose(dual.f[1:], 0.0, atol=1e-15)
    assert np.allclose(dual.v[1:], 0.0, atol=1e-15)
    assert dual.v[0] == 1.0


def test_dual_pmf_is_exactly_zero_where_the_series_is_flat():
    # alpha_i = 1 for i >= 2, so S_2 = S_3 = ... and f_k = 0 for k >= 3
    spec = TableQ((0.9, 0.2, 0.5))
    gf = gf_partial(spec, HAND_MODEL, 200)
    dual = dual_law(gf, spec, HAND_MODEL)
    assert dual.f[1] > 0.0 and dual.f[2] > 0.0
    assert np.all(dual.f[3:] == 0.0)


@pytest.mark.parametrize(
    "spec, model",
    [
        (HAND_SPEC, GeometricTailRadius(0.9)),
        (PolynomialMonotoneQ(0.25), PowerLawTailRadius(3.0, 1.0, 1)),
        (ConstantQ(0.6), PowerLawTailRadius(2.0, 1.0, 1)),
    ],
)
def test_dual_pmf_matches_series_differences(spec, model):
    gf = gf_partial(spec, model, 3000)
    assert gf.dual_pmf[0] == 0.0
    diff = gf.S[:-1] - gf.S[1:]
    assert np.all(np.abs(gf.dual_pmf[1:] - diff) <= 1e-14 * gf.S[:-1] + 1e-300)


def test_dual_hand_value():
    gf = gf_partial(HAND_SPEC, HAND_MODEL, 6)
    dual = dual_law(gf, HAND_SPEC, HAND_MODEL)
    # by hand: v_2 = 0.7*0.7 + 0.3*0.4*0.5 = 0.55
    assert dual.v[2] == pytest.approx(0.55, abs=1e-12)


def test_dual_mass_conservation_telescopes():
    gf = gf_partial(HAND_SPEC, HAND_MODEL, 50)
    dual = dual_law(gf, HAND_SPEC, HAND_MODEL)
    assert math.fsum(dual.f[1:]) + gf.S[50] == pytest.approx(1.0, abs=5e-13)


def test_dual_rejects_mismatched_inputs():
    gf = gf_partial(ConstantQ(0.5), FiniteTableRadius((0.3, 0.3, 0.4)), 5)
    with pytest.raises(InternalConsistencyError):
        dual_law(gf, MarkovQ(0.05, 0.9), FiniteTableRadius((0.3, 0.3, 0.4)))


def test_dual_renewal_recursion_recheck():
    gf = gf_partial(HAND_SPEC, HAND_MODEL, 30)
    dual = dual_law(gf, HAND_SPEC, HAND_MODEL)
    for n in range(1, 31):
        direct = math.fsum(dual.f[k] * dual.v[n - k] for k in range(1, n + 1))
        assert dual.v[n] == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------------------
# percolation_probability
# ---------------------------------------------------------------------------


def _iid_bracket(p, model, horizon):
    """Bracket for i.i.d. marks of density p: the ConstantQ(1 - p) series."""
    spec = ConstantQ(1.0 - p)
    return percolation_probability(gf_partial(spec, model, horizon), spec, model)


def test_bracket_renewal_endpoint():
    spec = ConstantQ(0.5)
    gf = gf_partial(spec, InfiniteRadius(), 60)
    bracket = percolation_probability(gf, spec, InfiniteRadius())
    assert bracket.lo <= 0.5 <= bracket.hi
    assert bracket.hi - bracket.lo < 1e-6


@pytest.mark.parametrize("horizon", [20, 5000])
def test_bracket_sure_percolation(horizon):
    # marks everywhere and R >= 1 almost surely: S_1 = alpha_0 = 0, a provable
    # zero (q_0 = 0 below the one zero alpha) at every horizon
    spec = TableQ((0.0,))
    model = FiniteTableRadius((0.0, 1.0))
    gf = gf_partial(spec, model, horizon)
    bracket = percolation_probability(gf, spec, model)
    assert bracket.lo == 1.0 and bracket.hi == 1.0
    assert bracket.certified


def test_bracket_does_not_certify_an_underflowed_series():
    # S_n = 2^-n underflows to 0 before N = 5000, yet no S_n is exactly 0
    spec = ConstantQ(0.5)
    gf = gf_partial(spec, InfiniteRadius(), 5000)
    assert gf.S[-1] == 0.0
    bracket = percolation_probability(gf, spec, InfiniteRadius())
    assert (bracket.lo, bracket.hi) == (0.5, 0.5)
    assert not bracket.certified and bracket.tail_method == TAIL_GEOMETRIC
    assert not any("exactly zero" in note for note in bracket.notes)


def test_bracket_extinction_flattens_lo():
    # bounded radii: S_n settles at a positive constant, no decay
    gf = gf_partial(HAND_SPEC, HAND_MODEL, 400)
    bracket = percolation_probability(gf, HAND_SPEC, HAND_MODEL)
    assert bracket.lo == 0.0
    assert not bracket.certified
    assert any("no decay" in note or "not decaying" in note for note in bracket.notes)
    assert bracket.hi == pytest.approx(1.0 / (1.0 + gf.partial_sum), abs=1e-15)


def test_bracket_explicit_concentration_failure_drops_to_zero():
    gf = gf_partial(HAND_SPEC, HAND_MODEL, 200)
    bracket = percolation_probability(gf, HAND_SPEC, HAND_MODEL, tail=TAIL_CONCENTRATION)
    assert bracket.lo == 0.0
    assert bracket.tail_method == TAIL_NONE
    assert not bracket.certified
    assert any("warning" in note for note in bracket.notes)


def test_bracket_tail_none():
    gf = gf_partial(ConstantQ(0.5), GeometricTailRadius(0.9), 50)
    bracket = percolation_probability(gf, ConstantQ(0.5), GeometricTailRadius(0.9), tail=TAIL_NONE)
    assert bracket.lo == 0.0
    assert bracket.tail_method == TAIL_NONE


def test_bracket_geometric_method():
    spec = ConstantQ(0.5)
    gf = gf_partial(spec, InfiniteRadius(), 40)
    bracket = percolation_probability(gf, spec, InfiniteRadius(), tail=TAIL_GEOMETRIC)
    assert bracket.tail_method == TAIL_GEOMETRIC
    assert bracket.lo <= 0.5 <= bracket.hi


def test_iid_sure_percolation():
    bracket = _iid_bracket(1.0, FiniteTableRadius((0.0, 1.0)), 20)
    assert bracket.lo == 1.0 and bracket.hi == 1.0


def test_iid_geometric_radius_goes_extinct():
    # interval lengths with geometric tails cannot keep up: terms settle at
    # a positive constant, the series grows linearly, hi -> 0
    his = [_iid_bracket(0.5, GeometricTailRadius(0.9), n).hi for n in (500, 2000, 50_000)]
    assert his[0] > his[1] > his[2]
    assert his[2] < 0.01


def test_iid_power_tail_positive_lower_bound():
    bracket = _iid_bracket(0.5, PowerLawTailRadius(c=3.0, gamma=1.0, n0=1), 20_000)
    assert bracket.lo > 0.01
    assert bracket.lo <= bracket.hi <= 1.0


@pytest.mark.parametrize("secondary", [100, 10, -5])
def test_secondary_horizon_must_exceed_horizon(secondary):
    spec, model = ConstantQ(0.5), PowerLawTailRadius(c=3.0, gamma=1.0, n0=1)
    gf = gf_partial(spec, model, 100)
    with pytest.raises(ValidationError, match="secondary_horizon"):
        percolation_probability(gf, spec, model, secondary_horizon=secondary)
    with pytest.raises(ValidationError, match="secondary_horizon"):
        bounds_report(spec, model, 100, secondary_horizon=secondary)


def test_bracket_rejects_unknown_tail():
    gf = gf_partial(ConstantQ(0.5), InfiniteRadius(), 5)
    with pytest.raises(ValidationError):
        percolation_probability(gf, ConstantQ(0.5), InfiniteRadius(), tail="bogus")


def _power(c, gamma):
    return PowerLawTailRadius(c, gamma, 1)


_UNAVAILABLE = "concentration bound unavailable: alpha identically zero"
_NO_DECAY = "concentration tail terms show no decay at the secondary horizon"
_OVERFLOW = "concentration terms overflow (exploding C_k)"
_EXTRAPOLATED = "tail extrapolated from the last decade of S"
_NOT_DECAYING = "warning: series not decaying at the horizon; lower endpoint dropped to 0"
_FAILED = "warning: concentration tail failed; lower endpoint dropped to 0"
_ZERO = ("series terms are exactly zero at the horizon",)
_FAILURES = [
    (ConstantQ(0.05), InfiniteRadius(), _UNAVAILABLE),
    (ConstantQ(0.05), GeometricTailRadius(0.9), _NO_DECAY),
    (ConstantQ(0.6), _power(10, 0.5), _OVERFLOW),
]


# every outcome of every tail choice, on lumped laws (no BLAS in the series)
@pytest.mark.parametrize(
    "spec, model, horizon, tail, outcome",
    [
        (ConstantQ(0.05), _power(3, 0.5), 1, "auto", (TAIL_CONCENTRATION, True, ())),
        (ConstantQ(0.05), _power(3, 0.5), 1, "concentration", (TAIL_CONCENTRATION, True, ())),
        (ConstantQ(0.05), _power(3, 0.5), 7, "geometric", (TAIL_GEOMETRIC, False, (_EXTRAPOLATED,))),
        (ConstantQ(0.05), _power(3, 0.5), 1, "geometric", (TAIL_NONE, False, (_NOT_DECAYING,))),
        (ConstantQ(0.05), _power(3, 0.5), 1, "none",
         (TAIL_NONE, False, ("no tail bound requested; lower endpoint is trivial",))),
        *[
            (ConstantQ(0.05), _power(10, 0.5), 3000, tail,
             (TAIL_CONCENTRATION, True, ("tail terms vanish within the secondary horizon",)))
            for tail in ("auto", "concentration")
        ],
        *[
            (ConstantQ(0.05), _power(3, 1), 1, tail,
             (TAIL_CONCENTRATION, False, ("tail completed geometrically beyond the secondary horizon",)))
            for tail in ("auto", "concentration")
        ],
        *[
            row
            for spec, model, note in _FAILURES
            for row in (
                (spec, model, 7, "auto", (TAIL_GEOMETRIC, False, (note, _EXTRAPOLATED))),
                (spec, model, 1, "auto", (TAIL_NONE, False, (note, _NOT_DECAYING))),
                (spec, model, 1, "concentration", (TAIL_NONE, False, (note, _FAILED))),
            )
        ],
        *[
            (ConstantQ(0.0), _power(3, 0.5), 1, tail, (TAIL_GEOMETRIC, True, _ZERO))
            for tail in ("auto", "concentration", "geometric")
        ],
    ],
)
def test_bracket_outcomes_are_pinned(spec, model, horizon, tail, outcome):
    tail = TAIL_GEOMETRIC if tail == "geometric" else tail
    bracket = percolation_probability(gf_partial(spec, model, horizon), spec, model, tail)
    assert (bracket.tail_method, bracket.certified, bracket.notes) == outcome
    if outcome[2] == _ZERO:
        assert bracket.lo == bracket.hi
    if tail == TAIL_NONE:
        assert bracket.lo == 0.0


def test_bracket_nesting_across_horizons_iid():
    # honesty check: a coarse bracket must contain the tighter one
    model = PowerLawTailRadius(c=3.0, gamma=1.0, n0=1)
    tight = _iid_bracket(0.5, model, 40_000)
    coarse = _iid_bracket(0.5, model, 2000)
    assert coarse.lo <= tight.lo <= tight.hi <= coarse.hi


def test_bracket_nesting_across_horizons_gf():
    spec = MarkovQ(0.3, 0.6)
    model = PowerLawTailRadius(c=6.0, gamma=1.0, n0=1)
    coarse = percolation_probability(gf_partial(spec, model, 1000), spec, model)
    tight = percolation_probability(gf_partial(spec, model, 4000), spec, model)
    assert coarse.tail_method == TAIL_CONCENTRATION
    assert coarse.lo <= tight.lo <= tight.hi <= coarse.hi


def test_forward_matches_dual_at_larger_sites():
    spec = TableQ((0.2, 0.6, 0.4))
    model = FiniteTableRadius((0.1, 0.3, 0.3, 0.2, 0.1))
    gf = gf_partial(spec, model, 25)
    v = dual_law(gf, spec, model).v
    for n in (10, 17, 25):
        assert forward_connectivity(spec, model, n) == pytest.approx(float(v[n]), abs=1e-12)


@pytest.mark.parametrize("spec, m", [
    (ConstantQ(0.3), 30),
    (MarkovQ(0.3, 0.6), 20),
    (TableQ((0.9, 0.2, 0.5)), 45),  # lumped to three heights
    (PolynomialMonotoneQ(0.25), 60),  # renewal form
])
def test_forward_matches_dual_past_the_gemm_groups(spec, m):
    # the renewal kernel's v takes Toeplitz-block GEMMs past site 1024 and
    # again past 2048; the DP knows nothing of them
    pmf = np.linspace(0.2, 1.0, m + 1)
    model = FiniteTableRadius(tuple(pmf / pmf.sum()))
    v = dual_law(gf_partial(spec, model, 2049), spec, model).v
    for n in (1025, 2049):
        assert forward_connectivity(spec, model, n) == pytest.approx(float(v[n]), rel=1e-12, abs=0)


@pytest.mark.parametrize("p", [(0.3333333333,) * 3, (0.5, 0.5 - 5e-10), (0.1, 0.2, 0.3, 0.4 - 9e-10)])
def test_exact_paths_agree_on_tables_whose_sum_is_off_by_more_than_rounding(p):
    # a table within 1e-9 of summing to one is normalised once, so the
    # engine's alpha, the oracle's truncated outcome and the DP's pmf read
    # one law; before, each put the missing mass somewhere else
    model = FiniteTableRadius(p)
    assert math.fsum(model.p) == pytest.approx(1.0, abs=4e-16)
    for spec in (ConstantQ(0.4), MarkovQ(0.3, 0.6), TableQ((0.9, 0.2, 0.5)), PolynomialMonotoneQ(0.25)):
        v = dual_law(gf_partial(spec, model, 7), spec, model).v
        for n in range(1, 8):
            exact = enumerate_connectivity(TinyConfig(spec, model, n))
            assert forward_connectivity(spec, model, n) == pytest.approx(exact, abs=1e-12)
            assert float(v[n]) == pytest.approx(exact, abs=1e-12)


def test_tables_summing_to_one_within_rounding_keep_their_entries():
    # tables built as the oracle battery builds them: normalising these
    # would move its pinned digests
    rng = np.random.default_rng(3)
    pmfs = [rng.dirichlet(np.ones(m)) for m in range(1, 9) for _ in range(50)]
    tables = [tuple((pmf / pmf.sum()).tolist()) for pmf in pmfs]
    assert sum(sum(p) != 1.0 for p in tables) > 10
    for p in tables:
        assert FiniteTableRadius(p).p == p
    assert FiniteTableRadius((0.1, 0.2, 0.3, 0.4 - 9e-10)).p != (0.1, 0.2, 0.3, 0.4 - 9e-10)


def test_input_validation():
    with pytest.raises(ValidationError):
        gf_partial(ConstantQ(0.5), InfiniteRadius(), 0)
    with pytest.raises(ValidationError):
        bounds_report(ConstantQ(0.5), InfiniteRadius(), 0)
    with pytest.raises(ValidationError):
        forward_connectivity(ConstantQ(0.5), FiniteTableRadius((1.0,)), -1)


# ---------------------------------------------------------------------------
# bounds_report
# ---------------------------------------------------------------------------


def test_bounds_sandwich_on_small_configs():
    cases = [
        (ConstantQ(0.5), PowerLawTailRadius(c=3.0, gamma=1.0, n0=1), 2000),
        (ConstantQ(0.8), GeometricTailRadius(0.9), 500),
        (MarkovQ(0.3, 0.6), FiniteTableRadius((0.0, 0.5, 0.5)), 300),
        (PolynomialMonotoneQ(0.25, 2), PowerLawTailRadius(c=3.0, gamma=1.0, n0=1), 2000),
    ]
    for spec, model, horizon in cases:
        gf = gf_partial(spec, model, horizon)
        bracket = percolation_probability(gf, spec, model)
        report = bounds_report(spec, model, horizon)
        assert report.concentration_lower is not None
        assert report.concentration_lower <= bracket.hi + 1e-12
        assert report.jensen_upper >= bracket.lo - 1e-12
        assert report.concentration_lower <= bracket.lo + 1e-12
        assert bracket.hi <= report.jensen_upper + 1e-12
        if spec.is_monotone:
            assert report.fkg_upper is not None
            assert bracket.hi <= report.fkg_upper + 1e-12


def test_bounds_concentration_skipped_for_infinite_radius():
    report = bounds_report(ConstantQ(0.5), InfiniteRadius(), 50)
    assert report.concentration_lower is None
    assert any("alpha identically zero" in note for note in report.notes)


@pytest.mark.parametrize(
    "model, vacuous",
    [(PowerLawTailRadius(3, 1, 1), True), (FiniteTableRadius((0.5, 0.5)), False)],
    ids=repr,
)
def test_bounds_notes_say_when_jensen_is_vacuous(model, vacuous):
    report = bounds_report(ConstantQ(0.5), model, 200)
    assert (report.jensen_upper == 1.0) == vacuous
    assert any("jensen_upper is vacuous" in note for note in report.notes) == vacuous


def test_bounds_on_infinite_radius_never_builds_ck(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("C_k built for a bound that cannot use it")

    monkeypatch.setattr(engine, "ck_sequence", build)
    _clear_memos()
    report = bounds_report(ConstantQ(0.4375), InfiniteRadius(), 321)
    assert report.concentration_lower is None


def test_bounds_fkg_on_non_monotone_law_raises_before_building(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("array built before the monotonicity check")

    for name in ("renewal_probabilities", "_pass", "ck_sequence"):
        monkeypatch.setattr(engine, name, build)
    monkeypatch.setattr(GeometricTailRadius, "alpha_array", build)
    _clear_memos()
    for spec in (MarkovQ(0.6, 0.2), TableQ((0.9, 0.2, 0.5))):
        with pytest.raises(MonotonicityError):
            bounds_report(spec, GeometricTailRadius(0.9), 50, fkg=True)


def test_bounds_fkg_gating():
    non_monotone = MarkovQ(0.6, 0.2)
    model = GeometricTailRadius(0.9)
    auto = bounds_report(non_monotone, model, 50)
    assert auto.fkg_upper is None
    with pytest.raises(MonotonicityError):
        bounds_report(non_monotone, model, 50, fkg=True)


def test_bounds_iid_closed_only_for_constant_marks():
    model = GeometricTailRadius(0.9)
    const = bounds_report(ConstantQ(0.5), model, 100)
    assert const.iid_closed is not None
    # independence makes the FKG product exact: it coincides with iid_closed
    assert const.fkg_upper == pytest.approx(const.iid_closed, abs=1e-15)
    assert const.jensen_upper >= const.iid_closed
    other = bounds_report(MarkovQ(0.3, 0.6), model, 100)
    assert other.iid_closed is None
    # above Q_CAP the closed product clamps q as the series does
    spec, model = ConstantQ(1 - 1e-13), PowerLawTailRadius(3, 1, 1)
    bracket = percolation_probability(gf_partial(spec, model, 200), spec, model)
    assert bounds_report(spec, model, 200).iid_closed == bracket.hi


def test_bounds_concentration_degenerates_when_ck_grows():
    # here the coalescence constants grow like n^0.5 while sum (log alpha)^2
    # stays bounded away from zero, so the level-n exponential factor defeats
    # the polynomial decay of the Jensen product: the lower-bound series
    # diverges and the only valid value is 0, flagged in the notes
    report = bounds_report(
        PolynomialMonotoneQ(0.25, 2), PowerLawTailRadius(c=3.0, gamma=1.0, n0=1), 10_000
    )
    assert report.concentration_lower == 0.0
    assert any("no decay" in note for note in report.notes)


# ---------------------------------------------------------------------------
# the one-slot memos: per law (u, C_k) and per evaluation (alpha, terms)
# ---------------------------------------------------------------------------


def _evaluate(spec, model, horizon):
    gf = gf_partial(spec, model, horizon)
    return percolation_probability(gf, spec, model), bounds_report(spec, model, horizon)


_SWEEP_RADII = (
    PowerLawTailRadius(3, 1), GeometricTailRadius(0.9), PowerLawTailRadius(1.2, 1.2, n0=2),
)


@pytest.mark.parametrize(
    "radii", [_SWEEP_RADII[:1], _SWEEP_RADII], ids=["one radius", "a sweep's radii"],
)
def test_bracket_and_bounds_build_u_and_ck_once_per_law(monkeypatch, radii):
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return call

    for fn in (renewal_probabilities, engine.ck_sequence):
        monkeypatch.setattr(engine, fn.__name__, counted(fn))
    monkeypatch.setattr(RadiusModel, "alpha_array", counted(RadiusModel.alpha_array))
    _clear_memos()
    for model in radii:
        _evaluate(PolynomialMonotoneQ(0.25), model, 400)
    # alpha: once for the series, once for the bracket and the bounds together
    want = ["alpha_array"] * (2 * len(radii)) + ["ck_sequence", "renewal_probabilities"]
    assert sorted(calls) == want


def test_bracket_builds_no_tables_without_the_concentration_tail(monkeypatch):
    def build(*args):
        raise AssertionError("tables built for a bracket that cannot use them")

    monkeypatch.setattr(engine, "_tables", build)
    spec, model = PolynomialMonotoneQ(0.25), PowerLawTailRadius(3, 1)
    gf = gf_partial(spec, model, 400)
    bracket = percolation_probability(gf, spec, model, tail="geometric-extrapolation")
    assert bracket.tail_method == "geometric-extrapolation"
    spec, model = TableQ((0.5, 0.0, 0.5)), FiniteTableRadius((0.0, 0.0, 0.0, 1.0))
    bracket = percolation_probability(gf_partial(spec, model, 10), spec, model)
    assert bracket.certified and bracket.lo == bracket.hi


def test_nothing_leaks_between_evaluations():
    spec, model = PolynomialMonotoneQ(0.25), PowerLawTailRadius(3, 1)
    evaluations = [
        (spec, model, 300),
        (spec, GeometricTailRadius(0.9), 300),
        (MarkovQ(0.3, 0.6), GeometricTailRadius(0.9), 300),
        (spec, model, 300),
        (spec, model, 200),
    ]
    warm = [_evaluate(*args) for args in evaluations]
    for args, results in zip(evaluations, warm):
        _clear_memos()
        assert _evaluate(*args) == results


class _Flat(QSequence):
    """q_i = q, defined through q_at only, as a user law would be."""

    is_monotone = True

    def __init__(self, q):
        self.q = q

    def q_at(self, i):
        return self.q


def test_scalar_only_laws_are_told_apart():
    assert _Flat(0.3) != _Flat(0.3) and ConstantQ(0.3) == ConstantQ(0.3)
    model = PowerLawTailRadius(3.0, 1.0)
    _clear_memos()
    cold = bounds_report(_Flat(0.7), model, 500)
    bounds_report(_Flat(0.3), model, 500)
    assert bounds_report(_Flat(0.7), model, 500) == cold
    assert cold.fkg_upper == pytest.approx(0.1328, abs=1e-4)


class _EqOnlyRadius(PowerLawTailRadius):
    """Defines __eq__ without __hash__, which makes its instances unhashable."""

    def __eq__(self, other):
        return isinstance(other, _EqOnlyRadius) and self.c == other.c


def test_memo_keys_need_hashable_radii():
    model, spec = _EqOnlyRadius(3.0, 1.0), ConstantQ(0.4)
    gf = gf_partial(spec, model, 50)
    with pytest.raises(TypeError, match="unhashable"):
        percolation_probability(gf, spec, model)
    with pytest.raises(TypeError, match="unhashable"):
        bounds_report(spec, model, 50)


# ---------------------------------------------------------------------------
# forward_connectivity
# ---------------------------------------------------------------------------


def test_forward_first_site_formula():
    value = forward_connectivity(HAND_SPEC, HAND_MODEL, 1)
    assert value == pytest.approx((1 - 0.3) * (1 - 0.0), abs=1e-14)


def test_forward_hand_anchor_and_trivials():
    assert forward_connectivity(HAND_SPEC, HAND_MODEL, 2) == pytest.approx(0.55, abs=1e-13)
    assert forward_connectivity(HAND_SPEC, HAND_MODEL, 0) == 1.0
    assert forward_connectivity(HAND_SPEC, FiniteTableRadius((1.0,)), 4) == 0.0


def test_forward_requires_bounded_support():
    with pytest.raises(UnboundedRadiusError):
        forward_connectivity(HAND_SPEC, GeometricTailRadius(0.9), 3)


def test_forward_matches_dual_occupancy():
    for cfg in random_tiny_configs(12, seed=21, n_max=8):
        gf = gf_partial(cfg.spec, cfg.model, cfg.n)
        v = dual_law(gf, cfg.spec, cfg.model).v
        for n in range(cfg.n + 1):
            assert forward_connectivity(cfg.spec, cfg.model, n) == pytest.approx(
                float(v[n]), abs=1e-12
            )


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "model, horizon", [(GeometricTailRadius(0.9), 2000), (GeometricTailRadius(0.5), 10)]
)
def test_classify_divergent_mean(model, horizon):
    # q_i = 1 - i^-2 keeps the partial products bounded away from zero
    report = classify(PolynomialMonotoneQ(beta=2.0, i0=2), model, horizon)
    assert report.verdict == VERDICT_EXTINCT_INFINITE_MEAN
    assert not report.mean_converged


def test_classify_extinction_evidence():
    model = PowerLawTailRadius(c=0.5, gamma=1.0, n0=1)
    report = classify(ConstantQ(0.5), model, 10_000)
    assert report.verdict == VERDICT_EXTINCT_TAIL
    assert report.mean == pytest.approx(2.0, abs=1e-9)
    assert report.ratio_window == tuple(
        (k, k * (1.0 - model.alpha(k)) / report.mean) for k, _ in report.ratio_window
    )


@pytest.mark.parametrize(
    "model, horizon, ratio, tol",
    [
        (PowerLawTailRadius(3.0, 1.0, 1), 1200, 1.5, 1e-9),
        (PowerLawTailRadius(0.5, 1.0, 1), 1200, 0.25, 1e-9),
        (GeometricTailRadius(0.9), 500, 0.0, 1e-12),
    ],
)
def test_classify_criterion_ratio_at_the_horizon(model, horizon, ratio, tol):
    # ConstantQ(0.5) has E T = 2, so n (1 - alpha_n) / E T is c / 2 on power tails
    k, value = classify(ConstantQ(0.5), model, horizon).ratio_window[-1]
    assert k == horizon
    assert value == pytest.approx(ratio, abs=tol)


@pytest.mark.parametrize(
    "spec, model",
    [
        (ConstantQ(0.0), PowerLawTailRadius(0.5, 1.0, 1)),
        (MarkovQ(0.0, 0.7), GeometricTailRadius(0.5)),
        (TableQ((0.0, 0.9)), FiniteTableRadius((0.0, 0.5, 0.5))),
    ],
    ids=repr,
)
def test_classify_survives_where_the_series_vanishes(spec, model):
    # q_0 = 0 marks site 1, where alpha_0 = 0 zeroes every product: the
    # bracket is certified at [1, 1] although the tail ratio is below 1
    bracket = percolation_probability(gf_partial(spec, model, 2000), spec, model)
    assert (bracket.lo, bracket.hi, bracket.certified) == (1.0, 1.0, True)
    report = classify(spec, model, 2000)
    assert report.ratio_window[-1][1] < 1.0
    assert report.verdict == VERDICT_SURVIVE_TAIL
    assert any("series vanishes" in note for note in report.notes)


def test_classify_survival_evidence():
    spec = PolynomialMonotoneQ(0.25, 2)
    mean = classify(spec, GeometricTailRadius(0.5), 1000).mean
    model = PowerLawTailRadius(c=1.5 * mean, gamma=1.0, n0=1)
    report = classify(spec, model, 10_000)
    assert report.verdict == VERDICT_SURVIVE_TAIL


@pytest.mark.parametrize("spec, mean", [(ConstantQ(0.4), 5 / 3), (MarkovQ(0.3, 0.6), 1.75)], ids=repr)
@pytest.mark.parametrize("c", [1.2, 1.5, 1.6, 1.7, 1.72, 1.8, 2.0, 2.5, 3.0])
def test_classify_verdict_falls_on_the_side_of_the_mean(spec, mean, c):
    # n (1 - alpha_n) = c on the whole window, so every ratio is c / E T
    report = classify(spec, PowerLawTailRadius(c, 1.0, 1), 10_000)
    assert report.mean == pytest.approx(mean, rel=1e-12)
    assert report.verdict == (VERDICT_SURVIVE_TAIL if c > mean else VERDICT_EXTINCT_TAIL)


def test_classify_inconclusive_when_ck_grows_too_fast():
    # ratio above 1 but C_k / k increasing (beta > 1/2): survival evidence
    # must be withheld
    spec = PolynomialMonotoneQ(0.7, 2)
    mean = classify(spec, GeometricTailRadius(0.5), 1000).mean
    model = PowerLawTailRadius(c=3.0 * mean, gamma=1.0, n0=1)
    report = classify(spec, model, 4000)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert any("C_k" in note for note in report.notes)
