import math

import numpy as np
import pytest

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
    TableQ,
    TinyConfig,
    UnboundedRadiusError,
    bounds_report,
    classify,
    dual_law,
    enumerate_gf,
    forward_connectivity,
    gf_partial,
    iid_closed_form,
    percolation_probability,
    random_tiny_configs,
    survival_products,
)
from renewperc import engine
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
# percolation_probability / iid_closed_form
# ---------------------------------------------------------------------------


def test_bracket_renewal_endpoint():
    spec = ConstantQ(0.5)
    gf = gf_partial(spec, InfiniteRadius(), 60)
    bracket = percolation_probability(gf, spec, InfiniteRadius())
    assert bracket.lo <= 0.5 <= bracket.hi
    assert bracket.hi - bracket.lo < 1e-6


def test_bracket_sure_percolation():
    # marks everywhere and R >= 1 almost surely: S_1 = alpha_0 = 0
    spec = TableQ((0.0,))
    model = FiniteTableRadius((0.0, 1.0))
    gf = gf_partial(spec, model, 20)
    bracket = percolation_probability(gf, spec, model)
    assert bracket.lo == 1.0 and bracket.hi == 1.0
    assert bracket.certified


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


def test_iid_closed_form_sure_percolation():
    bracket = iid_closed_form(1.0, FiniteTableRadius((0.0, 1.0)), 20)
    assert bracket.lo == 1.0 and bracket.hi == 1.0


def test_iid_closed_form_matches_gf_bracket():
    model = PowerLawTailRadius(c=3.0, gamma=1.0, n0=1)
    direct = iid_closed_form(0.5, model, 400)
    gf = gf_partial(ConstantQ(0.5), model, 400)
    via_gf = percolation_probability(gf, ConstantQ(0.5), model)
    assert direct.hi == pytest.approx(via_gf.hi, abs=1e-12)
    assert direct.lo == pytest.approx(via_gf.lo, abs=1e-9)


def test_iid_geometric_radius_goes_extinct():
    # interval lengths with geometric tails cannot keep up: terms settle at
    # a positive constant, the series grows linearly, hi -> 0
    his = [iid_closed_form(0.5, GeometricTailRadius(0.9), n).hi for n in (500, 2000, 50_000)]
    assert his[0] > his[1] > his[2]
    assert his[2] < 0.01


def test_iid_power_tail_positive_lower_bound():
    bracket = iid_closed_form(0.5, PowerLawTailRadius(c=3.0, gamma=1.0, n0=1), 20_000)
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


def test_bracket_nesting_across_horizons_iid():
    # honesty check: a coarse bracket must contain the tighter one
    model = PowerLawTailRadius(c=3.0, gamma=1.0, n0=1)
    tight = iid_closed_form(0.5, model, 40_000)
    coarse = iid_closed_form(0.5, model, 2000)
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


def test_input_validation():
    with pytest.raises(ValidationError):
        gf_partial(ConstantQ(0.5), InfiniteRadius(), 0)
    with pytest.raises(ValidationError):
        iid_closed_form(0.0, InfiniteRadius(), 10)
    with pytest.raises(ValidationError):
        iid_closed_form(1.5, InfiniteRadius(), 10)
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


def test_bounds_on_infinite_radius_never_builds_ck(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("C_k built for a bound that cannot use it")

    monkeypatch.setattr(engine, "ck_sequence", build)
    report = bounds_report(ConstantQ(0.4375), InfiniteRadius(), 321)
    assert report.concentration_lower is None


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


def test_classify_divergent_mean():
    report = classify(PolynomialMonotoneQ(beta=2.0, i0=2), GeometricTailRadius(0.9), 2000)
    assert report.verdict == VERDICT_EXTINCT_INFINITE_MEAN
    assert not report.mean_converged


def test_classify_extinction_evidence():
    report = classify(ConstantQ(0.5), PowerLawTailRadius(c=0.5, gamma=1.0, n0=1), 10_000)
    assert report.verdict == VERDICT_EXTINCT_TAIL
    assert report.mean == pytest.approx(2.0, abs=1e-9)


def test_classify_survival_evidence():
    spec = PolynomialMonotoneQ(0.25, 2)
    mean = classify(spec, GeometricTailRadius(0.5), 1000).mean
    model = PowerLawTailRadius(c=1.5 * mean, gamma=1.0, n0=1)
    report = classify(spec, model, 10_000)
    assert report.verdict == VERDICT_SURVIVE_TAIL


def test_classify_inconclusive_when_ck_grows_too_fast():
    # ratio above 1 but C_k / k increasing (beta > 1/2): survival evidence
    # must be withheld
    spec = PolynomialMonotoneQ(0.7, 2)
    mean = classify(spec, GeometricTailRadius(0.5), 1000).mean
    model = PowerLawTailRadius(c=3.0 * mean, gamma=1.0, n0=1)
    report = classify(spec, model, 4000)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert any("C_k" in note for note in report.notes)
