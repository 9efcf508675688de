import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewperc import (
    FiniteTableRadius,
    GeometricTailRadius,
    InfiniteRadius,
    PowerLawTailRadius,
    RadiusModel,
    ValidationError,
    radius_from_config,
)

MODELS = [
    GeometricTailRadius(0.9),
    PowerLawTailRadius(c=3.0, gamma=1.0, n0=1),
    PowerLawTailRadius(c=0.5, gamma=1.5, n0=2),
    FiniteTableRadius((0.0, 0.5, 0.5)),
    InfiniteRadius(),
]


def test_alpha_examples():
    assert GeometricTailRadius(0.9).alpha(2) == pytest.approx(0.19, abs=1e-12)
    power = PowerLawTailRadius(c=3.0, gamma=1.0, n0=1)
    assert power.alpha(3) == 0.0
    assert power.alpha(6) == pytest.approx(0.5, abs=1e-12)
    table = FiniteTableRadius((0.0, 0.5, 0.5))
    assert table.alpha(0) == 0.0
    assert table.alpha(1) == pytest.approx(0.5)
    assert table.alpha(2) == pytest.approx(1.0)


@pytest.mark.parametrize("model", MODELS)
def test_alpha_nondecreasing_scan(model):
    values = model.alpha_array(10_001)
    assert np.all(np.diff(values) >= -1e-15)
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.allclose(values[:50], [model.alpha(i) for i in range(50)], atol=1e-15)


@given(st.floats(0.01, 0.99))
def test_alpha_nondecreasing_geometric_property(r):
    values = GeometricTailRadius(r).alpha_array(200)
    assert np.all(np.diff(values) >= -1e-15)


@given(st.floats(0.1, 10.0), st.floats(0.2, 3.0))
def test_alpha_nondecreasing_power_property(c, gamma):
    values = PowerLawTailRadius(c=c, gamma=gamma, n0=1).alpha_array(200)
    assert np.all(np.diff(values) >= -1e-15)


_RADII = st.one_of(
    st.builds(GeometricTailRadius, st.floats(0.01, 0.99)),
    st.builds(PowerLawTailRadius, st.floats(0.1, 10.0), st.floats(0.2, 3.0), st.integers(1, 5)),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)
    .filter(lambda w: sum(w) > 0.0)
    .map(lambda w: FiniteTableRadius(tuple(x / math.fsum(w) for x in w)))
    .filter(lambda m: abs(sum(m.p) - 1.0) <= 1e-9),
    st.just(InfiniteRadius()),
)


@settings(max_examples=200, deadline=None)
@given(_RADII, st.integers(0, 3000), st.integers(1, 3001))
def test_alpha_is_alpha_array_bit_for_bit(model, k, extra):
    values = model.alpha_array(k + extra)
    assert model.alpha(k) == values[k]
    assert type(model.alpha(k)) is float


def _no_arange(*args, **kwargs):
    raise AssertionError("a scalar lookup built an index range")


def test_alpha_far_index_costs_one_entry(monkeypatch):
    monkeypatch.setattr(np, "arange", _no_arange)
    for model in MODELS:
        assert 0.0 <= model.alpha(10**12) <= 1.0
    # the cumsum of this pmf ends at 1 - 1.1e-16; beyond the support alpha is exactly 1
    assert FiniteTableRadius((0.1,) * 10).alpha(10**12) == 1.0


def test_scalar_only_subclass_gets_its_array():
    @dataclass(frozen=True)
    class HalfAtTwo(RadiusModel):
        def alpha(self, n):
            return 0.0 if n < 2 else 1.0 - 0.5 ** (n - 1)

    model = HalfAtTwo()
    assert model.alpha_array(5).tolist() == [0.0, 0.0, 0.5, 0.75, 0.875]
    assert model.alpha_array(0).size == 0
    with pytest.raises(NotImplementedError):
        RadiusModel().alpha_array(3)


@pytest.mark.parametrize(
    "model",
    [GeometricTailRadius(0.9), FiniteTableRadius((0.1, 0.4, 0.3, 0.2)),
     PowerLawTailRadius(c=3.0, gamma=1.0, n0=1)],
)
def test_sampling_matches_cdf(model):
    reps = 100_000
    draws = model.quantile(np.random.default_rng(99).random(reps))
    for n in (1, 5, 25):
        p = model.alpha(n)
        se = math.sqrt(max(p * (1 - p), 1e-12) / reps)
        assert abs((draws <= n).mean() - p) <= 4 * se + 1e-9


def _searchsorted_table_quantile(p, u):
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, np.asarray(u, dtype=float), side="right").astype(float)


def _temporaries_quantile(model, u):
    u = np.asarray(u, dtype=float)
    if isinstance(model, GeometricTailRadius):
        return np.floor(np.log1p(-u) / math.log(model.r)) + 1.0
    return np.maximum(np.floor((model.c / (1.0 - u)) ** (1.0 / model.gamma)) + 1.0, float(model.n0))


@pytest.mark.parametrize(
    "model",
    [FiniteTableRadius((0.1, 0.4, 0.3, 0.2)), FiniteTableRadius((0.0, 0.5, 0.0, 0.5)),
     FiniteTableRadius((1.0,)), FiniteTableRadius((0.0, 1.0)), FiniteTableRadius((0.1,) * 10),
     FiniteTableRadius((1 / 300,) * 300),  # counts past 255
     GeometricTailRadius(0.9), GeometricTailRadius(0.05),
     PowerLawTailRadius(3.0, 1.0), PowerLawTailRadius(2.0, 1.5, 2),
     PowerLawTailRadius(0.5, 1.0),  # c < 1: R = n0 = 1 with no clamp
     PowerLawTailRadius(0.5, 1.0, 3)],  # the clamp to n0 binds
)
def test_in_place_quantiles_match_the_allocating_formulas(model):
    if isinstance(model, FiniteTableRadius):
        def reference(u):
            return _searchsorted_table_quantile(model.p, u)
        edges = np.cumsum(model.p)[:-1]
    else:
        def reference(u):
            return _temporaries_quantile(model, u)
        edges = model.alpha_array(6)
    rng = np.random.default_rng(17)
    for u in (rng.random((300, 7)), rng.random(1001)[::3], np.concatenate([[0.0], edges])):
        got, want = model.quantile(u), reference(u)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    for u in (0.0, *edges[-1:].tolist(), 0.37):
        got = model.quantile(u)
        assert isinstance(got, np.float64) and got == reference(u)


def test_sampling_mean_matches_survival_sum_oracle():
    model = GeometricTailRadius(0.9)
    # oracle: E R = sum_n P(R > n), summed from the model's own CDF
    oracle = float((1.0 - model.alpha_array(2000)).sum())
    reps = 1_000_000
    draws = model.quantile(np.random.default_rng(2024).random(reps))
    se = draws.std() / math.sqrt(reps)
    assert abs(draws.mean() - oracle) <= 3 * se


def test_infinite_radius_flag():
    model = InfiniteRadius()
    assert model.alpha(10) == 0.0
    assert np.isinf(model.quantile(np.array([0.2, 0.9]))).all()


def test_finite_table_validation():
    with pytest.raises(ValidationError):
        FiniteTableRadius((0.5, 0.4))
    with pytest.raises(ValidationError):
        FiniteTableRadius((0.5, -0.5, 1.0))


def test_config_fragments_round_trip():
    fragments = [
        {"family": "geometric_tail", "r": 0.9},
        {"family": "power_tail", "c": 3, "gamma": 1, "n0": 1},
        {"family": "table", "p": [0.0, 0.5, 0.5]},
        {"family": "infinite"},
    ]
    for fragment in fragments:
        model = radius_from_config(fragment)
        assert radius_from_config(model.to_config()) == model
    with pytest.raises(ValidationError):
        radius_from_config({"family": "table", "p": [1.0], "r": 0.5})
