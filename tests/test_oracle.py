import math
import itertools

import numpy as np
import pytest

from renewperc import (
    ConstantQ,
    EnumerationCapError,
    FiniteTableRadius,
    MarkovQ,
    TableQ,
    TinyConfig,
    UnboundedRadiusError,
    ValidationError,
    GeometricTailRadius,
    enumerate_connectivity,
    enumerate_dual,
    enumerate_gf,
    random_tiny_configs,
)
from renewperc.oracle import _path_probability

HAND_SPEC = MarkovQ(0.3, 0.6)
HAND_MODEL = FiniteTableRadius((0.0, 0.5, 0.5))


def test_path_probabilities_sum_to_one():
    for k in (1, 4, 8):
        total = math.fsum(
            _path_probability(HAND_SPEC, bits) for bits in itertools.product((0, 1), repeat=k)
        )
        assert total == pytest.approx(1.0, abs=1e-13)


def test_enumerate_gf_hand_value():
    # Constant(0.5), alpha = (0.3, 0.6): the four mark vectors give
    # 0.25 * (0.18 + 0.3 + 0.6 + 1) = 0.52
    cfg = TinyConfig(ConstantQ(0.5), FiniteTableRadius((0.3, 0.3, 0.4)), 2)
    S = enumerate_gf(cfg)
    assert S[0] == 1.0
    assert S[1] == pytest.approx(0.65, abs=1e-14)
    assert S[2] == pytest.approx(0.52, abs=1e-14)


def test_enumerate_gf_single_path_when_q_zero():
    model = FiniteTableRadius((0.2, 0.5, 0.3))
    cfg = TinyConfig(TableQ((0.0,)), model, 6)
    S = enumerate_gf(cfg)
    alphas = model.alpha_array(6)
    for n in range(1, 7):
        assert S[n] == pytest.approx(np.prod(alphas[:n]), abs=1e-14)


def test_enumerate_gf_telescopes():
    cfg = TinyConfig(HAND_SPEC, HAND_MODEL, 8)
    S = enumerate_gf(cfg)
    assert np.all(np.diff(S) <= 1e-14)


def test_enumerate_connectivity_first_site():
    cfg = TinyConfig(HAND_SPEC, HAND_MODEL, 1)
    expected = (1 - 0.3) * (1 - 0.0)
    assert enumerate_connectivity(cfg) == pytest.approx(expected, abs=1e-14)


def test_enumerate_connectivity_zero_radius():
    cfg = TinyConfig(HAND_SPEC, FiniteTableRadius((1.0,)), 3)
    assert enumerate_connectivity(cfg) == 0.0


def test_enumerate_hand_anchor():
    cfg = TinyConfig(HAND_SPEC, HAND_MODEL, 2)
    assert enumerate_connectivity(cfg) == pytest.approx(0.55, abs=1e-14)
    assert enumerate_dual(cfg) == pytest.approx(0.55, abs=1e-14)


def test_enumerate_dual_trivial_cases():
    assert enumerate_dual(TinyConfig(HAND_SPEC, HAND_MODEL, 0)) == 1.0
    # R = 0 almost surely: nothing propagates
    assert enumerate_dual(TinyConfig(HAND_SPEC, FiniteTableRadius((1.0,)), 2)) == 0.0


def test_duality_on_random_battery():
    for cfg in random_tiny_configs(16, seed=99, n_max=6, support_max=3):
        conn = enumerate_connectivity(cfg)
        dual = enumerate_dual(cfg)
        assert abs(conn - dual) <= 1e-12


def test_enumeration_guards():
    with pytest.raises(ValidationError):
        enumerate_gf(TinyConfig(HAND_SPEC, HAND_MODEL, 13))
    with pytest.raises(ValidationError):
        enumerate_connectivity(TinyConfig(HAND_SPEC, HAND_MODEL, 9))
    with pytest.raises(UnboundedRadiusError):
        enumerate_connectivity(TinyConfig(HAND_SPEC, GeometricTailRadius(0.9), 3))
    with pytest.raises(EnumerationCapError):
        enumerate_connectivity(
            TinyConfig(HAND_SPEC, FiniteTableRadius((0.2, 0.2, 0.2, 0.2, 0.2)), 8, cap=10)
        )


def test_random_battery_is_reproducible():
    a = random_tiny_configs(8, seed=3)
    b = random_tiny_configs(8, seed=3)
    assert a == b
    assert all(cfg.n <= 8 for cfg in a)
    assert all(cfg.model.support_bound <= 4 for cfg in a)


@pytest.mark.parametrize(
    "kwargs, message",
    [({"n_max": 1}, "n_max must be >= 2"), ({"support_max": 0}, "support_max must be >= 1")],
)
def test_random_battery_rejects_empty_ranges(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        random_tiny_configs(3, seed=1, **kwargs)
    # the smallest legal bounds still draw a battery
    assert all(cfg.n == 2 for cfg in random_tiny_configs(3, seed=1, n_max=2, support_max=1))
