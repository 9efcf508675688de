import hashlib
import math
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewperc import (
    ConstantQ,
    EnumerationCapError,
    FiniteTableRadius,
    MarkovQ,
    PolynomialMonotoneQ,
    TableQ,
    TinyConfig,
    UnboundedRadiusError,
    ValidationError,
    GeometricTailRadius,
    enumerate_connectivity,
    enumerate_dual,
    enumerate_gf,
    forward_connectivity,
    random_tiny_configs,
)
from renewperc import oracle
from renewperc.renewal import Q_CAP

HAND_SPEC = MarkovQ(0.3, 0.6)
HAND_MODEL = FiniteTableRadius((0.0, 0.5, 0.5))


def test_path_probabilities_sum_to_one():
    for k in (1, 4, 8):
        total = math.fsum(
            _path_probability(HAND_SPEC.q_array(k).tolist(), bits)
            for bits in itertools.product((0, 1), repeat=k)
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
    [({"n_max": 1}, "n_max must be >= 2"), ({"support_max": 0}, "support_max must be >= 1"),
     ({"n_max": 9}, "n_max must be <= 8")],
)
def test_random_battery_rejects_empty_ranges(kwargs, message):
    with pytest.raises(ValidationError, match=message):
        random_tiny_configs(3, seed=1, **kwargs)
    # the smallest legal bounds still draw a battery
    assert all(cfg.n == 2 for cfg in random_tiny_configs(3, seed=1, n_max=2, support_max=1))


# The scalar chain walk, series loop and per-assignment loops that the
# oracles' one mark-vector walk and product arrays replaced, kept as
# references: the arithmetic is unchanged, so the results must be equal.
def _path_probability(qs, bits):
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


def _ref_gf(cfg):
    n = cfg.n
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


def _ref_marked_outcomes(model, truncate_at):
    m = model.support_bound
    t = min(m, truncate_at)
    pmf = model.pmf_array().tolist()
    outcomes = [(v, pmf[v]) for v in range(t)]
    outcomes.append((t, math.fsum(pmf[t:])))  # the tail's mass, exact however small
    return [(v, p) for v, p in outcomes if p > 0.0]


def _ref_mark_vectors(cfg):
    for bits in itertools.product((0, 1), repeat=cfg.n):
        if bits[-1] != 1:
            continue
        p_marks = _path_probability(cfg.spec.q_array(cfg.n).tolist(), bits)
        if p_marks == 0.0:
            continue
        yield bits, p_marks


def _ref_connectivity(cfg):
    n = cfg.n
    if n == 0:
        return 1.0
    target = set(range(1, n + 1))
    total = 0.0
    for bits, p_marks in _ref_mark_vectors(cfg):
        marked = [0] + [i for i in range(1, n) if bits[i - 1]]
        outcome_lists = [_ref_marked_outcomes(cfg.model, n - site) for site in marked]
        for assignment in itertools.product(*outcome_lists):
            covered = set()
            weight = p_marks
            for site, (radius, p) in zip(marked, assignment):
                weight *= p
                covered.update(range(site + 1, site + radius + 1))
            if target <= covered:
                total += weight
    return total


def _ref_dual(cfg):
    n = cfg.n
    if n == 0:
        return 1.0
    total = 0.0
    for bits, p_marks in _ref_mark_vectors(cfg):
        marked = [i for i in range(1, n + 1) if bits[i - 1]]
        outcome_lists = [_ref_marked_outcomes(cfg.model, site) for site in marked]
        for assignment in itertools.product(*outcome_lists):
            weight = p_marks
            last = 0
            for site, (radius, p) in zip(marked, assignment):
                weight *= p
                if radius >= site - last:
                    last = site
            if last == n:
                total += weight
    return total


def _assignment_count(cfg, dual):
    """The number of (mark vector, radius assignment) pairs an oracle enumerates."""
    n = cfg.n
    count = 0
    for bits, _ in _ref_mark_vectors(cfg):
        if dual:
            truncations = [i for i in range(1, n + 1) if bits[i - 1]]
        else:
            truncations = [n] + [n - i for i in range(1, n) if bits[i - 1]]
        count += math.prod(len(_ref_marked_outcomes(cfg.model, t)) for t in truncations)
    return count


GAPPED_MODEL = FiniteTableRadius((0.0, 0.5, 0.0, 0.5))
EDGE_CONFIGS = [
    TinyConfig(spec, model, n)
    for spec in (HAND_SPEC, TableQ((0.0, 0.7)))
    for model in (GAPPED_MODEL, FiniteTableRadius((0.1, 0.0, 0.2, 0.0, 0.7)), HAND_MODEL)
    for n in range(9)
]


@pytest.mark.parametrize("oracle, reference", [
    (enumerate_connectivity, _ref_connectivity),
    (enumerate_dual, _ref_dual),
])
def test_product_arrays_match_the_assignment_loops(oracle, reference):
    configs = random_tiny_configs(64, seed=5, n_max=8, support_max=4) + EDGE_CONFIGS
    assert {type(cfg.spec) for cfg in configs} >= {ConstantQ, MarkovQ, TableQ, PolynomialMonotoneQ}
    for cfg in configs:
        assert oracle(cfg) == reference(cfg), cfg


@pytest.mark.parametrize("oracle, dual", [(enumerate_connectivity, False), (enumerate_dual, True)])
@pytest.mark.parametrize("model, n", [(GAPPED_MODEL, 5), (HAND_MODEL, 6), (FiniteTableRadius((1.0,)), 3)])
def test_cap_counts_every_enumerated_assignment(oracle, dual, model, n):
    cfg = TinyConfig(HAND_SPEC, model, n)
    needed = _assignment_count(cfg, dual)
    assert needed >= 2 ** (n - 1)
    value = oracle(cfg)
    assert oracle(TinyConfig(HAND_SPEC, model, n, cap=needed)) == value
    with pytest.raises(EnumerationCapError):
        oracle(TinyConfig(HAND_SPEC, model, n, cap=needed - 1))


@pytest.mark.parametrize("oracle_fn, dual", [(enumerate_connectivity, False), (enumerate_dual, True)])
def test_cap_skips_mark_vectors_of_probability_zero(oracle_fn, dual):
    # q_0 = 0: a mark is always followed by a mark, so one vector of 2^5 has P > 0
    cfg = TinyConfig(TableQ((0.0, 0.7)), HAND_MODEL, 6)
    needed = _assignment_count(cfg, dual)
    assert len(list(_ref_mark_vectors(cfg))) == 1
    value = oracle_fn(TinyConfig(cfg.spec, cfg.model, cfg.n, cap=needed))
    assert value == oracle_fn(cfg) > 0.0
    with pytest.raises(EnumerationCapError):
        oracle_fn(TinyConfig(cfg.spec, cfg.model, cfg.n, cap=needed - 1))


@pytest.mark.parametrize("oracle_fn, dual", [(enumerate_connectivity, False), (enumerate_dual, True)])
def test_dead_pairs_never_reach_the_hit_test(oracle_fn, dual):
    # of this config's 324 pairs, only the 99 that hit survive the pruning to the hit test
    cfg, reached, hits = TinyConfig(HAND_SPEC, HAND_MODEL, 6), [], []
    enumerate_all = oracle._enumerate

    def counting(*args):
        *head, hit = args

        def counted(state):
            found = hit(state)
            reached.append(state.size)
            hits.append(int(found.sum()))
            return found

        return enumerate_all(*head, counted)

    with mock.patch("renewperc.oracle._enumerate", counting):
        value = oracle_fn(cfg)
    assert value == oracle_fn(cfg)
    assert sum(reached) == sum(hits) == 99 < _assignment_count(cfg, dual) == 324


# SHA-256 of both oracles' values (little-endian float64, connectivity then
# relay for each config), taken with the top radius outcome's mass as the
# fsum of the pmf's tail.
ORACLE_DIGEST = "09f053f4fcdcef7f958430e05584addce274a135024ac054b1ac79e91aad7fa4"


def test_oracle_values_are_pinned():
    values = []
    for cfg in random_tiny_configs(200, seed=1, n_max=8, support_max=4) + EDGE_CONFIGS:
        values += [enumerate_connectivity(cfg), enumerate_dual(cfg)]
    assert hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest() == ORACLE_DIGEST


_ORACLE_Q = st.one_of(st.sampled_from([0.0, 1e-300, 0.5, Q_CAP]), st.floats(0.0, 1.0))
_ORACLE_SPECS = st.one_of(
    st.builds(ConstantQ, _ORACLE_Q),
    st.builds(MarkovQ, _ORACLE_Q, _ORACLE_Q),
    st.lists(_ORACLE_Q, min_size=1, max_size=4).map(lambda v: TableQ(tuple(v))),
    st.builds(PolynomialMonotoneQ, st.floats(0.1, 1.0), st.integers(2, 4)),
)
# pmfs with zero entries, whose outcomes the oracles drop
_GAPPED_PMFS = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 0.25]), st.floats(0.0, 1.0)), min_size=1, max_size=6
).filter(lambda p: sum(p) > 0.0).map(lambda p: FiniteTableRadius(tuple(v / sum(p) for v in p)))


@pytest.mark.parametrize("enumerate_fn", [enumerate_connectivity, enumerate_dual])
def test_top_radius_outcome_keeps_a_small_tail_exact(enumerate_fn):
    # P(R >= 1) is p[1] exactly, while 1 - p[0] would keep only about 10 of its digits
    model = FiniteTableRadius((0.9999990000010001, 9.99999000001e-07))
    cfg = TinyConfig(ConstantQ(0.0), model, 1)
    assert enumerate_fn(cfg) == model.p[1]
    assert _ref_connectivity(cfg) == _ref_dual(cfg) == model.p[1]


@settings(max_examples=200, deadline=None)
@given(_ORACLE_SPECS, _GAPPED_PMFS, st.integers(0, 6), st.sampled_from([1, 2, 5, 40, 1 << 16]))
def test_dense_oracles_match_the_assignment_loops(spec, model, n, block):
    # small blocks split even these configs into many runs of mark vectors
    cfg = TinyConfig(spec, model, n)
    with mock.patch("renewperc.oracle._BLOCK", block):
        assert enumerate_connectivity(cfg) == _ref_connectivity(cfg)
        assert enumerate_dual(cfg) == _ref_dual(cfg)
    assert enumerate_gf(cfg).tobytes() == _ref_gf(cfg).tobytes()


@settings(max_examples=200, deadline=None)
@given(_ORACLE_SPECS, st.one_of(st.just(FiniteTableRadius((1.0,))), _GAPPED_PMFS), st.integers(0, 6))
def test_forward_dp_matches_the_oracle_on_edge_laws(spec, model, n):
    # q in {0, 1e-300, Q_CAP}, support 0 and zero pmf entries, which the
    # random batteries never draw
    cfg = TinyConfig(spec, model, n)
    assert forward_connectivity(spec, model, n) == pytest.approx(
        enumerate_connectivity(cfg), abs=1e-14
    )


def test_oracle_memory_stays_at_one_vector_of_pairs():
    # n = 8 with support 4 is verify's default limit; on this config the
    # per-vector oracles that the blocks replaced peaked at 2.15 MiB
    # (connectivity) and 2.08 MiB (relay) under numpy 2.4
    cfg = TinyConfig(HAND_SPEC, FiniteTableRadius((0.2,) * 5), 8)
    for enumerate_fn in (enumerate_connectivity, enumerate_dual):
        tracemalloc.start()
        try:
            enumerate_fn(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * 1.1 * 2**20, (enumerate_fn.__name__, peak)
