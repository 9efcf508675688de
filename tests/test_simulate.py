import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from renewperc import (
    ConstantQ,
    FiniteTableRadius,
    GeometricTailRadius,
    InfiniteRadius,
    MarkovQ,
    PolynomialMonotoneQ,
    PowerLawTailRadius,
    TableQ,
    coalescence_times,
    connectivity_successes,
    dual_law,
    gf_partial,
    q_star_array,
    random_tiny_configs,
    simulate_connectivity,
    simulate_coupling,
    simulate_dual,
    wilson_interval,
)
from renewperc.simulate import CHUNK, _chunk_rng, dual_successes

HAND_SPEC = MarkovQ(0.3, 0.6)
HAND_MODEL = FiniteTableRadius((0.0, 0.5, 0.5))


@given(st.integers(0, 500), st.integers(1, 500))
def test_wilson_interval_contains_estimate(k, n):
    k = min(k, n)
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_reports_are_deterministic():
    a = simulate_connectivity(HAND_SPEC, HAND_MODEL, 3, 20_000, seed=7)
    b = simulate_connectivity(HAND_SPEC, HAND_MODEL, 3, 20_000, seed=7)
    assert a == b
    c = simulate_dual(HAND_SPEC, HAND_MODEL, 3, 20_000, seed=7)
    d = simulate_dual(HAND_SPEC, HAND_MODEL, 3, 20_000, seed=7)
    assert c == d


def test_zero_radius_is_exactly_zero():
    model = FiniteTableRadius((1.0,))
    assert simulate_connectivity(HAND_SPEC, model, 2, 5000, seed=1).estimate == 0.0
    assert simulate_dual(HAND_SPEC, model, 2, 5000, seed=1).estimate == 0.0


def test_site_zero_is_certain():
    assert simulate_connectivity(HAND_SPEC, HAND_MODEL, 0, 100, seed=0).estimate == 1.0
    assert simulate_dual(HAND_SPEC, HAND_MODEL, 0, 100, seed=0).estimate == 1.0


def test_first_site_closed_form():
    report = simulate_connectivity(ConstantQ(0.5), FiniteTableRadius((0.0, 1.0)), 1, 100_000, seed=3)
    assert report.wilson_low <= 0.5 <= report.wilson_high


def test_hand_anchor_within_four_se():
    report = simulate_connectivity(HAND_SPEC, HAND_MODEL, 2, 100_000, seed=11)
    se = math.sqrt(0.55 * 0.45 / report.reps)
    assert abs(report.estimate - 0.55) <= 4 * se
    dual = simulate_dual(HAND_SPEC, HAND_MODEL, 2, 100_000, seed=11)
    assert abs(dual.estimate - 0.55) <= 4 * se


def test_estimates_track_exact_values():
    reps = 30_000
    for idx, cfg in enumerate(random_tiny_configs(10, seed=31, n_max=6)):
        gf = gf_partial(cfg.spec, cfg.model, cfg.n)
        exact = float(dual_law(gf, cfg.spec, cfg.model).v[cfg.n])
        se = max(math.sqrt(exact * (1 - exact) / reps), 1.0 / reps)
        conn = simulate_connectivity(cfg.spec, cfg.model, cfg.n, reps, seed=100 + idx)
        dual = simulate_dual(cfg.spec, cfg.model, cfg.n, reps, seed=200 + idx)
        assert abs(conn.estimate - exact) <= 4 * se
        assert abs(dual.estimate - exact) <= 4 * se


def test_empirical_duality_between_simulators():
    reps = 30_000
    for idx, cfg in enumerate(random_tiny_configs(20, seed=77, n_max=6)):
        conn = simulate_connectivity(cfg.spec, cfg.model, cfg.n, reps, seed=300 + idx)
        dual = simulate_dual(cfg.spec, cfg.model, cfg.n, reps, seed=400 + idx)
        joint_se = math.sqrt(conn.stderr**2 + dual.stderr**2) + 1.0 / reps
        assert abs(conn.estimate - dual.estimate) <= 4 * joint_se


def test_radius_dominance_is_pathwise():
    # shared seed realizes R(u) through inverse CDFs: bigger-tailed model
    # dominates pathwise, so successes can only be gained, never lost
    small = GeometricTailRadius(0.5)
    large = GeometricTailRadius(0.9)
    win_small = connectivity_successes(ConstantQ(0.5), small, 6, 20_000, seed=5)
    win_large = connectivity_successes(ConstantQ(0.5), large, 6, 20_000, seed=5)
    assert not np.any(win_small & ~win_large)
    assert win_large.sum() > win_small.sum()


def test_coupling_geometric_closed_form():
    q = 0.5
    for delay in (1, 3, 7):
        report = simulate_coupling(ConstantQ(q), (0, delay), horizon=14, reps=50_000, seed=29)
        for j in range(1, 13):
            p = q ** (j - 1)
            se = math.sqrt(p * (1 - p) / report.reps)
            assert abs(report.survival[j - 1] - p) <= 3 * se + 1e-12


def test_coupling_identical_delays_reduce_to_interarrival():
    # both chains identical: tau is the first renewal time of one chain
    q = 0.6
    report = simulate_coupling(ConstantQ(q), (0, 0), horizon=12, reps=40_000, seed=13)
    for j in range(1, 10):
        p = q ** (j - 1)  # P(T >= j)
        se = math.sqrt(p * (1 - p) / report.reps) + 1e-12
        assert abs(report.survival[j - 1] - p) <= 4 * se


def test_coalescence_is_absorbing():
    # a duplicated delay adds a chain that coalesces instantly and stays
    # merged, so the joint coalescence time must be unchanged
    a = coalescence_times(MarkovQ(0.4, 0.7), (0, 3), horizon=40, reps=8000, seed=17)
    b = coalescence_times(MarkovQ(0.4, 0.7), (0, 3, 3), horizon=40, reps=8000, seed=17)
    assert np.array_equal(a, b)


def test_coupling_sum_sq_against_qstar_products():
    # the shared-uniform inclusion bounds P(T_k >= j) by the product of
    # running maxima q*_{k} .. q*_{k+j-2}, so the partial survival sum is
    # at most sum_j prod_{i<j-1} q*_{k+i}
    spec = ConstantQ(0.5)
    k = 10
    report = simulate_coupling(spec, tuple(range(k + 1)), horizon=40, reps=100_000, seed=23)
    stars = q_star_array(spec, 2 * k + 2)
    bound = 0.0
    prod = 1.0
    for j in range(1, k + 1):
        bound += prod
        prod *= stars[k + j - 1]
    se_sum = float(report.stderr[:k].sum()) + 1e-6
    assert math.sqrt(report.coalescence_sum_sq) <= bound + 3 * se_sum


def test_coupling_report_fields():
    report = simulate_coupling(ConstantQ(0.5), (0, 2), horizon=10, reps=5000, seed=1)
    assert report.target == "tau"
    assert report.j_grid == tuple(range(1, 11))
    assert np.all((report.survival >= 0) & (report.survival <= 1))
    assert np.all(report.wilson_low <= report.survival)
    assert np.all(report.survival <= report.wilson_high)
    again = simulate_coupling(ConstantQ(0.5), (0, 2), horizon=10, reps=5000, seed=1)
    assert np.array_equal(report.survival, again.survival)


# ---------------------------------------------------------------------------
# Pinned Monte Carlo streams
# ---------------------------------------------------------------------------

STREAM_LAWS = {
    "constant": ConstantQ(0.45),
    "markov": MarkovQ(0.3, 0.6),
    "polynomial": PolynomialMonotoneQ(beta=0.3, i0=2),
    "table": TableQ(values=(0.6, 0.2, 0.95)),  # some tau pass 64 steps, some censor at 130
}
STREAM_RADII = {
    "power-g1": PowerLawTailRadius(c=3.0, gamma=1.0),
    "power-g1.5": PowerLawTailRadius(c=2.0, gamma=1.5, n0=2),
    "geometric": GeometricTailRadius(0.8),
    "table": FiniteTableRadius((0.2, 0.3, 0.5)),
    "infinite": InfiniteRadius(),
}
STREAM_NS = (0, 1, 7, 60)
STREAM_REPS = (1, 700, CHUNK, CHUNK + 1)
STREAM_DELAYS = ((0,), (0, 0), (0, 3), (0, 1, 2, 3))
STREAM_HORIZONS = (1, 50, 130)
STREAM_SEED = 41


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _indicator_digest(kernel, law: str, radius: str) -> str:
    spec, model = STREAM_LAWS[law], STREAM_RADII[radius]
    return _sha256(
        kernel(spec, model, n, reps, STREAM_SEED) for n in STREAM_NS for reps in STREAM_REPS
    )


def _tau_digest(law: str) -> str:
    spec = STREAM_LAWS[law]
    return _sha256(
        coalescence_times(spec, delays, horizon, reps, STREAM_SEED)
        for delays in STREAM_DELAYS
        for horizon in STREAM_HORIZONS
        for reps in STREAM_REPS
    )


# SHA-256 of the conn-v1 / dual-v1 / coupling-v1 outputs; a kernel rewrite
# that keeps its layout id must reproduce every one of them
STREAM_DIGESTS = {
    "conn/constant/geometric": "7320d9a947adc35635e6d245e5f64220dfecaa0b2ec1db7bf5a67058805213e1",
    "conn/constant/infinite": "2d0ae30c68a10cfa5311d632acccacec13a0f7f8dddb701a10bef921758d775c",
    "conn/constant/power-g1": "f40abc801e1664b93f83d1d38dbad2148478f0b9c70dd7501086591a655348b3",
    "conn/constant/power-g1.5": "d75afc28c51b1b0435da8850d59544bb8bd037109e94bd5e5757fb0414b4c59f",
    "conn/constant/table": "a732206758b5390342046a0d7d214372ee99d225b6fd31dda2da76f9c9603ac3",
    "conn/markov/geometric": "4471dc90264edadf5634986e170724a7bccedffc823477595237b6fd702280d6",
    "conn/markov/infinite": "7baefd66053150000257617911478ec511304f3a26f518324b9172f55c05ba2b",
    "conn/markov/power-g1": "416c24737c05b46658f70e27202ff2e348eef2bf69be135fe75c143a4fa95f52",
    "conn/markov/power-g1.5": "8025067a61abacd7131f11a8685161a96278a165cdf77e276de49e8039f6e068",
    "conn/markov/table": "36b30cab623a0629e7cd2a1e58ee88ccc15a64ca788f82bddf957e76bc4f4c02",
    "conn/polynomial/geometric": "3465ea37c861aadbea2cfddb577ef90b764b197ddf8e523d1e68bae5ddee9a4b",
    "conn/polynomial/infinite": "94c3b3823c3cd65e66ce74574b3c1b135d3a6a21605b756d508fb80bac053de2",
    "conn/polynomial/power-g1": "7f2531bb31893ff51a639244dd57cdc0a31a324df5d4c97e012d1ba6aafd75d1",
    "conn/polynomial/power-g1.5": "c95f4cb87e8a2b3f8a27e7feb601635fb5cb09f00cb483daf202d598f107c7e7",
    "conn/polynomial/table": "35d478dc15dc94ef2d8e83981a87c06c6e81acfc0d5f18eab5e4dc752b5af6c7",
    "conn/table/geometric": "265efb0c7e35d179901aee49f33c7bf859d2bef42f9a66e4030c65e0b8715325",
    "conn/table/infinite": "e1fd8c2151b41642406dd591e74bc9274007a2e77fb7bfad653510ee3da5f164",
    "conn/table/power-g1": "663ca0170b2f099b31c4329bf4af43d39440d631b1e0d941830fa472029bfc2e",
    "conn/table/power-g1.5": "84d6cee2dd31711db46401674943cfc7ee5db796803df0963a85a65e4e93be74",
    "conn/table/table": "f4d5aa4db843db4b93e2fb8c0c83aaafa8dac55f65b041cff002826b89dbf92f",
    "dual/constant/geometric": "36f79f29e18ca12e0ae31588df9652c733bdcce3f9c9fa4dd56a4e05ecc6c2c8",
    "dual/constant/infinite": "2d0ae30c68a10cfa5311d632acccacec13a0f7f8dddb701a10bef921758d775c",
    "dual/constant/power-g1": "f4089b18b0b57ceb0e1692294099c7c97219f19fed4f1e187a0b3fe280b5bd0a",
    "dual/constant/power-g1.5": "3d6ad78e36f77c68a88d8b97e71923cd75b66a6b6165ee5c31b7604de8a3744e",
    "dual/constant/table": "c3ceca07589dd37bd42f943ef127025a5aa36f2576d082e02d3aeac4ed4dc1c0",
    "dual/markov/geometric": "87d415a27b8768ff0ad94a929693a8aae4a9dada520db0d5d2493795b956b648",
    "dual/markov/infinite": "7baefd66053150000257617911478ec511304f3a26f518324b9172f55c05ba2b",
    "dual/markov/power-g1": "5d527ebb7e12b4b55e5d696f904d6c76e55cc87707c9ff4da20c7e9cd6805b51",
    "dual/markov/power-g1.5": "9915895e9d950b460973a10700011c588492ad41f2f04fae00ccaaa49908fee7",
    "dual/markov/table": "d25bff07d31d31522f4acf4929cffeba7b83eb750d1d4654ee0ab1103071a1d5",
    "dual/polynomial/geometric": "a11d07682b66a2f55ff5e4df5aae50d23795c9fc6f95cd1d443e05d938a2aea7",
    "dual/polynomial/infinite": "94c3b3823c3cd65e66ce74574b3c1b135d3a6a21605b756d508fb80bac053de2",
    "dual/polynomial/power-g1": "e7d5dacf8d92c4c87c95c482131cd3bb670de587a07eb7ea7d73854ea1a55529",
    "dual/polynomial/power-g1.5": "aaf68da823c5fabb6dfc45344044a08eb83340f97a729395df2486da919e5337",
    "dual/polynomial/table": "3090026027e805e13b9c0bc8db7feb4a8c9737816d4b3f9aed88b40fb02e90dd",
    "dual/table/geometric": "02f48288b75a45621bca5dca4c17fe2872655c946880b1fd60af70193401d8c8",
    "dual/table/infinite": "e1fd8c2151b41642406dd591e74bc9274007a2e77fb7bfad653510ee3da5f164",
    "dual/table/power-g1": "f26d7fe58d42097989445b10e68589fa91505260a1a6a792ce6cdd066c20ba06",
    "dual/table/power-g1.5": "32dad8ed23b67bf42e13ff7263f9bea7f1f87f3461da54c9733919db5467032f",
    "dual/table/table": "47b988571fd307d3ee6c24292fcadc6f659bd21ed9ebc92d0d7c3ac95f333977",
    "tau/constant": "a34139999c933c1c1956a47bd25b710433eb39ae1414d2bb60e84c726734e3b3",
    "tau/markov": "94a9c8761827aaf3b558b3d0c86ea5578abe7ae23b4322e0be045c8d483c8bf3",
    "tau/polynomial": "0e9bc3661e136ee1e68ddc2cbf87fadd553f7c0fea1fc4dec56512253dfb99be",
    "tau/table": "dbe2578e5b2a453e31a1ac6312099f63fdedc27860c0f738a9b724d43a85973b",
}


@pytest.mark.parametrize(
    "law,radius", list(itertools.product(STREAM_LAWS, STREAM_RADII)), ids="/".join
)
def test_indicator_streams_are_pinned(law, radius):
    conn = _indicator_digest(connectivity_successes, law, radius)
    dual = _indicator_digest(dual_successes, law, radius)
    assert conn == STREAM_DIGESTS[f"conn/{law}/{radius}"]
    assert dual == STREAM_DIGESTS[f"dual/{law}/{radius}"]


@pytest.mark.parametrize("law", list(STREAM_LAWS))
def test_coalescence_streams_are_pinned(law):
    assert _tau_digest(law) == STREAM_DIGESTS[f"tau/{law}"]


# ---------------------------------------------------------------------------
# Scalar reference walk
# ---------------------------------------------------------------------------


def _reference_draws(model, n, n_rad, reps, seed):
    """Per-replicate (mark uniforms, radii) in the chunk layout, drawn plainly."""
    for c in range(0, reps, CHUNK):
        rng = _chunk_rng(seed, c // CHUNK)
        size = min(CHUNK, reps - c)
        marks = rng.random((size, n))
        radii = model.quantile(rng.random((size, n_rad)))
        yield from zip(marks.tolist(), radii.tolist())


def _walk_connectivity(spec, marks, radii, n):
    """House-of-cards chain with the frontier excess, one replicate."""
    zeta, excess = 0, radii[0]
    for s in range(1, n + 1):
        if excess < 1:
            return False
        if marks[s - 1] <= spec.q_at(zeta):
            zeta, excess = zeta + 1, excess - 1
        else:
            zeta, excess = 0, max(excess - 1, radii[s])
    return zeta == 0


def _walk_dual(spec, marks, radii, n):
    """House-of-cards chain with the relay's last informed site, one replicate."""
    zeta, last = 0, 0
    for i in range(1, n + 1):
        if marks[i - 1] <= spec.q_at(zeta):
            zeta += 1
        else:
            zeta = 0
            if radii[i - 1] >= i - last:
                last = i
    return last == n


@pytest.mark.parametrize(
    "spec, model, n",
    [
        (MarkovQ(0.3, 0.6), FiniteTableRadius((0.0, 0.5, 0.5)), 4),
        (TableQ(values=(0.6, 0.2, 0.95)), GeometricTailRadius(0.6), 5),
        (PolynomialMonotoneQ(beta=0.3, i0=2), PowerLawTailRadius(c=2.0, gamma=1.5, n0=2), 6),
        (ConstantQ(0.5), InfiniteRadius(), 3),
    ],
    ids=["markov-table", "table-geometric", "polynomial-power", "constant-infinite"],
)
def test_vectorised_kernels_match_a_scalar_walk(spec, model, n):
    reps, seed = CHUNK + 600, 8
    conn = [
        _walk_connectivity(spec, marks, radii, n)
        for marks, radii in _reference_draws(model, n, n + 1, reps, seed)
    ]
    dual = [_walk_dual(spec, marks, radii, n) for marks, radii in _reference_draws(model, n, n, reps, seed)]
    assert connectivity_successes(spec, model, n, reps, seed).tolist() == conn
    assert dual_successes(spec, model, n, reps, seed).tolist() == dual
    assert 0 < sum(conn) < reps and 0 < sum(dual) < reps
