import hashlib
import itertools
import math
import os
import select
import signal
import sys
import tracemalloc
import warnings
from dataclasses import dataclass

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
from renewperc import ValidationError, simulate
from renewperc.simulate import CHUNK, _chunk_rng, _walk, dual_successes

HAND_SPEC = MarkovQ(0.3, 0.6)
BOTH = ("connectivity", "dual")  # the targets of a verify walk
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


# SHA-256 of the conn-v2 / dual-v2 / coupling-v1 outputs; a kernel rewrite
# that keeps its layout id must reproduce every one of them
STREAM_DIGESTS = {
    "conn/constant/geometric": "39044fa79c7779669fd051f11dcb00d21f59ff4ceb3765a33ae2aad0fd63a21d",
    "conn/constant/infinite": "7b24e2e3b06a00745352573fa9ddc4be1886ecfa8930e69616bb8088a2824b42",
    "conn/constant/power-g1": "5439c3170c8bda6f114fb111d85ad5f745079391c093596ddcb43ee30d7744fa",
    "conn/constant/power-g1.5": "8ddb4910d5fec76fcdba4f1e1c0afd4955de6b338f6a11c1527ecca4fdcf0b8c",
    "conn/constant/table": "8e481e71522729988e0491711319b4680fe61d8fc09e728e2e8e50c0417c235c",
    "conn/markov/geometric": "e7f9319b09a1fa195445e2b8fa4df72e4d48c66b9f7b1885cf95189ec2d4bbe0",
    "conn/markov/infinite": "9a8fd666574a03d43f3a08f62bd05e20f2438b215869e6f33ef271f7b411920b",
    "conn/markov/power-g1": "8c87b3254b66f09f118137920fa0aa5233b211ab7389a845bb4e26241b1d9774",
    "conn/markov/power-g1.5": "8ebbb2608b88072a395ab18319b5d8dbde1f0dbb5a81d47732c1a0cacbfdc7cf",
    "conn/markov/table": "bbcd934d04d2c34f4f7c8d0f80b10ae78523356ea3a017b9331e9e7d4e7da30c",
    "conn/polynomial/geometric": "fb2d0e9b9ebd8db73fb4c540e50d975408d3f18c542585aa889974621da4d01b",
    "conn/polynomial/infinite": "b7a0d6e7c11a62088dd6548743fb49797e112ce5900919e2d9624ef943bd461b",
    "conn/polynomial/power-g1": "978fcb126a86bc489e079c71a9f34b00d6e18ec93f278f3ec216e185a5efe188",
    "conn/polynomial/power-g1.5": "78dea6910557b3f768d65d639e46e9ec9999834fff23f8cdead7b9708e43f27c",
    "conn/polynomial/table": "fb7a249c9fb00438628112409315133f584c378faff5986f5ea6841c42a30fed",
    "conn/table/geometric": "c0f2eac86b36dd033d34658ab1ec1d5324cfdd2e4b118be940fc95473bc747fc",
    "conn/table/infinite": "e64a6095c57a671aaf1dfe56d5d6073df62d76108b4185df0c0deaafe274b4d0",
    "conn/table/power-g1": "42d93a2d97876dbc8ebea5fc811009c56c1fe9c7555b5e8093c71b777e02774a",
    "conn/table/power-g1.5": "90d522e9989736cf08f2f03118054c62506be24a2050eeb597ff47dacf93e451",
    "conn/table/table": "a0c8cb9619ed8d3b57c6a397832cee11faf538664e293109a414f91623fc53f1",
    "dual/constant/geometric": "555816ed5cea39daab6fcf74315de3e3aae2b4bf0585d194ce03b03e2303fae9",
    "dual/constant/infinite": "7b24e2e3b06a00745352573fa9ddc4be1886ecfa8930e69616bb8088a2824b42",
    "dual/constant/power-g1": "cdf42cd96a7fa3b7e5f7e69826aba2745edf54b66d48c050edc54afc15e19047",
    "dual/constant/power-g1.5": "6659c89f629d7edc1001baf5f1ce83dc9cac3bdcd07d858bb3a852d277635854",
    "dual/constant/table": "28196446a88c2fa2a499b8ef228dab0876d5a3e27cbd4cb4f807a69cba3503b2",
    "dual/markov/geometric": "7f57e8d1fb7e34a03305f3c51ce6fa1381d2286a5bcc22f13b270544c7648c9d",
    "dual/markov/infinite": "9a8fd666574a03d43f3a08f62bd05e20f2438b215869e6f33ef271f7b411920b",
    "dual/markov/power-g1": "0bbf8ee1fc14f11a91befc1591320e6354b47e75ebcc69502424fc641583413a",
    "dual/markov/power-g1.5": "c1b97cf4e7653a0cc7eed6f99ef69fa3c045ad89553dd8605fa0005c93d609c9",
    "dual/markov/table": "f1028fc86228127d1232f91c528f96a9057989c8b241c32d0df07372f384180b",
    "dual/polynomial/geometric": "328c455ab9b6050c9654e30aa4494224def15e873987dabc5ddd675a45b1e749",
    "dual/polynomial/infinite": "b7a0d6e7c11a62088dd6548743fb49797e112ce5900919e2d9624ef943bd461b",
    "dual/polynomial/power-g1": "24dc20ff17538c6750c671ea06a4c44aa061c997f8667951aea260bd309248e0",
    "dual/polynomial/power-g1.5": "8fc27fc8d7bf7fd657a04aea83b8e465b09617147509bed9ab5e9de68ca5888b",
    "dual/polynomial/table": "80ed11073c37660d1a49a0aba79651bf3a08ac3fc92f6532c07b0326cdae77bc",
    "dual/table/geometric": "60c9ec866cd97bf6c854a25f21d13f9bad14a80cf104f80cd48ba9d98b7ef4ae",
    "dual/table/infinite": "e64a6095c57a671aaf1dfe56d5d6073df62d76108b4185df0c0deaafe274b4d0",
    "dual/table/power-g1": "61243994b280d698c8e9ca332c792dbfbeebf16c8b7f63db5f189b65df361a8c",
    "dual/table/power-g1.5": "f57336b42ddb2378f91c51c00bc68217642d0330539c0a3bcb3415476a5b2788",
    "dual/table/table": "4ff7af93bf0e6c144c7f684b4d29e3a076362cc2283e50ea4b8188ac8a0ee228",
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


@pytest.mark.parametrize(
    "law,radius", list(itertools.product(STREAM_LAWS, STREAM_RADII)), ids="/".join
)
def test_one_walk_gives_every_site(law, radius):
    # the rows of sites <= n do not depend on how far the walk goes
    # and the walk for both targets gives each target's rows
    spec, model = STREAM_LAWS[law], STREAM_RADII[radius]
    kernels = {"connectivity": connectivity_successes, "dual": dual_successes}
    for ns in (STREAM_NS, (60, 7, 0, 7, 1, 60)):
        for reps in (700, CHUNK + 1):
            for targets in (("connectivity",), ("dual",), BOTH, BOTH[::-1]):
                walk = _walk(spec, model, ns, reps, STREAM_SEED, targets)
                assert walk.shape == (len(targets), len(ns), reps)
                for target, rows in zip(targets, walk):
                    for n, row in zip(ns, rows):
                        assert np.array_equal(row, kernels[target](spec, model, n, reps, STREAM_SEED))


@pytest.mark.parametrize("law", list(STREAM_LAWS))
def test_coalescence_streams_are_pinned(law):
    assert _tau_digest(law) == STREAM_DIGESTS[f"tau/{law}"]


@pytest.mark.parametrize(
    "q0, q1",
    [(0.6, 0.3), (0.3, 0.6), (0.45, 0.45), (0.0, 0.5), (0.5, 0.0), (1.0, 0.4), (0.4, 1.0)],
)  # q = 1 is clamped to Q_CAP
def test_two_state_laws_match_the_height_chain(q0, q1):
    # the table law has the same q_array but does not lump, so it walks heights
    lumped, heights = MarkovQ(q0, q1), TableQ((q0, q1), tail=ConstantQ(q1))
    assert np.array_equal(lumped.q_array(300), heights.q_array(300))
    model, reps = STREAM_RADII["power-g1"], CHUNK + 1
    want = _walk(heights, model, STREAM_NS, reps, STREAM_SEED, BOTH)
    assert np.array_equal(_walk(lumped, model, STREAM_NS, reps, STREAM_SEED, BOTH), want)
    for delays in (*STREAM_DELAYS, (2, 5)):
        want = coalescence_times(heights, delays, 130, reps, STREAM_SEED)
        assert np.array_equal(coalescence_times(lumped, delays, 130, reps, STREAM_SEED), want)


@pytest.mark.parametrize(
    "kernel, head",
    [(connectivity_successes, (HAND_SPEC, HAND_MODEL)), (dual_successes, (HAND_SPEC, HAND_MODEL)),
     (coalescence_times, (HAND_SPEC, (0, 2)))],
    ids=["connectivity", "dual", "coalescence"],
)
def test_counts_are_checked_before_any_draw(monkeypatch, kernel, head):
    counts = (5, 300, 4)  # n or horizon, then reps and seed
    lowest = (0 if kernel is not coalescence_times else 1, 1, 0)
    want = kernel(*head, *counts)
    assert np.array_equal(kernel(*head, *map(float, counts)), want)  # integral floats pass

    def draw(*args, **kwargs):
        raise AssertionError("drawing started")

    monkeypatch.setattr(simulate, "_chunk_rng", draw)
    for i, low in enumerate(lowest):
        for bad in (True, 2.5, "3", None, low - 1):
            with pytest.raises(ValidationError):
                kernel(*head, *counts[:i], bad, *counts[i + 1 :])


@pytest.mark.parametrize("targets", [(), ("dual", "dual"), ("conectivity",), ("connectivity", "relay")])
def test_walk_targets_are_checked_before_any_draw(monkeypatch, targets):
    monkeypatch.setattr(simulate, "_chunk_rng", None)
    with pytest.raises(ValidationError, match="targets"):
        _walk(HAND_SPEC, HAND_MODEL, [3], 10, 1, targets)


# ---------------------------------------------------------------------------
# Chunks on the thread pool
# ---------------------------------------------------------------------------

RAGGED_REPS = 3 * CHUNK + 5  # four chunks, the last one ragged
WORKER_COUNTS = (1, 2, 3, 7)  # 7 is more than the chunks


def _drop_pool():
    if simulate._executor.cache_info().currsize:
        simulate._executor().shutdown()
    simulate._executor.cache_clear()


@pytest.fixture
def workers(monkeypatch):
    """Sets the CPU count the chunk runner sees, for calls of any size; each count gets a pool."""

    def use(count):
        monkeypatch.setattr(simulate, "_CPUS", count)
        monkeypatch.setattr(simulate, "_THREAD_MIN", 0)
        _drop_pool()

    yield use
    _drop_pool()


def _ragged_outputs(law: str, radius: str) -> list:
    spec, model = STREAM_LAWS[law], STREAM_RADII[radius]
    sites = ((1,), (60, 7, 0, 60), (9,))
    walks = [_walk(spec, model, ns, RAGGED_REPS, STREAM_SEED, BOTH) for ns in sites]
    taus = [coalescence_times(spec, delays, 130, RAGGED_REPS, STREAM_SEED) for delays in STREAM_DELAYS]
    return walks + taus


@pytest.mark.parametrize("law,radius", [("markov", "power-g1"), ("table", "infinite"), ("polynomial", "table")])
def test_worker_count_does_not_change_the_bits(workers, law, radius):
    reference = None
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for count in WORKER_COUNTS:
            workers(count)
            outputs = _ragged_outputs(law, radius)
            if reference is None:
                reference = outputs
            assert all(np.array_equal(a, b) for a, b in zip(outputs, reference)), count
            for kind, kernel in (("conn", connectivity_successes), ("dual", dual_successes)):
                assert _indicator_digest(kernel, law, radius) == STREAM_DIGESTS[f"{kind}/{law}/{radius}"]
            assert _tau_digest(law) == STREAM_DIGESTS[f"tau/{law}"]
    finally:
        sys.setswitchinterval(interval)
    assert 0 < reference[2][0].sum() < RAGGED_REPS  # the n = 9 connectivity row is not constant


def _walk_digest() -> str:
    rows = _walk(HAND_SPEC, GeometricTailRadius(0.7), [3, 40], RAGGED_REPS, STREAM_SEED, BOTH)
    taus = coalescence_times(HAND_SPEC, (0, 2), 50, RAGGED_REPS, STREAM_SEED)
    return _sha256([rows, taus])


RAGGED_ERROR = ValueError("no radius for the ragged chunk")


@dataclass(frozen=True)
class _RaggedChunkFails(GeometricTailRadius):
    def quantile(self, u):
        if np.shape(u)[-1] % CHUNK == RAGGED_REPS % CHUNK:  # the row that holds the ragged chunk
            raise RAGGED_ERROR
        return super().quantile(u)


@pytest.mark.parametrize("count", WORKER_COUNTS)
def test_a_chunk_error_reaches_the_caller(workers, count):
    workers(count)
    expected = _walk_digest()
    for targets in (("connectivity",), ("dual",), BOTH):
        with pytest.raises(ValueError) as caught:
            _walk(HAND_SPEC, _RaggedChunkFails(0.7), [12], RAGGED_REPS, STREAM_SEED, targets)
        assert caught.value is RAGGED_ERROR
    assert _walk_digest() == expected  # the pool still serves the next walk


@pytest.mark.parametrize("count", (1, 2))
def test_chunks_per_row_do_not_change_the_bits(workers, monkeypatch, count):
    workers(count)
    expected = _walk_digest()
    for chunks in (1, 3):  # every chunk a row of its own; rows of three chunks and of one
        monkeypatch.setattr(simulate, "_ROW_CHUNKS", chunks)
        assert _walk_digest() == expected


@pytest.mark.parametrize("count", (1, 2))
def test_the_walk_of_a_long_deck_stays_small(workers, count):
    # the connectivity and relay walk of the mc-long benchmark's sizes, about
    # 4 MB; drawing 8 sites per rng call across a row of 8 chunks takes twice that
    workers(count)
    tracemalloc.start()
    try:
        _walk(MarkovQ(0.22, 0.35), PowerLawTailRadius(4, 1, 1), [50, 100, 200], 100_000, 3, BOTH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_gets_a_pool_of_its_own(workers):
    # a child that reused the parent's pool would queue its chunks for
    # threads it does not have and wait forever: the parent kills it instead
    workers(2)
    expected = _walk_digest()  # starts the parent's pool threads
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            os.write(write, _walk_digest().encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    ready = []
    try:
        ready, _, _ = select.select([read], [], [], 30.0)
        got = os.read(read, 64).decode() if ready else None
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    assert got is not None, "the forked child did not finish its walk within 30 s"
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert got == expected


# ---------------------------------------------------------------------------
# Scalar reference walk
# ---------------------------------------------------------------------------


def _reference_draws(model, n, reps, seed):
    """Per-replicate (mark uniforms of sites 1..n, radii of sites 0..n), drawn row by row."""
    for c in range(0, reps, CHUNK):
        rng = _chunk_rng(seed, c // CHUNK)
        size = min(CHUNK, reps - c)
        radii = [rng.random(size)]
        marks = []
        for _ in range(n):
            marks.append(rng.random(size))
            radii.append(rng.random(size))
        radii = model.quantile(np.array(radii))
        yield from zip(np.array(marks).reshape(n, size).T.tolist(), radii.T.tolist())


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
            if radii[i] >= i - last:
                last = i
    return last == n


@pytest.mark.parametrize(
    "spec, model, n",
    [
        (MarkovQ(0.3, 0.6), FiniteTableRadius((0.0, 0.5, 0.5)), 4),
        (TableQ(values=(0.6, 0.2, 0.95)), GeometricTailRadius(0.6), 5),
        (PolynomialMonotoneQ(beta=0.3, i0=2), PowerLawTailRadius(c=2.0, gamma=1.5, n0=2), 6),
        (ConstantQ(0.5), InfiniteRadius(), 3),
        (MarkovQ(0.3, 0.6), GeometricTailRadius(0.9), 19),  # crosses site tiles
        (MarkovQ(0.6, 0.3), PowerLawTailRadius(c=3.0, gamma=1.0), 9),
        (ConstantQ(0.45), PowerLawTailRadius(c=3.0, gamma=1.0), 9),
    ],
    ids=["markov-table", "table-geometric", "polynomial-power", "constant-infinite",
         "markov-geometric", "falling-markov-power", "constant-power"],
)
def test_vectorised_kernels_match_a_scalar_walk(spec, model, n):
    reps, seed = CHUNK + 600, 8
    draws = list(_reference_draws(model, n, reps, seed))
    conn = [_walk_connectivity(spec, marks, radii, n) for marks, radii in draws]
    dual = [_walk_dual(spec, marks, radii, n) for marks, radii in draws]
    assert connectivity_successes(spec, model, n, reps, seed).tolist() == conn
    assert dual_successes(spec, model, n, reps, seed).tolist() == dual
    assert 0 < sum(conn) < reps and 0 < sum(dual) < reps


@pytest.mark.parametrize(
    "model", [InfiniteRadius(), PowerLawTailRadius(c=3.0, gamma=1.0)], ids=["infinite", "power"]
)
@pytest.mark.parametrize("n", [127, 128, 129])  # uint8 rows up to n = 127, uint16 from 128
def test_integer_rows_hold_twice_the_longest_path(model, n):
    # a reach s + R_s and the relay's last + R_i run up to 2n once R is capped at n
    spec, reps, seed = ConstantQ(0.3), 150, 4
    draws = list(_reference_draws(model, n, reps, seed))
    conn = [_walk_connectivity(spec, marks, radii, n) for marks, radii in draws]
    dual = [_walk_dual(spec, marks, radii, n) for marks, radii in draws]
    assert _walk(spec, model, [n], reps, seed, BOTH)[:, 0].tolist() == [conn, dual]
    assert 0 < sum(dual) < reps
