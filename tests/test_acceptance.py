"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from renewperc import (
    ConstantQ,
    FiniteTableRadius,
    GeometricTailRadius,
    InfiniteRadius,
    MarkovQ,
    PolynomialMonotoneQ,
    PowerLawTailRadius,
    TableQ,
    TinyConfig,
    bounds_report,
    ck_at,
    ck_sequence,
    dual_law,
    enumerate_connectivity,
    enumerate_dual,
    enumerate_gf,
    forward_connectivity,
    gf_partial,
    interarrival,
    percolation_probability,
    random_tiny_configs,
    simulate_connectivity,
    simulate_coupling,
    simulate_dual,
)
from renewperc.cli import main

BATTERY_SEED = 20260810


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_duality_battery():
    started = time.perf_counter()
    configs = random_tiny_configs(50, seed=BATTERY_SEED, n_max=8, support_max=4)
    worst = 0.0
    for cfg in configs:
        conn = enumerate_connectivity(cfg)
        dual = enumerate_dual(cfg)
        fwd = forward_connectivity(cfg.spec, cfg.model, cfg.n)
        gf = gf_partial(cfg.spec, cfg.model, cfg.n)
        v = float(dual_law(gf, cfg.spec, cfg.model).v[cfg.n])
        worst = max(worst, abs(conn - dual), abs(conn - fwd), abs(conn - v))
    elapsed = time.perf_counter() - started
    _criterion(
        1,
        len(configs) >= 50 and worst <= 1e-12 and elapsed < 60.0,
        f"{len(configs)} configs, max discrepancy {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_02_hand_anchored_instance():
    # hand enumeration with marks conditioned on xi_0 = 1 and R in {1, 2}:
    #   xi_1 = 1, xi_2 = 1  (prob 0.7 * 0.7 = 0.49): site 1 covered by R_0 >= 1,
    #                        site 2 covered by R_1 >= 1        -> success
    #   xi_1 = 0, xi_2 = 1  (prob 0.3 * 0.4 = 0.12): site 2 needs R_0 = 2 (0.5)
    #                                                          -> 0.06
    #   xi_2 = 0: site 2 unmarked                              -> 0
    # total 0.55
    spec = MarkovQ(0.3, 0.6)
    model = FiniteTableRadius((0.0, 0.5, 0.5))
    expected = 0.55
    gf = gf_partial(spec, model, 2)
    values = {
        "forward_dp": forward_connectivity(spec, model, 2),
        "dual_v": float(dual_law(gf, spec, model).v[2]),
        "oracle_conn": enumerate_connectivity(TinyConfig(spec, model, 2)),
        "oracle_dual": enumerate_dual(TinyConfig(spec, model, 2)),
    }
    worst = max(abs(v - expected) for v in values.values())
    _criterion(2, worst <= 1e-12, f"all exact paths at 0.55, max |diff| {worst:.3e}")


def test_criterion_03_generating_function_oracle():
    worst = 0.0
    for cfg in random_tiny_configs(20, seed=BATTERY_SEED + 1, n_max=8, support_max=4):
        expected = enumerate_gf(TinyConfig(cfg.spec, cfg.model, 12))
        got = gf_partial(cfg.spec, cfg.model, 12).S
        worst = max(worst, float(np.max(np.abs(got - expected))))
    _criterion(3, worst <= 1e-12, f"20 configs, n <= 12, max |S diff| {worst:.3e}")


def test_criterion_04_iid_factorization():
    models = [
        GeometricTailRadius(0.9),
        PowerLawTailRadius(c=3.0, gamma=1.0, n0=1),
        FiniteTableRadius((0.2, 0.3, 0.5)),
    ]
    worst = 0.0
    for p in (0.2, 0.5, 0.8):
        for model in models:
            gf = gf_partial(ConstantQ(1.0 - p), model, 500)
            closed = np.cumprod(1.0 - p * (1.0 - model.alpha_array(500)))
            worst = max(worst, float(np.max(np.abs(gf.S[1:] - closed))))
    _criterion(4, worst <= 1e-12, f"n <= 500, p in (0.2, 0.5, 0.8), max |diff| {worst:.3e}")


def test_criterion_05_renewal_theorem_endpoint():
    spec = ConstantQ(0.5)
    gf = gf_partial(spec, InfiniteRadius(), 60)
    bracket = percolation_probability(gf, spec, InfiniteRadius())
    contains = bracket.lo <= 0.5 <= bracket.hi
    width = bracket.hi - bracket.lo
    mean_worst = 0.0
    for q in np.arange(0.1, 0.95, 0.1):
        summary = interarrival(ConstantQ(float(q)), 3000, tol=1e-16)
        mean_worst = max(mean_worst, abs(summary.mean - 1.0 / (1.0 - float(q))))
    _criterion(
        5,
        contains and width < 1e-6 and mean_worst <= 1e-12,
        f"bracket [{bracket.lo:.12f}, {bracket.hi:.12f}] width {width:.2e}, "
        f"mean error {mean_worst:.2e}",
    )


def _iid_bracket(p, model, horizon):
    """Bracket for i.i.d. marks of density p: the ConstantQ(1 - p) series."""
    spec = ConstantQ(1.0 - p)
    return percolation_probability(gf_partial(spec, model, horizon), spec, model)


def test_criterion_06_phase_transition_desk_scale():
    t0 = time.perf_counter()
    survive = _iid_bracket(0.5, PowerLawTailRadius(c=3.0, gamma=1.0, n0=1), 100_000)
    t_survive = time.perf_counter() - t0
    t0 = time.perf_counter()
    extinct = _iid_bracket(0.5, PowerLawTailRadius(c=0.5, gamma=1.0, n0=1), 100_000)
    t_extinct = time.perf_counter() - t0
    _criterion(
        6,
        survive.lo >= 0.01 and extinct.hi <= 0.01 and t_survive < 60 and t_extinct < 60,
        f"c=3: lo={survive.lo:.4f} ({t_survive:.1f}s); "
        f"c=0.5: hi={extinct.hi:.2e} ({t_extinct:.1f}s)",
    )


def test_criterion_07_bound_sandwich():
    cases = [
        (MarkovQ(0.3, 0.6), FiniteTableRadius((0.0, 0.5, 0.5)), 300),
        (ConstantQ(0.5), PowerLawTailRadius(c=3.0, gamma=1.0, n0=1), 100_000),
        (ConstantQ(0.5), PowerLawTailRadius(c=0.5, gamma=1.0, n0=1), 100_000),
    ]
    for p in (0.2, 0.5, 0.8):
        for model in (
            GeometricTailRadius(0.9),
            PowerLawTailRadius(c=3.0, gamma=1.0, n0=1),
            FiniteTableRadius((0.2, 0.3, 0.5)),
        ):
            cases.append((ConstantQ(1.0 - p), model, 500))  # i.i.d. marks of density p
    checked = 0
    for spec, model, horizon in cases:
        bracket = percolation_probability(gf_partial(spec, model, horizon), spec, model)
        report = bounds_report(spec, model, horizon)
        assert report.concentration_lower is not None
        assert report.concentration_lower <= bracket.lo + 1e-12, (spec, model)
        assert bracket.lo <= bracket.hi
        assert bracket.hi <= report.jensen_upper + 1e-12, (spec, model)
        if spec.is_monotone:
            assert report.fkg_upper is not None
            assert report.fkg_upper >= bracket.hi - 1e-12, (spec, model)
        checked += 1
    _criterion(7, checked == len(cases), f"sandwich held on {checked} configs")


def test_criterion_08_ck_asymptotics():
    # for q_i = 1 - i^(-beta) the squared coalescence sum grows like
    # k^(2 beta); the normalized ratio approaches 1 slowly (O(k^-beta)),
    # hence the loose band
    beta = 0.25
    spec = PolynomialMonotoneQ(beta=beta, i0=2)
    ratios = {}
    for k in (10_000, 17_783, 31_623, 56_234, 100_000):
        ratios[k] = ck_at(spec, k) * k ** (-2 * beta)
    ok = all(0.7 <= r <= 1.3 for r in ratios.values())
    detail = ", ".join(f"k={k}: {r:.3f}" for k, r in ratios.items())
    _criterion(8, ok, f"normalized C_k ratio in [0.7, 1.3] ({detail})")


def test_criterion_09_coupling_closed_form_and_doeblin():
    q = 0.5
    worst_sigma = 0.0
    for delay in (1, 3, 7):
        report = simulate_coupling(ConstantQ(q), (0, delay), horizon=13, reps=100_000, seed=77)
        for j in range(1, 13):
            p = q ** (j - 1)
            se = math.sqrt(p * (1 - p) / report.reps)
            gap = abs(float(report.survival[j - 1]) - p)
            if se > 0:
                worst_sigma = max(worst_sigma, gap / se)
            else:
                assert gap == 0.0
    curves_ok = worst_sigma <= 3.0

    doeblin_ok = True
    for values in ((0.3, 0.7, 0.5), (0.55,), (0.2, 0.8)):
        spec = TableQ(values)
        eps = 1.0 - max(values)
        bound = ((1.0 - eps) / eps) ** 2
        table = ck_sequence(spec, 200)
        doeblin_ok = doeblin_ok and bool(np.all(table.c[1:] <= bound + 1e-12))
    _criterion(
        9,
        curves_ok and doeblin_ok,
        f"tau curves within {worst_sigma:.2f} SE of the geometric law; "
        f"Doeblin cap exact on 3 tables",
    )


def test_criterion_10_monte_carlo_consistency(tmp_path):
    reps = 100_000
    worst_sigma = 0.0
    for idx, cfg in enumerate(random_tiny_configs(20, seed=BATTERY_SEED + 2, n_max=6)):
        gf = gf_partial(cfg.spec, cfg.model, cfg.n)
        exact = float(dual_law(gf, cfg.spec, cfg.model).v[cfg.n])
        se = max(math.sqrt(exact * (1.0 - exact) / reps), 1.0 / reps)
        conn = simulate_connectivity(cfg.spec, cfg.model, cfg.n, reps, seed=1000 + idx)
        dual = simulate_dual(cfg.spec, cfg.model, cfg.n, reps, seed=2000 + idx)
        worst_sigma = max(
            worst_sigma, abs(conn.estimate - exact) / se, abs(dual.estimate - exact) / se
        )
    estimates_ok = worst_sigma <= 4.0

    config = tmp_path / "mc.json"
    config.write_text(
        '{"q": {"family": "markov", "q0": 0.3, "q1": 0.6}, '
        '"radius": {"family": "table", "p": [0.0, 0.5, 0.5]}, '
        '"n": 3, "reps": 20000, "seed": 42}',
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "mc1.csv", tmp_path / "mc2.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _criterion(
        10,
        estimates_ok and identical,
        f"20 configs within {worst_sigma:.2f} SE at 1e5 replicates; "
        f"seeded CSV reruns byte-identical",
    )
