import argparse
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renewperc import (
    ConstantQ,
    QSequence,
    ValidationError,
    cli,
    dual_law,
    gf_partial,
    q_sequence_from_config,
    radius,
    radius_from_config,
    random_tiny_configs,
    renewal,
    simulate,
    simulate_connectivity,
    simulate_dual,
)
from renewperc.cli import _build_parser, _resolve_config, main

HAND_LAW = {
    "q": {"family": "markov", "q0": 0.3, "q1": 0.6},
    "radius": {"family": "table", "p": [0.0, 0.5, 0.5]},
}
HAND_CONFIG = {**HAND_LAW, "horizon": 50}


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_exact_command_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, HAND_CONFIG)
    out = tmp_path / "exact.csv"
    assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["schema"] == "renewperc.exact.v1"
    assert float(rows[0]["S_n"]) == 1.0
    assert float(rows[2]["v_n"]) == pytest.approx(0.55, abs=1e-12)
    summary = json.loads((tmp_path / "exact.summary.json").read_text())
    assert summary["schema"] == "renewperc.summary.v1"
    assert summary["bracket"]["hi"] <= 1.0
    assert "runtime_s" in summary
    printed = json.loads(capsys.readouterr().out)
    assert printed["command"] == "exact"


# small valid configs, one per command
_TINY = {
    "exact": HAND_CONFIG,
    "bounds": HAND_CONFIG,
    "sweep": {**HAND_CONFIG, "classify_horizon": 100, "grid": {"q.q1": [0.6]}},
    "simulate": {**HAND_LAW, "n": 2, "reps": 100},
    "dual": {**HAND_LAW, "n": 2, "reps": 100},
    "coupling": {"q": HAND_LAW["q"], "delays": [0, 1], "coupling_horizon": 4, "reps": 100},
    "verify": {"configs": 1, "reps": 100},
}


# the flags each command reads, with values that differ from _FLAG_CONFIG
READ_FLAGS = {
    "exact": {"horizon": 7, "tail": "none", "out": "f.csv", "format": "jsonl"},
    "bounds": {"horizon": 7, "out": "f.csv", "format": "jsonl"},
    "simulate": {"seed": 7, "reps": 7, "out": "f.csv", "format": "jsonl"},
    "dual": {"seed": 7, "reps": 7, "out": "f.csv", "format": "jsonl"},
    "coupling": {"seed": 7, "reps": 7, "out": "f.csv", "format": "jsonl"},
    "verify": {"seed": 7, "reps": 7, "out": "f.csv", "format": "jsonl", "configs": 7,
               "exact_tol": 0.5},
    "sweep": {"horizon": 7, "tail": "none", "out": "f.csv", "format": "jsonl", "workers": 7},
}
_FLAG_CONFIG = {"horizon": 9, "tail": "auto", "out": "c.csv", "format": "csv", "seed": 9,
                "reps": 9, "configs": 9, "exact_tol": 0.25, "workers": 9}


def test_exact_flags_override_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, HAND_CONFIG)
    out = tmp_path / "short.csv"
    assert main(["exact", "--config", str(cfg), "--horizon", "5", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 6  # n = 0..5
    parser = _build_parser()
    for command, flags in READ_FLAGS.items():
        payload = {**_TINY[command], **{k: _FLAG_CONFIG[k] for k in flags}}
        cfg = _write_config(tmp_path, payload)
        argv = [command, "--config", str(cfg)]
        for key, value in flags.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        resolved = _resolve_config(command, parser.parse_args(argv))
        assert {k: resolved[k] for k in flags} == flags, command
        # --help lists exactly the flags the command reads
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"(--[a-z-]+)", capsys.readouterr().out))
        expected = {"--help", "--config"} | {"--" + k.replace("_", "-") for k in flags}
        assert listed == expected, command


@pytest.mark.parametrize(
    "command, flag",
    [(c, "--seed") for c in ("exact", "bounds", "sweep")]
    + [(c, "--reps") for c in ("exact", "bounds", "sweep")]
    + [(c, "--horizon") for c in ("simulate", "dual", "coupling", "verify")],
)
def test_unread_flags_are_usage_errors(tmp_path, command, flag):
    cfg = _write_config(tmp_path, _TINY[command])
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o.csv"), flag, "3"]
    assert main(argv) == 1


def test_exact_renewal_endpoint_bracket(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"q": {"family": "constant", "q": 0.5}, "radius": {"family": "infinite"},
         "horizon": 60},
    )
    out = tmp_path / "endpoint.csv"
    assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
    bracket = json.loads((tmp_path / "endpoint.summary.json").read_text())["bracket"]
    assert bracket["lo"] <= 0.5 <= bracket["hi"]
    assert bracket["hi"] - bracket["lo"] < 1e-6


def test_exact_sure_percolation_bracket(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"q": {"family": "table", "q": [0.0], "tail": "repeat_last"},
         "radius": {"family": "table", "p": [0.0, 1.0]},
         "horizon": 30},
    )
    out = tmp_path / "sure.csv"
    assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "sure.summary.json").read_text())
    assert summary["bracket"]["lo"] == 1.0 and summary["bracket"]["hi"] == 1.0
    # the verdict agrees with the certified bracket: the series vanishes
    assert summary["classify"]["verdict"] == "survive-tail-evidence"


def test_bounds_command(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"q": {"family": "constant", "q": 0.5},
         "radius": {"family": "power_tail", "c": 3, "gamma": 1, "n0": 1},
         "horizon": 400},
    )
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    row = next(csv.DictReader(out.open()))
    assert float(row["concentration_lower"]) <= float(row["bracket_lo"]) + 1e-12
    assert float(row["bracket_hi"]) <= float(row["jensen_upper"]) + 1e-12


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = _write_config(
        tmp_path,
        {**HAND_LAW, "n": 2, "reps": 20_000, "seed": 9},
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    row = next(csv.DictReader(out1.open()))
    assert row["seed"] == "9"
    assert row["schema"] == "renewperc.sim.v1"


def test_dual_command_matches_simulate_roughly(tmp_path):
    cfg = _write_config(tmp_path, {**HAND_LAW, "n": 2, "reps": 50_000, "seed": 4})
    out_c = tmp_path / "conn.csv"
    out_d = tmp_path / "dual.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_c)]) == 0
    assert main(["dual", "--config", str(cfg), "--out", str(out_d)]) == 0
    est_c = float(next(csv.DictReader(out_c.open()))["estimate"])
    est_d = float(next(csv.DictReader(out_d.open()))["estimate"])
    assert abs(est_c - 0.55) < 0.02 and abs(est_d - 0.55) < 0.02


def test_coupling_command(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"q": {"family": "constant", "q": 0.5}, "delays": [0, 3],
         "coupling_horizon": 10, "reps": 20_000, "seed": 2},
    )
    out = tmp_path / "coupling.csv"
    assert main(["coupling", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 10
    assert abs(float(rows[1]["survival"]) - 0.5) < 0.02


def test_verify_command_passes_and_fails(tmp_path, capsys):
    assert main(["verify", "--configs", "6", "--reps", "4000", "--seed", "12"]) == 0
    capsys.readouterr()
    assert main([
        "verify", "--configs", "6", "--reps", "4000", "--seed", "12", "--exact-tol", "0",
    ]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_sweep_deterministic_and_flips_verdict(tmp_path):
    cfg = _write_config(
        tmp_path,
        {
            "q": {"family": "constant", "q": 0.5},
            "radius": {"family": "power_tail", "c": 1.0, "gamma": 1, "n0": 1},
            "horizon": 300,
            "classify_horizon": 2000,
            "grid": {"radius.c": [0.5, 1.0, 1.5, 2.0, 3.0]},
        },
    )
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = list(csv.DictReader(out1.open()))
    verdicts = [row["verdict"] for row in rows]
    assert verdicts[0] == "extinct-tail-evidence"
    assert verdicts[-1] == "survive-tail-evidence"
    assert all(row["error"] == "" for row in rows)


def test_sweep_empty_grid_is_usage_error(tmp_path):
    cfg = _write_config(
        tmp_path,
        {**{k: v for k, v in HAND_CONFIG.items()}, "grid": {"radius.p": []}},
    )
    assert main(["sweep", "--config", str(cfg)]) == 1


def test_config_round_trip_reproduces_run(tmp_path):
    cfg = _write_config(tmp_path, {**HAND_LAW, "n": 2, "reps": 10_000, "seed": 5})
    out1 = tmp_path / "r1.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    resolved = json.loads((tmp_path / "r1.summary.json").read_text())["config"]
    resolved["out"] = str(tmp_path / "r2.csv")
    cfg2 = _write_config(tmp_path, resolved, name="resolved.json")
    assert main(["simulate", "--config", str(cfg2)]) == 0
    assert out1.read_bytes() == (tmp_path / "r2.csv").read_bytes()


def test_usage_and_validation_exit_codes(tmp_path):
    # unknown subcommand -> usage
    assert main(["bogus"]) == 1
    # missing required config keys -> usage
    assert main(["exact"]) == 1
    # malformed JSON -> validation
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["exact", "--config", str(bad)]) == 2
    # unknown config key -> validation
    cfg = _write_config(tmp_path, {**HAND_CONFIG, "surprise": 1})
    assert main(["exact", "--config", str(cfg)]) == 2
    # unknown q family -> validation
    cfg2 = _write_config(tmp_path, {"q": {"family": "nope"}, "radius": {"family": "infinite"}})
    assert main(["exact", "--config", str(cfg2)]) == 2
    # sweep reads no seed
    cfg3 = _write_config(tmp_path, {**_TINY["sweep"], "seed": 1})
    assert main(["sweep", "--config", str(cfg3), "--out", str(tmp_path / "s.csv")]) == 2


def test_jsonl_format(tmp_path):
    cfg = _write_config(tmp_path, {**HAND_LAW, "n": 2, "reps": 5000, "seed": 1})
    out = tmp_path / "rows.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--format", "jsonl"]) == 0
    lines = out.read_text().strip().splitlines()
    record = json.loads(lines[0])
    assert record["schema"] == "renewperc.sim.v1"
    assert 0.0 <= record["estimate"] <= 1.0


_POWER_LAW = {"family": "power_tail", "c": 3, "gamma": 1, "n0": 1}


@pytest.mark.parametrize("bad", ["abc", None, float("nan"), [3], 1.5, True])
@pytest.mark.parametrize(
    "command, payload, path",
    [
        ("exact", HAND_CONFIG, ("horizon",)),
        ("bounds", HAND_CONFIG, ("horizon",)),
        ("simulate", {**HAND_LAW, "n": 2}, ("reps",)),
        ("simulate", {**HAND_LAW, "n": 2}, ("seed",)),
        ("simulate", {**HAND_LAW, "n": [2, 3]}, ("n", 1)),
        ("dual", {**HAND_LAW, "n": [2]}, ("n", 0)),
        ("coupling", {"q": {"family": "constant", "q": 0.5}, "delays": [0, 3]},
         ("coupling_horizon",)),
        ("verify", {}, ("configs",)),
        ("verify", {}, ("n_max",)),
        ("verify", {}, ("support_max",)),
        ("sweep", {**HAND_LAW, "grid": {"q.q1": [0.6]}}, ("classify_horizon",)),
        ("sweep", {**HAND_LAW, "grid": {"q.q1": [0.6]}}, ("workers",)),
        ("exact", {**HAND_CONFIG, "radius": _POWER_LAW}, ("radius", "n0")),
        ("exact", {**HAND_CONFIG, "q": {"family": "poly_monotone", "beta": 0.25, "i0": 2}},
         ("q", "i0")),
    ],
)
def test_non_integer_config_values_are_validation_errors(tmp_path, command, payload, path, bad):
    payload = json.loads(json.dumps(payload))
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    cfg = _write_config(tmp_path, payload)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2


def test_scalar_and_empty_site_lists(tmp_path):
    cfg = _write_config(tmp_path, {**HAND_LAW, "n": 2.5})
    assert main(["dual", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 2
    cfg = _write_config(tmp_path, {**HAND_LAW, "n": []})
    assert main(["dual", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 2


@pytest.mark.parametrize("command", ["simulate", "dual"])
def test_negative_site_fails_before_any_draw(tmp_path, monkeypatch, capsys, command):
    def draw(*args, **kwargs):
        raise AssertionError("drawing started")

    monkeypatch.setattr(simulate, "_chunk_rng", draw)
    cfg = _write_config(tmp_path, {**HAND_LAW, "n": [5, -1], "reps": 100})
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "site index must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, runner, layout", [
    ("simulate", simulate_connectivity, "conn-v2"),
    ("dual", simulate_dual, "dual-v2"),
])
def test_one_command_walk_matches_per_site_reports(tmp_path, capsys, command, runner, layout):
    law = {"q": HAND_LAW["q"], "radius": {"family": "geometric_tail", "r": 0.8}}
    sites = [60, 7, 7, 0]
    cfg = _write_config(tmp_path, {**law, "n": sites, "reps": 9000, "seed": 3})
    out = tmp_path / "sim.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["layout"] == f"{layout}/chunk=8192"
    rows = list(csv.DictReader(out.open()))
    assert [int(row["n"]) for row in rows] == sites
    spec, model = q_sequence_from_config(law["q"]), radius_from_config(law["radius"])
    for row, n in zip(rows, sites):
        report = runner(spec, model, n, 9000, 3)
        assert 0.0 < report.estimate
        for key in ("estimate", "stderr", "wilson_low", "wilson_high"):
            assert float(row[key]) == getattr(report, key)


def test_integral_float_config_values_are_accepted(tmp_path):
    cfg = _write_config(tmp_path, {**HAND_CONFIG, "horizon": 5.0,
                                   "radius": {**_POWER_LAW, "n0": 1e0}})
    out = tmp_path / "exact.csv"
    assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(list(csv.DictReader(out.open()))) == 6
    # float fields take any finite number
    cfg = _write_config(tmp_path, {**_TINY["verify"], "exact_tol": 1.5})
    assert main(["verify", "--config", str(cfg)]) == 0


_BAD = ["abc", None, float("nan"), [3], True]
_FIELD_CASES = [
    ("verify", _TINY["verify"], ("exact_tol",), _BAD),
    ("exact", HAND_CONFIG, ("out",), _BAD[1:]),  # any string names a path
    ("exact", HAND_CONFIG, ("format",), _BAD),
    ("exact", HAND_CONFIG, ("tail",), _BAD),
    ("exact", {**HAND_CONFIG, "q": {"family": "constant", "q": 0.5}}, ("q", "q"), _BAD),
    ("exact", {**HAND_CONFIG, "radius": _POWER_LAW}, ("radius", "c"), _BAD),
    ("exact", {**HAND_CONFIG, "q": {"family": "table", "q": [0.5, 0.5]}}, ("q", "q", 1), _BAD),
    ("exact", {**HAND_CONFIG, "radius": {"family": "table", "p": [0.5, 0.5]}},
     ("radius", "p", 0), _BAD + ["0.5"]),
    ("coupling", _TINY["coupling"], ("delays", 1), _BAD + [1.5]),
]


@pytest.mark.parametrize(
    "command, payload, path, bad",
    [
        pytest.param(c, payload, path, bad, id=f"{c}-{'.'.join(map(str, path))}-{bad!r}")
        for c, payload, path, bads in _FIELD_CASES
        for bad in bads
    ],
)
def test_float_and_string_config_values_are_validation_errors(tmp_path, command, payload, path,
                                                               bad):
    payload = json.loads(json.dumps(payload))
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    cfg = _write_config(tmp_path, payload)
    argv = [command, "--config", str(cfg)]
    if path != ("out",):
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2


def test_sweep_grid_key_shape_is_checked_before_any_point(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    cfg = _write_config(tmp_path, {**_TINY["sweep"], "grid": {"horizon": [10, 20]}})
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists() and not (tmp_path / "grid.summary.json").exists()
    assert "grid keys must look like" in capsys.readouterr().err
    # a bad value of a well-formed key is still that point's error row
    cfg = _write_config(tmp_path, {**_TINY["sweep"], "grid": {"radius.c": [0]}})
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    (row,) = csv.DictReader(out.open())
    assert row["error"].startswith("ValidationError") and row["bracket_lo"] == ""


def test_verify_rejects_n_max_above_the_oracle_limit(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    cfg = _write_config(tmp_path, {**_TINY["verify"], "n_max": 12})
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert "config" not in printed.out and "n_max must be <= 8" in printed.err
    assert not out.exists()


@pytest.fixture
def no_computing(monkeypatch):
    def compute(*args, **kwargs):
        raise AssertionError("computation started")

    for name in ("random_tiny_configs", "simulate_coupling", "_sim_reports"):
        monkeypatch.setattr(cli, name, compute)


@pytest.mark.parametrize("command", ["verify", "simulate", "dual", "coupling"])
def test_zero_reps_fails_before_computing(tmp_path, no_computing, capsys, command):
    cfg = _write_config(tmp_path, {**_TINY[command], "reps": 0})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
    printed = capsys.readouterr()
    assert "config" not in printed.out and "reps must be >= 1" in printed.err


@pytest.mark.parametrize("command", ["verify", "simulate", "dual", "coupling"])
def test_negative_seed_fails_before_computing(tmp_path, no_computing, capsys, command):
    cfg = _write_config(tmp_path, _TINY[command])
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out.csv"), "--seed", "-1"]
    assert main(argv) == 2
    printed = capsys.readouterr()
    assert "config" not in printed.out and "seed must be >= 0" in printed.err


@pytest.mark.parametrize("command, key", [("coupling", "coupling_horizon"), ("verify", "configs")])
def test_minimums_name_their_config_key(tmp_path, no_computing, capsys, command, key):
    cfg = _write_config(tmp_path, {**_TINY[command], key: 0})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
    printed = capsys.readouterr()
    assert "config" not in printed.out and f"{key} must be >= 1, got 0" in printed.err


def test_verify_reads_the_simulate_and_dual_streams(tmp_path, capsys):
    # one walk per config gives both estimates, each from its own command's stream at seed + idx
    out, reps, seed = tmp_path / "verify.csv", simulate.CHUNK + 5, 4
    assert main(["verify", "--configs", "4", "--reps", str(reps), "--seed", str(seed),
                 "--out", str(out)]) == 0
    battery = random_tiny_configs(4, seed)
    assert 8 in [tiny.n for tiny in battery]
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == len(battery)
    for idx, (tiny, row) in enumerate(zip(battery, rows)):
        args = (tiny.spec, tiny.model, tiny.n, reps, seed + idx)
        assert float(row["mc_connectivity"]) == simulate_connectivity(*args).estimate
        assert float(row["mc_dual"]) == simulate_dual(*args).estimate


def test_sweep_invalid_grid_value_gives_error_row(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"q": {"family": "constant", "q": 0.5}, "radius": _POWER_LAW, "horizon": 50,
         "classify_horizon": 100, "grid": {"radius.c": ["x", 2]}},
    )
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    bad, good = list(csv.DictReader(out.open()))
    assert bad["error"].startswith("ValidationError") and bad["bracket_lo"] == ""
    assert good["error"] == "" and float(good["bracket_lo"]) > 0.0


# each family with exactly its required keys
_REQUIRED_ONLY = {
    "q": [{"family": "constant", "q": 0.5}, {"family": "markov", "q0": 0.3, "q1": 0.6},
          {"family": "poly_monotone", "beta": 0.25}, {"family": "table", "q": [0.5]}],
    "radius": [{"family": "geometric_tail", "r": 0.9}, {"family": "power_tail", "c": 3, "gamma": 1},
               {"family": "table", "p": [0.5, 0.5]}],
}
_FRAGMENT_CASES = [
    (root, {k: v for k, v in fragment.items() if k != key})
    for root, fragments in _REQUIRED_ONLY.items()
    for fragment in fragments
    for key in fragment
    if key != "family"
] + [
    ("q", {"family": "table", "q": 0.5}),
    ("q", {"family": "table", "q": [0.5], "tail": 5}),
    ("radius", {"family": "table", "p": 0.5}),
]


@pytest.mark.parametrize(
    "root, fragment", _FRAGMENT_CASES, ids=[f"{r}-{json.dumps(f)}" for r, f in _FRAGMENT_CASES]
)
def test_missing_or_mistyped_fragment_keys_are_validation_errors(tmp_path, root, fragment):
    cfg = _write_config(tmp_path, {**HAND_CONFIG, root: fragment})
    assert main(["exact", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2


# root -> (reader, family table, noun in its messages); the family tables
# are the only place that names a family's keys
_READERS = {
    "q": (q_sequence_from_config, renewal._Q_FAMILIES, "q-spec"),
    "radius": (radius_from_config, radius._R_FAMILIES, "radius"),
}
# per family: fragments without "family", each with its law's to_config()
# (every key, defaults filled in, in the order it writes them); the first
# holds only the required keys, the last every key at a non-default value
_FAMILY_FRAGMENTS = {
    "q": {
        "constant": [({"q": 0.5}, {"q": 0.5})],
        "markov": [({"q0": 0.3, "q1": 0.6}, {"q0": 0.3, "q1": 0.6})],
        "poly_monotone": [({"beta": 0.25}, {"beta": 0.25, "i0": 2}),
                          ({"beta": 0.25, "i0": 5}, {"beta": 0.25, "i0": 5})],
        "table": [({"q": [0.9, 0.2]}, {"q": [0.9, 0.2], "tail": "repeat_last"}),
                  ({"q": [0.9, 0.2], "tail": {"family": "poly_monotone", "beta": 0.3}},
                   {"q": [0.9, 0.2], "tail": {"family": "poly_monotone", "beta": 0.3, "i0": 2}})],
    },
    "radius": {
        "geometric_tail": [({"r": 0.9}, {"r": 0.9})],
        "power_tail": [({"c": 3, "gamma": 1}, {"c": 3, "gamma": 1, "n0": 1}),
                       ({"c": 3.0, "gamma": 1.5, "n0": 4}, {"c": 3.0, "gamma": 1.5, "n0": 4})],
        "table": [({"p": [0.25, 0.75]}, {"p": [0.25, 0.75]})],
        "infinite": [({}, {})],
    },
}
_FAMILY_CASES = [
    (root, family, fragment, written)
    for root, families in _FAMILY_FRAGMENTS.items()
    for family, cases in families.items()
    for fragment, written in cases
]


@pytest.mark.parametrize("root", _READERS)
def test_every_family_row_has_fragments(root):
    assert list(_FAMILY_FRAGMENTS[root]) == list(_READERS[root][1])


@pytest.mark.parametrize(
    "root, family, fragment, written", _FAMILY_CASES,
    ids=[f"{r}-{f}-{json.dumps(g)}" for r, f, g, _ in _FAMILY_CASES],
)
def test_family_fragments_round_trip(root, family, fragment, written):
    read, families, _ = _READERS[root]
    law = read({"family": family, **fragment})
    assert type(law) is families[family][0]
    config = law.to_config()
    assert config == {"family": family, **written}
    assert list(config) == ["family", *written]
    assert read(config) == law


@pytest.mark.parametrize(
    "root, family", [(root, family) for root, families in _READERS.items() for family in families[1]]
)
def test_family_fragments_reject_unknown_and_missing_keys(root, family):
    read, families, noun = _READERS[root]
    fragment = {"family": family, **_FAMILY_FRAGMENTS[root][family][0][0]}
    with pytest.raises(ValidationError) as err:
        read({**fragment, "oops": 1, "aa": 2})
    assert str(err.value) == f"unknown keys in {noun} fragment: ['aa', 'oops']"
    for key in families[family][1]:
        with pytest.raises(ValidationError) as err:
            read({k: v for k, v in fragment.items() if k != key})
        assert str(err.value) == f"{noun} fragment for {family!r} is missing keys [{key!r}]"


@pytest.mark.parametrize("root, fragment, message", [
    ("q", {"family": "markov"}, "q-spec fragment for 'markov' is missing keys ['q0', 'q1']"),
    ("q", {"family": "table", "q": 0.5}, "table q must be a list, got 0.5"),
    ("q", {"family": "table", "q": [0.5], "tail": 5}, "unknown tail rule 5"),
    ("q", {"family": "table", "q": [0.5], "tail": {"family": "constant"}},
     "q-spec fragment for 'constant' is missing keys ['q']"),
    ("q", {"family": "poly_monotone", "beta": 0.2, "i0": 1}, "i0 must be >= 2, got 1"),
    ("q", [1, 2], "q-spec fragment must be a mapping, got list"),
    ("q", {"family": ["constant"], "q": 0.5},
     "unknown q family ['constant']; expected one of ('constant', 'markov', 'poly_monotone', 'table')"),
    ("radius", {"family": "table", "p": 0.5}, "table p must be a list, got 0.5"),
    ("radius", {"family": "table", "p": [0.5, 0.4]}, "pmf must sum to 1, got 0.9"),
    ("radius", {"family": "power_tail", "c": 1, "gamma": 1, "n0": None}, "n0 must be an integer, got None"),
    ("radius", {"family": "infinite", "r": 1}, "unknown keys in radius fragment: ['r']"),
    ("radius", {"family": "bogus"},
     "unknown radius family 'bogus'; expected one of ('geometric_tail', 'power_tail', 'table', 'infinite')"),
    ("radius", None, "radius fragment must be a mapping, got NoneType"),
])
def test_bad_fragment_messages(root, fragment, message):
    with pytest.raises(ValidationError) as err:
        _READERS[root][0](fragment)
    assert str(err.value) == message


def test_subclass_keeps_its_parents_fragment_and_a_custom_law_has_none():
    @dataclasses.dataclass(frozen=True)
    class Shifted(ConstantQ):
        pass

    class Custom(QSequence):
        def q_at(self, i):
            return 0.5

    assert Shifted(0.3).to_config() == {"family": "constant", "q": 0.3}
    with pytest.raises(NotImplementedError):
        Custom().to_config()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("exact", "format", "xml"),
        ("sweep", "format", "xml"),
        ("sweep", "tail", "abc"),
        ("exact", "out", ""),
        ("exact", "out", "{tmp}"),
        ("bounds", "out", "{tmp}/missing/x.csv"),
        ("verify", "out", "{tmp}"),
        ("sweep", "horizon", 0),
        ("sweep", "classify_horizon", 3),
        ("sweep", "workers", 0),
        ("sweep", "workers", -2),
        ("verify", "n_max", 1),
        ("verify", "support_max", 0),
        ("verify", "exact_tol", -1e-12),
        ("sweep", "grid", {"horizon": [10, 20]}),
        ("sweep", "grid", {"q": [0.5]}),
        ("sweep", "grid", {"radius.": [1.0]}),
        ("sweep", "q", 5),
    ],
)
def test_bad_choice_or_out_path_fails_before_computing(tmp_path, monkeypatch, command, key, value):
    def compute(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(cli, "gf_partial", compute)
    monkeypatch.setattr(cli, "random_tiny_configs", compute)
    if isinstance(value, str):
        value = value.format(tmp=tmp_path)
    cfg = _write_config(tmp_path, {**_TINY[command], key: value})
    argv = [command, "--config", str(cfg)]
    if key != "out":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2


def _csv_writer_bytes(schema, fieldnames, columns) -> bytes:
    """Reference rendering: csv.writer rows of (schema, *cells), floats as %.17g."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["schema", *fieldnames])
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    for row in zip(*values):
        writer.writerow([schema, *(format(v, ".17g") if isinstance(v, float) else v for v in row)])
    return buf.getvalue().encode("utf-8")


_CELL_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "\u2028", "%"]), max_size=6)
_SPECIAL_FLOATS = st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324])
_CELL = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _SPECIAL_FLOATS,
                  _CELL_TEXT, st.text(st.characters(codec="utf-8"), max_size=4))


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 6))
    width = draw(st.integers(1, 4))

    def sized(elements):
        return st.lists(elements, min_size=rows, max_size=rows)

    column = st.one_of(
        sized(_CELL),
        sized(st.one_of(st.floats(), _SPECIAL_FLOATS)).map(lambda xs: np.array(xs, dtype=float)),
        sized(st.integers(-2**63, 2**63 - 1)).map(lambda xs: np.array(xs, dtype=np.int64)),
    )
    fieldnames = draw(st.lists(_CELL_TEXT, min_size=width, max_size=width))
    return draw(_CELL_TEXT), fieldnames, [draw(column) for _ in range(width)]


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_csv_writer_matches_csv_module(table):
    schema, fieldnames, columns = table
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "table.csv"
        cli._write_columns(str(out), schema, fieldnames, columns, "csv")
        assert out.read_bytes() == _csv_writer_bytes(schema, fieldnames, columns)


def _texts(matrix) -> list:
    """The rows of a padded byte matrix as strings."""
    return [row.tobytes().replace(cli._PAD, b"").decode() for row in matrix]


_BIT_FLOATS = st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64)))


@settings(deadline=None)
@given(st.lists(st.one_of(_BIT_FLOATS, st.floats()), max_size=40))
def test_float_text_matches_format(values):
    x = np.array(values, dtype=float)
    assert _texts(cli._float_bytes(x)) == [format(v, ".17g") for v in values]


def test_float_text_matches_format_on_hard_cases():
    powers = 10.0 ** np.arange(-323, 309)
    # powers of ten and up to 4 ulps either side, where floor(log10 |x|) may be off by one
    steps = [powers]
    for direction in (np.inf, -np.inf):
        x = powers
        for _ in range(4):
            x = np.nextafter(x, direction)
            steps.append(x)
    # small odd mantissas times powers of two: 2**-25 * 10**24 and the like end in exactly .5
    ties = np.ldexp(np.arange(1, 2**13, 2, dtype=float)[:, None], np.arange(-90, 70)).ravel()
    bits = np.random.default_rng(12).integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64)
    named = [5e-324, 0.0, -0.0, np.inf, -np.inf, np.nan, 9.9999999999999995e-07, 783900.0, 1e16,
             1e17, 2.0**-25, 1e-270, 1e270, 2.2250738585072014e-308, 1.7976931348623157e308]
    x = np.concatenate([*steps, ties, -ties[::7], bits, named])
    assert len(x) >= 10**6
    assert _texts(cli._float_bytes(x)) == [format(v, ".17g") for v in x.tolist()]


@pytest.mark.parametrize("value, text", [
    (9.9999999999999995e-07, "9.9999999999999995e-07"),  # y truncates to 16 digits at E = -6
    (783900.0, "783900"),  # the integer part keeps its zeros
    (2.0**-25, "2.9802322387695312e-08"),  # exact ties at 17 digits round half to even,
    (3 * 2.0**-25, "8.9406967163085938e-08"),  # once down and once up
    (-0.0001, "-0.0001"),
    (1e16, "10000000000000000"),
    (1e17, "1e+17"),
    (1.5e-300, "1.5000000000000001e-300"),
])
def test_float_text_named_cases(value, text):
    assert format(value, ".17g") == text
    assert _texts(cli._float_bytes(np.array([0.5, value, -3e-200])))[1] == text


_INT_EDGES = [0, 1, -1, 2**63 - 1, -2**63, *[s * (10**k + d) for k in range(19) for d in (-1, 0)
                                             for s in (1, -1)]]


@settings(deadline=None)
@given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(_INT_EDGES)), max_size=40))
def test_int_text_matches_str(values):
    assert _texts(cli._int_bytes(np.array(values, dtype=np.int64))) == [str(v) for v in values]


def test_int_text_covers_int64_and_uint64_ranges():
    assert _texts(cli._int_bytes(np.array(_INT_EDGES, dtype=np.int64))) == list(map(str, _INT_EDGES))
    unsigned = [0, 9, 10, 2**63, 10**19 - 1, 10**19, 2**64 - 1]
    assert _texts(cli._int_bytes(np.array(unsigned, dtype=np.uint64))) == list(map(str, unsigned))


def test_importing_cli_leaves_multiprocessing_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, renewperc.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("q", [{"family": "constant", "q": 0.4}, HAND_LAW["q"]])
def test_exact_table_is_the_csv_writer_rendering(tmp_path, q):
    horizon = 300
    spec, model = q_sequence_from_config(q), radius_from_config(_POWER_LAW)
    gf = gf_partial(spec, model, horizon)
    dual = dual_law(gf, spec, model)
    cfg = _write_config(tmp_path, {"q": q, "radius": _POWER_LAW, "horizon": horizon})
    out = tmp_path / "exact.csv"
    assert main(["exact", "--config", str(cfg), "--out", str(out)]) == 0
    columns = [list(range(horizon + 1)), gf.S, dual.f, dual.v]
    assert out.read_bytes() == _csv_writer_bytes("renewperc.exact.v1", ["n", "S_n", "f_n", "v_n"],
                                                 columns)
    out = tmp_path / "exact.jsonl"
    assert main(["exact", "--config", str(cfg), "--out", str(out), "--format", "jsonl"]) == 0
    records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [r["schema"] for r in records] == ["renewperc.exact.v1"] * (horizon + 1)
    assert [r["n"] for r in records] == list(range(horizon + 1))
    assert [r["S_n"] for r in records] == gf.S.tolist()


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _build_parser.cache_clear()
    cfg = _write_config(tmp_path, _TINY["bounds"])
    for name in ("a.csv", "b.csv"):
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    # the top-level parser and one subparser per command, once
    assert len(built) == 1 + len(cli._COMMANDS)


def _csv_text(value) -> str:
    """The CSV cell of a jsonl value, before quoting."""
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


@pytest.mark.parametrize("command", sorted(_TINY))
def test_csv_and_jsonl_hold_the_same_rows(tmp_path, command):
    cfg = _write_config(tmp_path, _TINY[command])
    tables = {}
    for fmt in ("csv", "jsonl"):
        out = tmp_path / f"table.{fmt}"
        code = main([command, "--config", str(cfg), "--out", str(out), "--format", fmt])
        assert code == 0
        tables[fmt] = out.read_text(encoding="utf-8")
    csv_rows = list(csv.DictReader(io.StringIO(tables["csv"], newline="")))
    records = [json.loads(line) for line in tables["jsonl"].splitlines()]
    assert csv_rows and len(csv_rows) == len(records)
    for row, record in zip(csv_rows, records):
        assert row == {key: _csv_text(value) for key, value in record.items()}


_SUMMARY_KEYS = {
    "exact": {"horizon", "bracket", "bounds", "classify", "dual_mean_partial"},
    "bounds": {"bracket", "bounds"},
    "simulate": {"seed", "layout", "estimates"},
    "dual": {"seed", "layout", "estimates"},
    "coupling": {"seed", "layout", "coalescence_sum_sq"},
    "sweep": {"points"},
}


@pytest.mark.parametrize("command", sorted(_TINY))
def test_summary_has_exactly_its_pinned_keys(tmp_path, capsys, command):
    cfg = _write_config(tmp_path, _TINY[command])
    out = tmp_path / "table.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    sidecar = tmp_path / "table.summary.json"
    printed = capsys.readouterr().out
    if command == "verify":
        assert not sidecar.exists()
        assert printed.splitlines()[-1].startswith("verify: 1/1 configs passed")
        return
    summary = json.loads(sidecar.read_text(encoding="utf-8"))
    assert json.loads(printed) == summary
    common = {"schema", "version", "command", "config", "runtime_s"}
    assert set(summary) == common | _SUMMARY_KEYS[command]
    assert summary["command"] == command and summary["config"]["out"] == str(out)
