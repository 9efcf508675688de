import csv
import json
import re

import pytest

from renewperc import cli
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
    bracket = json.loads((tmp_path / "sure.summary.json").read_text())["bracket"]
    assert bracket["lo"] == 1.0 and bracket["hi"] == 1.0


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
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
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
    ],
)
def test_bad_choice_or_out_path_fails_before_computing(tmp_path, monkeypatch, command, key, value):
    def compute(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(cli, "gf_partial", compute)
    monkeypatch.setattr(cli, "random_tiny_configs", compute)
    cfg = _write_config(tmp_path, {**_TINY[command], key: value.format(tmp=tmp_path)})
    argv = [command, "--config", str(cfg)]
    if key != "out":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
