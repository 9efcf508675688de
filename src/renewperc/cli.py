"""Batch front-end.

Commands (every one also takes ``--config cfg.json`` and
``--format csv|jsonl``)::

    renewperc exact    --config cfg.json [--horizon N] [--tail T] [--out PATH]
    renewperc bounds   --config cfg.json [--horizon N] [--out PATH]
    renewperc simulate --config cfg.json [--seed S] [--reps R] [--out PATH]
    renewperc dual     --config cfg.json [--seed S] [--reps R] [--out PATH]
    renewperc coupling --config cfg.json [--seed S] [--reps R] [--out PATH]
    renewperc verify   [--seed S] [--reps R] [--out PATH] [--configs K] [--exact-tol T]
    renewperc sweep    --config cfg.json [--horizon N] [--tail T] [--out PATH] [--workers W]

The configuration is one JSON document (q-spec fragment, radius fragment,
horizons, seed, command options); command-line flags override it.  Unknown
keys, and flags the command does not read, are rejected.  Integer, float
and string fields must match the type of their default (integral floats
such as 1e4 count as integers); ``format`` and ``tail`` must be one of
their choices, bounded numbers (``horizon``, ``workers``, ``n_max`` ...) at
least their minimum and ``out`` a file in an existing directory, all
checked before any computation.  ``verify`` writes a CSV only when given
an ``out`` path.

CSV output is RFC-4180 style (UTF-8, CRLF after every row, header row).
The writer fills the first column with the schema id (a ``schema`` key in
jsonl), floats as ``%.17g`` and None as empty cells, and quotes a cell
holding a comma, quote, CR or LF as csv.writer's QUOTE_MINIMAL does.
Randomized commands embed the seed in every row.  Runs are deterministic:
the same config file yields a byte-identical CSV, so wall-clock runtime is
reported only in the JSON summary, never in CSV rows.

Exit codes: 0 ok, 1 usage, 2 validation, 3 verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .engine import (
    _TAIL_CHOICES,
    bounds_report,
    classify,
    dual_law,
    forward_connectivity,
    gf_partial,
    percolation_probability,
)
from .errors import RenewpercError, ValidationError, check_float, check_int
from .oracle import enumerate_connectivity, enumerate_dual, random_tiny_configs
from .radius import radius_from_config
from .renewal import q_sequence_from_config
from .simulate import simulate_connectivity, simulate_coupling, simulate_dual

_SUMMARY_SCHEMA = "renewperc.summary.v1"

# A command gets --<key> for each of these keys among its defaults.
_FLAGS = ("seed", "horizon", "reps", "out", "format", "tail", "configs", "exact_tol", "workers")
_FORMATS = ("csv", "jsonl")
# string fields restricted to a fixed set of values
_CHOICES = {"format": _FORMATS, "tail": _TAIL_CHOICES}
# number fields with a lower bound (tiny configs need n >= 2 sites and radius support >= 1)
_MINIMUMS = {"horizon": 1, "classify_horizon": 4, "workers": 1, "n_max": 2, "support_max": 1,
             "exact_tol": 0.0}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _cell(value) -> str:
    """CSV text of one value: floats as %.17g, None empty, quoted as QUOTE_MINIMAL."""
    if isinstance(value, float):
        return format(value, ".17g")
    text = "" if value is None else str(value)
    if set(text).isdisjoint(',"\r\n'):
        return text
    return '"' + text.replace('"', '""') + '"'


def _template_and_values(column) -> tuple:
    """The %-directive of one column and its values; an array's numbers need no quoting."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiu":
        return ("%.17g" if column.dtype.kind == "f" else "%d"), column.tolist()
    return "%s", list(map(_cell, column))


def _write_columns(path: str, schema: str, fieldnames, columns, fmt: str) -> None:
    """Write a table given as one list or array per field, after a constant schema column."""
    keys = ["schema", *fieldnames]
    if fmt == "csv":
        directives, values = zip(*map(_template_and_values, columns))
        row = ",".join([_cell(schema).replace("%", "%%"), *directives])
        text = "\r\n".join([",".join(map(_cell, keys)), *map(row.__mod__, zip(*values)), ""])
        with Path(path).open("w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        with Path(path).open("w", encoding="utf-8") as fh:
            for row in zip(itertools.repeat(schema, len(values[0])), *values):
                fh.write(json.dumps(dict(zip(keys, row)), sort_keys=True))
                fh.write("\n")


def _write_rows(path: str, schema: str, fieldnames, rows, fmt: str) -> None:
    columns = [[row.get(k) for row in rows] for k in fieldnames]
    _write_columns(path, schema, fieldnames, columns, fmt)


def _emit_summary(summary: dict, out_path: str) -> None:
    summary = {"schema": _SUMMARY_SCHEMA, "version": __version__, **summary}
    text = json.dumps(summary, sort_keys=True, default=str)
    out = Path(out_path)
    sidecar = out.with_name(out.stem + ".summary.json")
    sidecar.write_text(text + "\n", encoding="utf-8")
    print(text)


def _checked(key: str, default, value):
    """``value`` checked against the type of the key's default."""
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValidationError(f"{key} must be a string, got {value!r}")
        return value
    return (check_float if isinstance(default, float) else check_int)(key, value)


def _resolve_config(command: str, args) -> dict:
    entry = _COMMANDS[command]
    config = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ValidationError(f"config file not found: {path}")
        try:
            config = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ValidationError("config document must be a JSON object")
    unknown = set(config) - set(entry.required) - set(entry.defaults)
    if unknown:
        raise ValidationError(f"unknown config keys for {command}: {sorted(unknown)}")
    merged = {**entry.defaults, **config}
    for key in entry.defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    missing = [k for k in entry.required if k not in merged]
    if missing:
        raise _UsageError(f"{command} requires config keys {missing}")
    for key, default in entry.defaults.items():
        merged[key] = _checked(key, default, merged[key])
    for key, choices in _CHOICES.items():
        if key in merged and merged[key] not in choices:
            raise ValidationError(f"{key} must be one of {choices}, got {merged[key]!r}")
    for key, low in _MINIMUMS.items():
        if key in merged and merged[key] < low:
            raise ValidationError(f"{key} must be >= {low}, got {merged[key]!r}")
    # an empty out is allowed only where it is the default (verify: no CSV)
    if merged["out"] or entry.defaults["out"]:
        out = Path(merged["out"])
        if out.is_dir() or not out.parent.is_dir():
            raise ValidationError(f"out must name a file in an existing directory, got {merged['out']!r}")
    if isinstance(merged.get("n"), list) and merged["n"]:
        merged["n"] = [check_int("n", v) for v in merged["n"]]
    elif "n" in merged:  # a scalar, or an empty list (rejected)
        merged["n"] = check_int("n", merged["n"])
    return merged


def _evaluate(cfg: dict, horizon: int, tail: str) -> tuple:
    """Law, radius, series, bracket and bounds of the config's q and radius fragments."""
    spec = q_sequence_from_config(cfg["q"])
    model = radius_from_config(cfg["radius"])
    gf = gf_partial(spec, model, horizon)
    bracket = percolation_probability(gf, spec, model, tail=tail)
    return spec, model, gf, bracket, bounds_report(spec, model, horizon)


def cmd_exact(cfg: dict, schema: str) -> int:
    started = time.perf_counter()
    horizon = cfg["horizon"]
    spec, model, gf, bracket, bounds = _evaluate(cfg, horizon, cfg["tail"])
    dual = dual_law(gf, spec, model)
    verdict = classify(spec, model, max(4, horizon))
    columns = [np.arange(horizon + 1), gf.S, dual.f, dual.v]
    _write_columns(cfg["out"], schema, ["n", "S_n", "f_n", "v_n"], columns, cfg["format"])
    _emit_summary(
        {
            "command": "exact",
            "config": cfg,
            "horizon": horizon,
            "bracket": asdict(bracket),
            "bounds": asdict(bounds),
            "classify": {
                "verdict": verdict.verdict,
                "mean": verdict.mean,
                "mean_converged": verdict.mean_converged,
                "notes": list(verdict.notes),
            },
            "dual_mean_partial": dual.mean_partial,
            "runtime_s": time.perf_counter() - started,
        },
        cfg["out"],
    )
    return 0


def cmd_bounds(cfg: dict, schema: str) -> int:
    started = time.perf_counter()
    horizon = cfg["horizon"]
    _, _, _, bracket, bounds = _evaluate(cfg, horizon, "auto")
    row = {
        "horizon": horizon,
        "bracket_lo": bracket.lo,
        "bracket_hi": bracket.hi,
        "jensen_upper": bounds.jensen_upper,
        "fkg_upper": bounds.fkg_upper,
        "concentration_lower": bounds.concentration_lower,
        "iid_closed": bounds.iid_closed,
    }
    _write_rows(cfg["out"], schema, list(row.keys()), [row], cfg["format"])
    _emit_summary(
        {
            "command": "bounds",
            "config": cfg,
            "bracket": asdict(bracket),
            "bounds": asdict(bounds),
            "runtime_s": time.perf_counter() - started,
        },
        cfg["out"],
    )
    return 0


def _sim_rows(reports) -> list:
    return [
        {
            "version": __version__,
            "seed": rep.seed,
            "target": rep.target,
            "n": rep.n,
            "reps": rep.reps,
            "estimate": rep.estimate,
            "stderr": rep.stderr,
            "wilson_low": rep.wilson_low,
            "wilson_high": rep.wilson_high,
        }
        for rep in reports
    ]


def _cmd_sim(command: str, cfg: dict, schema: str, runner) -> int:
    started = time.perf_counter()
    spec = q_sequence_from_config(cfg["q"])
    model = radius_from_config(cfg["radius"])
    sites = cfg["n"] if isinstance(cfg["n"], list) else [cfg["n"]]
    reports = [runner(spec, model, n, cfg["reps"], cfg["seed"]) for n in sites]
    fields = ["version", "seed", "target", "n", "reps", "estimate", "stderr", "wilson_low",
              "wilson_high"]
    _write_rows(cfg["out"], schema, fields, _sim_rows(reports), cfg["format"])
    _emit_summary(
        {
            "command": command,
            "config": cfg,
            "seed": cfg["seed"],
            "layout": reports[0].layout,
            "estimates": {str(r.n): r.estimate for r in reports},
            "runtime_s": time.perf_counter() - started,
        },
        cfg["out"],
    )
    return 0


def cmd_simulate(cfg: dict, schema: str) -> int:
    return _cmd_sim("simulate", cfg, schema, simulate_connectivity)


def cmd_dual(cfg: dict, schema: str) -> int:
    return _cmd_sim("dual", cfg, schema, simulate_dual)


def cmd_coupling(cfg: dict, schema: str) -> int:
    started = time.perf_counter()
    spec = q_sequence_from_config(cfg["q"])
    delays = cfg["delays"]
    if not isinstance(delays, list) or not delays:
        raise ValidationError("coupling needs a nonempty 'delays' list")
    report = simulate_coupling(spec, delays, cfg["coupling_horizon"], cfg["reps"], cfg["seed"])
    rows = [
        {
            "version": __version__,
            "seed": report.seed,
            "target": report.target,
            "delays": "|".join(str(d) for d in report.delays),
            "j": j,
            "survival": float(report.survival[i]),
            "stderr": float(report.stderr[i]),
            "wilson_low": float(report.wilson_low[i]),
            "wilson_high": float(report.wilson_high[i]),
        }
        for i, j in enumerate(report.j_grid)
    ]
    fields = ["version", "seed", "target", "delays", "j", "survival", "stderr", "wilson_low",
              "wilson_high"]
    _write_rows(cfg["out"], schema, fields, rows, cfg["format"])
    _emit_summary(
        {
            "command": "coupling",
            "config": cfg,
            "seed": report.seed,
            "layout": report.layout,
            "coalescence_sum_sq": report.coalescence_sum_sq,
            "runtime_s": time.perf_counter() - started,
        },
        cfg["out"],
    )
    return 0


def cmd_verify(cfg: dict, schema: str) -> int:
    started = time.perf_counter()
    reps = cfg["reps"]
    exact_tol = cfg["exact_tol"]
    seed = cfg["seed"]
    configs = random_tiny_configs(
        cfg["configs"], seed, n_max=cfg["n_max"], support_max=cfg["support_max"]
    )
    rows = []
    failures = 0
    for idx, tiny in enumerate(configs):
        e_conn = enumerate_connectivity(tiny)
        e_dual = enumerate_dual(tiny)
        fwd = forward_connectivity(tiny.spec, tiny.model, tiny.n)
        gf = gf_partial(tiny.spec, tiny.model, tiny.n)
        v = float(dual_law(gf, tiny.spec, tiny.model).v[tiny.n])
        mc_c = simulate_connectivity(tiny.spec, tiny.model, tiny.n, reps, seed + idx)
        mc_d = simulate_dual(tiny.spec, tiny.model, tiny.n, reps, seed + idx)
        exact_diff = max(abs(e_conn - e_dual), abs(e_conn - fwd), abs(e_conn - v))
        se_c = max(mc_c.stderr, math.sqrt(e_conn * (1 - e_conn) / reps), 1.0 / reps)
        se_d = max(mc_d.stderr, math.sqrt(e_dual * (1 - e_dual) / reps), 1.0 / reps)
        mc_c_diff = abs(mc_c.estimate - e_conn)
        mc_d_diff = abs(mc_d.estimate - e_dual)
        ok = exact_diff <= exact_tol and mc_c_diff <= 4 * se_c and mc_d_diff <= 4 * se_d
        failures += 0 if ok else 1
        status = "pass" if ok else "FAIL"
        print(
            f"config {idx:3d} n={tiny.n} exact={e_conn:.12f} "
            f"exact_diff={exact_diff:.3e} mc_conn={mc_c_diff / se_c:.2f}se "
            f"mc_dual={mc_d_diff / se_d:.2f}se {status}"
        )
        rows.append(
            {
                "version": __version__,
                "seed": seed,
                "config_index": idx,
                "n": tiny.n,
                "oracle_connectivity": e_conn,
                "oracle_dual": e_dual,
                "forward_dp": fwd,
                "dual_v": v,
                "mc_connectivity": mc_c.estimate,
                "mc_dual": mc_d.estimate,
                "exact_max_diff": exact_diff,
                "status": status,
            }
        )
    if cfg["out"]:
        fields = ["version", "seed", "config_index", "n", "oracle_connectivity", "oracle_dual",
                  "forward_dp", "dual_v", "mc_connectivity", "mc_dual", "exact_max_diff", "status"]
        _write_rows(cfg["out"], schema, fields, rows, cfg["format"])
    runtime = time.perf_counter() - started
    print(
        f"verify: {len(configs) - failures}/{len(configs)} configs passed "
        f"(exact tol {exact_tol:g}, mc tol 4 SE, reps {reps}, {runtime:.1f}s)"
    )
    return 0 if failures == 0 else 3


def _apply_override(cfg: dict, dotted: str, value):
    root, _, key = dotted.partition(".")
    if root not in ("q", "radius") or not key:
        raise ValidationError(f"grid keys must look like 'q.<param>' or 'radius.<param>', got {dotted!r}")
    fragment = dict(cfg[root])
    fragment[key] = value
    out = dict(cfg)
    out[root] = fragment
    return out


# a sweep row's columns after the grid keys
_SWEEP_FIELDS = ("bracket_lo", "bracket_hi", "tail_method", "certified", "jensen_upper",
                 "fkg_upper", "concentration_lower", "verdict", "error")


def _sweep_point(payload) -> dict:
    base, overrides, horizon, tail, classify_horizon = payload
    row = dict(overrides)
    try:
        cfg = base
        for dotted, value in overrides.items():
            cfg = _apply_override(cfg, dotted, value)
        spec, model, _, bracket, bounds = _evaluate(cfg, horizon, tail)
        verdict = classify(spec, model, classify_horizon)
        row.update(
            {
                "bracket_lo": bracket.lo,
                "bracket_hi": bracket.hi,
                "tail_method": bracket.tail_method,
                "certified": bracket.certified,
                "jensen_upper": bounds.jensen_upper,
                "fkg_upper": bounds.fkg_upper,
                "concentration_lower": bounds.concentration_lower,
                "verdict": verdict.verdict,
                "error": "",
            }
        )
    except RenewpercError as exc:
        row.update(dict.fromkeys(_SWEEP_FIELDS), error=f"{type(exc).__name__}: {exc}")
    return row


def cmd_sweep(cfg: dict, schema: str) -> int:
    started = time.perf_counter()
    grid = cfg["grid"]
    if not isinstance(grid, dict) or not grid:
        raise _UsageError("sweep needs a nonempty 'grid' mapping")
    keys = sorted(grid)
    for key in keys:
        values = grid[key]
        if not isinstance(values, list) or not values:
            raise _UsageError(f"sweep grid entry {key!r} must be a nonempty list")
    horizon = cfg["horizon"]
    classify_horizon = cfg["classify_horizon"]
    points = [
        dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))
    ]
    payloads = [
        ({"q": cfg["q"], "radius": cfg["radius"]}, point, horizon, cfg["tail"], classify_horizon)
        for point in points
    ]
    workers = cfg["workers"]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]
    _write_rows(cfg["out"], schema, [*keys, *_SWEEP_FIELDS], rows, cfg["format"])
    _emit_summary(
        {
            "command": "sweep",
            "config": cfg,
            "points": len(rows),
            "runtime_s": time.perf_counter() - started,
        },
        cfg["out"],
    )
    return 0


# One entry per command; its allowed keys, flags and type checks follow
# from the required keys and the defaults of the optional ones.
class _Command(NamedTuple):
    handler: Callable[[dict, str], int]
    schema: str
    required: tuple
    defaults: dict


_COMMANDS = {
    "exact": _Command(
        cmd_exact, "renewperc.exact.v1", ("q", "radius"),
        {"horizon": 1000, "tail": "auto", "out": "exact.csv", "format": "csv"},
    ),
    "bounds": _Command(
        cmd_bounds, "renewperc.bounds.v1", ("q", "radius"),
        {"horizon": 1000, "out": "bounds.csv", "format": "csv"},
    ),
    "simulate": _Command(
        cmd_simulate, "renewperc.sim.v1", ("q", "radius", "n"),
        {"reps": 100_000, "seed": 0, "out": "simulate.csv", "format": "csv"},
    ),
    "dual": _Command(
        cmd_dual, "renewperc.sim.v1", ("q", "radius", "n"),
        {"reps": 100_000, "seed": 0, "out": "dual.csv", "format": "csv"},
    ),
    "coupling": _Command(
        cmd_coupling, "renewperc.coupling.v1", ("q", "delays"),
        {"reps": 100_000, "seed": 0, "coupling_horizon": 64, "out": "coupling.csv", "format": "csv"},
    ),
    # an empty out writes no CSV
    "verify": _Command(
        cmd_verify, "renewperc.verify.v1", (),
        {"configs": 50, "n_max": 8, "support_max": 4, "reps": 20_000, "seed": 0,
         "exact_tol": 1e-12, "out": "", "format": "csv"},
    ),
    "sweep": _Command(
        cmd_sweep, "renewperc.sweep.v1", ("q", "radius", "grid"),
        {"horizon": 2000, "tail": "auto", "classify_horizon": 10_000, "workers": 1,
         "out": "sweep.csv", "format": "csv"},
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="renewperc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        for key in _FLAGS:
            if key in command.defaults:
                p.add_argument(
                    "--" + key.replace("_", "-"), dest=key, default=None,
                    type=type(command.defaults[key]),
                    choices=_FORMATS if key == "format" else None,
                )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        command = _COMMANDS[args.command]
        return command.handler(_resolve_config(args.command, args), command.schema)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except RenewpercError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
