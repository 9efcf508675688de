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
least their minimum, ``n_max`` at most the oracles' 8 sites and ``out`` a
file in an existing directory, all checked before any computation.

``main`` is the one pipeline.  It parses with a parser built once per
process, resolves the config, starts the clock, and calls the command's
handler, which only computes: it returns its table (one column per field)
and its own summary fields.  ``main`` writes the table, then prints and
writes ``<out stem>.summary.json`` with ``command``, ``config`` and
``runtime_s`` added; ``runtime_s`` covers the computation and the table
write.  ``verify`` instead prints one line per config and a closing line,
writes a CSV only when given an ``out`` path, and writes no summary; one
walk gives both Monte Carlo estimates of a config, which were always
drawn from the same uniforms.

CSV output is RFC-4180 style (UTF-8, CRLF after every row, header row).
The writer fills the first column with the schema id (a ``schema`` key in
jsonl), floats as ``%.17g`` and None as empty cells, and quotes a cell
holding a comma, quote, CR or LF as csv.writer's QUOTE_MINIMAL does.  A
float or integer array is rendered a whole column at a time in numpy, to
the same bytes as ``format(x, ".17g")`` and ``str(i)``; the few floats the
column kernel cannot decide exactly go through ``format`` itself.
Randomized commands embed the seed in every row.  Runs are deterministic:
the same config file yields a byte-identical CSV, so wall-clock runtime is
reported only in the JSON summary, never in CSV rows.

Exit codes: 0 ok, 1 usage, 2 validation, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
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
from .simulate import _sim_reports, simulate_coupling

_SUMMARY_SCHEMA = "renewperc.summary.v1"

# A command gets --<key> for each of these keys among its defaults.
_FLAGS = ("seed", "horizon", "reps", "out", "format", "tail", "configs", "exact_tol", "workers")
_FORMATS = ("csv", "jsonl")
# string fields restricted to a fixed set of values
_CHOICES = {"format": _FORMATS, "tail": _TAIL_CHOICES}
# number fields with a lower bound (tiny configs need n >= 2 sites and radius support >= 1)
_MINIMUMS = {"horizon": 1, "coupling_horizon": 1, "classify_horizon": 4, "workers": 1,
             "configs": 1, "n_max": 2, "support_max": 1, "exact_tol": 0.0, "reps": 1, "seed": 0}


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


# A CSV column is rendered as a (rows, width) byte matrix in which _PAD, a
# byte that never occurs in UTF-8, may stand anywhere; the matrices are joined
# with "," and CRLF, and the pad is deleted from the joined bytes in one pass.
_PAD = b"\xff"
# exponents k of the table of 10**k: the scales 10**(16 - E) that
# 1e-270 <= |x| <= 1e270 needs, with a margin for E off by one
_POW10_MIN, _POW10_MAX = -260, 290
# a fraction of the scaled value this close to one half may be a rounding tie
_TIE = 1e-6
# A float's source row is 7 words of 4 bytes: "000" and its leading digit,
# its other 16 digits, its exponent's sign and 3 digits, then "-.e0"; digit
# i is byte i + 3.  _F_LAYOUTS layouts per sign: fixed notation for
# exponents -4..16, exponent notation with 2 or 3 exponent digits, each for
# 1..17 significant digits.
_F_MINUS, _F_DOT, _F_E, _F_ZERO = range(24, 28)
_F_LAYOUTS = 23 * 17
# The source bytes any layout prints, in order: sign, "0.000" (exponents
# -1..-4), the digits with a point after each, then "e", sign and 3 digits.
_F_TEMPLATE = np.array([_F_MINUS, _F_ZERO, _F_DOT, _F_ZERO, _F_ZERO, _F_ZERO,
                        *[b for i in range(17) for b in (i + 3, _F_DOT)][:-1],
                        _F_E, 20, 21, 22, 23])


def _text_bytes(cells: list, width=None) -> np.ndarray:
    """The UTF-8 bytes of each string as a row, padded to ``width`` (default: the longest)."""
    data = [cell.encode() for cell in cells]
    if width is None:
        width = max(map(len, data), default=0)
    joined = b"".join(d.ljust(width, _PAD) for d in data)
    return np.frombuffer(joined, np.uint8).reshape(len(data), width)


@functools.cache
def _digit_tables() -> tuple:
    """The ASCII digits of 0..9999 as one 4-byte word each, and for each of
    a float's four groups of four digits after its first the number of
    significant digits that end in the group's last nonzero digit (1 for 0)."""
    digits = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1)
    last = 4 - (digits[3] == 0) * (1 + (digits[2] == 0) * (1 + (digits[1] == 0)))
    ends = np.where(digits.any(axis=0), 4 * np.arange(4)[:, None] + 1 + last, 1)
    return (digits.T + ord("0")).copy().view(np.uint32).ravel(), ends.astype(np.uint8)


@functools.cache
def _float_tables() -> tuple:
    """Per exponent E, indexed by ``16 - E - _POW10_MIN``: 10**(16 - E) as a
    double-double (hi, lo), the exponent's sign and digits as a word, and
    the first layout id; then each layout's mask over _F_TEMPLATE (0 prints
    a byte, 0xFF pads it).

    With j = 16 - E, hi is 10**j rounded to a double and lo the remainder
    10**j - hi rounded, both divisions of exact integers (int / int rounds
    correctly), so hi + lo is 10**j to 2**-106 relative.  Layout
    ``(E + 4) * 17 + k - 1`` prints k significant digits in fixed notation
    (E in [-4, 16]), layout ``357 + 17 * (|E| >= 100) + k - 1`` in exponent
    notation, and ``_F_LAYOUTS`` more add a minus sign.
    """
    his, los = [], []
    for j in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10**j, 1) if j >= 0 else (1, 10**-j)
        hi = num / den
        a, b = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * b - a * den) / (den * b))  # 10**j - a / b
    hi, lo = np.array(his), np.array(los)
    exp = 16 - np.arange(_POW10_MIN, _POW10_MAX + 1)
    mag = np.abs(exp)
    tail = np.empty((len(exp), 4), np.uint8)
    tail[:, 0] = np.where(exp < 0, ord("-"), ord("+"))
    tail[:, 1:] = mag[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    base = np.where((exp >= -4) & (exp < 17), (exp + 4) * 17, 357 + 17 * (mag >= 100))
    neg, form = np.divmod(np.arange(2 * _F_LAYOUTS)[:, None], _F_LAYOUTS)
    form, k = np.divmod(form, 17)
    k, e = k + 1, form - 4
    fixed = form < 21
    point, whole = fixed & (e < 0), fixed & (e >= 0)
    middle = np.empty((len(form), 33), bool)
    # the integer part keeps its zeros
    middle[:, 0::2] = np.arange(17) < np.where(whole, np.maximum(k, e + 1), k)
    middle[:, 1::2] = np.arange(16) == np.where(whole & (k > e + 1), e, np.where(~fixed & (k > 1), 0, -1))
    zeros = point & (np.arange(3) < -e - 1)
    keep = np.concatenate([neg == 1, point, point, zeros, middle, ~fixed, ~fixed, form == 22, ~fixed, ~fixed],
                          axis=1)
    masks = np.where(keep, 0, 0xFF).astype(np.uint8)
    return hi, lo, tail.view(np.uint32).ravel(), base, masks


def _split(a: np.ndarray) -> tuple:
    """Veltkamp's split of each double into two 26-bit halves."""
    c = a * 134217729.0
    hi = c - (c - a)
    return hi, a - hi


def _product_error(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``a * b - p`` exactly for p the rounded product (Dekker's two-product)."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _divmod(a: np.ndarray, d: int) -> tuple:
    """``np.divmod`` of nonnegative integers by a constant, through the faster floor division."""
    q = a // d
    return q, a - q * d


def _float_bytes(x: np.ndarray) -> np.ndarray:
    """``format(v, ".17g")`` of each float64 as a padded byte matrix.

    With E = floor(log10 |x|), y = |x| 10**(16 - E) is formed as a
    double-double: Dekker's exact product of |x| with the rounded power of
    ten, plus |x| times its remainder.  That is about 2**-103 relative, or
    about 1e-14 on y, so the integer part of y and its rounding half-even
    are exact unless the fraction lies within _TIE of one half.  Those
    near-ties, values whose truncated y lies outside [1e16, 1e17) (E off by
    one next to a power of ten) or whose rounded y is 1e17, and zeros,
    infinities, nans and |x| outside [1e-270, 1e270] are formatted one at a
    time.
    """
    p10_hi, p10_lo, tails, bases, masks = _float_tables()
    quads, ends = _digit_tables()
    a = np.abs(x)
    fast = (a >= 1e-270) & (a <= 1e270)
    a[~fast] = 1.0
    row = 16 - _POW10_MIN - np.floor(np.log10(a)).astype(np.intp)
    scale = p10_hi.take(row)
    prod = a * scale
    tail = _product_error(a, scale, prod) + a * p10_lo.take(row)
    whole = np.floor(tail)
    frac = tail - whole
    sig = prod.astype(np.int64) + whole.astype(np.int64)  # prod >= 2**53 is an integer
    fast &= (sig >= 10**16) & (sig < 10**17) & (np.abs(frac - 0.5) > _TIE)
    sig += frac > 0.5
    fast &= sig < 10**17
    high, low = _divmod(sig, 10**8)
    lead, high = _divmod(high.astype(np.uint32), 10**8)
    groups = [*_divmod(high, 10**4), *_divmod(low.astype(np.uint32), 10**4)]
    words = np.empty((len(x), 7), np.uint32)
    words[:, 0] = quads.take(lead)
    for j, group in enumerate(groups):
        words[:, j + 1] = quads.take(group)
    words[:, 5] = tails.take(row)
    words[:, 6] = np.frombuffer(b"-.e0", np.uint32)
    sig_digits = np.maximum.reduce([ends[j].take(g) for j, g in enumerate(groups)])
    ids = bases.take(row) + sig_digits - 1 + _F_LAYOUTS * np.signbit(x)
    slow = np.flatnonzero(~fast)
    texts = [format(v, ".17g") for v in x[slow].tolist()]
    # the template bytes some row prints, and as many more (all pad) as the
    # longest text needs
    used = (masks[np.bincount(ids, minlength=len(masks)) > 0] == 0).any(axis=0)
    extra = max([0, *map(len, texts)]) - used.sum()
    cols = np.flatnonzero(used | (np.cumsum(~used) <= extra))
    out = masks[:, cols].take(ids, axis=0)
    out |= words.view(np.uint8)[:, _F_TEMPLATE[cols]]
    if texts:
        out[slow] = _text_bytes(texts, out.shape[1])
    return out


def _int_bytes(x: np.ndarray) -> np.ndarray:
    """``str(v)`` of each integer as a padded byte matrix."""
    quads, _ = _digit_tables()
    neg = x < 0
    mag = x.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # modulo 2**64, so -2**63 gives 2**63
    ndig = len(str(mag.max(initial=0)))
    groups = -(-ndig // 4)
    words = np.empty((len(x), groups), np.uint32)
    rest = mag
    for j in range(groups - 1, -1, -1):
        rest, group = _divmod(rest, 10**4)
        words[:, j] = quads.take(group)
    # the zeros before a row's first significant digit are padded
    zeros = ndig - 1 - np.searchsorted(10 ** np.arange(1, ndig, dtype=np.uint64), mag, side="right")
    pads = np.where(np.arange(ndig) < np.arange(ndig)[:, None], 0xFF, 0).astype(np.uint8)
    out = words.view(np.uint8)[:, 4 * groups - ndig :] | pads.take(zeros, axis=0)
    if neg.any():
        out = np.concatenate([np.where(neg, ord("-"), 0xFF).astype(np.uint8)[:, None], out], axis=1)
    return out


def _column_bytes(column) -> np.ndarray:
    """A column's CSV cells as a padded byte matrix; an array's numbers need no quoting."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return _float_bytes(column.astype(np.float64, copy=False))
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return _int_bytes(column)
    return _text_bytes(list(map(_cell, column)))


def _write_columns(path: str, schema: str, fieldnames, columns, fmt: str) -> None:
    """Write a table given as one list or array per field, after a constant schema column."""
    keys = ["schema", *fieldnames]
    if fmt == "csv":
        cells = [_column_bytes(column) for column in columns]
        # every row is this line with its cells written over the pads
        head = _cell(schema).encode()
        line = b"".join([head, *(b"," + _PAD * cell.shape[1] for cell in cells), b"\r\n"])
        buf = bytearray(line) * len(cells[0])
        table = np.frombuffer(buf, np.uint8).reshape(-1, len(line))
        end = len(head)
        for cell in cells:
            start, end = end + 1, end + 1 + cell.shape[1]
            table[:, start:end] = cell
        with Path(path).open("wb") as fh:
            fh.write((",".join(map(_cell, keys)) + "\r\n").encode())
            fh.write(buf.translate(None, _PAD))
    else:
        values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
        with Path(path).open("w", encoding="utf-8") as fh:
            for row in zip(itertools.repeat(schema, len(values[0])), *values):
                fh.write(json.dumps(dict(zip(keys, row)), sort_keys=True))
                fh.write("\n")


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


def _repeated(rows: int, **values) -> dict:
    """Columns that hold the same value in each of ``rows`` rows."""
    return {key: [value] * rows for key, value in values.items()}


def cmd_exact(cfg: dict) -> tuple:
    horizon = cfg["horizon"]
    spec, model, gf, bracket, bounds = _evaluate(cfg, horizon, cfg["tail"])
    dual = dual_law(gf, spec, model)
    verdict = classify(spec, model, max(4, horizon))
    table = {"n": np.arange(horizon + 1), "S_n": gf.S, "f_n": dual.f, "v_n": dual.v}
    return table, {
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
    }


def cmd_bounds(cfg: dict) -> tuple:
    horizon = cfg["horizon"]
    _, _, _, bracket, bounds = _evaluate(cfg, horizon, "auto")
    table = {
        "horizon": [horizon],
        "bracket_lo": [bracket.lo],
        "bracket_hi": [bracket.hi],
        "jensen_upper": [bounds.jensen_upper],
        "fkg_upper": [bounds.fkg_upper],
        "concentration_lower": [bounds.concentration_lower],
        "iid_closed": [bounds.iid_closed],
    }
    return table, {"bracket": asdict(bracket), "bounds": asdict(bounds)}


# the columns of a simulation row after its version, one field of the report each
_SIM_FIELDS = ("seed", "target", "n", "reps", "estimate", "stderr", "wilson_low", "wilson_high")


def _cmd_sim(cfg: dict, target: str) -> tuple:
    """One walk to the largest n gives every row, so the estimates share their paths."""
    spec = q_sequence_from_config(cfg["q"])
    model = radius_from_config(cfg["radius"])
    sites = cfg["n"] if isinstance(cfg["n"], list) else [cfg["n"]]
    reports = _sim_reports((target,), spec, model, sites, cfg["reps"], cfg["seed"])
    table = {**_repeated(len(reports), version=__version__),
             **{key: [getattr(r, key) for r in reports] for key in _SIM_FIELDS}}
    return table, {
        "seed": cfg["seed"],
        "layout": reports[0].layout,
        "estimates": {str(r.n): r.estimate for r in reports},
    }


def cmd_simulate(cfg: dict) -> tuple:
    return _cmd_sim(cfg, "connectivity")


def cmd_dual(cfg: dict) -> tuple:
    return _cmd_sim(cfg, "dual")


def cmd_coupling(cfg: dict) -> tuple:
    spec = q_sequence_from_config(cfg["q"])
    delays = cfg["delays"]
    if not isinstance(delays, list) or not delays:
        raise ValidationError("coupling needs a nonempty 'delays' list")
    report = simulate_coupling(spec, delays, cfg["coupling_horizon"], cfg["reps"], cfg["seed"])
    table = {
        **_repeated(len(report.j_grid), version=__version__, seed=report.seed, target=report.target,
                    delays="|".join(str(d) for d in report.delays)),
        "j": report.j_grid,
        "survival": report.survival,
        "stderr": report.stderr,
        "wilson_low": report.wilson_low,
        "wilson_high": report.wilson_high,
    }
    return table, {
        "seed": report.seed,
        "layout": report.layout,
        "coalescence_sum_sq": report.coalescence_sum_sq,
    }


# a verify row's columns after its version and seed
_VERIFY_FIELDS = ("config_index", "n", "oracle_connectivity", "oracle_dual", "forward_dp", "dual_v",
                  "mc_connectivity", "mc_dual", "exact_max_diff", "status")


def cmd_verify(cfg: dict) -> tuple:
    """The battery's table; ``main`` reports the passes from its status column."""
    reps = cfg["reps"]
    exact_tol = cfg["exact_tol"]
    seed = cfg["seed"]
    configs = random_tiny_configs(
        cfg["configs"], seed, n_max=cfg["n_max"], support_max=cfg["support_max"]
    )
    rows = []
    for idx, tiny in enumerate(configs):
        e_conn = enumerate_connectivity(tiny)
        e_dual = enumerate_dual(tiny)
        fwd = forward_connectivity(tiny.spec, tiny.model, tiny.n)
        gf = gf_partial(tiny.spec, tiny.model, tiny.n)
        v = float(dual_law(gf, tiny.spec, tiny.model).v[tiny.n])
        mc_c, mc_d = _sim_reports(("connectivity", "dual"), tiny.spec, tiny.model, [tiny.n], reps,
                                  seed + idx)
        exact_diff = max(abs(e_conn - e_dual), abs(e_conn - fwd), abs(e_conn - v))
        se_c = max(mc_c.stderr, math.sqrt(e_conn * (1 - e_conn) / reps), 1.0 / reps)
        se_d = max(mc_d.stderr, math.sqrt(e_dual * (1 - e_dual) / reps), 1.0 / reps)
        mc_c_diff = abs(mc_c.estimate - e_conn)
        mc_d_diff = abs(mc_d.estimate - e_dual)
        ok = exact_diff <= exact_tol and mc_c_diff <= 4 * se_c and mc_d_diff <= 4 * se_d
        status = "pass" if ok else "FAIL"
        print(
            f"config {idx:3d} n={tiny.n} exact={e_conn:.12f} "
            f"exact_diff={exact_diff:.3e} mc_conn={mc_c_diff / se_c:.2f}se "
            f"mc_dual={mc_d_diff / se_d:.2f}se {status}"
        )
        rows.append((idx, tiny.n, e_conn, e_dual, fwd, v, mc_c.estimate, mc_d.estimate, exact_diff,
                     status))
    table = {**_repeated(len(rows), version=__version__, seed=seed),
             **dict(zip(_VERIFY_FIELDS, zip(*rows)))}
    return table, {}


# a sweep row's columns after the grid keys
_SWEEP_FIELDS = ("bracket_lo", "bracket_hi", "tail_method", "certified", "jensen_upper",
                 "fkg_upper", "concentration_lower", "verdict", "error")


def _sweep_point(payload) -> tuple:
    """One sweep row: the point's grid values, then its _SWEEP_FIELDS."""
    base, point, horizon, tail, classify_horizon = payload
    try:
        cfg = base
        for dotted, value in point:
            root, _, key = dotted.partition(".")
            cfg = {**cfg, root: {**cfg[root], key: value}}
        spec, model, _, bracket, bounds = _evaluate(cfg, horizon, tail)
        verdict = classify(spec, model, classify_horizon)
        result = (bracket.lo, bracket.hi, bracket.tail_method, bracket.certified,
                  bounds.jensen_upper, bounds.fkg_upper, bounds.concentration_lower,
                  verdict.verdict, "")
    except RenewpercError as exc:
        result = (None,) * (len(_SWEEP_FIELDS) - 1) + (f"{type(exc).__name__}: {exc}",)
    return tuple(value for _, value in point) + result


def cmd_sweep(cfg: dict) -> tuple:
    grid = cfg["grid"]
    if not isinstance(grid, dict) or not grid:
        raise _UsageError("sweep needs a nonempty 'grid' mapping")
    keys = sorted(grid)
    for key in keys:
        root, _, param = key.partition(".")
        if root not in ("q", "radius") or not param:
            raise ValidationError(f"grid keys must look like 'q.<param>' or 'radius.<param>', got {key!r}")
        if not isinstance(cfg[root], dict):
            raise ValidationError(f"{root} fragment must be a mapping to sweep {key!r}")
        values = grid[key]
        if not isinstance(values, list) or not values:
            raise _UsageError(f"sweep grid entry {key!r} must be a nonempty list")
    base = {"q": cfg["q"], "radius": cfg["radius"]}
    payloads = [
        (base, tuple(zip(keys, combo)), cfg["horizon"], cfg["tail"], cfg["classify_horizon"])
        for combo in itertools.product(*(grid[k] for k in keys))
    ]
    workers = cfg["workers"]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]
    return dict(zip([*keys, *_SWEEP_FIELDS], zip(*rows))), {"points": len(rows)}


# One entry per command; its allowed keys, flags and type checks follow
# from the required keys and the defaults of the optional ones.  The handler
# takes the resolved config and returns its table, a dict of columns in
# field order, and its own summary fields.
class _Command(NamedTuple):
    handler: Callable[[dict], tuple]
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


@functools.cache
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
    try:
        args = _build_parser().parse_args(argv)
        command = _COMMANDS[args.command]
        cfg = _resolve_config(args.command, args)
        started = time.perf_counter()
        table, summary = command.handler(cfg)
        if cfg["out"]:
            _write_columns(cfg["out"], command.schema, list(table), list(table.values()), cfg["format"])
        runtime = time.perf_counter() - started
        if args.command == "verify":
            passed, total = table["status"].count("pass"), len(table["status"])
            print(
                f"verify: {passed}/{total} configs passed (exact tol {cfg['exact_tol']:g}, "
                f"mc tol 4 SE, reps {cfg['reps']}, {runtime:.1f}s)"
            )
            return 0 if passed == total else 3
        _emit_summary({"command": args.command, "config": cfg, **summary, "runtime_s": runtime},
                      cfg["out"])
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except RenewpercError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
