#!/usr/bin/env python3
"""renewperc benchmark: seeded CLI workloads, end-to-end metrics, per-layer trace.

Run one workload (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload exact-large --seed 1 --seconds 35 --trace 0

Run every workload, each in its own process, and print every metric::

    python3 perfbench/run.py --workload all --seed 1

Ops go through ``renewperc.cli.main(argv)`` in this process, one at a time
(closed loop), in whole plan cycles until ``--seconds`` have passed.  Every
op's outputs are checked and its CSV digest recorded.  ``--trace 1`` runs a
fixed set of ops twice each, untraced and traced, and reports the per-layer
metrics instead.  The package is imported from ``src/`` next to this
directory; without it the run fails before printing a result.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import plan as plans
import spans as spanlib

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"

# fresh-process setup probes per run, spread over the measured window
SETUP_PROBES = 9
# a traced op's self times may fall short of its measured wall time by the
# cost of installing and removing the wrappers and redirecting output
BALANCE_TOL_S = 2e-3
BALANCE_TOL_SHARE = 0.01
# ops in the traced run: whole cycles, so counts repeat exactly for a seed
TRACE_CYCLES = {"exact-large": 1, "sweep-grid": 2, "mc-long": 1, "verify-tiny": 1}
# the named throughput of each workload, reported as work_units_per_s
WORK_UNIT = {
    "exact-large": "sites_per_s",
    "sweep-grid": "points_per_s",
    "mc-long": "replicate_sites_per_s",
    "verify-tiny": "configs_per_s",
}


class PackageMissing(Exception):
    pass


def import_package() -> dict:
    """Import renewperc from this checkout's src/ and return its modules."""
    src = ROOT / "src"
    if not (src / "renewperc" / "__init__.py").is_file():
        raise PackageMissing(f"no renewperc package under {src}")
    sys.path.insert(0, str(src))
    import renewperc
    from renewperc import cli, engine, oracle, radius, renewal, simulate

    if Path(renewperc.__file__).resolve().parent != (src / "renewperc").resolve():
        raise PackageMissing(f"renewperc imported from {renewperc.__file__}, not from {src}")
    return {
        "renewperc": renewperc, "cli": cli, "engine": engine, "renewal": renewal,
        "radius": radius, "simulate": simulate, "oracle": oracle,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD commit, or None outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, modules: dict) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "renewperc_version": modules["renewperc"].__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def write_config(op: plans.Op, workdir: Path) -> Path:
    path = workdir / f"{op.op_id}.json"
    path.write_text(json.dumps(op.config, sort_keys=True), encoding="utf-8")
    return path


class Runner:
    """Runs ops through the CLI in this process and checks their outputs."""

    def __init__(self, modules: dict, workdir: Path):
        self.m = modules
        self.workdir = workdir
        self._exact_v: dict = {}

    def execute(self, op: plans.Op, tracer=None) -> dict:
        cfg = write_config(op, self.workdir)
        out = self.workdir / f"{op.op_id}.csv"
        argv = [op.command, "--config", str(cfg), "--out", str(out)]
        sink = io.StringIO()
        error = None
        scope = tracer.installed(op.op_id) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), scope:
                code = self.m["cli"].main(argv)
        except Exception:
            code, error = None, traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        record = {"op_id": op.op_id, "command": op.command, "wall_s": wall, "exit_code": code}
        problems = [error] if error else []
        if code != 0 and not error:
            problems.append(f"exit code {code}: {sink.getvalue()[-500:]}")
        digest = None
        if out.exists():
            data = out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if not problems:
                try:
                    problems.extend(self.check(op, checks.read_csv(data), out))
                except Exception:
                    problems.append("check raised: " + traceback.format_exc(limit=3))
        elif not problems:
            problems.append("no CSV written")
        for path in (cfg, out, out.with_name(out.stem + ".summary.json")):
            path.unlink(missing_ok=True)
        record.update(digest=digest, problems=problems)
        return record

    def check(self, op: plans.Op, rows: list, out: Path) -> list:
        c = op.config
        if op.command == "exact":
            summary = json.loads(out.with_name(out.stem + ".summary.json").read_text(encoding="utf-8"))
            return checks.check_exact(rows, summary, c)
        if op.command == "sweep":
            return checks.check_sweep(rows, op.inputs["points"])
        if op.command in ("simulate", "dual"):
            return checks.check_estimates(rows, self.exact_v(op))
        if op.command == "coupling":
            return checks.check_coupling(rows, int(c["coupling_horizon"]))
        return checks.check_verify(rows, int(c["configs"]))

    def exact_v(self, op: plans.Op) -> dict:
        """Exact v_n from the public series and dual law (cached per op)."""
        if op.op_id not in self._exact_v:
            m, c = self.m["renewperc"], op.config
            spec = m.q_sequence_from_config(c["q"])
            model = m.radius_from_config(c["radius"])
            gf = m.gf_partial(spec, model, max(c["n"]))
            v = m.dual_law(gf, spec, model).v
            self._exact_v[op.op_id] = {int(n): float(v[n]) for n in c["n"]}
        return self._exact_v[op.op_id]


class DigestRecord:
    """CSV digests of earlier runs of the same source on the same seed.

    Digests are keyed by op id and a hash of the op's command and config,
    so a changed plan starts fresh records instead of comparing other inputs.
    """

    def __init__(self, workload: str, size: str, seed: int, source: str):
        self.path = OUT / "digests" / f"{workload}-{size}-seed{seed}.json"
        self.source = source
        self.digests: dict = {}
        if self.path.exists():
            saved = json.loads(self.path.read_text(encoding="utf-8"))
            if saved.get("source_sha256") == source:
                self.digests = saved["digests"]

    @staticmethod
    def key(op: plans.Op) -> str:
        text = json.dumps([op.command, op.config], sort_keys=True)
        return f"{op.op_id}:{hashlib.sha256(text.encode()).hexdigest()[:16]}"

    def compare(self, op: plans.Op, record: dict) -> None:
        """Flag the op when its digest differs from an earlier one."""
        expected = self.digests.setdefault(self.key(op), record["digest"])
        if record["digest"] is not None and expected != record["digest"]:
            record["problems"].append(f"digest {record['digest']} differs from earlier {expected}")

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        doc = {"source_sha256": self.source, "digests": self.digests}
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def clear_caches(modules: dict) -> None:
    """Empty every functools cache in the package, as in a fresh process."""
    for mod in modules.values():
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def setup_probe(args, plan: plans.Plan) -> float:
    """Wall time of a fresh process that imports and writes the first configs.

    The verify battery seeds are passed in, so the probe does not time the
    benchmark's own seed search.
    """
    target = OUT / f"setup-{os.getpid()}"
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-only", str(target),
    ]
    if plan.verify_seeds:
        cmd += ["--verify-seeds", ",".join(map(str, plan.verify_seeds))]
    start = time.perf_counter()
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    wall = time.perf_counter() - start
    shutil.rmtree(target, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.decode()[-500:]}")
    return wall


def make_plan(args, modules: dict) -> plans.Plan:
    size = plans.SIZES[args.size]
    seeds = args.verify_seeds
    if args.workload == "verify-tiny" and seeds is None:
        seeds = plans.battery_seeds(args.seed, size, modules["oracle"].random_tiny_configs)
    return plans.Plan(args.workload, args.seed, size, seeds)


def write_first_configs(plan: plans.Plan, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for index in range(plan.cycle):
        write_config(plan.op(index), workdir)


def regime_counts(ops: list) -> dict:
    counts: dict = {}
    for op in ops:
        if "regime" in op.inputs:
            counts[op.inputs["regime"]] = counts.get(op.inputs["regime"], 0) + 1
    return counts


def run_untraced(args, plan: plans.Plan, runner: Runner, record: DigestRecord):
    ops, results, first_digest, setup = [], [], {}, []
    start = time.perf_counter()
    probing_s = 0.0  # time spent in setup probes, not counted as measured
    index = 0
    while True:
        # one setup probe per cycle, spread evenly over the measured window
        if len(setup) < SETUP_PROBES and time.perf_counter() - start - probing_s >= \
                len(setup) * args.seconds / SETUP_PROBES:
            setup.append(setup_probe(args, plan))
            probing_s += setup[-1]
        for _ in range(plan.cycle):
            op = plan.op(index)
            index += 1
            res = runner.execute(op)
            # a replayed deck op must reproduce its first digest in this run
            first = first_digest.setdefault(op.op_id, res["digest"])
            if res["digest"] != first:
                res["problems"].append(f"digest {res['digest']} differs from this run's {first}")
            record.compare(op, res)
            ops.append(op)
            results.append(res)
        if time.perf_counter() - start - probing_s >= args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args, plan))
    walls = [r["wall_s"] for r in results]
    work = sum(op.work for op in ops)
    # a deck op's time is the mean of its replays, so that the median reads
    # a blend of the machine's speed over the run rather than its majority state
    per_op: dict = {}
    for res in results:
        per_op.setdefault(res["op_id"], []).append(res["wall_s"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s_p50": (statistics.median([statistics.fmean(v) for v in per_op.values()]), "s"),
        "work_units_per_s": (work / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        WORK_UNIT[args.workload]: work / sum(walls),
        "measured_s": time.perf_counter() - start - probing_s,
        "setup_samples_s": setup,
    }
    return ops, results, metrics, extra


def layer_metrics(spans: list, untraced_s: float, traced_s: float) -> dict:
    agg = spanlib.aggregate(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def self_s(name):
        return get(name, "self_ns") * 1e-9

    m = {}
    for name in (
        "engine.gf_partial", "renewal.ck_sequence", "renewal.renewal_probabilities",
        "renewal.interarrival", "renewal.ck_at", "engine.classify", "engine.dual_law",
        "engine.percolation_probability", "engine.bounds_report", "radius.alpha_array",
        spanlib.ROOT, "simulate.connectivity_successes", "simulate.dual_successes",
        "simulate.coalescence_times", "radius.quantile", "oracle.enumerate_connectivity",
        "oracle.enumerate_dual", "engine.forward_connectivity",
    ):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("engine.gf_partial", "renewal.ck_sequence", "renewal.renewal_probabilities",
                 "radius.alpha_array"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
    updates = get("engine.gf_partial", "size")
    m["engine.gf_partial.ns_per_state_update"] = (
        get("engine.gf_partial", "self_ns") / updates if updates else 0.0, "ns")
    brackets = get("engine.percolation_probability", "calls") + get("engine.bounds_report", "calls")
    m["renewal.ck_sequence.calls_per_bracket"] = (
        get("renewal.ck_sequence", "calls") / brackets if brackets else 0.0, "ratio")
    sim = ("simulate.connectivity_successes", "simulate.dual_successes", "simulate.coalescence_times")
    sites = sum(get(n, "size") for n in sim)
    m["simulate.ns_per_replicate_site"] = (
        sum(get(n, "self_ns") for n in sim) / sites if sites else 0.0, "ns")
    m["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    return m


def run_traced(modules: dict, plan: plans.Plan, runner: Runner, record: DigestRecord):
    tracer = spanlib.Tracer(modules)
    ops, results = [], []
    untraced_s = traced_s = 0.0
    for index in range(TRACE_CYCLES[plan.workload] * plan.cycle):
        op = plan.op(index)
        # alternate which copy runs first, so warm-up does not bias the overhead
        copies = {}
        for traced_copy in ((False, True) if index % 2 == 0 else (True, False)):
            clear_caches(modules)
            copies[traced_copy] = runner.execute(op, tracer if traced_copy else None)
        plain, traced = copies[False], copies[True]
        untraced_s += plain["wall_s"]
        traced_s += traced["wall_s"]
        traced["untraced_wall_s"] = plain["wall_s"]
        traced["problems"] += plain["problems"]
        if traced["digest"] != plain["digest"]:
            traced["problems"].append(f"traced digest {traced['digest']} != untraced {plain['digest']}")
        record.compare(op, traced)
        ops.append(op)
        results.append(traced)
    # the spans of an op must account for the wall time measured around it
    self_sums = spanlib.self_sums(tracer.spans)
    for res in results:
        res["self_sum_s"] = self_sums.get(res["op_id"], 0) * 1e-9
        gap = res["wall_s"] - res["self_sum_s"]
        if not 0.0 <= gap <= BALANCE_TOL_S + BALANCE_TOL_SHARE * res["wall_s"]:
            res["problems"].append(
                f"self times sum to {res['self_sum_s']:.6f} s, traced wall is {res['wall_s']:.6f} s")
    metrics = layer_metrics(tracer.spans, untraced_s, traced_s)
    extra = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": len(tracer.spans)}
    return ops, results, metrics, extra, tracer.spans


def run_workload(args) -> int:
    modules = import_package()
    plan = make_plan(args, modules)
    if args.setup_only:
        write_first_configs(plan, Path(args.setup_only))
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        write_first_configs(plan, workdir)
        runner = Runner(modules, workdir)
        record = DigestRecord(args.workload, args.size, args.seed, source_digest())
        stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            ops, results, metrics, extra, spans = run_traced(modules, plan, runner, record)
            (OUT / f"spans-{stem}.json").write_text(json.dumps(
                {"fields": ["name", "start_ns", "end_ns", "parent", "op_id", "size"], "spans": spans}))
        else:
            ops, results, metrics, extra = run_untraced(args, plan, runner, record)
        record.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in results if r["problems"])
    extra.update(fail_ratio=failed / len(results), regime_counts=regime_counts(ops))
    result = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    seen, inputs = set(), []
    for op in ops:
        if op.op_id not in seen:
            seen.add(op.op_id)
            inputs.append({"op_id": op.op_id, "command": op.command, **op.inputs})
    doc = {"provenance": provenance(args, modules), "result": result, "extra": extra,
           "inputs": inputs, "ops": results}
    (OUT / f"result-{stem}.json").write_text(json.dumps(doc, indent=1, default=float))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:45s} {value:14.6g} {unit}")
    for name, value in extra.items():
        if isinstance(value, dict) and value:
            print(f"{args.workload:12s} {name:45s} {json.dumps(value, sort_keys=True)}")
        elif not isinstance(value, (dict, list)):
            print(f"{args.workload:12s} {name:45s} {value:14.6g}")
    for res in results:
        for problem in res["problems"]:
            print(f"FAILED {res['op_id']}: {problem.strip()[:300]}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in plans.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit code {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=plans.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(plans.SIZES), default="full",
                   help="op sizes: full (the benchmark) or tiny (smoke test)")
    p.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    p.add_argument("--verify-seeds", type=lambda t: [int(v) for v in t.split(",")], default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except PackageMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
