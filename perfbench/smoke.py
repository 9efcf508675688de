#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that every workload runs untraced and traced, that each run emits
exactly the metrics BENCHMARK.json declares with their units, that the
traced run of mc-long enters no engine or renewal code, and that corrupted
references make ops count as failed: a wrong recorded CSV digest, and a
wrong exact v_n behind the Monte Carlo check.  Exits 1 on the first
failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

SEED = 3


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-800:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_metrics(result: dict, declared: list, label: str) -> None:
    emitted = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(emitted) != sorted(names):
        raise AssertionError(f"{label}: emitted {sorted(emitted)}, declared {sorted(names)}")
    for m in declared:
        got = emitted[m["name"]]
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            raise AssertionError(f"{label}: {m['name']} emitted as {got}, declared unit {m['unit']}")


def record_path(workload: str) -> Path:
    return run.OUT / "digests" / f"{workload}-tiny-seed{SEED}.json"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in run.plans.WORKLOADS:
        record_path(workload).unlink(missing_ok=True)
    for workload in run.plans.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = bench(workload, trace)
            label = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            assert_metrics(result, declared, label)
            if workload == "mc-long" and trace:
                entered = [k for k, v in result["metrics"].items()
                           if k.startswith(("engine.", "renewal.")) and v["value"]]
                if entered:
                    raise AssertionError(f"mc-long entered engine/renewal: {entered}")
            print(f"ok   {label}: {result['attempted']} ops, metrics as declared")

    # a wrong digest recorded by an earlier run of the same source fails the op
    path = record_path("exact-large")
    saved = json.loads(path.read_text(encoding="utf-8"))
    first = next(key for key in saved["digests"] if key.startswith("exact-0:"))
    saved["digests"][first] = "0" * 64
    path.write_text(json.dumps(saved), encoding="utf-8")
    result = bench("exact-large", 0)
    if result["correct"] or result["failed"] < 1:
        raise AssertionError(f"corrupted digest not detected: {result}")
    print(f"ok   corrupted digest reference: {result['failed']} op(s) failed")

    # a wrong exact v_n behind the 4-SE Monte Carlo check fails the op
    modules = run.import_package()

    class CorruptedReference(run.Runner):
        def exact_v(self, op):
            return {n: min(1.0, v + 0.25) for n, v in super().exact_v(op).items()}

    workdir = run.OUT / "smoke-work"
    workdir.mkdir(parents=True, exist_ok=True)
    op = run.plans.Plan("mc-long", SEED, run.plans.SIZES["tiny"]).op(0)
    clean = run.Runner(modules, workdir).execute(op)
    corrupted = CorruptedReference(modules, workdir).execute(op)
    workdir.rmdir()
    if clean["problems"] or not corrupted["problems"]:
        raise AssertionError(f"reference check: clean {clean['problems']}, corrupted {corrupted['problems']}")
    print(f"ok   corrupted exact v_n reference: {corrupted['problems'][0]}")

    for workload in run.plans.WORKLOADS:
        record_path(workload).unlink(missing_ok=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"smoke FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
