#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise the spread of each metric.

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/results/baseline.json

Each workload runs once per seed, untraced, each run in its own process.
The summary gives, per workload and end-to-end metric, the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread: the
interquartile distance as a share of the median.  One traced run per
workload, on the first seed, adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["process_s"] = time.perf_counter() - start
    return result


def summarise(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            print(workload, seed, f"{result['process_s']:.1f}s", result["attempted"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats.update(unit=runs[0]["metrics"][name]["unit"], bound=bounds[name])
            metrics[name] = stats
            print(f"  {name:20s} median {stats['median']:.6g} spread {stats['spread']:.4f} "
                  f"(bound {bounds[name]})", flush=True)
        traced = run_once(workload, args.seeds[0], args.seconds, 1)
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "process_s": [r["process_s"] for r in runs],
            "end_to_end": metrics,
            "traced_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        provenance = BENCH_DIR / "out" / f"result-{workload}-full-seed{args.seeds[0]}-trace0.json"
        summary["workloads"][workload]["provenance"] = json.loads(provenance.read_text())["provenance"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
