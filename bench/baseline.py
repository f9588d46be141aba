#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's median and spread.

Runs ``bench/run.py`` once per (set, workload, seed), one run at a time, for
every workload in BENCHMARK.json with its ``run_seconds``, and writes every
result plus a summary: per set and metric the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (Q3 - Q1) / median, and how
far each later set's median moved from the first one's.

Usage (from the repository root):

    python3 bench/baseline.py --seeds 1-10 --sets 2 --out bench/baseline/runs.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's last stdout line, plus the provenance and the uncorrected
    timings from its result file."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    detail = result["detail"]
    return {**json.loads(lines[-1]), "provenance": result["provenance"],
            **{k: detail[k] for k in ("uncorrected", "host_factor") if k in detail}}


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workloads = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]
    seeds = seed_range(args.seeds)
    runs = []
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                start = time.perf_counter()
                result = one_run(w, seed, seconds, args.trace)
                runs.append({"set": s, "workload": w, "seed": seed, "wall_s": time.perf_counter() - start,
                             **result})
                print(f"set {s} {w} seed {seed}: correct={result['correct']} "
                      f"{result['failed']}/{result['attempted']} failed, "
                      f"{runs[-1]['wall_s']:.1f} s wall", file=sys.stderr)

    summary = {}
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        for metric in mine[0]["metrics"]:
            sets = [summarize([r["metrics"][metric]["value"] for r in mine if r["set"] == s])
                    for s in range(args.sets)]
            for later in sets[1:]:
                later["median_shift"] = later["median"] / sets[0]["median"] - 1.0
            summary.setdefault(w, {})[metric] = {"unit": mine[0]["metrics"][metric]["unit"], "sets": sets}

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "seeds": seeds, "sets": args.sets,
                               "summary": summary, "runs": runs}, indent=1) + "\n")
    for w, metrics in summary.items():
        for metric, info in metrics.items():
            cells = "  ".join(f"set{i}: median {s['median']:.5g} spread {s['spread']:.4f}"
                              + (f" shift {s['median_shift']:+.4f}" if "median_shift" in s else "")
                              for i, s in enumerate(info["sets"]))
            print(f"{w:<11} {metric:<13} {info['unit']:<5} {cells}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
