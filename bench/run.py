#!/usr/bin/env python3
"""pdmsi benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload si_survey --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: items per second (median
over rounds), median and tail item latency, set-up time (median over fresh
interpreters), peak RSS, and the failure count of the correctness checks.
Item timings are corrected for the host's speed drift (see hostspeed.py),
except on cli; the result file also keeps them uncorrected.
``--trace 1`` runs a fixed number of rounds, each untraced and traced, and
reports per-layer calls, self time and error counts, wasted-work ratios and
the tracing overhead.  A human-readable summary precedes the last line of
stdout, which is one JSON object with the keys correct, attempted, failed
and metrics.  Results and spans go to bench/results/.
"""

import os

# Pin BLAS before numpy loads: one client, one thread, on a 2-CPU machine.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
# Fresh interpreters timed for setup_s, before and after the timed phase, so
# the median spans the run instead of one stretch of the host's drifting speed.
SETUP_PROBES = (4, 5)
TAIL_BEYOND = 10


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int, traced: bool) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "traced": traced,
        "platform": platform.platform(),
    }


def probe_setup(workload: str) -> float:
    """Set-up seconds of one fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(wl, items, failures: Counter, recorder=None, tracker=None) -> list[float]:
    """Run and check one round; returns item latencies (s) and counts items and
    failed checks.  A tracker samples the host's speed between items."""
    latencies = []
    failures["_attempted"] += len(items)
    for pos, item in enumerate(items):
        if recorder is not None:
            recorder.item = f"{wl.current_round}.{pos}"
        if tracker is not None:
            tracker.maybe_sample()
        start = time.perf_counter()
        try:
            out = wl.run(item, recorder)
        except Exception as exc:
            latencies.append(time.perf_counter() - start)
            failures[f"exception: {type(exc).__name__}: {exc}"[:200]] += 1
            failures["_failed"] += 1
            continue
        latencies.append(time.perf_counter() - start)
        fails = wl.check(item, out)
        failures.update(fails)
        failures["_failed"] += bool(fails)
    return latencies


def rounds(wl, indices, failures, recorder=None, tracker=None) -> list[list[float]]:
    out = []
    for r in indices:
        wl.current_round = r
        out.append(run_round(wl, wl.items(r), failures, recorder, tracker))
    return out


def timed_phase(wl, seconds: float, failures: Counter, tracker) -> list[list[float]]:
    """Whole rounds: exactly ``wl.timed_rounds`` if the workload fixes it,
    else new ones until ``seconds`` of wall time have passed."""
    if wl.timed_rounds:
        return rounds(wl, range(1, wl.timed_rounds + 1), failures, tracker=tracker)
    out = []
    deadline = time.perf_counter() + seconds
    r = 1
    while r == 1 or time.perf_counter() < deadline:
        out.extend(rounds(wl, [r], failures, tracker=tracker))
        r += 1
    return out


def end_to_end(wl, per_round, setup, tracker) -> tuple[dict, dict]:
    """Item timings, corrected for the host's speed if a tracker sampled it,
    set-up time and peak RSS; the detail keeps the uncorrected item timings
    and the reference samples."""
    lat = sorted(x for rnd in per_round for x in rnd)
    n = len(lat)
    k = max(0, n - TAIL_BEYOND - 1)
    raw = {"items_per_s": statistics.median(len(rnd) / sum(rnd) for rnd in per_round),
           "item_p50_ms": statistics.median(lat) * 1e3,
           "item_tail_ms": lat[k] * 1e3}
    f = tracker.factor() if tracker else 1.0
    peak_kb = wl.child_peak_rss_kb() or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "items_per_s": (raw["items_per_s"] / f, "1/s"),
        "item_p50_ms": (raw["item_p50_ms"] * f, "ms"),
        "item_tail_ms": (raw["item_tail_ms"] * f, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    detail = {"rounds": len(per_round), "items": n,
              "tail_percentile": 100.0 * (k + 1) / n, "tail_items_beyond": n - k - 1,
              "uncorrected": raw, "host_factor": f, "reference_task_s": tracker.took if tracker else [],
              "setup_samples_s": setup}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pdmsi" / "__init__.py").is_file():
        print(f"error: no pdmsi sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hostspeed
    import pdmsi
    import tracing
    import workloads

    if Path(pdmsi.__file__).resolve().parent != SRC / "pdmsi":
        print(f"error: imported pdmsi from {pdmsi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS / f"work-{stem}-{os.getpid()}"
    failures = Counter()
    doc = {"workload": args.workload, "seconds": args.seconds,
           "provenance": provenance(args.seed, bool(args.trace))}
    try:
        if not args.trace:
            probe_setup(args.workload)  # discarded: warms the file and bytecode caches
            setup = [probe_setup(args.workload) for _ in range(SETUP_PROBES[0])]
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run_round(wl, wl.warmup_items(), failures)
        if args.trace:
            n = max(1, round(args.seconds * wl.trace_rounds_per_s))
            rec = tracing.Recorder()
            plain, traced = [], []
            for r in range(1, n + 1):
                # Each side runs first in half the rounds, so neither gains from the other's warming.
                for side in ("plain", "traced") if r % 2 else ("traced", "plain"):
                    if side == "plain":
                        plain += rounds(wl, [r], failures)
                        continue
                    undo = tracing.install(rec)
                    try:
                        traced += rounds(wl, [r], failures, rec)
                    finally:
                        tracing.uninstall(undo)
            failures.update(wl.finish())
            metrics = rec.metrics()
            plain_s = sum(map(sum, plain))
            traced_s = sum(map(sum, traced))
            metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
            doc["detail"] = {"rounds": n, "items": sum(map(len, traced)),
                             "untraced_s": plain_s, "traced_s": traced_s}
            (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
                {"fields": ["id", "parent", "item", "name", "start", "end"], "spans": rec.spans}))
        else:
            tracker = hostspeed.Tracker() if wl.host_corrected else None
            per_round = timed_phase(wl, args.seconds, failures, tracker)
            setup += [probe_setup(args.workload) for _ in range(SETUP_PROBES[1])]
            failures.update(wl.finish())
            metrics, doc["detail"] = end_to_end(wl, per_round, setup, tracker)
            doc["detail"]["latencies_s_by_round"] = per_round
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failures.pop("_attempted")
    failed = failures.pop("_failed", 0)
    correct = failed == 0 and not failures
    doc.update(attempted=attempted, failed=failed, fail_frac=failed / attempted,
               failed_checks=dict(failures),
               metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (RESULTS / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")

    if not args.trace:
        d = doc["detail"]
        print(f"{args.workload} seed={args.seed}: " + "  ".join(
            f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
            + f"  fail_frac={failed / attempted:.6g} ({failed}/{attempted})"
            + f"  [tail = p{d['tail_percentile']:.2f} of {d['items']} items in {d['rounds']} rounds]")
    else:
        print(f"{args.workload} seed={args.seed} traced: {doc['detail']['rounds']} rounds, "
              f"overhead {metrics['trace.overhead_frac'][0]:.3f}, fail_frac={failed / attempted:.6g}")
    if failures:
        print("failed checks: " + json.dumps(dict(failures)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": doc["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
