"""Steadiness check: run each workload N times with different seeds and summarise.

Usage (from the repository root):

    python3 bench/steady.py --runs 10
    python3 bench/steady.py --workloads value_queries --runs 5 --first-seed 11

Runs are sequential, one process at a time, untraced, each for
``run_seconds`` of BENCHMARK.json, the run length the bounds hold for.  For
every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
plus the share of failed queries, and writes all runs (with their wall
time and standard error) to
``bench/out/steady-<workloads>.json``.  The spreads are what the bounds in
BENCHMARK.json are set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]),
            "wall_s": time.perf_counter() - t0, "log": proc.stderr}


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "min": min(values), "max": max(values),
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = args.workloads.split(",")
    report = {}
    for w in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(w, seed, seconds))
            r = runs[-1]
            print(f"{w} seed={seed} wall={r['wall_s']:.1f}s correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} " + " ".join(
                      f"{k}={m['value']:.5g}" for k, m in r["metrics"].items()), flush=True)
        summary = summarise(runs)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {args.runs} runs x {seconds} s, failed share(s) {shares}, "
              f"all correct: {all(r['correct'] for r in runs)}")
        print(f"  {'metric':38s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, s in summary.items():
            print(f"  {name:38s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.3f}  {s['unit']}")
        print(flush=True)
        report[w] = {"runs": runs, "summary": summary}
    out = HERE / "out" / f"steady-{'-'.join(workloads)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"written {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
