#!/usr/bin/env python3
"""Steadiness runs: run each workload N times with distinct seeds and
report, per metric, the median, the quartiles and the spread (quartile
distance over median, as `statistics.quantiles(values, n=4)` gives them),
plus the share of failed operations.

    python3 perfbench/steady.py --runs 10 --seconds 30
    python3 perfbench/steady.py --workloads analyst_100k --runs 5 --first-seed 100

Run from the repository root. Workloads are interleaved run by run, so
a slow stretch of the host falls on all of them alike.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]
WORKLOADS = ["interactive_10k", "analyst_100k"]


def run_once(workload, seed, seconds):
    cmd = COMMAND + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(workload, results):
    print(f"\n{workload}: {len(results)} runs")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed share: {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:24s} median {med:12.4f} {unit:6s} q1 {q1:12.4f} q3 {q3:12.4f}"
              f"  spread {100 * spread:5.1f}%")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.first_seed + i
            results[w].append(run_once(w, seed, args.seconds))
            print(f"run {i + 1}/{args.runs} {w} seed {seed} done", file=sys.stderr)
    for w in workloads:
        summarize(w, results[w])


if __name__ == "__main__":
    main()
