#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/steadiness.py --workload search_mix --seeds 1-10

Run from the repository root. For each metric, the spread is the distance
between the first and third quartiles of its values, as
statistics.quantiles(values, n=4) gives them, as a share of their median.
It is printed next to the metric's bound from BENCHMARK.json. A run that
fails or prints no result is reported and left out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--log-dir", help="keep each run's output here")
    args = ap.parse_args()
    if args.log_dir:
        os.makedirs(args.log_dir, exist_ok=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", str(args.trace)]
        start = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        took = time.time() - start
        if args.log_dir:
            name = f"{args.workload}-{seed}-trace{args.trace}"
            with open(os.path.join(args.log_dir, name + ".out"), "w") as f:
                f.write(proc.stdout)
            with open(os.path.join(args.log_dir, name + ".err"), "w") as f:
                f.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode} after {took:.1f}s")
            print(proc.stderr[-2000:], file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        windows = [l.strip() for l in lines if "slices valid" in l]
        print(f"seed {seed}: {took:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}; "
              + "; ".join(windows), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        print(f"{name}: " + " ".join(f"{v:.4g}" for v in vals))
    print(f"{'metric':32s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:32s} {med:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
