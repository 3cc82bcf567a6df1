#!/usr/bin/env python3
"""Run perfbench on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload sqlite-mpk3 --seeds 1-10 [--seconds 5]

For every end-to-end metric it prints the median, the interquartile
distance as a share of the median (statistics.quantiles, n=4) and the
bound from BENCHMARK.json; a spread at or above a third of its bound
is flagged with '!'. --seconds defaults to run_seconds. Use this
to check that the benchmark is steady before recording a baseline and
to compare two commits run with the same seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in seeds_of(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if out.returncode or not result.get("correct"):
            print("seed %d failed:\n%s" % (seed, out.stdout), file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, json.dumps(
            {k: v["value"] for k, v in result["metrics"].items()})))

    print("%-30s %16s %10s %8s" % ("metric", "median", "iqr/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        flag = "!" if share >= bound / 3 else ""
        print("%-30s %16.6g %10.4f %8s %s" % (name, med, share, bound, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
