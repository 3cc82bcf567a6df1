#!/usr/bin/env python3
"""Build perfbench from source (first use) and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload redis-mpk3 --seed 1 --seconds 10 --trace 0

The C++ binary is configured and built in .bench_build/ at the
repository root. Its output is passed through unchanged; the last line
is the JSON result. The traced run (--trace 1) also writes its spans to
.bench_build/trace-<workload>.json. Exits non-zero when the build fails
or any output check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["redis-mpk3", "iperf-ept2", "sqlite-mpk3", "redis-sweep80"]


def build():
    """Configure and build the binary; build output goes to stderr."""
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "perfbench",
              "-j", "2"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
