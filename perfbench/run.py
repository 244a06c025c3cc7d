#!/usr/bin/env python3
"""Build and run the CommTM host/simulated performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (CMake, Release) into .bench_build/perfbench, then runs
the workload in its own single-threaded process for S seconds of whole
rounds. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A traced run also prints
the per-layer self-time table and writes a Chrome trace-event file (opens
in Perfetto) to .bench_build/perfbench/trace_NAME.json. The binary rejects
an unknown workload name. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within this many seconds, building included.
DEADLINE_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "rt", "machine.h")):
        fail("simulator sources not found under " + ROOT + "/src")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        status = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if status.returncode:
            fail("build failed: " + " ".join(cmd))


def bench_env():
    """The benchmark decides which observers run; drop the simulator's
    force-on environment switches so every run measures the same thing."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("COMMTM_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="tiny inputs (self-test)")
    ap.add_argument("--inject", default="",
                    help="falsify this check's expectation (self-test)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative")

    start = time.monotonic()
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if args.inject:
        cmd += ["--inject", args.inject]
    left = DEADLINE_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=bench_env(), cwd=ROOT,
                              timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % DEADLINE_S)
    if proc.returncode:
        fail("workload exited with code %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("workload printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
