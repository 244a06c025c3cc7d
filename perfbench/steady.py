#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of one build agree?

Usage (from the repository root):

    python3 perfbench/steady.py

Runs perfbench/run.py --trace 0 for seeds 1..10 on every workload of
BENCHMARK.json for its run_seconds, twice (set A, then set B, the same
seeds), and saves every result line to .bench_build/perfbench/steady.json. For each (workload, end-to-end metric)
pair it prints both sets' medians and quartiles, the spread (interquartile
distance over the median) of each set, and whether the pair is steady:

  * simulated metrics (unit "cycles") must read exactly the same in both
    sets for every seed, and their spread over the seeds must stay within
    the bound;
  * every other metric's spread must stay within its BENCHMARK.json bound,
    and set B's median must not be worse than set A's by more than the
    bound;
  * the share of failed operations must be identical in both sets.

Exits 1 if any pair is not steady. The bounds in BENCHMARK.json are set
from this command's output (README.md, "Noise and bounds").
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAVE = os.path.join(ROOT, ".bench_build", "perfbench", "steady.json")
RUNS = 10


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True, cwd=ROOT)
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def analyse(runs, metrics):
    """runs: {workload: {"A": [result...], "B": [result...]}}."""
    ok = True
    print("%-18s %-18s %12s %12s %7s %7s %6s  %s" %
          ("workload", "metric", "median A", "median B", "sprA", "sprB",
           "bound", "verdict"))
    for workload, sets in runs.items():
        a, b = sets["A"], sets["B"]
        share = {k: [r["failed"] / r["attempted"] for r in v]
                 for k, v in sets.items()}
        if sorted(share["A"]) != sorted(share["B"]):
            ok = False
            print("%-18s failed-operation share differs between sets" %
                  workload)
        for m in metrics:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            qa, qb = quartiles(va), quartiles(vb)
            spr_a = (qa[2] - qa[0]) / qa[1]
            spr_b = (qb[2] - qb[0]) / qb[1]
            worse = ((qb[1] - qa[1]) / qa[1] if m["better"] == "lower"
                     else (qa[1] - qb[1]) / qa[1])
            if m["unit"] == "cycles":
                good = va == vb
                why = "exact" if good else "simulated values differ"
                if max(spr_a, spr_b) > m["bound"]:
                    good, why = False, why + ", spread over bound"
                elif max(spr_a, spr_b) > m["bound"] / 3:
                    why += ", spread over bound/3"
            else:
                good = worse <= m["bound"]
                why = "B %+.1f%% worse" % (100 * worse)
                if max(spr_a, spr_b) > m["bound"]:
                    good, why = False, why + ", spread over bound"
                elif max(spr_a, spr_b) > m["bound"] / 3:
                    why += ", spread over bound/3"
            ok = ok and good
            print("%-18s %-18s %12.6g %12.6g %7.3f %7.3f %6.2f  %s%s" %
                  (workload, name, qa[1], qb[1], spr_a, spr_b, m["bound"],
                   "ok" if good else "NOT STEADY", " (" + why + ")"))
    return ok


def main():
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: {"A": [], "B": []} for w in names}
    for s in ("A", "B"):
        for w in names:
            for seed in range(1, RUNS + 1):
                runs[w][s].append(run_once(w, seed, bench["run_seconds"]))
                print("set %s %s seed %d done" % (s, w, seed),
                      file=sys.stderr)
    os.makedirs(os.path.dirname(SAVE), exist_ok=True)
    with open(SAVE, "w") as f:
        json.dump(runs, f)
    sys.exit(0 if analyse(runs, bench["end_to_end"]) else 1)


if __name__ == "__main__":
    main()
