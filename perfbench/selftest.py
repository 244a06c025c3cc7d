#!/usr/bin/env python3
"""Self-test of the benchmark; runs in seconds.

Usage (from the repository root):

    python3 perfbench/selftest.py

1. Every workload runs at a small input size, untraced and traced, and
   passes every output check; the traced run reports every per_layer
   metric of BENCHMARK.json and writes a Chrome trace that parses.
2. For every check of every workload, a deliberate fault is injected into
   that check's host-side expectation (--inject CHECK); the run must then
   report correct=false with failed operations, and name that check. This
   proves no check is dead.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py must
   exit with a nonzero code and print no result.

Exits 1 on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def run(workload, trace=0, inject=""):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
           "--small"]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, cwd=ROOT)
    if p.returncode:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(cmd), p.returncode,
                                          p.stderr))
    return json.loads(p.stdout.rstrip("\n").split("\n")[-1]), p.stderr


def expect(cond, msg):
    if not cond:
        sys.exit("FAIL " + msg)
    print("ok   " + msg)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}

    for w in (x["name"] for x in bench["workloads"]):
        res, _ = run(w)
        expect(res["correct"] and res["failed"] == 0 and
               res["attempted"] > 0 and set(res["metrics"]) == e2e,
               "%s small run passes, end-to-end metrics complete" % w)
        res, _ = run(w, trace=1)
        chrome = os.path.join(BUILD, "trace_%s.json" % w)
        with open(chrome) as f:
            events = json.load(f)["traceEvents"]
        expect(res["correct"] and set(res["metrics"]) == layer and
               any(e["ph"] == "X" for e in events),
               "%s traced run: per-layer metrics complete, trace parses" % w)

        checks = subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--list-checks", w],
            stdout=subprocess.PIPE, text=True, check=True).stdout.split()
        expect(len(checks) > 0, "%s lists its checks" % w)
        for c in checks:
            res, err = run(w, inject=c)
            expect(not res["correct"] and res["failed"] > 0 and
                   ("check %s failed" % c) in err,
                   "%s check %s fails on a falsified expectation" % (w, c))

    bare = os.path.join(BUILD, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "list_abort_storm", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, cwd=bare,
                       timeout=180)
    shutil.rmtree(bare)
    expect(p.returncode != 0 and p.stdout == "",
           "without the simulator sources run.py fails and prints nothing")
    print("selftest passed")


if __name__ == "__main__":
    main()
