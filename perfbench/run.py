#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload sweep|stream --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first form builds the benchmark
executable with dune, runs one workload in its own process and relays
its output; the last line is the JSON result. --self-test runs every
workload at a tiny size, untraced and traced, and checks that each
metric named in BENCHMARK.json is emitted and that every gate passes.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        sys.exit("perfbench: run from the root of a full checkout")
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"])
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def run(args, capture=False):
    cmd = [EXE, *args]
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    return subprocess.run(cmd, timeout=170)


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            r = run(["--workload", w, "--seed", "1", "--seconds", "1",
                     "--trace", trace, "--tiny"], capture=True)
            res = json.loads(r.stdout.strip().splitlines()[-1])
            got = set(res["metrics"])
            problems = []
            if r.returncode != 0 or not res["correct"] or res["failed"]:
                problems.append("gate failed")
            if got != names[trace]:
                problems.append("missing %s, extra %s"
                                % (sorted(names[trace] - got), sorted(got - names[trace])))
            print("self-test %-6s trace %s: %s"
                  % (w, trace, "; ".join(problems) or "ok"), flush=True)
            ok = ok and not problems
    return ok


def main():
    argv = sys.argv[1:]
    build()
    if argv == ["--self-test"]:
        sys.exit(0 if self_test() else 1)
    sys.exit(run(argv).returncode)


if __name__ == "__main__":
    main()
