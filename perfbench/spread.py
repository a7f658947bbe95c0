#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,...] [--seconds S]

Runs each workload once per seed (untraced), then prints for every
end-to-end metric its median over the runs and its spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. A spread above a third of the metric's bound is flagged.
Exits non-zero when a run fails, reports incorrect outputs, or a spread
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--raw", action="store_true", help="also print each run's value")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"] != 0:
                print("%s seed %d: incorrect (%d of %d failed)"
                      % (workload, seed, result["failed"], result["attempted"]))
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for metric in bench["end_to_end"]:
            v = values[metric["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = ""
            if spread > metric["bound"]:
                flag = "  OVER BOUND"
                ok = False
            elif spread > metric["bound"] / 3:
                flag = "  over a third of the bound"
            print("%-14s %-12s median=%-14.6g spread=%.4f bound=%.2f%s"
                  % (workload, metric["name"], med, spread, metric["bound"], flag))
            if args.raw:
                print("    " + " ".join("%.6g" % x for x in v))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
