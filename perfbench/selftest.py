#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py [--scale 0.002] [--seconds 1]

For every workload in BENCHMARK.json it runs the benchmark untraced once and
traced twice with one seed, then asserts that:
  - the last stdout line has exactly the keys correct/attempted/failed/
    metrics, with correct outputs and no failed op;
  - the untraced run emits exactly the end-to-end metrics and the traced
    runs exactly the per-layer metrics, each with its BENCHMARK.json unit;
  - every end-to-end metric is positive;
  - every count metric of exec.* and sensitivity.cache_* repeats exactly
    across the two traced runs (serve-mixed is exempt: its free-running
    writer makes the op mix timing-dependent);
  - the traced run wrote a span tree with self times.
Exits non-zero on the first failed assertion.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, trace, scale, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    assert proc.returncode == 0, "%s trace=%d exited %d" % (workload, trace, proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] is True and result["failed"] == 0, (workload, result["failed"])
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_names(workload, metrics, expected):
    units = {m["name"]: m["unit"] for m in expected}
    assert sorted(metrics) == sorted(units), (
        workload, sorted(set(metrics) ^ set(units)))
    for name, m in metrics.items():
        assert m["unit"] == units[name], (workload, name, m["unit"], units[name])
        assert isinstance(m["value"], (int, float)), (workload, name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.002)
    parser.add_argument("--seconds", type=float, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for workload in (w["name"] for w in bench["workloads"]):
        plain = run(workload, 0, args.scale, args.seconds)
        check_names(workload, plain["metrics"], bench["end_to_end"])
        for name, m in plain["metrics"].items():
            assert m["value"] > 0, (workload, name, m["value"])

        traced = [run(workload, 1, args.scale, args.seconds) for _ in range(2)]
        for t in traced:
            check_names(workload, t["metrics"], bench["per_layer"])
        repeated = 0
        if workload != "serve-mixed":
            for name, m in traced[0]["metrics"].items():
                if m["unit"] != "count" or not name.startswith(
                        ("exec.", "sensitivity.cache_")):
                    continue
                other = traced[1]["metrics"][name]["value"]
                assert m["value"] == other, (workload, name, m["value"], other)
                repeated += 1

        path = os.path.join(ROOT, ".bench_out", "spans-%s-%d.json" % (workload, SEED))
        with open(path) as f:
            spans = json.load(f)
        assert spans["spans"] and all("self_ns" in s for s in spans["spans"]), path
        assert any(s["name"] == "op" for s in spans["spans"]), path
        print("ok  %-14s %d end-to-end, %d per-layer metrics; %d counts repeat exactly"
              % (workload, len(plain["metrics"]), len(traced[0]["metrics"]), repeated))
    return 0


if __name__ == "__main__":
    sys.exit(main())
