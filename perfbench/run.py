#!/usr/bin/env python3
"""Builds and runs the lsens benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale <sf>]

Run from the repository root. The first run configures and builds the
lsens library and the driver (Release) under $CARGO_TARGET_DIR, default
.bench_build; later runs rebuild only what changed. Build output goes to
stderr, so the driver's last stdout line - one JSON object - stays the last
line. Traced runs write their span tree under .bench_out/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpch-acyclic", "tpch-cyclic", "update-stream", "serve-mixed")


def build():
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(build_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j4"],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "lsens_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=0.0,
                        help="TPC-H scale factor override (tiny runs)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: lsens sources not found at %s/src; run from a checkout "
              "of the repository" % ROOT, file=sys.stderr)
        return 2
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print("error: build failed: %s" % err, file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.scale > 0:
        cmd += ["--scale", repr(args.scale)]
    # Four pool workers: at most four threads are busy at once.
    env = dict(os.environ, LSENS_POOL_WORKERS="4")
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
