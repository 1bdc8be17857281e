#!/usr/bin/env python3
"""Benchmark entry point.

Builds the driver (perfbench/CMakeLists.txt: the simulator libraries
from src/ plus perfbench/*.cpp) into .bench_build/perfbench, then runs
one workload and forwards the driver's output; its last stdout line is
the JSON result.

    python3 perfbench/run.py --workload <coll_sweep|serve_steady|
        serve_disagg_fault> --seed <n> --seconds <s> --trace <0|1>

The build directory follows $CARGO_TARGET_DIR when it is set.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("coll_sweep", "serve_steady", "serve_disagg_fault")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the driver; build logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("MSCCLPP_"))
    if knobs:
        print("perfbench: unset %s first" % ", ".join(knobs), file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans.%s.%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
