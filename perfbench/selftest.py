#!/usr/bin/env python3
"""Short self-test of the benchmark.

Runs every workload for one second with --trace 0 and --trace 1 and
checks that each run exits 0, reports correct output with no failed
operation, and emits exactly the metrics BENCHMARK.json declares,
each with its declared unit.

    python3 perfbench/selftest.py        # from the repository root
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, "exit code %d" % proc.returncode
    return json.loads(lines[-1]), None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            result, err = run(wl["name"], trace)
            where = "%s --trace %d" % (wl["name"], trace)
            if err:
                problems.append("%s: %s" % (where, err))
                continue
            if not result["correct"] or result["failed"]:
                problems.append("%s: correct=%s failed=%d" % (
                    where, result["correct"], result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name in sorted(set(want) - set(got)):
                problems.append("%s: missing %s" % (where, name))
            for name in sorted(set(got) - set(want)):
                problems.append("%s: undeclared %s" % (where, name))
            for name in sorted(set(want) & set(got)):
                if want[name] != got[name]:
                    problems.append("%s: %s unit %s, declared %s" % (
                        where, name, got[name], want[name]))
            print("%-32s %3d metrics" % (where, len(got)))
    for p in problems:
        print("FAIL", p)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
