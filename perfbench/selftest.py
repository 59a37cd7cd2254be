#!/usr/bin/env python3
"""Quick self-test of the reference benchmark, at tiny budgets.

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py --quick twice untraced and
once traced, and checks that:
  - each run reports correct, with failed == 0;
  - the untraced runs print exactly BENCHMARK.json's end_to_end metrics
    and the traced run exactly its per_layer metrics, with their units;
  - the two untraced runs print the same output digest;
  - nothing in the repository tree changed except the build directory
    (scratch files go to .bench_work/, which must be gone afterwards).
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3


def tree_state(build_root):
    """(path, size, mtime) of every file outside the build directory."""
    state = set()
    skip = {".git", build_root}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = os.path.relpath(dirpath, ROOT)
        if rel == ".":
            dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            path = os.path.join(dirpath, name)
            info = os.lstat(path)
            state.add((os.path.relpath(path, ROOT), info.st_size,
                       info.st_mtime_ns))
    return state


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"FAIL {workload} trace={trace}: exit "
                         f"{proc.returncode}")
    digest = [line for line in lines if line.startswith("digest ")]
    return json.loads(lines[-1]), digest


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Build once up front so the tree snapshot sees a finished build.
    run(spec["workloads"][0]["name"], 0)
    before = tree_state(build_root)

    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = []
        for trace in (0, 0, 1):
            result, digest = run(workload, trace)
            label = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{label}: not correct")
            if result["attempted"] < 1:
                failures.append(f"{label}: attempted < 1")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{label}: metrics/units differ from "
                                f"BENCHMARK.json")
            if trace == 0:
                digests.append(digest)
        if len(digests[0]) != 1 or digests[0] != digests[1]:
            failures.append(f"{workload}: digests differ {digests}")
        print(f"{workload}: checked, digest {digests[0]}")

    if tree_state(build_root) != before:
        failures.append("the repository tree changed outside "
                        f"{build_root}/")
    if os.path.exists(os.path.join(ROOT, ".bench_work")):
        failures.append(".bench_work/ was left behind")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
