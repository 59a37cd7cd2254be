#!/usr/bin/env python3
"""Reference benchmark for the dejavuzz library.

Builds perfbench/dvz_perfbench from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload in its own
process and prints the result as the last line of standard output:

    python3 perfbench/run.py --workload fuzz-solo --seed 1 --seconds 30 --trace 0

Workloads: fuzz-solo, fleet-ckpt, triage-replay, or "all" (each in
turn, one process per workload). --trace 1 reports the per-layer
metrics instead of the end-to-end ones. --quick shrinks every budget
for the self-test (perfbench/selftest.py). Run from the repository
root; scratch files live under .bench_work/ and are removed on exit.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("fuzz-solo", "fleet-ckpt", "triage-replay")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root):
    """Configure and build the driver; returns its path."""
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    source_dir = os.path.relpath(BENCH_DIR, root)
    cmd = ["cmake", "-S", source_dir, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, cwd=root, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   cwd=root, check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "dvz_perfbench")


def check_result(line):
    """Parse and shape-check the driver's JSON result line."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} malformed")
    return result


def run_workload(binary, root, workload, seed, seconds, trace, quick):
    """Run one workload in a scratch directory; returns (result, text)."""
    # A run overshoots --seconds by at most a pass or two; 170 s for
    # the default 30 s keeps a hung driver inside a 180 s budget.
    deadline = time.monotonic() + 80 + 3 * seconds
    scratch_root = os.path.join(root, ".bench_work")
    os.makedirs(scratch_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch_root)
    extra = ["--quick"] if quick else []
    try:
        if workload == "triage-replay":
            subprocess.run([binary, "--gen-input", "--seed", str(seed),
                            "--work", work] + extra,
                           check=True, stdout=sys.stderr,
                           timeout=deadline - time.monotonic())
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--work", work] + extra,
            check=True, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run's scratch directory is still there
    lines = proc.stdout.strip().splitlines()
    return check_result(lines[-1]), lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny budgets (self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # driver and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            result, lines = run_workload(binary, root, workload, args.seed,
                                         args.seconds, args.trace,
                                         args.quick)
            results[workload] = result
            for line in lines[:-1]:
                print(line)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            ValueError, IndexError) as err:
        log(f"run failed: {err}")
        return 1

    if len(results) == 1:
        print(lines[-1])
        return 0
    merged = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": metric
                    for w, r in results.items()
                    for name, metric in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
