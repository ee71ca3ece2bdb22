#!/usr/bin/env python3
"""Builds and runs the OD pipeline benchmark.

    python3 perfbench/run.py --workload train|serve|replay|all \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
`odbench` (the library sources in src/ plus the benchmark in perfbench/)
into .bench_build (or $CARGO_TARGET_DIR), at the program's defaults:
Release, -march=native, no ODF_* variables. Each workload runs in its own
process; its last line of output is the result JSON. `all` runs the three
workloads one after another and exits non-zero if any check failed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "serve", "replay")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir, target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: library sources (src/) not found next to perfbench/")
        return None
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"run.py: {' '.join(cmd)}: {err}")
            return None
        if done.returncode != 0:
            log(f"run.py: {' '.join(cmd)} failed ({done.returncode})")
            return None
    exe = os.path.join(build_dir, target)
    return exe if os.access(exe, os.X_OK) else None


def run_workload(exe, workload, args):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out"]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S}s and was stopped")
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = "odbench_stats_test" if args.self_test else "odbench"
    exe = build(os.path.abspath(build_dir), target)
    if exe is None:
        return 2
    if args.self_test:
        return subprocess.run([exe], timeout=RUN_TIMEOUT_S).returncode

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run_workload(exe, w, args) for w in workloads]
    if len(workloads) > 1:
        for w, code in zip(workloads, codes):
            log(f"{w}: {'ok' if code == 0 else f'FAILED ({code})'}")
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
