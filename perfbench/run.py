#!/usr/bin/env python3
"""Builds and runs the NetClus serving benchmark (see perfbench/README.md).

Run from the root of a NetClus checkout:

    python3 perfbench/run.py --workload distinct_tau --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (which builds the library
from the checkout's sources) into .bench_build/perfbench; later runs only
rebuild what changed. Every run first executes the helper self-tests, then
one serve_bench process for the workload, so caches and peak RSS never
carry over between workloads. The last line of standard output is the
result JSON; the exit code is nonzero when any answer failed verification,
the run was invalid, or the program could not be built.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("distinct_tau", "zipf_hot", "update_mix")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures on first use, then builds the two benchmark targets."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "serve_bench",
         "helpers_selftest"],
        check=True, stdout=sys.stderr)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no NetClus sources next to perfbench/ (CMakeLists.txt and src/ "
            "are missing); nothing to measure")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 2

    selftest = subprocess.run([os.path.join(BUILD, "helpers_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        log("helper self-tests failed")
        return 1

    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [os.path.join(BUILD, "serve_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--commit", git_commit()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("serve_bench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("serve_bench exited %d without a result line" % run.returncode)
        return run.returncode or 1
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
