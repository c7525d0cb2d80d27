#!/usr/bin/env python3
"""Builds and runs qfcard's benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a qfcard checkout. The first run configures and builds
the library and the benchmark (Release) into .bench_build/perfbench; later
runs only rebuild what changed. Every run first passes the benchmark's
statistics self-tests, then runs one workload; the workload prints its
metrics and, as the last line of standard output, one JSON object. Build
output and run diagnostics go to standard error. Run records and trace
files are written to .bench_build/runs.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
WORKLOADS = ("serve_open_routes", "adaptive_rw", "offline_eval")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", jobs, "--target",
                    "qfcard_perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")

    # The benchmark builds the library from the checkout it sits in.
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail("no qfcard sources next to perfbench/ (expected ../CMakeLists.txt "
             "and ../src); run from a full checkout")
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        fail("build failed: %s" % err)

    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        fail("statistics self-test failed")

    os.makedirs(RUNS, exist_ok=True)
    cmd = [os.path.join(BUILD, "qfcard_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", RUNS]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
