#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload live_fanout --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --self-test

`--workload all` runs every workload in turn; each prints its own
table and result line.

The engine library (src/) and the benchmark are compiled with CMake
into $CARGO_TARGET_DIR (default .bench_build) under the current
directory; spans and the durable workload's journal and store live in
its out/ subdirectory. The benchmark's last stdout line is one JSON
object with the run's verdict and metrics; nothing is printed after it.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("live_fanout", "ndvi_products", "durable_catchup")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds; build chatter goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "-j", "4"]
    return subprocess.call(compile_cmd, stdout=sys.stderr) == 0


def run(cmd):
    """Runs `cmd` with stdout passed through; kills it past the time limit."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the verifier's own tests")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    # Write a fresh build out to disk now rather than during the run:
    # its writeback otherwise lands in the first measured runs.
    os.sync()
    if args.self_test:
        return run([os.path.join(build_dir, "verify_test")])
    binary = os.path.join(build_dir, "e2ebench")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        cmd = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(build_dir, "out")]
        sys.stdout.flush()
        code = run(cmd)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
