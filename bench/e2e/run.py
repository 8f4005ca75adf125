#!/usr/bin/env python3
"""Builds rdfc_bench from source and runs one workload.

    python3 bench/e2e/run.py --workload lookup --seed 1 --seconds 10 --trace 0

Run from the repository root.  The build goes to $CARGO_TARGET_DIR/e2e
(default .bench_build/e2e), the run's files to .bench_out/.  Build output
goes to stderr; the benchmark's stdout passes through, so its last line is
the result object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    if shutil.which("ninja") and not configured:
        configure += ["-G", "Ninja"]
    compile_ = ["cmake", "--build", build_dir, "--target", "rdfc_bench",
                "-j", str(os.cpu_count() or 1)]
    for command in (configure, compile_):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2e")
    if not build(build_dir):
        print("build failed", file=sys.stderr)
        return 2
    command = [os.path.join(build_dir, "rdfc_bench"),
               "--workload=" + args.workload,
               "--seed=" + str(args.seed),
               "--seconds=" + repr(args.seconds),
               "--out=.bench_out"]
    if args.trace:
        command.append("--trace")
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
