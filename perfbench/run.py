#!/usr/bin/env python3
"""Build and run the bbsim end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|toy]

Configures perfbench/ as its own CMake project in .bench_build/ (Release),
builds the bbsim_perfbench binary from the sources under src/, then runs it.
Build output goes to stderr; the binary's stdout passes through unchanged,
so the last line of stdout is the result object. Exits non-zero when the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bbsim_perfbench")
REFERENCES = os.path.join(BENCH_DIR, "references.json")
# Build and sweep parallelism: at most four, so the benchmark stays small
# on a shared machine.
WORKERS = max(1, min(4, os.cpu_count() or 1))


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(WORKERS),
                    "--target", "bbsim_perfbench"],
                   check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--size", choices=["full", "toy"], default="full")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", args.trace, "--size", args.size,
                           "--workers", str(WORKERS),
                           "--references", REFERENCES]).returncode


if __name__ == "__main__":
    sys.exit(main())
