#!/usr/bin/env python3
"""Builds the TC-Tree server benchmark (Release) and runs one workload.

Usage, from the root of a checkout:

    python3 tcbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0
    python3 tcbench/run.py --selfcheck

The build lives in .bench_build/tcbench; the first call configures and
compiles the library from src/ (a few minutes), later calls only let
ninja confirm it is up to date. All build output goes to stderr, so the
last line of stdout is the benchmark's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tcbench")


def build():
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "tc_bench", "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"tcbench: build failed: {e}", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "tc_bench")
    # The binary writes its trace spans and index files under BUILD.
    proc = subprocess.run([binary, "--workdir", BUILD] + sys.argv[1:],
                          cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
