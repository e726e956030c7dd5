#!/usr/bin/env python3
"""Builds the layer-ladder benchmark from this checkout and runs it.

    python3 ladderbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale full|tiny]

Run from the repository root.  The benchmark is compiled (Release) against
the library sources in src/ into $CARGO_TARGET_DIR/ladderbench, or
.bench_build/ladderbench when that variable is unset; later runs only
rebuild what changed.  Build output goes to stderr, so the benchmark's
stdout -- ending in one JSON line -- passes through untouched.  Exits
non-zero, without a result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run does a fixed amount of work; this only stops a hung one.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "ladder", "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "ladder")


def main():
    if not os.path.isdir(os.path.join(HERE, os.pardir, "src")):
        print("ladderbench: the library sources (src/) are missing",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "ladderbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"ladderbench: build failed: {e}", file=sys.stderr)
        return 2
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"ladderbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
