#!/usr/bin/env python3
"""Builds and runs the end-to-end Data Triage benchmark.

Usage (from the repository root):

    python3 triagebench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [extra triagebench flags]

The benchmark binary is built from source on first use into
$CARGO_TARGET_DIR/triagebench (default .bench_build/triagebench, relative
to the repository root). Build output goes to stderr; the benchmark's
stdout, whose last line is the JSON result, is passed through unchanged.
Traces go to .bench_out/. The exit code is the benchmark's, or non-zero
when the build fails or the run exceeds its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "triagebench")


def build(directory):
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", directory, "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            print(f"triagebench: cannot run {step[0]}: {error}",
                  file=sys.stderr)
            return False
        if result.returncode != 0:
            print(f"triagebench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def main():
    directory = build_dir()
    if not build(directory):
        return 1
    binary = os.path.join(directory, "triagebench")
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"triagebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
