#!/usr/bin/env python3
"""Build and run the closed-loop socket-tier benchmark.

    python3 sockbench/run.py --workload handshake_full --seed 1 \
        --seconds 20 --trace 0
    python3 sockbench/run.py --self-test

Builds the repository's libraries and the benchmark with CMake into
.bench_build/sockbench (RelWithDebInfo), then runs it from the repository
root with the given arguments. The benchmark's last stdout line is its
JSON result; build output goes to stderr. Spans of --trace 1 runs are
written under .bench_build/sockbench/traces. See sockbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "sockbench")
BINARY = os.path.join(BUILD, "sockbench")
RUN_TIMEOUT_S = 170


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "sockbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
        except OSError as err:
            print(f"sockbench: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return True


def main():
    if not build():
        print("sockbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY] + sys.argv[1:] + [
        "--trace-dir", os.path.join(BUILD, "traces")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"sockbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
