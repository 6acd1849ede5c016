#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload local|sharded_2pc|ha_hot \
        --seed N --seconds S --trace 0|1

The build goes to .bench_build/ with dune's shared cache off, so nothing is
written outside the checkout. Build output goes to stderr; stdout carries
only the benchmark's own report, whose last line is one JSON object. Exits
non-zero without a report if the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "rrqbench.exe")
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
         "perfbench/rrqbench.exe"],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([EXE] + sys.argv[1:], stdin=subprocess.DEVNULL,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
