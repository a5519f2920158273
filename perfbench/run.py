#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload view-selective --seed 1 --seconds 30 --trace 0

All arguments are passed to perfbench/main.exe (see README.md). The build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is the build's when the build
fails, and the benchmark's otherwise.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
