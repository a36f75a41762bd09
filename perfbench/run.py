#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <cold16|sm_sweep|serve_mix|fuzz> \
        --seed <n> [--seconds <n>] [--trace <0|1>]

Builds perfbench/main.exe with dune from the sources of the checkout this
script sits in, then runs it with the given arguments from the checkout's
root.  Build output goes to stderr; the benchmark's own output (metrics,
envelope and, last, the JSON result line) to stdout.  The exit code is the
benchmark's, or the build's when the build fails.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    # no shared dune cache: everything the build writes stays in _build
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
