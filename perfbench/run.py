#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve|session --seed N \
        --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the current
directory) and so do the run's journals and span files. Cargo's output
goes to stderr; the benchmark's own output, whose last line is the result
JSON, goes to stdout. A failed build exits non-zero with no result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    return subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
