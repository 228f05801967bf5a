#!/usr/bin/env python3
"""Build the memfwd benchmark program from source and run it.

Usage, from the root of a memfwd checkout:

    python3 perfbench/run.py --workload paper_timed --seed 1 --seconds 20 --trace 0

Every argument is passed on to the program (see perfbench/README.md).  The
program is built with CMake under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr, so the last line of
stdout is the program's JSON result.  The exit code is the program's, or 1
if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--spans-dir", build_dir]
    cmd += sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
