#!/usr/bin/env python3
"""Run memfwd_bench at the baseline scale and diff what it wrote.

Usage:
    bench_gate.py MEMFWD_BENCH OUT_DIR [NAME...]

Runs `MEMFWD_BENCH [NAME...]` with MEMFWD_BENCH_SCALE=0.05 (the scale
bench/baseline/ was generated at) and MEMFWD_BENCH_OUT=OUT_DIR, then
diffs each BENCH_<name>.json it wrote against the committed baseline
file of that bench with `bench_diff.py --threshold 0 --require-metric
host.refs_per_sec`: any cycle or checksum change, a vanished case or a
case without the host gauge fails.  Exits nonzero when the runner or
any diff does.
"""

import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, os.pardir, "bench", "baseline")


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    bench, out, names = sys.argv[1], sys.argv[2], sys.argv[3:]
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = dict(os.environ, MEMFWD_BENCH_SCALE="0.05", MEMFWD_BENCH_OUT=out)
    rc = subprocess.call([bench] + names, env=env)
    if rc != 0:
        print(f"bench_gate: {bench} exited {rc}", file=sys.stderr)
        return 1

    written = sorted(glob.glob(os.path.join(out, "BENCH_*.json")))
    if not written:
        print(f"bench_gate: {bench} wrote no BENCH_*.json", file=sys.stderr)
        return 1
    failed = False
    for path in written:
        base = os.path.join(BASELINE, os.path.basename(path))
        rc = subprocess.call([
            sys.executable, os.path.join(HERE, "bench_diff.py"),
            "--threshold", "0", "--require-metric", "host.refs_per_sec",
            base, path])
        failed = failed or rc != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
