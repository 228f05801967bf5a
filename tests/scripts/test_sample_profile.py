#!/usr/bin/env python3
"""End-to-end check of scripts/sample_profile.py.

Usage: test_sample_profile.py PATH/TO/sample_profile.py COMMAND...

Profiles COMMAND (a run of a few seconds) and passes when the profiler
exits 0, reports more than zero samples, and lists a self-share table.
"""

import re
import subprocess
import sys


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    proc = subprocess.run(
        [sys.executable, sys.argv[1], "--top", "5", "--"] + sys.argv[2:],
        stdout=subprocess.PIPE, text=True)
    print(proc.stdout)
    if proc.returncode != 0:
        print(f"FAIL: exit code {proc.returncode}")
        return 1
    m = re.search(r"^samples: (\d+)$", proc.stdout, re.M)
    if not m or int(m.group(1)) == 0:
        print("FAIL: no samples")
        return 1
    if "self share" not in proc.stdout:
        print("FAIL: no self-share table")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
