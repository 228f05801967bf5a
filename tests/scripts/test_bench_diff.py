#!/usr/bin/env python3
"""Exit-code contract of scripts/bench_diff.py on tiny fixture results.

Usage: test_bench_diff.py PATH/TO/bench_diff.py

Each case writes a baseline and a candidate BENCH_*.json directory and
checks the gate's verdict: identical results pass, while a cycle
regression, a changed checksum or a vanished case each exit 1.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

BENCH_DIFF = None

BASELINE = {
    "schema": "memfwd.bench",
    "version": 1,
    "bench": "fixture",
    "cases": [
        {"label": "mst/L", "cycles": 1000, "checksum": 42},
        {"label": "health/L", "cycles": 2000, "checksum": 7},
        # Wall-time-only: cycles are skipped, the checksum still gates.
        {"label": "host/ns", "cycles": 0, "checksum": 9},
    ],
}


def write_side(root, name, doc):
    path = os.path.join(root, name)
    os.makedirs(path)
    with open(os.path.join(path, "BENCH_fixture.json"), "w",
              encoding="utf-8") as f:
        json.dump(doc, f)
    return path


class BenchDiffGate(unittest.TestCase):
    def verdict(self, mutate, threshold="0"):
        """Exit code of the gate on BASELINE vs mutate(copy)."""
        new = copy.deepcopy(BASELINE)
        mutate(new["cases"])
        with tempfile.TemporaryDirectory() as root:
            old_dir = write_side(root, "old", BASELINE)
            new_dir = write_side(root, "new", new)
            run = subprocess.run(
                [sys.executable, BENCH_DIFF, "--threshold", threshold,
                 old_dir, new_dir],
                capture_output=True, text=True)
        return run.returncode

    def test_identical_passes(self):
        self.assertEqual(self.verdict(lambda cases: None), 0)

    def test_cycle_regression_fails(self):
        def slower(cases):
            cases[0]["cycles"] += 1
        self.assertEqual(self.verdict(slower), 1)
        # Within a looser threshold the same drift passes.
        self.assertEqual(self.verdict(slower, threshold="10"), 0)

    def test_checksum_change_fails(self):
        def changed(cases):
            cases[1]["checksum"] += 1
        self.assertEqual(self.verdict(changed), 1)

    def test_wall_time_only_checksum_change_fails(self):
        def changed(cases):
            cases[2]["checksum"] += 1
        self.assertEqual(self.verdict(changed), 1)

    def test_vanished_case_fails(self):
        self.assertEqual(self.verdict(lambda cases: cases.pop(1)), 1)

    def test_new_case_passes(self):
        def added(cases):
            cases.append({"label": "bh/L", "cycles": 5, "checksum": 1})
        self.assertEqual(self.verdict(added), 0)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    BENCH_DIFF = sys.argv.pop(1)
    unittest.main()
