#!/usr/bin/env python3
"""Summary step of scripts/perf_ab.py on canned perfbench result lines.

Usage: test_perf_ab.py PATH/TO/perf_ab.py

No build and no perfbench run: each case hands summarize() pairs of
result lines and checks the printed paired ratios and the exit code.
"""

import importlib.util
import io
import json
import sys
import unittest

PERF_AB = None


def line(wall, cycles=1000, correct=True, failed=0):
    return json.dumps({
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "sim_cycles": {"value": cycles, "unit": "cycles"},
        }})


def load():
    spec = importlib.util.spec_from_file_location("perf_ab", PERF_AB)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class PerfAbSummary(unittest.TestCase):
    def summarize(self, pairs):
        out = io.StringIO()
        code = load().summarize(pairs, out)
        rows = {}
        for row in out.getvalue().splitlines():
            cols = row.split()
            if len(cols) >= 6 and cols[0] in ("wall_s", "sim_cycles"):
                rows[cols[0]] = cols[1:6]
        return code, rows, out.getvalue()

    def test_median_of_paired_ratios(self):
        # Pair ratios 0.5, 0.9 and 0.1: their median is 0.5, while the
        # ratio of the medians would be 9 / 10.
        pairs = [(line(1.0), line(0.5)), (line(10.0), line(9.0)),
                 (line(100.0), line(10.0))]
        code, rows, _ = self.summarize(pairs)
        self.assertEqual(code, 0)
        a_med, b_med, ratio, lower, a_iqr = rows["wall_s"]
        self.assertAlmostEqual(float(a_med), 10.0)
        self.assertAlmostEqual(float(b_med), 9.0)
        self.assertAlmostEqual(float(ratio), 0.5)
        self.assertEqual(int(lower), 3)
        # Exclusive quartiles of 1, 10, 100: 1 and 100.
        self.assertAlmostEqual(float(a_iqr), 99.0)
        self.assertAlmostEqual(float(rows["sim_cycles"][2]), 1.0)
        self.assertEqual(int(rows["sim_cycles"][3]), 0)

    def test_incorrect_run_fails(self):
        pairs = [(line(1.0), line(1.0)),
                 (line(1.0), line(1.0, correct=False))]
        code, _, text = self.summarize(pairs)
        self.assertEqual(code, 1)
        self.assertIn("pair 1: B correct=False", text)

    def test_failed_operation_fails(self):
        code, _, _ = self.summarize([(line(1.0, failed=2), line(1.0))])
        self.assertEqual(code, 1)

    def test_missing_result_fails(self):
        code, _, text = self.summarize([(line(1.0), "build failed")])
        self.assertEqual(code, 1)
        self.assertIn("B printed no result", text)

    def test_no_pairs_fails(self):
        code, _, _ = self.summarize([])
        self.assertEqual(code, 1)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    PERF_AB = sys.argv.pop(1)
    unittest.main()
