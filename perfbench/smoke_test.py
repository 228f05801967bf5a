#!/usr/bin/env python3
"""Smoke test for the memfwd benchmark.

Runs every workload named in BENCHMARK.json at a tiny scale (--smoke),
untraced and traced, and checks that each run

  * exits 0 and prints a JSON result as its last stdout line,
  * reports correct: true with attempted >= 1 and failed == 0,
  * emits every metric BENCHMARK.json names for that mode (end_to_end
    untraced, per_layer traced) with the unit named there,
  * emits no metric BENCHMARK.json does not name.

Usage, from the root of a memfwd checkout:

    python3 perfbench/smoke_test.py

Exit code 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return [f"{where}: no output"]
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or result.get("attempted", 0) < 1:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"attempted={result.get('attempted')} "
                      f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    for name in sorted(set(expected) - set(metrics)):
        errors.append(f"{where}: metric {name} missing")
    for name in sorted(set(metrics) - set(expected)):
        errors.append(f"{where}: metric {name} not named in BENCHMARK.json")
    for name in sorted(set(expected) & set(metrics)):
        m = metrics[name]
        if m.get("unit") != expected[name]:
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, "
                          f"BENCHMARK.json says {expected[name]!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for w in spec["workloads"]:
        for trace, expected in modes.items():
            errors += check_run(w["name"], trace, expected)
    for e in errors:
        print("FAIL", e)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
