#!/usr/bin/env python3
"""A traced run is never served from memfwd_bench's run memo.

Usage: test_bench_trace.py PATH/TO/memfwd_bench OUT_DIR

table1_applications records smv/32B/L, the same configuration as
fig10_smv_forwarding's L run.  Run in that order with
MEMFWD_TRACE_OUT set, fig10 must still simulate its L run under the
trace sink: the chrome trace holds events, and fig10's L case is not
marked `reused_from`.
"""

import json
import os
import shutil
import subprocess
import sys


def main():
    bench, out = sys.argv[1], sys.argv[2]
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    trace = os.path.join(out, "trace.json")
    env = dict(os.environ, MEMFWD_BENCH_SCALE="0.05",
               MEMFWD_BENCH_OUT=out, MEMFWD_TRACE_OUT=trace)
    subprocess.check_call(
        [bench, "table1_applications", "fig10_smv_forwarding"], env=env,
        stdout=subprocess.DEVNULL)

    with open(trace, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    slices = [e for e in events if e.get("ph") == "X"]
    if not slices:
        sys.exit("chrome trace holds no events: the traced L run was "
                 "served from the memo")

    with open(os.path.join(out, "BENCH_fig10_smv_forwarding.json"),
              encoding="utf-8") as f:
        cases = {c["label"]: c for c in json.load(f)["cases"]}
    if "reused_from" in cases["L"]:
        sys.exit(f"fig10 L reused {cases['L']['reused_from']}")
    print(f"ok: {len(slices)} trace events, fig10 L simulated fresh")


if __name__ == "__main__":
    main()
