#!/usr/bin/env python3
"""Same-host A/B comparison of two memfwd revisions on the benchmark.

Usage:
    perf_ab.py REV_A REV_B [--workload W] [--pairs N] [--seconds S]
               [--trace 0|1] [--seed BASE] [--workdir DIR]

Each REV is a git revision of this repository, exported with
`git archive` into DIR/<name>/src, or an existing source directory,
used as it is (e.g. `.` for the working tree).  Each is built through
its own perfbench CMake project (Release) into DIR/<name>/build, so
the two binaries share nothing but the host.

Pair i runs both binaries with seed BASE+i, in the order A, B on even
pairs and B, A on odd ones, so host drift during a run does not favour
either side.  Each run is `perfbench --workload W --seed BASE+i
--seconds S --trace T`, from the root of its own source tree.

For every metric the runs report, the script prints the medians of A
and of B, the median over pairs of the ratio B/A, the number of pairs
in which B read lower than A, and the distance between the quartiles
of A's runs (A's own spread).  It exits 1 if
any run is incorrect (`correct: false`), has `failed > 0`, or prints
no result; 2 on a usage or build error; 0 otherwise.  It gates nothing
on the ratios themselves.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_tree(rev, name, workdir):
    """Source directory for @p rev: a directory as is, or a git export."""
    if os.path.isdir(rev):
        return os.path.abspath(rev)
    sha = subprocess.run(["git", "-C", REPO, "rev-parse", "--verify",
                          rev + "^{commit}"],
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    src = os.path.join(workdir, name, "src")
    stamp = os.path.join(src, ".perf_ab_rev")
    if os.path.exists(stamp) and open(stamp).read() == sha:
        return src
    subprocess.run(["rm", "-rf", src], check=True)
    os.makedirs(src)
    archive = subprocess.run(["git", "-C", REPO, "archive", sha],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", src], input=archive, check=True)
    with open(stamp, "w") as f:
        f.write(sha)
    return src


def build(src, build_dir):
    """Build perfbench from @p src into @p build_dir; its path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={os.path.join(src, 'perfbench')}"
    if os.path.exists(cache) and home not in open(cache).read().split("\n"):
        subprocess.run(["rm", "-rf", build_dir], check=True)
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", os.path.join(src, "perfbench"),
                        "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_once(binary, src, build_dir, args, seed):
    """One perfbench run; the last stdout line (its JSON result)."""
    cmd = [binary, "--spans-dir", build_dir, "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    out = subprocess.run(cmd, cwd=src, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
    return lines[-1] if lines else ""


def parse(line):
    """A result line as a dict, or None if it is not one."""
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) and "metrics" in doc else None


def summarize(pairs, out=sys.stdout):
    """
    Print the comparison of @p pairs, a list of (A line, B line), and
    return the exit code: 1 if any run is missing, incorrect or has a
    failed operation, else 0.
    """
    bad = 0
    a_vals, b_vals, ratios = {}, {}, {}
    units = {}
    for i, (a_line, b_line) in enumerate(pairs):
        docs = []
        for side, line in (("A", a_line), ("B", b_line)):
            doc = parse(line)
            if doc is None:
                print(f"pair {i}: {side} printed no result", file=out)
            elif doc.get("correct") is not True or doc.get("failed", 1) != 0:
                print(f"pair {i}: {side} correct={doc.get('correct')} "
                      f"failed={doc.get('failed')}", file=out)
                doc = None
            bad += doc is None
            docs.append(doc)
        if None in docs:
            continue
        a, b = (d["metrics"] for d in docs)
        for name in a:
            if name not in b:
                continue
            va, vb = a[name]["value"], b[name]["value"]
            units[name] = a[name].get("unit", "")
            a_vals.setdefault(name, []).append(va)
            b_vals.setdefault(name, []).append(vb)
            if va != 0:
                ratios.setdefault(name, []).append(vb / va)

    print(f"{'metric':<32} {'A median':>12} {'B median':>12} "
          f"{'B/A':>8} {'B<A':>5} {'A IQR':>10}  unit", file=out)
    for name, a in a_vals.items():
        b = b_vals[name]
        ratio = (f"{statistics.median(ratios[name]):8.4f}"
                 if name in ratios else f"{'-':>8}")
        lower = sum(vb < va for va, vb in zip(a, b))
        q = statistics.quantiles(a, n=4) if len(a) > 1 else [0, 0, 0]
        print(f"{name:<32} {statistics.median(a):12.6g} "
              f"{statistics.median(b):12.6g} {ratio} {lower:5d} "
              f"{q[2] - q[0]:10.4g}  {units[name]}", file=out)
    print(f"perf_ab: {len(pairs)} pairs, {bad} bad runs", file=out)
    return 1 if bad or not pairs else 0


def main():
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("rev_a")
    p.add_argument("rev_b")
    p.add_argument("--workload", default="kv_churn")
    p.add_argument("--pairs", type=int, default=8)
    p.add_argument("--seconds", type=float, default=4.0)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--seed", type=int, default=100,
                   help="seed of pair 0; pair i uses seed+i")
    p.add_argument("--workdir",
                   default=os.path.join(tempfile.gettempdir(),
                                        "memfwd_perf_ab"))
    args = p.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs and --seconds must be positive")

    sides = []
    try:
        for name, rev in (("a", args.rev_a), ("b", args.rev_b)):
            src = source_tree(rev, name, args.workdir)
            build_dir = os.path.join(args.workdir, name, "build")
            sides.append((build(src, build_dir), src, build_dir))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perf_ab: cannot prepare a revision: {e}", file=sys.stderr)
        return 2

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        lines = [None, None]
        for s in order:
            lines[s] = run_once(*sides[s], args, seed)
        print(f"perf_ab: pair {i + 1}/{args.pairs} (seed {seed}) done",
              file=sys.stderr)
        pairs.append(tuple(lines))
    return summarize(pairs)


if __name__ == "__main__":
    sys.exit(main())
