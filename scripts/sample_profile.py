#!/usr/bin/env python3
"""Sampling profile of any command, with inlined frames resolved.

Usage:
    sample_profile.py [--top N] [--match REGEX]... -- COMMAND...

Builds the SIGPROF sampler in sample_profile.c (next to this script)
into a shared object with the C compiler ($CC, default cc), runs
COMMAND with it in LD_PRELOAD, and resolves every sampled program
counter with `addr2line -i`.  It prints, per function:

  * self      - share of samples whose innermost (possibly inlined)
                frame is that function;
  * inclusive - share of samples whose inline chain contains it.  The
                chain is the PC's inline nesting only, not the call
                stack: a function that is called, not inlined, books
                its callees' time to them alone.

and the total sample count.  --match REGEX adds a line with the
inclusive share of samples whose chain has a function matching REGEX.
Every process COMMAND starts that exits normally is sampled; run the
binary itself, not a wrapper script that also builds it.

Build COMMAND with -g (RelWithDebInfo, or Release with
CMAKE_CXX_FLAGS=-g): without line tables addr2line still names the
outermost function from the symbol table but sees no inlined frames.

The sampler asks for a sample every 1 ms of process CPU time, but the
kernel delivers SIGPROF at most once per scheduler tick, which caps the
rate at CONFIG_HZ (often 250 Hz, i.e. one sample per 4 ms).
A share read from N samples is uncertain by about sqrt(N)/N, so run the
command for at least 10 s (>= 2,500 samples at 250 Hz) before reading
shares of a few percent.

Exit status: COMMAND's own, or 2 when the sampler cannot be built or
COMMAND does not exit normally.  It does not fail on zero samples;
check the printed count.

Why not gprof: it books each PC sample to the nearest preceding
symbol, so an inlined kernel lands on its caller or on a neighbouring
symbol (paper_timed's inlined step<timed> shows up as Machine::peek),
and it splits call-graph time by call counts, not by where the PC was.
"""

import argparse
import bisect
import collections
import os
import re
import shlex
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def build_sampler(workdir):
    """Compile sample_profile.c into workdir; the .so's path."""
    so = os.path.join(workdir, "sample_profile.so")
    cc = shlex.split(os.environ.get("CC", "cc"))
    subprocess.run(cc + ["-O2", "-shared", "-fPIC", "-o", so,
                         os.path.join(HERE, "sample_profile.c")],
                   check=True)
    return so


def read_maps(path):
    """Executable file mappings as sorted (start, end, offset, file)."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(maxsplit=5)
            if len(parts) < 6 or "x" not in parts[1]:
                continue
            lo, hi = (int(x, 16) for x in parts[0].split("-"))
            name = parts[5].strip()
            if name.startswith("/"):
                maps.append((lo, hi, int(parts[2], 16), name))
    maps.sort()
    return maps


def locate(maps, starts, pc):
    """(file, file-relative address) holding @p pc, or None."""
    i = bisect.bisect_right(starts, pc) - 1
    if i < 0 or pc >= maps[i][1]:
        return None
    lo, _, offset, name = maps[i]
    return name, pc - lo + offset


def resolve(obj, addrs):
    """{addr: [innermost, ..., outermost function]} via addr2line -i."""
    proc = subprocess.run(
        ["addr2line", "-i", "-f", "-C", "-a", "-e", obj],
        input="\n".join(hex(a) for a in addrs), capture_output=True,
        text=True)
    chains = {}
    cur = None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x") and ":" not in line:
            cur = chains.setdefault(int(line, 16), [])
            i += 1
            continue
        if cur is not None:
            cur.append(line if line != "??" else None)
        i += 2  # function line, then its file:line
    base = os.path.basename(obj)
    return {a: [f or f"[{base}]" for f in chain] or [f"[{base}]"]
            for a, chain in chains.items()}


def short(name, width=96):
    return name if len(name) <= width else name[:width - 3] + "..."


def main():
    ap = argparse.ArgumentParser(
        description="SIGPROF sampling profile with inline frames.")
    ap.add_argument("--top", type=int, default=25,
                    help="functions to list per table (default 25)")
    ap.add_argument("--match", action="append", default=[],
                    help="also print the inclusive share of chains with "
                         "a function matching this regex (repeatable)")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")

    with tempfile.TemporaryDirectory(prefix="sample_profile.") as work:
        try:
            so = build_sampler(work)
        except (OSError, subprocess.CalledProcessError) as e:
            print(f"sample_profile: cannot build the sampler: {e}",
                  file=sys.stderr)
            return 2
        env = dict(os.environ)
        env["LD_PRELOAD"] = " ".join(
            filter(None, [so, env.get("LD_PRELOAD")]))
        env["SAMPLE_PROFILE_DIR"] = work
        # ASan insists on coming first in the library list; the sampler
        # intercepts nothing, so the order is harmless.
        env["ASAN_OPTIONS"] = ":".join(
            filter(None, [env.get("ASAN_OPTIONS"),
                          "verify_asan_link_order=0"]))
        rc = subprocess.run(cmd, env=env).returncode
        if rc < 0:
            print(f"sample_profile: command died of signal {-rc}",
                  file=sys.stderr)
            return 2

        pcs_by_obj = collections.defaultdict(list)
        unknown = 0
        for entry in sorted(os.listdir(work)):
            if not entry.endswith(".pcs"):
                continue
            maps = read_maps(os.path.join(work, entry[:-4] + ".maps"))
            starts = [m[0] for m in maps]
            with open(os.path.join(work, entry)) as f:
                for line in f:
                    hit = locate(maps, starts, int(line, 16))
                    if hit is None:
                        unknown += 1
                    else:
                        pcs_by_obj[hit[0]].append(hit[1])

    self_n = collections.Counter()
    incl_n = collections.Counter()
    matched = collections.Counter()
    patterns = [(p, re.compile(p)) for p in args.match]
    total = unknown
    self_n["[unmapped]"] = unknown
    for obj, addrs in pcs_by_obj.items():
        chains = resolve(obj, sorted(set(addrs)))
        for a in addrs:
            chain = chains.get(a, [f"[{os.path.basename(obj)}]"])
            total += 1
            self_n[chain[0]] += 1
            for fn in set(chain):
                incl_n[fn] += 1
            for text, rx in patterns:
                matched[text] += any(rx.search(fn) for fn in chain)

    print(f"samples: {total}")
    if total == 0:
        return rc
    for title, counts in (("self", self_n), ("inline-inclusive", incl_n)):
        print(f"\n{title} share (top {args.top}):")
        for fn, n in counts.most_common(args.top):
            if n:
                print(f"  {100.0 * n / total:6.2f}%  {short(fn)}")
    if patterns:
        print("\nmatched (inline-inclusive):")
        for text, _ in patterns:
            print(f"  {100.0 * matched[text] / total:6.2f}%  /{text}/")
    return rc


if __name__ == "__main__":
    sys.exit(main())
