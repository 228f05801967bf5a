#!/bin/sh
# Run the complete reproduction: tests, every figure/table bench, every
# ablation and extension, the microbenches, and all examples.
# MEMFWD_BENCH_SCALE=0.2 sh scripts/run_all.sh   # quick CI variant
set -e
BUILD=${BUILD:-build}

# Prefer Ninja when it is installed; otherwise let CMake pick the
# platform default generator (typically Unix Makefiles).
if command -v ninja >/dev/null 2>&1; then
    GEN="-G Ninja"
else
    GEN=""
fi

# Each bench writes BENCH_<name>.json here (bench/bench_util.cc);
# scripts/bench_diff.py compares two such directories.
MEMFWD_BENCH_OUT=${MEMFWD_BENCH_OUT:-bench-results}
export MEMFWD_BENCH_OUT
mkdir -p "$MEMFWD_BENCH_OUT"

cmake -B "$BUILD" $GEN
cmake --build "$BUILD" -j "$(nproc 2>/dev/null || echo 2)"
ctest --test-dir "$BUILD" --output-on-failure

# Every reproduction bench in one process, then the microbenches.
"$BUILD"/bench/memfwd_bench
"$BUILD"/bench/micro_mechanisms

for e in "$BUILD"/examples/*; do
    if [ -f "$e" ] && [ -x "$e" ]; then "$e"; fi
done
