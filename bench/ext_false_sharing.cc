/**
 * @file
 * Extension: reducing false sharing with memory forwarding
 * (Section 2.2, "Reducing False Sharing" — listed as an enabled
 * optimization but not evaluated in the paper; built out here).
 *
 * Four processors each increment their own counter record.  The
 * records were allocated back-to-back, so all four share a 64B line:
 * classic false sharing — the line ping-pongs although no data is
 * actually shared.  The repair relocates each record to its own line.
 * Memory forwarding makes the repair safe even though the other
 * processors still hold stale pointers; we measure both the
 * stale-pointer case (every access forwards through a read-shared
 * chain word — cheap hits, no ping-pong) and the updated-pointer case
 * (no forwarding at all).
 */

#include <cstdio>

#include "bench_util.hh"
#include "coherence/mp_system.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

enum class Layout
{
    packed,           ///< original: all counters in one line
    split_stale,      ///< separated; peers keep stale pointers
    split_updated     ///< separated; peers use the new addresses
};

struct Outcome
{
    Cycles elapsed;
    std::uint64_t invalidations;
    std::uint64_t upgrades;
    std::uint64_t sum;
    std::uint64_t forwarded;
};

const char *
layoutLabel(Layout layout)
{
    switch (layout) {
      case Layout::packed:
        return "packed";
      case Layout::split_stale:
        return "split_stale";
      case Layout::split_updated:
        return "split_updated";
    }
    return "?";
}

Outcome
runCounters(Report &report, Layout layout, unsigned iterations)
{
    MpConfig cfg;
    cfg.processors = 4;
    cfg.line_bytes = 64;
    MpSystem sys(cfg);

    // Four 16-byte counter records packed into one 64B line.
    const Addr base = 0x10000;
    std::vector<Addr> recs;
    for (unsigned p = 0; p < cfg.processors; ++p) {
        recs.push_back(base + p * 16);
        sys.store(0, recs[p], 8, 0);
    }

    if (layout != Layout::packed) {
        // Processor 0 performs the repair.
        const std::vector<Addr> homes =
            separateToLines(sys, 0, recs, 2, 0x40000);
        if (layout == Layout::split_updated)
            recs = homes;
    }

    // Each processor hammers its own counter; round-robin interleave.
    for (unsigned it = 0; it < iterations; ++it) {
        for (unsigned p = 0; p < cfg.processors; ++p) {
            const std::uint64_t v = sys.load(p, recs[p], 8);
            sys.store(p, recs[p], 8, v + 1);
            sys.compute(p, 4);
        }
    }

    std::uint64_t sum = 0;
    for (unsigned p = 0; p < cfg.processors; ++p)
        sum += sys.load(0, recs[p], 8);

    report.addCase(layoutLabel(layout), sys.elapsed(), 0, sum,
                   sys.metrics());

    return {sys.elapsed(), sys.bus().stats().invalidations,
            sys.bus().stats().upgrades, sum, sys.forwardedRefs()};
}

} // namespace

int
bench::ext_false_sharing(Report &report)
{
    header("Extension: false-sharing repair via safe relocation "
           "(4 processors, 64B lines)",
           "four per-processor counters packed in one line vs. "
           "relocated to distinct lines");

    const unsigned iters = static_cast<unsigned>(50000 * benchScale());
    const Outcome packed = runCounters(report, Layout::packed, iters);
    const Outcome stale = runCounters(report, Layout::split_stale, iters);
    const Outcome updated =
        runCounters(report, Layout::split_updated, iters);

    if (packed.sum != stale.sum || stale.sum != updated.sum) {
        std::printf("CHECKSUM MISMATCH\n");
        return 1;
    }

    const auto row = [&](const char *tag, const Outcome &o) {
        std::printf("%-26s %14s %15s %12s %12s\n", tag,
                    withCommas(o.elapsed).c_str(),
                    withCommas(o.invalidations).c_str(),
                    withCommas(o.upgrades).c_str(),
                    withCommas(o.forwarded).c_str());
    };
    std::printf("\n%-26s %14s %15s %12s %12s\n", "layout", "cycles",
                "invalidations", "upgrades", "fwd refs");
    row("packed (false sharing)", packed);
    row("split, stale pointers", stale);
    row("split, updated pointers", updated);

    std::printf("\nspeedup: split+stale %.2fx, split+updated %.2fx; "
                "invalidations cut by %.1f%% / %.1f%%\n",
                double(packed.elapsed) / double(stale.elapsed),
                double(packed.elapsed) / double(updated.elapsed),
                100.0 * (1.0 - double(stale.invalidations) /
                                   double(packed.invalidations)),
                100.0 * (1.0 - double(updated.invalidations) /
                                   double(packed.invalidations)));
    std::printf("\neven with every access forwarding through a stale "
                "pointer, the chain word is read-shared (no ping-pong), "
                "so the repair still wins; updating the pointers "
                "removes the remaining hop cost.  counter totals "
                "identical across all three runs (%llu).\n",
                static_cast<unsigned long long>(updated.sum));
    return 0;
}
