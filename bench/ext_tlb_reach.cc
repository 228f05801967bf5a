/**
 * @file
 * Extension: TLB reach.
 *
 * The same scattered-vs-linearized layouts the paper evaluates for
 * caches also determine how many *pages* the working set spans.  With
 * the TLB model enabled, this bench runs the list workloads and shows
 * that linearization slashes TLB misses on top of the cache wins —
 * another instance of Section 2.2's "applies to every level of the
 * hierarchy".
 */

#include <cstdio>

#include "bench_util.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

RunResult
runWithTlb(const std::string &workload, bool layout_opt)
{
    RunConfig cfg = standardConfig(workload, 64, layout_opt);
    cfg.machine.tlb.enabled = true;
    cfg.machine.tlb.entries = 64;
    cfg.machine.tlb.miss_penalty = 30;
    return runCase(workload + "/tlb/" + (layout_opt ? "L" : "N"), cfg);
}

std::uint64_t
tlbMisses(const RunResult &r)
{
    return r.metrics.findChild("tlb")->counterValue("misses");
}

} // namespace

int
bench::ext_tlb_reach(Report &)
{
    header("Extension: TLB reach (64-entry TLB, 4KB pages, 30-cycle "
           "walks; 64B lines)",
           "linearization compresses the page footprint, not just the "
           "line footprint");

    std::printf("%-10s %16s %16s %12s %16s\n", "app", "N tlb misses",
                "L tlb misses", "reduction", "L speedup");

    for (const std::string name :
         {"health", "mst", "radiosity", "vis"}) {
        const RunResult n = runWithTlb(name, false);
        const RunResult l = runWithTlb(name, true);
        if (n.checksum != l.checksum) {
            std::printf("CHECKSUM MISMATCH for %s\n", name.c_str());
            return 1;
        }
        std::printf("%-10s %16s %16s %11.1fx %15.2fx\n", name.c_str(),
                    withCommas(tlbMisses(n)).c_str(),
                    withCommas(tlbMisses(l)).c_str(),
                    double(tlbMisses(n)) / double(tlbMisses(l)),
                    double(n.cycles) / double(l.cycles));
    }

    std::printf("\ntakeaway: scattered nodes cost a page-table walk "
                "per touch once the working set outruns 64 pages; the "
                "linearized layouts fit their hot lists into a few "
                "pages and make the TLB effectively free.\n");
    return 0;
}
