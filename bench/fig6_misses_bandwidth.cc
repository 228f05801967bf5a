/**
 * @file
 * Figure 6: (a) load D-cache misses split into partial and full
 * misses, and (b) bytes transferred on the L1<->L2 and L2<->memory
 * links — both normalized to the N case at 32B lines, for the seven
 * Figure-5 applications.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace memfwd;
using namespace memfwd::bench;

int
bench::fig6_misses_bandwidth(Report &)
{
    header("Figure 6(a): load D-cache misses (partial/full)",
           "normalized to N @ 32B = 100");

    unsigned reduced_35 = 0, cases = 0;
    for (const auto &name : figure5Workloads()) {
        std::printf("\n%s\n", name.c_str());
        double norm = 0;
        for (unsigned line : {32u, 64u, 128u}) {
            const RunResult n = run(name, line, false);
            const RunResult l = run(name, line, true);
            const auto misses = [](const RunResult &r) {
                return r.load_partial_misses + r.load_full_misses;
            };
            if (norm == 0)
                norm = double(misses(n));
            const double scale = 100.0 / norm;
            std::printf("  N@%-4u total %6.1f (partial %5.1f full %6.1f)"
                        "   [%s misses]\n",
                        line, misses(n) * scale,
                        n.load_partial_misses * scale,
                        n.load_full_misses * scale,
                        withCommas(misses(n)).c_str());
            std::printf("  L@%-4u total %6.1f (partial %5.1f full %6.1f)"
                        "   [%s misses]\n",
                        line, misses(l) * scale,
                        l.load_partial_misses * scale,
                        l.load_full_misses * scale,
                        withCommas(misses(l)).c_str());
            ++cases;
            if (misses(l) <
                static_cast<std::uint64_t>(0.65 * double(misses(n))))
                ++reduced_35;
        }
    }
    std::printf("\n%u of %u cases show a >35%% miss reduction "
                "(paper: 11 of 21)\n",
                reduced_35, cases);

    header("Figure 6(b): bandwidth consumption",
           "bytes on L1<->L2 (bottom) and L2<->memory (top), "
           "normalized to N @ 32B = 100");

    for (const auto &name : figure5Workloads()) {
        std::printf("\n%s\n", name.c_str());
        double norm = 0;
        for (unsigned line : {32u, 64u, 128u}) {
            // Panel (a) recorded these runs; read them back unrecorded.
            const RunResult n = simulate(standardConfig(name, line, false));
            const RunResult l = simulate(standardConfig(name, line, true));
            if (norm == 0)
                norm = double(n.l1_l2_bytes + n.l2_mem_bytes);
            const double scale = 100.0 / norm;
            std::printf(
                "  N@%-4u total %6.1f (l1<->l2 %6.1f  l2<->mem %6.1f)\n",
                line, (n.l1_l2_bytes + n.l2_mem_bytes) * scale,
                n.l1_l2_bytes * scale, n.l2_mem_bytes * scale);
            std::printf(
                "  L@%-4u total %6.1f (l1<->l2 %6.1f  l2<->mem %6.1f)\n",
                line, (l.l1_l2_bytes + l.l2_mem_bytes) * scale,
                l.l1_l2_bytes * scale, l.l2_mem_bytes * scale);
        }
    }

    std::printf("\npaper shape: locality optimizations reduce misses "
                "substantially and cut bandwidth in nearly all cases, "
                "with 2x+ reductions in a few.\n");
    return 0;
}
