/**
 * @file
 * Figure 7: interaction between the locality optimizations and
 * software prefetching at 32B lines.
 *
 * Four cases per application: N (original), L (locality-optimized),
 * NP (original + prefetching), LP (optimized + prefetching).  As in
 * Section 5.2, the prefetch block size is swept and the best result is
 * reported for each prefetching case: every sweep point is recorded
 * (W/32B/N+pf<B>, W/32B/L+pf<B>), and W/32B/NP_best and W/32B/LP_best
 * are recorded as reuses of the winning point.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

/**
 * Run every prefetch block size Section 5.2 sweeps (1-8 lines) and
 * record the fastest (the first on a tie) again as @p best_label.
 */
RunResult
bestPrefetch(const std::string &name, bool layout_opt,
             const std::string &best_label)
{
    unsigned best_block = 0;
    Cycles best_cycles = 0;
    for (unsigned b : {1u, 2u, 4u, 8u}) {
        const RunResult r = run(name, 32, layout_opt, true, b);
        if (best_block == 0 || r.cycles < best_cycles) {
            best_block = b;
            best_cycles = r.cycles;
        }
    }
    return runCase(best_label,
                   standardConfig(name, 32, layout_opt, true, best_block));
}

} // namespace

int
bench::fig7_prefetching(Report &)
{
    header("Figure 7: impact on prefetching effectiveness (32B lines)",
           "bars normalized to N = 100; prefetch block size swept, "
           "best reported");

    unsigned lp_beats_both = 0;
    for (const auto &name : figure5Workloads()) {
        const RunResult n = run(name, 32, false);
        const RunResult l = run(name, 32, true);
        const RunResult np = bestPrefetch(name, false, name + "/32B/NP_best");
        const RunResult lp = bestPrefetch(name, true, name + "/32B/LP_best");

        const double norm = double(n.cycles);
        std::printf("\n%s\n", name.c_str());
        printBar("N", n, norm);
        printBar("NP", np, norm);
        printBar("L", l, norm);
        printBar("LP", lp, norm);
        std::printf("  best prefetch block: NP=%u lines, LP=%u lines; "
                    "LP vs NP %+.0f%%\n",
                    np.variant.prefetch_block, lp.variant.prefetch_block,
                    100.0 * (double(np.cycles) / double(lp.cycles) - 1));
        if (lp.cycles < np.cycles && lp.cycles < l.cycles)
            ++lp_beats_both;
    }

    std::printf("\n%u of 7 apps: combining locality optimization with "
                "prefetching (LP) beats either alone\n"
                "paper shape: locality optimizations improve prefetching "
                "in 5 apps (pointer-chasing relieved); the techniques "
                "are complementary.\n",
                lp_beats_both);
    return 0;
}
