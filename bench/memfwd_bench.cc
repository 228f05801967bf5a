/**
 * @file
 * The reproduction's bench runner: every figure, table, ablation and
 * extension bench in one process.
 *
 *   memfwd_bench [--list] [NAME...]
 *
 * With no NAME it runs every bench in the table below, in table order;
 * otherwise the named benches, in the order given.  Each bench
 * (declared in bench_util.hh) prints its rows and writes
 * BENCH_<name>.json.  runCase() memoizes across benches, so a
 * configuration that several figures plot is simulated once.
 * `--list` prints the bench names.  An unknown NAME or option exits 64
 * (BSD sysexits EX_USAGE), as in memfwd_sim; a bench whose own checks
 * fail makes the runner exit 1 after the remaining benches have run.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"

namespace
{

using namespace memfwd::bench;

/** BSD sysexits EX_USAGE: command-line usage error. */
constexpr int exit_usage = 64;

struct Bench
{
    const char *name;
    int (*run)(Report &);
};

const Bench benches[] = {
    {"table1_applications", table1_applications},
    {"fig5_exec_breakdown", fig5_exec_breakdown},
    {"fig6_misses_bandwidth", fig6_misses_bandwidth},
    {"fig7_prefetching", fig7_prefetching},
    {"fig10_smv_forwarding", fig10_smv_forwarding},
    {"ablation_hop_limit", ablation_hop_limit},
    {"ablation_dep_speculation", ablation_dep_speculation},
    {"ablation_linearize_threshold", ablation_linearize_threshold},
    {"ablation_trap_fixup", ablation_trap_fixup},
    {"ablation_static_placement", ablation_static_placement},
    {"ablation_replacement", ablation_replacement},
    {"ablation_inorder", ablation_inorder},
    {"ext_false_sharing", ext_false_sharing},
    {"ext_data_coloring", ext_data_coloring},
    {"ext_out_of_core", ext_out_of_core},
    {"ext_tlb_reach", ext_tlb_reach},
    {"ext_fault_recovery", ext_fault_recovery},
    {"ext_temporal_safety", ext_temporal_safety},
    {"ext_kv_server", ext_kv_server},
    {"sweep_sensitivity", sweep_sensitivity},
    {"micro_ftc", micro_ftc},
};

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const Bench *> selected;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            for (const Bench &b : benches)
                std::printf("%s\n", b.name);
            return 0;
        }
        const Bench *found = nullptr;
        for (const Bench &b : benches)
            if (arg == b.name)
                found = &b;
        if (!found) {
            std::fprintf(stderr,
                         "%s: unknown bench '%s' (--list names them)\n"
                         "usage: %s [--list] [NAME...]\n",
                         argv[0], arg.c_str(), argv[0]);
            return exit_usage;
        }
        selected.push_back(found);
    }
    if (selected.empty())
        for (const Bench &b : benches)
            selected.push_back(&b);

    memfwd::setVerbose(false);
    std::vector<std::string> failed;
    for (const Bench *b : selected) {
        Report report(b->name);
        if (b->run(report) != 0)
            failed.push_back(b->name);
    }
    for (const std::string &name : failed)
        std::fprintf(stderr, "%s: bench %s FAILED\n", argv[0],
                     name.c_str());
    return failed.empty() ? 0 : 1;
}
