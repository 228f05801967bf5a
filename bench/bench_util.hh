/**
 * @file
 * Shared harness for the reproduction benches run by memfwd_bench.
 *
 *  - The runner gives each bench a `Report`; while it is alive,
 *    runCase() records every case into it, and on destruction it
 *    writes a schema-tagged `BENCH_<name>.json` (docs/METRICS.md) into
 *    MEMFWD_BENCH_OUT (or the working directory).  Simulated cycle
 *    counts are deterministic, which is what makes the committed
 *    bench/baseline/ comparable across machines —
 *    scripts/bench_diff.py is the regression gate.
 *  - runCase() memoizes on RunConfig equality for the whole process:
 *    a configuration several figures plot is simulated once, and every
 *    later case is recorded with the original's numbers plus
 *    `reused_from`.  Traced runs are never served from the memo.
 *  - A fresh case's wall_ms is the host time since the bench's
 *    previous fresh case (or its start), so the work of benches built
 *    on custom machinery lands in the case it produced.
 */

#ifndef MEMFWD_BENCH_BENCH_UTIL_HH
#define MEMFWD_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "workloads/driver.hh"

namespace memfwd::bench
{

/** Benchmark scale: 1.0 = the sizes in DESIGN.md (MEMFWD_BENCH_SCALE). */
double benchScale();

/** Default machine config at the given line size. */
MachineConfig machineAt(unsigned line_bytes);

/**
 * Extra top-level numeric fields of a case, where
 * scripts/bench_diff.py --require-metric can see them (e.g. the
 * detection_rate the temporal-safety gate asserts on).
 */
using Fields = std::vector<std::pair<std::string, double>>;

/**
 * One bench's JSON result file; only one may be alive at a time.  Its
 * destructor writes BENCH_<name>.json into $MEMFWD_BENCH_OUT (or the
 * working directory).
 */
class Report
{
  public:
    explicit Report(const std::string &name);
    ~Report();

    Report(const Report &) = delete;
    Report &operator=(const Report &) = delete;

    /**
     * Record a case for benches built on custom machinery.  Pass the
     * machine's refsExecuted() as @p refs when available so the
     * host.refs_per_sec gauge is meaningful; 0 records the gauge as 0.
     */
    void addCase(const std::string &label, std::uint64_t cycles,
                 std::uint64_t instructions, std::uint64_t checksum,
                 const obs::MetricsNode &metrics = {},
                 std::uint64_t refs = 0, const Fields &extra = {});

    /** Add @p extra to the case recorded last. */
    void addFields(const Fields &extra);

    /** The live report, or nullptr outside any report's lifetime. */
    static Report *current();

  private:
    friend RunResult runCase(const std::string &, const RunConfig &);

    /** Host milliseconds since the previous lap (or construction). */
    double lap();

    obs::Json &record(const std::string &label, const RunResult &r,
                      double wall_ms);

    std::string name_;
    std::vector<obs::Json> cases_;
    std::chrono::steady_clock::time_point lap_start_;
};

/**
 * Simulate @p cfg, or reuse an identical earlier run of this process,
 * and record it into the current Report under @p label.
 */
RunResult runCase(const std::string &label, const RunConfig &cfg);

/**
 * The result of @p cfg without recording a case: served from the memo
 * when runCase() already simulated it, otherwise run (and not kept).
 */
RunResult simulate(const RunConfig &cfg);

/** One standard workload case at the bench scale. */
RunConfig standardConfig(const std::string &workload, unsigned line_bytes,
                         bool layout_opt, bool prefetch = false,
                         unsigned prefetch_block = 1);

/** runCase() of standardConfig(), labelled W/<line>B/<variant>. */
RunResult run(const std::string &workload, unsigned line_bytes,
              bool layout_opt, bool prefetch = false,
              unsigned prefetch_block = 1);

/** Print a section header. */
void header(const std::string &title, const std::string &subtitle);

/**
 * Print one Figure-5-style stacked bar: the four graduation-slot
 * sections normalized so the N@first-line-size bar is 100.
 */
void printBar(const std::string &label, const RunResult &r,
              double norm_cycles);

/** Format a count with thousands separators. */
std::string withCommas(std::uint64_t v);

// The benches memfwd_bench runs, one per bench/<name>.cc.  Each prints
// its rows, records its cases into @p report and returns its exit
// status: nonzero when one of its own checks failed.
int table1_applications(Report &report);
int fig5_exec_breakdown(Report &report);
int fig6_misses_bandwidth(Report &report);
int fig7_prefetching(Report &report);
int fig10_smv_forwarding(Report &report);
int ablation_hop_limit(Report &report);
int ablation_dep_speculation(Report &report);
int ablation_linearize_threshold(Report &report);
int ablation_trap_fixup(Report &report);
int ablation_static_placement(Report &report);
int ablation_replacement(Report &report);
int ablation_inorder(Report &report);
int ext_false_sharing(Report &report);
int ext_data_coloring(Report &report);
int ext_out_of_core(Report &report);
int ext_tlb_reach(Report &report);
int ext_fault_recovery(Report &report);
int ext_temporal_safety(Report &report);
int ext_kv_server(Report &report);
int sweep_sensitivity(Report &report);
int micro_ftc(Report &report);

} // namespace memfwd::bench

#endif // MEMFWD_BENCH_BENCH_UTIL_HH
