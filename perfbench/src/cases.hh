/**
 * @file
 * The benchmark's workloads as lists of simulation cases, the code that
 * runs one case on a fresh Machine, and the output checks.
 */

#ifndef PERFBENCH_CASES_HH
#define PERFBENCH_CASES_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/machine.hh"
#include "workloads/driver.hh"
#include "workloads/workload.hh"

namespace perfbench
{

/** One simulation: a RunConfig plus the label the checks report. */
struct Case
{
    std::string label;
    /** Cases of one group must compute the same checksum. */
    std::string group;
    memfwd::RunConfig cfg;
};

/** A named benchmark workload. */
struct BenchWorkload
{
    std::string name;
    std::vector<Case> cases;
    /** The scale-0.05 reference slice, checked against bench/baseline. */
    std::string baseline_file;
    std::vector<Case> slice;

    /** True if the cases run in functional fast-forward (no timing). */
    bool
    fastForward() const
    {
        return !cases.front().cfg.machine.fast_forward_regions.empty();
    }
};

/**
 * Build workload @p name with inputs generated from @p seed.
 * @p smoke shrinks every case to a tiny scale.
 * @throws std::invalid_argument for an unknown name.
 */
BenchWorkload makeBenchWorkload(const std::string &name, std::uint64_t seed,
                                bool smoke);

/** The simulated outputs of one case execution. */
struct SimCounters
{
    memfwd::Cycles cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t refs = 0;
    std::uint64_t checksum = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t loads_forwarded = 0;
    std::uint64_t stores_forwarded = 0;

    bool operator==(const SimCounters &) const = default;
};

/** One case execution: its outputs, its host times, and its verdict. */
struct Sample
{
    SimCounters sim;
    double setup_s = 0.0; ///< host time to build the Machine and Workload
    double run_s = 0.0;   ///< host time of Workload::run
    /** False if the case threw or failed a check. */
    bool ok = false;
};

/** A finished case whose Machine and Workload are still alive. */
struct LiveRun
{
    std::unique_ptr<memfwd::Machine> machine;
    std::unique_ptr<memfwd::Workload> workload;
    Sample sample;
};

/**
 * Run @p cfg on a fresh Machine, with cfg.trace_sink and @p gate (both
 * may be null) attached while the workload runs.
 */
LiveRun runCase(const memfwd::RunConfig &cfg,
                memfwd::AnalysisGate *gate = nullptr);

/** Mark @p s failed and say why on stderr. */
void reject(Sample &s, const std::string &label, const std::string &why);

/** Fail every sample whose checksum differs from its group's first. */
void checkGroups(const std::vector<Case> &cases,
                 std::vector<Sample> &samples);

/** Run each case once (a case that throws fails) and check groups. */
std::vector<Sample> runPass(const std::vector<Case> &cases);

/**
 * Run the workload's scale-0.05 slice and fail every case whose cycles
 * or checksum differ from the committed baseline in @p baseline_dir.
 * @throws std::runtime_error if the baseline file cannot be read.
 */
std::vector<Sample> checkBaseline(const BenchWorkload &w,
                                  const std::string &baseline_dir);

/** Operations (case executions) attempted and failed. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const std::vector<Sample> &samples)
    {
        for (const Sample &s : samples) {
            ++attempted;
            failed += s.ok ? 0 : 1;
        }
    }
};

/** Host seconds on a steady clock since an arbitrary epoch. */
double now();

} // namespace perfbench

#endif // PERFBENCH_CASES_HH
