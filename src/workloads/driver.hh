/**
 * @file
 * Experiment driver: runs one workload variant on a fresh Machine and
 * collects every metric the paper's figures need.
 */

#ifndef MEMFWD_WORKLOADS_DRIVER_HH
#define MEMFWD_WORKLOADS_DRIVER_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "cpu/stall_stats.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/machine.hh"
#include "workloads/workload.hh"

namespace memfwd
{

/** Everything needed to reproduce one bar of a figure. */
struct RunConfig
{
    std::string workload;
    WorkloadParams params{};
    WorkloadVariant variant{};
    MachineConfig machine{};

    /**
     * Optional trace sink registered on the machine for the duration of
     * the run (not owned).  Leave null for untraced (zero-cost) runs.
     */
    obs::TraceSink *trace_sink = nullptr;

    /** Memberwise, so a bench memo keyed on it sees every field. */
    bool operator==(const RunConfig &) const = default;
};

/** All metrics from one run. */
struct RunResult
{
    std::string workload;
    WorkloadVariant variant;

    Cycles cycles = 0;
    std::uint64_t instructions = 0;
    StallStats stalls;

    // Figure 6(a)
    std::uint64_t load_partial_misses = 0;
    std::uint64_t load_full_misses = 0;
    std::uint64_t store_misses = 0;

    // Figure 6(b)
    std::uint64_t l1_l2_bytes = 0;
    std::uint64_t l2_mem_bytes = 0;

    // Figure 10(c)
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t loads_forwarded = 0;
    std::uint64_t stores_forwarded = 0;

    // Figure 10(d)
    double avg_load_cycles = 0.0;
    double avg_store_cycles = 0.0;
    double avg_load_forward_cycles = 0.0;
    double avg_store_forward_cycles = 0.0;

    // Dependence speculation
    std::uint64_t lsq_speculations = 0;
    std::uint64_t lsq_violations = 0;

    // Table 1 / correctness
    std::uint64_t checksum = 0;
    Addr space_overhead_bytes = 0;

    // Host-speed accounting (docs/METRICS.md "host" family): total
    // simulated references executed, for refs-per-wall-second gauges.
    std::uint64_t refs = 0;

    // Prefetching
    std::uint64_t prefetches_issued = 0;
    std::uint64_t useful_prefetches = 0;

    /** The machine's full hierarchical metrics tree at run end. */
    obs::MetricsNode metrics;

    double
    loadForwardedFraction() const
    {
        return loads ? double(loads_forwarded) / double(loads) : 0.0;
    }
    double
    storeForwardedFraction() const
    {
        return stores ? double(stores_forwarded) / double(stores) : 0.0;
    }
};

/** Run one configuration to completion. */
RunResult runWorkload(const RunConfig &cfg);

} // namespace memfwd

#endif // MEMFWD_WORKLOADS_DRIVER_HH
