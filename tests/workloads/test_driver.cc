/** @file Unit tests for the experiment driver. */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "workloads/driver.hh"

namespace memfwd
{
namespace
{

RunConfig
tinyConfig(const std::string &wl)
{
    RunConfig cfg;
    cfg.workload = wl;
    cfg.params.scale = 0.05;
    return cfg;
}

TEST(Driver, CollectsConsistentMetrics)
{
    setVerbose(false);
    const RunResult r = runWorkload(tinyConfig("vis"));
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.loads, 0u);
    EXPECT_GT(r.stores, 0u);
    EXPECT_EQ(r.workload, "vis");
    // Slot accounting covers the run.
    EXPECT_GE(r.stalls.totalSlots(), r.instructions);
    // Busy slots == instructions graduated.
    EXPECT_EQ(r.stalls.busy, r.instructions);
}

TEST(Driver, MissCountsBoundedByLoads)
{
    setVerbose(false);
    const RunResult r = runWorkload(tinyConfig("mst"));
    EXPECT_LE(r.load_partial_misses + r.load_full_misses, r.loads);
    EXPECT_LE(r.store_misses, r.stores);
}

TEST(Driver, TrafficFlowsDownhill)
{
    setVerbose(false);
    const RunResult r = runWorkload(tinyConfig("health"));
    EXPECT_GT(r.l1_l2_bytes, 0u);
    EXPECT_GT(r.l2_mem_bytes, 0u);
}

TEST(Driver, ForwardedFractionsZeroWithoutOptimization)
{
    setVerbose(false);
    const RunResult r = runWorkload(tinyConfig("smv"));
    EXPECT_EQ(r.loads_forwarded, 0u);
    EXPECT_EQ(r.stores_forwarded, 0u);
    EXPECT_EQ(r.loadForwardedFraction(), 0.0);
}

TEST(Driver, SmvForwardsUnderLayoutOpt)
{
    setVerbose(false);
    RunConfig cfg = tinyConfig("smv");
    cfg.variant.layout_opt = true;
    const RunResult r = runWorkload(cfg);
    EXPECT_GT(r.loads_forwarded, 0u);
    EXPECT_GT(r.stores_forwarded, 0u);
    EXPECT_GT(r.loadForwardedFraction(), 0.0);
    EXPECT_LT(r.loadForwardedFraction(), 1.0);
}

TEST(Driver, PrefetchRunsIssuePrefetches)
{
    setVerbose(false);
    RunConfig cfg = tinyConfig("vis");
    cfg.variant.prefetch = true;
    cfg.variant.prefetch_block = 2;
    const RunResult r = runWorkload(cfg);
    EXPECT_GT(r.prefetches_issued, 0u);
}

TEST(Driver, RunConfigEqualitySeesNestedFields)
{
    // The bench runner memoizes on RunConfig equality, so a field
    // nested deep in the machine config must still tell configs apart.
    const RunConfig base = tinyConfig("vis");
    EXPECT_EQ(base, tinyConfig("vis"));

    RunConfig c = base;
    c.machine.hierarchy.l2.replacement = ReplacementPolicy::fifo;
    EXPECT_NE(c, base);
    c = base;
    c.machine.hierarchy.memory.latency += 1;
    EXPECT_NE(c, base);
    c = base;
    c.machine.forwarding.collapse_threshold += 1;
    EXPECT_NE(c, base);
    c = base;
    c.machine.quarantine_cfg.watermark = 0.5;
    EXPECT_NE(c, base);
    c = base;
    c.machine.fast_forward_regions.push_back("build");
    EXPECT_NE(c, base);
    c = base;
    c.variant.linearize_threshold += 1;
    EXPECT_NE(c, base);
    c = base;
    c.params.seed += 1;
    EXPECT_NE(c, base);
}

TEST(Driver, AverageLatenciesAreSane)
{
    setVerbose(false);
    const RunResult r = runWorkload(tinyConfig("eqntott"));
    EXPECT_GE(r.avg_load_cycles, 1.0);
    EXPECT_LT(r.avg_load_cycles, 200.0);
    EXPECT_GE(r.avg_store_cycles, 1.0);
}

} // namespace
} // namespace memfwd
