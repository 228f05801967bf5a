/** @file Unit tests for the Machine facade. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/cycle_check.hh"
#include "runtime/machine.hh"

namespace memfwd
{
namespace
{

TEST(Machine, LoadStoreRoundTrip)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 0x1122334455667788ull));
    const AccessResult r = m.access(Access::load(0x1000, 8));
    EXPECT_EQ(r.value, 0x1122334455667788ull);
    EXPECT_EQ(r.hops, 0u);
    EXPECT_EQ(r.final_addr, 0x1000u);
}

TEST(Machine, SubwordAccess)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 0));
    m.access(Access::store(0x1002, 2, 0xbeef));
    EXPECT_EQ(m.access(Access::load(0x1002, 2)).value, 0xbeefu);
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).value, 0xbeef0000ull);
}

TEST(Machine, TimeAdvancesWithWork)
{
    Machine m;
    const Cycles before = m.cycles();
    m.access(Access::compute(1000));
    EXPECT_GE(m.cycles(), before + 240);
}

TEST(Machine, LoadThroughForwardingChain)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 777));
    m.forwarding().forwardWord(0x1000, 0x2000);
    const AccessResult r = m.access(Access::load(0x1000, 8));
    EXPECT_EQ(r.value, 777u);
    EXPECT_EQ(r.hops, 1u);
    EXPECT_EQ(r.final_addr, 0x2000u);
    EXPECT_EQ(m.loadsForwarded(), 1u);
}

TEST(Machine, StoreThroughForwardingChain)
{
    Machine m;
    m.forwarding().forwardWord(0x1000, 0x2000);
    const AccessResult s = m.access(Access::store(0x1000, 8, 42));
    EXPECT_EQ(s.hops, 1u);
    EXPECT_EQ(s.final_addr, 0x2000u);
    // The value landed at the new location; the old word still holds
    // the forwarding address.
    EXPECT_EQ(m.mem().rawReadWord(0x2000), 42u);
    EXPECT_EQ(m.mem().rawReadWord(0x1000), 0x2000u);
    EXPECT_EQ(m.storesForwarded(), 1u);
}

TEST(Machine, IsaExtensionsBypassForwarding)
{
    // The Figure 1(b)/Figure 3 contract: a normal read of a forwarded
    // word returns the data at the final address; Unforwarded_Read
    // returns the forwarding address itself.
    Machine m;
    m.access(Access::store(0x0808, 8, 0));
    m.forwarding().forwardWord(0x0808, 0x5808);
    EXPECT_EQ(m.access(Access::load(0x0808, 8)).value, 0u);
    EXPECT_EQ(m.access(Access::unforwardedRead(0x0808)).value, 0x5808u);
    EXPECT_TRUE((m.access(Access::readFBit(0x0808)).value != 0));
    EXPECT_FALSE((m.access(Access::readFBit(0x5808)).value != 0));
}

TEST(Machine, UnforwardedWriteSetsWordAndBit)
{
    Machine m;
    m.access(Access::unforwardedWrite(0x3000, 0x4000, true));
    EXPECT_TRUE((m.access(Access::readFBit(0x3000)).value != 0));
    EXPECT_EQ(m.access(Access::unforwardedRead(0x3000)).value, 0x4000u);
    // And a normal load now follows it.
    m.access(Access::store(0x4000, 8, 99));
    EXPECT_EQ(m.access(Access::load(0x3000, 8)).value, 99u);
}

TEST(Machine, PeekPokeFollowForwardingWithoutTiming)
{
    Machine m;
    m.forwarding().forwardWord(0x1000, 0x2000);
    const Cycles before = m.cycles();
    const std::uint64_t loads_before = m.loads();
    m.poke(0x1000, 8, 1234);
    EXPECT_EQ(m.peek(0x1000, 8), 1234u);
    EXPECT_EQ(m.cycles(), before);
    EXPECT_EQ(m.loads(), loads_before);
    EXPECT_EQ(m.mem().rawReadWord(0x2000), 1234u);
}

TEST(Machine, PrefetchWarmsCache)
{
    Machine m;
    m.access(Access::prefetch(0x8000, 2));
    EXPECT_TRUE(m.hierarchy().l1d().contains(0x8000));
}

TEST(Machine, ForwardedLoadSlowerThanDirect)
{
    Machine a, b;
    a.access(Access::store(0x1000, 8, 1));
    b.access(Access::store(0x1000, 8, 1));
    b.forwarding().forwardWord(0x1000, 0x2000);
    // Warm both, then measure a dependent chain of loads.
    for (int i = 0; i < 4; ++i) {
        a.access(Access::load(0x1000, 8));
        b.access(Access::load(0x1000, 8));
    }
    Cycles ra = 0, rb = 0;
    for (int i = 0; i < 50; ++i) {
        ra = a.access(Access::load(0x1000, 8, ra)).ready;
        rb = b.access(Access::load(0x1000, 8, rb)).ready;
    }
    EXPECT_GT(b.cycles(), a.cycles());
}

TEST(Machine, FlattenedMetricsExportCounters)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 5));
    m.access(Access::load(0x1000, 8));
    const obs::MetricsNode root = m.metrics();
    EXPECT_GT(root.counterValue("cycles"), 0u);

    // The text dump names every counter by its prefixed dotted path.
    std::ostringstream os;
    root.dump(os, "m.");
    const std::string text = "\n" + os.str();
    EXPECT_NE(text.find("\nm.refs.loads = 1\n"), std::string::npos);
    EXPECT_NE(text.find("\nm.refs.stores = 1\n"), std::string::npos);
    EXPECT_NE(text.find("\nm.cycles = "), std::string::npos);
    EXPECT_NE(text.find("\nm.slots.busy = "), std::string::npos);
    EXPECT_NE(text.find("\nm.traffic.l2_mem_bytes = "), std::string::npos);
}

TEST(Machine, DependentAccessesRespectAddrReady)
{
    Machine m;
    m.access(Access::store(0x1000, 8, 0x2000));
    m.access(Access::store(0x2000, 8, 7));
    const AccessResult p = m.access(Access::load(0x1000, 8));
    const AccessResult v = m.access(Access::load(static_cast<Addr>(p.value), 8, p.ready));
    EXPECT_EQ(v.value, 7u);
    EXPECT_GT(v.ready, p.ready);
}

// ---------------------------------------------------------------------
// Fast-forward is a transformation of the timed program: on a chain
// that outlasts the exception-mode handler (default limits: 16 hops x
// (8 retries + 1) = 144 < 200), both paths must give up at the same
// hop and apply the same cycle policy.
// ---------------------------------------------------------------------

/** What two loads through one long exception-mode chain observed. */
struct LongChainOutcome
{
    bool threw = false;
    AccessResult first{};
    AccessResult again{};
    Addr pin = 0;
    std::uint64_t traps = 0;
    std::uint64_t handler_retries = 0;
    std::uint64_t quarantine_hits = 0;
};

LongChainOutcome
loadThroughLongChain(const MachineConfig &cfg)
{
    Machine m(cfg);
    for (unsigned i = 0; i < 200; ++i) {
        m.forwarding().forwardWord(0x10000 + Addr(i) * 0x100,
                                   0x10000 + Addr(i + 1) * 0x100);
    }
    m.poke(0x10000, 8, 0x5eed); // lands at the chain's tail
    m.forwarding().traps().install(
        [](const TrapInfo &) { return TrapAction::resume; });

    LongChainOutcome out;
    try {
        out.first = m.access(Access::load(0x10000, 8));
        out.again = m.access(Access::load(0x10000, 8));
    } catch (const ForwardingCycleError &) {
        out.threw = true;
    }
    out.pin = m.forwarding().quarantinePin(0x10000);
    out.traps = m.forwarding().traps().delivered();
    out.handler_retries = m.forwarding().stats().handler_retries;
    out.quarantine_hits = m.forwarding().stats().quarantine_hits;
    return out;
}

class LongChainParity : public ::testing::TestWithParam<CyclePolicy>
{
};

TEST_P(LongChainParity, FastForwardMatchesTimed)
{
    const MachineConfig timed_cfg =
        MachineConfig{}
            .forwardingMode(MachineConfig::Mode::exception)
            .cyclePolicy(GetParam());
    const LongChainOutcome timed = loadThroughLongChain(timed_cfg);
    const LongChainOutcome ff =
        loadThroughLongChain(MachineConfig(timed_cfg).fastForward());

    EXPECT_EQ(timed.threw, GetParam() == CyclePolicy::abort);
    EXPECT_EQ(ff.threw, timed.threw);
    EXPECT_EQ(ff.first.value, timed.first.value);
    EXPECT_EQ(ff.first.final_addr, timed.first.final_addr);
    EXPECT_EQ(ff.first.trapped, timed.first.trapped);
    EXPECT_EQ(ff.again.final_addr, timed.again.final_addr);
    EXPECT_EQ(ff.pin, timed.pin);
    EXPECT_EQ(ff.traps, timed.traps);
    EXPECT_EQ(ff.handler_retries, timed.handler_retries);
    EXPECT_EQ(ff.quarantine_hits, timed.quarantine_hits);
    if (!timed.threw) {
        // Pinned at hop 153, short of the tail at hop 200.
        EXPECT_EQ(timed.pin, 0x10000u + 153 * 0x100);
        EXPECT_NE(timed.first.value, 0x5eedu);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LongChainParity,
    ::testing::Values(CyclePolicy::abort, CyclePolicy::trap,
                      CyclePolicy::quarantine),
    [](const ::testing::TestParamInfo<CyclePolicy> &info) {
        return std::string(cyclePolicyName(info.param));
    });

} // namespace
} // namespace memfwd
