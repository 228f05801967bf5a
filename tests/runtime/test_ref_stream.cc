/**
 * @file
 * Batched reference-stream API tests.
 *
 * The contract under test (runtime/ref_stream.hh): batch size never
 * changes simulated timing or architectural results.  A program driven
 * through BatchEmitter at any capacity — including 1 — must produce
 * cycle counts, forwarding statistics, trap sequences, loaded values
 * and heap state identical to the same program issued through the
 * per-call Machine::access() API.  Forwarded words and user traps are
 * deliberately placed so references resolve chains *inside* a drained
 * batch, and relocations land between batches under the documented
 * flush discipline.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "core/traps.hh"
#include "runtime/machine.hh"
#include "runtime/ref_stream.hh"
#include "runtime/relocation.hh"

namespace memfwd
{
namespace
{

constexpr Addr obj_base = 0x100000;
constexpr unsigned obj_count = 24;
constexpr unsigned obj_words = 4;
constexpr Addr reloc_base = 0x800000;

Addr
objAddr(unsigned i)
{
    return obj_base + Addr(i) * 0x100;
}

/**
 * Issue surface the synthetic program runs against, so the identical
 * sequence can be driven per-call and batched at several capacities.
 */
class Ops
{
  public:
    virtual ~Ops() = default;
    virtual void store(Addr a, std::uint64_t v, SiteId s = no_site) = 0;
    virtual AccessResult load(Addr a, SiteId s = no_site) = 0;
    virtual bool readFBit(Addr a) = 0;
    virtual std::uint64_t unforwardedRead(Addr a) = 0;
    virtual void compute(std::uint64_t n) = 0;
    virtual void prefetch(Addr a, unsigned lines) = 0;
    /** Drain pending work (required before relocation, like allocs). */
    virtual void flush() {}
};

class DirectOps : public Ops
{
  public:
    explicit DirectOps(Machine &m) : m_(m) {}

    void
    store(Addr a, std::uint64_t v, SiteId s) override
    {
        m_.access(Access::store(a, wordBytes, v, 0, s));
    }
    AccessResult
    load(Addr a, SiteId s) override
    {
        return m_.access(Access::load(a, wordBytes, 0, s));
    }
    bool
    readFBit(Addr a) override
    {
        return m_.access(Access::readFBit(a)).value != 0;
    }
    std::uint64_t
    unforwardedRead(Addr a) override
    {
        return m_.access(Access::unforwardedRead(a)).value;
    }
    void compute(std::uint64_t n) override { m_.access(Access::compute(n)); }
    void
    prefetch(Addr a, unsigned lines) override
    {
        m_.access(Access::prefetch(a, lines));
    }

  private:
    Machine &m_;
};

class EmitterOps : public Ops
{
  public:
    EmitterOps(Machine &m, std::size_t cap) : em_(m, cap) {}

    void
    store(Addr a, std::uint64_t v, SiteId s) override
    {
        em_.store(a, wordBytes, v, 0, s);
    }
    AccessResult
    load(Addr a, SiteId s) override
    {
        return em_.load(a, wordBytes, 0, s);
    }
    bool readFBit(Addr a) override { return em_.readFBit(a); }
    std::uint64_t
    unforwardedRead(Addr a) override
    {
        return em_.unforwardedRead(a);
    }
    void compute(std::uint64_t n) override { em_.compute(n); }
    void
    prefetch(Addr a, unsigned lines) override
    {
        em_.prefetch(a, lines);
    }
    void flush() override { em_.flush(); }

  private:
    BatchEmitter em_;
};

/** Everything an execution strategy may not change. */
struct Outcome
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t refs = 0;
    std::uint64_t loads_forwarded = 0;
    std::uint64_t stores_forwarded = 0;
    /** Loads that landed away from their initial address. */
    std::uint64_t redirected_loads = 0;
    /** (site, initial, final) per delivered trap, in order. */
    std::vector<std::uint64_t> traps;
    /** Loaded values, final addresses, fbits — the architectural log. */
    std::vector<std::uint64_t> log;
    std::uint64_t heap_sum = 0;
};

/**
 * A fixed mixed program: build objects, relocate a third of them
 * (creating chains), then hammer loads/stores/raw ops over the mix so
 * forwarded references and user traps land inside drained batches.
 */
Outcome
runProgram(Machine &m, Ops &ops)
{
    Outcome out;
    m.forwarding().traps().install([&](const TrapInfo &t) {
        out.traps.push_back(t.site);
        out.traps.push_back(t.initial_addr);
        out.traps.push_back(t.final_addr);
        return TrapAction::resume;
    });

    for (unsigned i = 0; i < obj_count; ++i)
        for (unsigned w = 0; w < obj_words; ++w)
            ops.store(objAddr(i) + w * wordBytes, i * 977 + w);

    // Relocate every third object; the forwarding words these leave
    // behind are what later batched references must chase.
    ops.flush();
    Addr bump = reloc_base;
    for (unsigned i = 0; i < obj_count; i += 3) {
        relocate(m, objAddr(i), bump, obj_words);
        bump += obj_words * wordBytes + 0x40;
    }

    Rng rng(testSeed(0x5eed));
    for (unsigned op = 0; op < 250; ++op) {
        const unsigned obj = unsigned(rng.below(obj_count));
        const Addr addr =
            objAddr(obj) + rng.below(obj_words) * wordBytes;
        const std::uint64_t pick = rng.below(100);
        if (pick < 40) {
            const AccessResult r = ops.load(addr, SiteId(op));
            out.log.push_back(r.value);
            out.log.push_back(r.final_addr);
            out.redirected_loads += r.final_addr != addr ? 1 : 0;
        } else if (pick < 70) {
            ops.store(addr, rng.next(), SiteId(op));
        } else if (pick < 80) {
            out.log.push_back(ops.readFBit(addr) ? 1 : 0);
        } else if (pick < 88) {
            out.log.push_back(ops.unforwardedRead(addr));
        } else if (pick < 94) {
            ops.compute(rng.below(4) + 1);
        } else {
            ops.prefetch(addr, unsigned(rng.below(2)) + 1);
        }
    }
    ops.flush();

    for (unsigned i = 0; i < obj_count; ++i)
        for (unsigned w = 0; w < obj_words; ++w)
            out.heap_sum += m.peek(objAddr(i) + w * wordBytes, wordBytes);

    out.cycles = m.cycles();
    out.instructions = m.cpu().instructions();
    out.refs = m.refsExecuted();
    out.loads_forwarded = m.loadsForwarded();
    out.stores_forwarded = m.storesForwarded();
    return out;
}

Outcome
runPerCall(const MachineConfig &cfg)
{
    Machine m(cfg);
    DirectOps ops(m);
    return runProgram(m, ops);
}

Outcome
runBatched(const MachineConfig &cfg, std::size_t cap)
{
    Machine m(cfg);
    EmitterOps ops(m, cap);
    return runProgram(m, ops);
}

void
expectSameOutcome(const Outcome &a, const Outcome &b, const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.refs, b.refs) << what;
    EXPECT_EQ(a.loads_forwarded, b.loads_forwarded) << what;
    EXPECT_EQ(a.stores_forwarded, b.stores_forwarded) << what;
    EXPECT_EQ(a.traps, b.traps) << what;
    EXPECT_EQ(a.log, b.log) << what;
    EXPECT_EQ(a.heap_sum, b.heap_sum) << what;
}

class BatchInvariance
    : public ::testing::TestWithParam<MachineConfig::Mode>
{
};

TEST_P(BatchInvariance, AnyCapacityMatchesPerCallExactly)
{
    MachineConfig cfg;
    cfg.forwarding.mode = GetParam();
    const Outcome per_call = runPerCall(cfg);

    // The program must actually exercise forwarding inside batches.
    // Perfect mode reports no reference as forwarded, so the witness is
    // loads that landed away from their initial address.
    EXPECT_GT(per_call.redirected_loads, 0u);
    if (GetParam() != MachineConfig::Mode::perfect) {
        EXPECT_GT(per_call.loads_forwarded + per_call.stores_forwarded, 0u);
    }

    for (std::size_t cap : {std::size_t(1), std::size_t(3),
                            std::size_t(7), std::size_t(256)}) {
        const Outcome batched = runBatched(cfg, cap);
        expectSameOutcome(per_call, batched,
                          ("capacity " + std::to_string(cap)).c_str());
    }
}

TEST_P(BatchInvariance, FastForwardKeepsArchitecturalLog)
{
    // Functional fast-forward drops timing but nothing else: the same
    // program yields the identical value/address/trap log and heap.
    MachineConfig timed_cfg;
    timed_cfg.forwarding.mode = GetParam();
    const MachineConfig ff_cfg = MachineConfig(timed_cfg).fastForward();

    const Outcome timed = runBatched(timed_cfg, 64);
    const Outcome ff = runBatched(ff_cfg, 64);

    EXPECT_EQ(timed.log, ff.log);
    EXPECT_EQ(timed.traps, ff.traps);
    EXPECT_EQ(timed.heap_sum, ff.heap_sum);
    EXPECT_EQ(timed.refs, ff.refs);
    EXPECT_LT(ff.cycles, timed.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, BatchInvariance,
    ::testing::Values(MachineConfig::Mode::hardware,
                      MachineConfig::Mode::exception,
                      MachineConfig::Mode::perfect),
    [](const ::testing::TestParamInfo<MachineConfig::Mode> &info) {
        switch (info.param) {
          case MachineConfig::Mode::exception:
            return "exception";
          case MachineConfig::Mode::perfect:
            return "perfect";
          default:
            return "hardware";
        }
    });

// ---------------------------------------------------------------------
// AccessBatch mechanics
// ---------------------------------------------------------------------

TEST(AccessBatch, RunFillsEveryResult)
{
    Machine m;
    AccessBatch batch(8);
    batch.push(Access::store(0x1000, wordBytes, 41));
    batch.push(Access::store(0x2000, wordBytes, 42));
    batch.push(Access::load(0x1000, wordBytes));
    batch.push(Access::load(0x2000, wordBytes));
    m.run(batch);

    EXPECT_EQ(batch[2].res.value, 41u);
    EXPECT_EQ(batch[3].res.value, 42u);
    EXPECT_EQ(batch[2].res.final_addr, 0x1000u);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_GT(batch[i].res.ready, 0u) << "ref " << i;
}

TEST(AccessBatch, DepLinkGatesAddressReadiness)
{
    // refs[1] chases the pointer loaded by refs[0]: its address cannot
    // be ready before the first load completes.
    Machine m;
    m.poke(0x3000, wordBytes, 0x4000);
    m.poke(0x4000, wordBytes, 777);

    AccessBatch batch(4);
    const std::size_t head = batch.push(Access::load(0x3000, wordBytes));
    batch.push(Access::load(0x4000, wordBytes),
               std::int32_t(head));
    m.run(batch);

    EXPECT_EQ(batch[0].res.value, 0x4000u);
    EXPECT_EQ(batch[1].res.value, 777u);
    EXPECT_GE(batch[1].res.ready, batch[0].res.ready);
}

TEST(AccessBatch, ClearKeepsCapacity)
{
    AccessBatch batch(2);
    EXPECT_TRUE(batch.empty());
    batch.push(Access::compute(1));
    batch.push(Access::compute(1));
    EXPECT_TRUE(batch.full());
    batch.clear();
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(batch.capacity(), 2u);
}

TEST(RefStreamApi, DefaultCapacityIsPositive)
{
    EXPECT_GE(defaultBatchCapacity(), 1u);
}

// ---------------------------------------------------------------------
// BatchEmitter semantics
// ---------------------------------------------------------------------

TEST(BatchEmitter, DefersStoresUntilFlush)
{
    Machine m;
    BatchEmitter em(m, 16);
    em.store(0x1000, wordBytes, 5);
    em.store(0x1000, wordBytes, 6); // later store wins after the drain
    EXPECT_EQ(m.peek(0x1000, wordBytes), 0u) << "store ran before flush";
    em.flush();
    EXPECT_EQ(m.peek(0x1000, wordBytes), 6u);
}

TEST(BatchEmitter, ValueOpsFlushPendingWork)
{
    // load/readFBit/unforwardedRead are flush-through: the deferred
    // store must be visible to the load that follows it, unprompted.
    Machine m;
    BatchEmitter em(m, 16);
    em.store(0x2000, wordBytes, 99);
    EXPECT_EQ(em.load(0x2000, wordBytes).value, 99u);

    em.unforwardedWrite(0x3000, 0x4000, true);
    EXPECT_TRUE(em.readFBit(0x3000));
    EXPECT_EQ(em.unforwardedRead(0x3000), 0x4000u);
}

TEST(BatchEmitter, AutoFlushesAtCapacity)
{
    Machine m;
    BatchEmitter em(m, 2);
    em.store(0x1000, wordBytes, 1);
    em.store(0x1008, wordBytes, 2); // second defer fills cap=2: drains
    EXPECT_EQ(m.peek(0x1000, wordBytes), 1u);
    EXPECT_EQ(m.peek(0x1008, wordBytes), 2u);
}

TEST(BatchEmitter, DestructorFlushes)
{
    Machine m;
    {
        BatchEmitter em(m, 16);
        em.store(0x5000, wordBytes, 123);
    }
    EXPECT_EQ(m.peek(0x5000, wordBytes), 123u);
}

} // namespace
} // namespace memfwd
