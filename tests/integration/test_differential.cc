/**
 * @file
 * Differential proof of FTC + chain-collapsing equivalence.
 *
 * The forwarding translation cache and lazy chain collapsing are
 * accelerations: they may change *timing* and *chain shape* but never
 * an architectural outcome.  This harness runs identical programs twice
 * — accelerations off and on — and requires:
 *
 *  - identical loaded values and final addresses for every reference;
 *  - identical user-trap sequences by (site, initial, final) — chain
 *    length is shape-dependent and deliberately excluded;
 *  - identical forwarded-reference counts (WalkResult.forwarded is the
 *    shape-invariant the Machine counts);
 *  - identical *canonical* heap images: collapse rewrites the payload
 *    of forwarded words, so each forwarded word is compared by the
 *    final word its chain resolves to, and data words byte-for-byte.
 *
 * Three program sources drive the comparison: all eight Table 1
 * workloads (hardware and exception modes), randomized op sequences
 * over a pool of relocated objects (100+ seeds across the feature
 * matrix), and chains deliberately poisoned with cycles/corruption
 * under the quarantine policy.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/cycle_check.hh"
#include "mem/tagged_memory.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "workloads/workload.hh"

namespace memfwd
{
namespace
{

/** Functional chain resolution on raw state (no timing, no stats). */
Addr
resolveFinalWord(const TaggedMemory &mem, Addr word)
{
    unsigned hops = 0;
    while (mem.fbit(word)) {
        word = wordAlign(mem.rawReadWord(word));
        if (++hops > 1u << 20)
            return 0; // cyclic: callers only canonicalize acyclic words
    }
    return word;
}

/**
 * Compare two heaps word-by-word up to chain shape: forwarded words by
 * where they resolve, data words by payload.  Reports the first few
 * divergent addresses rather than drowning the log.
 */
void
expectCanonicalHeapsEqual(const TaggedMemory &a, const TaggedMemory &b)
{
    const std::vector<Addr> pages_a = a.mappedPageBases();
    EXPECT_EQ(pages_a, b.mappedPageBases()) << "materialized pages differ";
    EXPECT_EQ(a.fbitCount(), b.fbitCount());

    unsigned reported = 0;
    for (const Addr base : pages_a) {
        if (!b.isMapped(base) || reported >= 5)
            continue;
        for (unsigned w = 0; w < TaggedMemory::pageWords; ++w) {
            const Addr addr = base + Addr(w) * wordBytes;
            const bool fa = a.fbit(addr);
            if (fa != b.fbit(addr)) {
                ADD_FAILURE() << "fbit differs at " << std::hex << addr;
                if (++reported >= 5)
                    break;
                continue;
            }
            const Word va =
                fa ? resolveFinalWord(a, addr) : a.rawReadWord(addr);
            const Word vb =
                fa ? resolveFinalWord(b, addr) : b.rawReadWord(addr);
            if (va != vb) {
                ADD_FAILURE()
                    << "canonical word differs at " << std::hex << addr
                    << (fa ? " (forwarded): " : " (data): ") << va
                    << " vs " << vb;
                if (++reported >= 5)
                    break;
            }
        }
    }
}

/** (site, initial, final) — the shape-invariant part of a user trap. */
using TrapRecord = std::tuple<SiteId, Addr, Addr>;

// ---------------------------------------------------------------------
// All eight workloads, accelerations off vs. on.
// ---------------------------------------------------------------------

class WorkloadDifferential
    : public ::testing::TestWithParam<
          std::tuple<std::string, MachineConfig::Mode>>
{
};

TEST_P(WorkloadDifferential, AcceleratedRunIsArchitecturallyIdentical)
{
    setVerbose(false);
    const auto &[name, mode] = GetParam();
    WorkloadParams params;
    params.seed = testSeed(params.seed);
    params.scale = 0.1;
    WorkloadVariant variant;
    variant.layout_opt = true; // the L case is where chains exist

    MachineConfig base;
    base.forwarding.mode = mode;
    MachineConfig accel = MachineConfig(base).ftc().collapse();

    Machine m_base(base);
    auto w_base = makeWorkload(name, params);
    w_base->run(m_base, variant);

    Machine m_accel(accel);
    auto w_accel = makeWorkload(name, params);
    w_accel->run(m_accel, variant);

    EXPECT_EQ(w_base->checksum(), w_accel->checksum());
    EXPECT_EQ(m_base.loads(), m_accel.loads());
    EXPECT_EQ(m_base.stores(), m_accel.stores());
    EXPECT_EQ(m_base.loadsForwarded(), m_accel.loadsForwarded());
    EXPECT_EQ(m_base.storesForwarded(), m_accel.storesForwarded());
    expectCanonicalHeapsEqual(m_base.mem(), m_accel.mem());

    // When the run forwarded at all, the FTC must have been exercised.
    const ForwardingStats &fs = m_accel.forwarding().stats();
    if (m_base.loadsForwarded() + m_base.storesForwarded() > 0) {
        EXPECT_GT(fs.ftc_hits + fs.ftc_misses, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDifferential,
    ::testing::Combine(
        ::testing::ValuesIn(workloadNames()),
        ::testing::Values(MachineConfig::Mode::hardware,
                          MachineConfig::Mode::exception)),
    [](const auto &info) {
        const bool exc =
            std::get<1>(info.param) == MachineConfig::Mode::exception;
        return std::get<0>(info.param) + (exc ? "_exc" : "_hw");
    });

// ---------------------------------------------------------------------
// Fast-forward mode: timing dropped, architecture intact.
// ---------------------------------------------------------------------

/**
 * Functional fast-forward skips cache/CPU timing but must keep every
 * architectural outcome: checksums, reference counts, forwarded-ref
 * counts and the canonical heap all match a fully timed run — both
 * when the whole program is fast-forwarded and when only the build
 * phase is (the memfwd_sim --fast-forward=build use case, where the
 * measured kernel still runs timed).
 */
class FastForwardDifferential
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

TEST_P(FastForwardDifferential, MatchesTimedRunArchitecturally)
{
    setVerbose(false);
    const auto &[name, region] = GetParam();
    WorkloadParams params;
    params.seed = testSeed(params.seed);
    params.scale = 0.1;
    WorkloadVariant variant;
    variant.layout_opt = true;

    Machine m_timed((MachineConfig()));
    auto w_timed = makeWorkload(name, params);
    w_timed->run(m_timed, variant);

    Machine m_ff(MachineConfig{}.fastForward(region));
    auto w_ff = makeWorkload(name, params);
    w_ff->run(m_ff, variant);

    EXPECT_EQ(w_timed->checksum(), w_ff->checksum());
    EXPECT_EQ(m_timed.refsExecuted(), m_ff.refsExecuted());
    EXPECT_EQ(m_timed.loads(), m_ff.loads());
    EXPECT_EQ(m_timed.stores(), m_ff.stores());
    EXPECT_EQ(m_timed.loadsForwarded(), m_ff.loadsForwarded());
    EXPECT_EQ(m_timed.storesForwarded(), m_ff.storesForwarded());
    expectCanonicalHeapsEqual(m_timed.mem(), m_ff.mem());

    // Whole-program fast-forward must actually skip time.  Partial
    // fast-forward carries no such guarantee: skipping the build phase
    // also skips its cache warm-up, so the still-timed kernel starts
    // cold and can legitimately cost *more* total cycles.
    if (region == "all") {
        EXPECT_LT(m_ff.cycles(), m_timed.cycles());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, FastForwardDifferential,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::Values(std::string("all"),
                                         std::string("build"))),
    [](const auto &info) {
        return std::get<0>(info.param) + "_ff_" + std::get<1>(info.param);
    });

// ---------------------------------------------------------------------
// Randomized op sequences over a pool of relocated objects.
// ---------------------------------------------------------------------

constexpr unsigned obj_count = 24;
constexpr unsigned obj_words = 4;
constexpr Addr obj_base = 0x00100000;
constexpr Addr obj_stride = 0x100;
constexpr Addr reloc_base = 0x04000000;
constexpr Addr scratch_base = 0x08000000;

Addr
objAddr(unsigned i)
{
    return obj_base + Addr(i) * obj_stride;
}

/** Everything architecturally observable from one sequence run. */
struct Outcome
{
    std::vector<std::uint64_t> log; ///< values + final addrs, in op order
    std::vector<TrapRecord> traps;
    std::uint64_t loads = 0, stores = 0;
    std::uint64_t loads_forwarded = 0, stores_forwarded = 0;
    std::unique_ptr<Machine> machine; ///< kept alive for heap comparison
};

/**
 * The op mix: loads/stores through chains (sub-word included), chain
 * growth via transactional relocate(), Read_FBit probes, and fresh
 * region initialization.  Mutations that *sever* chains are excluded —
 * severing rewrites resolution upstream, which no acceleration can (or
 * should) preserve.
 */
Outcome
runCleanSequence(const MachineConfig &cfg, std::uint64_t seed)
{
    Outcome out;
    out.machine = std::make_unique<Machine>(cfg);
    Machine &m = *out.machine;
    Rng rng(seed);

    m.forwarding().traps().install([&](const TrapInfo &t) {
        out.traps.push_back({t.site, t.initial_addr, t.final_addr});
        return TrapAction::resume;
    });

    for (unsigned i = 0; i < obj_count; ++i)
        for (unsigned w = 0; w < obj_words; ++w)
            m.access(Access::store(objAddr(i) + w * wordBytes, 8, seed ^ (i * 131 + w)));

    Addr reloc_bump = reloc_base;
    Addr scratch_bump = scratch_base;
    for (unsigned op = 0; op < 400; ++op) {
        const unsigned obj = unsigned(rng.below(obj_count));
        const unsigned word = unsigned(rng.below(obj_words));
        const Addr addr = objAddr(obj) + word * wordBytes;
        const std::uint64_t pick = rng.below(100);
        if (pick < 45) {
            const AccessResult r = m.access(Access::load(addr, 8, 0, SiteId(op)));
            out.log.push_back(r.value);
            out.log.push_back(r.final_addr);
        } else if (pick < 70) {
            const AccessResult s =
                m.access(Access::store(addr, 8, rng.next(), 0, SiteId(op)));
            out.log.push_back(s.final_addr);
        } else if (pick < 85) {
            relocate(m, objAddr(obj), reloc_bump, obj_words);
            reloc_bump += obj_words * wordBytes + 0x40;
        } else if (pick < 90) {
            out.log.push_back((m.access(Access::readFBit(addr)).value != 0) ? 1 : 0);
        } else if (pick < 95) {
            const AccessResult r = m.access(Access::load(addr + 4, 4, 0, SiteId(op)));
            out.log.push_back(r.value);
            out.log.push_back(r.final_addr);
        } else {
            m.mem().initializeRegion(scratch_bump, 64);
            m.access(Access::store(scratch_bump + 8, 8, op));
            out.log.push_back(m.access(Access::load(scratch_bump + 8, 8)).value);
            scratch_bump += 0x1000;
        }
    }

    out.loads = m.loads();
    out.stores = m.stores();
    out.loads_forwarded = m.loadsForwarded();
    out.stores_forwarded = m.storesForwarded();
    return out;
}

MachineConfig
differentialConfig(int features, bool accelerated)
{
    MachineConfig cfg;
    if (features == 3)
        cfg.forwarding.mode = MachineConfig::Mode::exception;
    if (!accelerated)
        return cfg;
    if (features == 0)
        return cfg.ftc();
    if (features == 1)
        return cfg.collapse();
    return cfg.ftc().collapse(); // 2 (hardware) and 3 (exception)
}

class CleanOpsDifferential
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CleanOpsDifferential, SameArchitecturalResults)
{
    setVerbose(false);
    const auto &[seed_index, features] = GetParam();
    const std::uint64_t seed = testSeed(0xd1ff0000u + seed_index);

    const Outcome base =
        runCleanSequence(differentialConfig(features, false), seed);
    const Outcome accel =
        runCleanSequence(differentialConfig(features, true), seed);

    ASSERT_EQ(base.log.size(), accel.log.size());
    EXPECT_EQ(base.log, accel.log);
    EXPECT_EQ(base.traps, accel.traps);
    EXPECT_EQ(base.loads, accel.loads);
    EXPECT_EQ(base.stores, accel.stores);
    EXPECT_EQ(base.loads_forwarded, accel.loads_forwarded);
    EXPECT_EQ(base.stores_forwarded, accel.stores_forwarded);
    expectCanonicalHeapsEqual(base.machine->mem(), accel.machine->mem());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByFeature, CleanOpsDifferential,
    ::testing::Combine(::testing::Range(0, 34),
                       ::testing::Values(0, 1, 2)),
    [](const auto &info) {
        const int f = std::get<1>(info.param);
        const char *kind =
            f == 0 ? "ftc" : (f == 1 ? "collapse" : "both");
        return std::string(kind) + "_s"
               + std::to_string(std::get<0>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    ExceptionModeSeeds, CleanOpsDifferential,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(3)),
    [](const auto &info) {
        return "exc_s" + std::to_string(std::get<0>(info.param));
    });

// ---------------------------------------------------------------------
// Poisoned chains under the quarantine policy.
// ---------------------------------------------------------------------

struct FaultyOutcome
{
    std::vector<std::uint64_t> clean_values; ///< loads of healthy objects
    std::uint64_t cycles_detected = 0;
    std::uint64_t cycles_quarantined = 0;
    std::uint64_t corrupt_forwards = 0;
    std::unique_ptr<Machine> machine;
};

/**
 * Chains are grown, then two are closed into cycles and one is given a
 * misaligned (corrupt) tail.  The quarantine pin of a *cycle* depends
 * on chain shape, so poisoned-object values are not compared — only
 * that both runs detect, quarantine, and keep running identically for
 * every healthy object.
 */
FaultyOutcome
runFaultySequence(const MachineConfig &cfg, std::uint64_t seed)
{
    FaultyOutcome out;
    out.machine = std::make_unique<Machine>(cfg);
    Machine &m = *out.machine;
    Rng rng(seed);

    constexpr unsigned chains = 6;
    Addr bump = reloc_base;
    for (unsigned i = 0; i < chains; ++i) {
        for (unsigned w = 0; w < obj_words; ++w)
            m.access(Access::store(objAddr(i) + w * wordBytes, 8, seed + i * 7 + w));
        const unsigned relocs = 2 + unsigned(rng.below(2));
        for (unsigned r = 0; r < relocs; ++r) {
            relocate(m, objAddr(i), bump, obj_words);
            bump += obj_words * wordBytes + 0x40;
        }
    }

    // Poison deterministically: chains 0 and 1 become cycles (the tail
    // re-forwarded at the head), chain 2 gets a corrupt tail.
    for (unsigned i = 0; i < 2; ++i) {
        const Addr head = objAddr(i);
        const Addr tail = chaseChain(m, head);
        m.access(Access::unforwardedWrite(tail, head, true));
    }
    {
        const Addr tail = chaseChain(m, objAddr(2));
        m.access(Access::unforwardedWrite(tail, 0x6661, true)); // misaligned payload
    }

    // Reference everything, twice (the second pass rides the pins).
    for (unsigned pass = 0; pass < 2; ++pass) {
        for (unsigned i = 0; i < chains; ++i) {
            for (unsigned w = 0; w < obj_words; ++w) {
                const AccessResult r =
                    m.access(Access::load(objAddr(i) + w * wordBytes, 8));
                if (i >= 3) {
                    out.clean_values.push_back(r.value);
                    out.clean_values.push_back(r.final_addr);
                }
            }
        }
    }

    const ForwardingStats &fs = m.forwarding().stats();
    out.cycles_detected = fs.cycles_detected;
    out.cycles_quarantined = fs.cycles_quarantined;
    out.corrupt_forwards = fs.corrupt_forwards;
    return out;
}

class FaultyOpsDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(FaultyOpsDifferential, QuarantineBehaviorMatches)
{
    setVerbose(false);
    const std::uint64_t seed = testSeed(0xbad0000u + GetParam());
    MachineConfig base;
    base.forwarding.cycle_policy = CyclePolicy::quarantine;
    const MachineConfig accel = MachineConfig(base).ftc().collapse();

    const FaultyOutcome a = runFaultySequence(base, seed);
    const FaultyOutcome b = runFaultySequence(accel, seed);

    EXPECT_EQ(a.clean_values, b.clean_values);
    EXPECT_GT(a.cycles_detected, 0u);
    EXPECT_EQ(a.cycles_detected, b.cycles_detected);
    EXPECT_EQ(a.cycles_quarantined, b.cycles_quarantined);
    EXPECT_GT(a.corrupt_forwards, 0u);
    EXPECT_EQ(a.corrupt_forwards, b.corrupt_forwards);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultyOpsDifferential,
                         ::testing::Range(0, 10));

} // namespace
} // namespace memfwd
