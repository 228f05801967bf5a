/**
 * @file
 * Commutativity differential: the empirical check behind every COMMUTE
 * verdict the InterferenceAnalyzer hands out.
 *
 * For each plan pair the static pass calls COMMUTE, the pair is
 * executed three ways on identically seeded heaps — A then B, B then
 * A, and interleaved at transaction granularity (plan B's relocation
 * transactions land between plan A's) — and the three final heaps must
 * be canonically bit-identical: forwarded words compared by where they
 * resolve, data words byte-for-byte.
 *
 * Pair sources: 140 randomized plan pairs (commute-biased; >= 100 must
 * actually commute so the differential has teeth) and real plans
 * harvested from all nine workloads via AnalysisGate::setRetainPlans.
 * A seeded CONFLICT pair closes the loop: the static pass must flag it
 * (E101) and the two serial orders must leave different heaps.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/gate.hh"
#include "analysis/interference.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "mem/tagged_memory.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "workloads/driver.hh"
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
            return 0;
    }
    return word;
}

/** Canonical heap equality: chain shape out, resolution + payload in. */
bool
canonicalHeapsEqual(const TaggedMemory &a, const TaggedMemory &b,
                    std::string &why)
{
    const std::vector<Addr> pages = a.mappedPageBases();
    if (pages != b.mappedPageBases()) {
        why = "materialized pages differ";
        return false;
    }
    if (a.fbitCount() != b.fbitCount()) {
        why = "forwarding-bit counts differ";
        return false;
    }
    for (const Addr base : pages) {
        for (unsigned w = 0; w < TaggedMemory::pageWords; ++w) {
            const Addr addr = base + Addr(w) * wordBytes;
            if (a.fbit(addr) != b.fbit(addr)) {
                why = strfmt("fbit differs at %#llx",
                             static_cast<unsigned long long>(addr));
                return false;
            }
            const Word va = a.fbit(addr) ? resolveFinalWord(a, addr)
                                         : a.rawReadWord(addr);
            const Word vb = b.fbit(addr) ? resolveFinalWord(b, addr)
                                         : b.rawReadWord(addr);
            if (va != vb) {
                why = strfmt("canonical word differs at %#llx",
                             static_cast<unsigned long long>(addr));
                return false;
            }
        }
    }
    return true;
}

/** Deterministic payload for a source word (seed-mixed). */
Word
seedValue(Addr addr, std::uint64_t seed)
{
    return (addr * 0x9e3779b97f4a7c15ull) ^ seed;
}

/** Seed every source word of both plans with deterministic payload. */
void
seedHeap(Machine &m, const RelocationPlan &a, const RelocationPlan &b,
         std::uint64_t seed)
{
    for (const RelocationPlan *p : {&a, &b}) {
        for (const PlanMove &mv : p->moves()) {
            for (unsigned k = 0; k < mv.n_words; ++k) {
                const Addr addr = mv.src + Addr(k) * wordBytes;
                m.access(Access::store(addr, wordBytes,
                                       seedValue(addr, seed)));
            }
        }
    }
}

/** Execute one plan: each move is one relocation transaction. */
void
execMoves(Machine &m, const RelocationPlan &plan, std::size_t from = 0,
          std::size_t to = ~std::size_t(0))
{
    const std::vector<PlanMove> &moves = plan.moves();
    for (std::size_t i = from; i < moves.size() && i < to; ++i)
        relocate(m, moves[i].src, moves[i].dst, moves[i].n_words);
}

/** Serial execution: @p x fully commits, then @p y. */
std::unique_ptr<Machine>
runSerial(const RelocationPlan &x, const RelocationPlan &y,
          std::uint64_t seed)
{
    auto m = std::make_unique<Machine>(MachineConfig{});
    AnalysisGate gate(AnalyzeMode::plan);
    m->setAnalysisGate(&gate);
    seedHeap(*m, x, y, seed);
    {
        PlanScope scope(&gate, x);
        execMoves(*m, x);
    }
    {
        PlanScope scope(&gate, y);
        execMoves(*m, y);
    }
    m->setAnalysisGate(nullptr); // gate dies with this frame
    return m;
}

/**
 * Interleaved execution at transaction granularity: A opens and runs
 * its first transaction, B opens, runs completely and closes, then A
 * finishes.  The open-plan stack stays properly nested.
 */
std::unique_ptr<Machine>
runInterleaved(const RelocationPlan &a, const RelocationPlan &b,
               std::uint64_t seed)
{
    auto m = std::make_unique<Machine>(MachineConfig{});
    AnalysisGate gate(AnalyzeMode::plan);
    m->setAnalysisGate(&gate);
    seedHeap(*m, a, b, seed);

    gate.submit(a);
    execMoves(*m, a, 0, 1);
    {
        gate.submit(b);
        execMoves(*m, b);
        gate.planDone();
    }
    execMoves(*m, a, 1);
    gate.planDone();

    m->setAnalysisGate(nullptr);
    return m;
}

/** The three-way differential one COMMUTE pair must pass. */
void
expectPairCommutes(const RelocationPlan &a, const RelocationPlan &b,
                   std::uint64_t seed, const char *label)
{
    const std::unique_ptr<Machine> ab = runSerial(a, b, seed);
    const std::unique_ptr<Machine> ba = runSerial(b, a, seed);
    const std::unique_ptr<Machine> il = runInterleaved(a, b, seed);

    std::string why;
    EXPECT_TRUE(canonicalHeapsEqual(ab->mem(), ba->mem(), why))
        << label << ": A;B vs B;A: " << why;
    EXPECT_TRUE(canonicalHeapsEqual(ab->mem(), il->mem(), why))
        << label << ": A;B vs interleaved: " << why;
}

// ---------------------------------------------------------------------
// Randomized pairs, commute-biased.
// ---------------------------------------------------------------------

constexpr Addr slot_stride = 0x100; ///< fits 16-word objects with slack
constexpr unsigned slots_per_region = 32;

Addr
srcSlot(unsigned region, unsigned slot)
{
    return 0x00100000 + Addr(region) * 0x40000 +
           Addr(slot) * slot_stride;
}

Addr
dstSlot(unsigned region, unsigned slot)
{
    return 0x04000000 + Addr(region) * 0x40000 +
           Addr(slot) * slot_stride;
}

/** A random plan over distinct slots of one src/dst region pair. */
RelocationPlan
randomPlan(Rng &rng, const char *name, unsigned region)
{
    RelocationPlan p(name);
    p.assume(AliasAssumption::stale_pointers_possible);
    const unsigned n_moves = 1 + unsigned(rng.below(3));
    std::vector<bool> used(slots_per_region, false);
    for (unsigned i = 0; i < n_moves; ++i) {
        unsigned s = unsigned(rng.below(slots_per_region));
        while (used[s])
            s = (s + 1) % slots_per_region;
        used[s] = true;
        const unsigned n_words = 1 + unsigned(rng.below(8));
        p.move(srcSlot(region, s), dstSlot(region, s), n_words);
    }
    return p;
}

TEST(Commutativity, RandomizedCommutePairsAreOrderInsensitive)
{
    setVerbose(false);
    const InterferenceAnalyzer analyzer;
    unsigned commute_runs = 0;
    constexpr unsigned total_pairs = 140;

    for (unsigned pair = 0; pair < total_pairs; ++pair) {
        Rng rng(testSeed(0xc0441700u + pair));
        // Bias: ~3/4 of pairs draw from disjoint regions (guaranteed
        // commute); the rest share a region and may interfere.
        const unsigned region_a = 0;
        const unsigned region_b = rng.below(4) ? 1 : 0;
        const RelocationPlan a = randomPlan(rng, "rand_a", region_a);
        const RelocationPlan b = randomPlan(rng, "rand_b", region_b);

        const PairFinding f = analyzer.analyzePair(a, b);
        if (f.verdict != InterferenceVerdict::commute)
            continue;
        expectPairCommutes(a, b, testSeed(0x5eed0000u + pair),
                           ("pair " + std::to_string(pair)).c_str());
        ++commute_runs;
    }
    // The differential must actually have run on a large sample.
    EXPECT_GE(commute_runs, 100u);
}

// ---------------------------------------------------------------------
// Real plans from all nine workloads.
// ---------------------------------------------------------------------

class WorkloadCommutativity
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadCommutativity, HarvestedCommutePairsAreOrderInsensitive)
{
    setVerbose(false);
    const std::string name = GetParam();

    // Harvest every plan the workload's layout passes emit.
    RunConfig cfg;
    cfg.workload = name;
    cfg.params.scale = 0.05;
    cfg.params.seed = testSeed(cfg.params.seed);
    cfg.variant.layout_opt = true;

    Machine machine(cfg.machine);
    AnalysisGate gate(AnalyzeMode::plan);
    gate.setKeepGoing(true);
    gate.setRetainPlans(true);
    machine.setAnalysisGate(&gate);
    makeWorkload(cfg.workload, cfg.params)->run(machine, cfg.variant);
    machine.setAnalysisGate(nullptr);
    const std::vector<RelocationPlan> &plans = gate.plans();

    // Replay adjacent COMMUTE pairs on synthetic heaps.  Caps keep the
    // suite fast: a handful of pairs per workload, none enormous.
    constexpr std::size_t max_pairs = 5;
    constexpr std::uint64_t max_pair_words = 4096;
    const InterferenceAnalyzer analyzer;
    std::size_t replayed = 0;
    for (std::size_t i = 0; i + 1 < plans.size() && replayed < max_pairs;
         ++i) {
        const RelocationPlan &a = plans[i];
        const RelocationPlan &b = plans[i + 1];
        if (a.moves().empty() || b.moves().empty())
            continue;
        if (a.totalWords() + b.totalWords() > max_pair_words)
            continue;
        if (analyzer.analyzePair(a, b).verdict !=
            InterferenceVerdict::commute)
            continue;
        expectPairCommutes(a, b, testSeed(0x3a7e0000u + unsigned(i)),
                           (name + " pair " + std::to_string(i)).c_str());
        ++replayed;
    }
    // Every workload that emits >= 2 plans must contribute pairs;
    // workloads without adjacent commuting plans legitimately skip.
    if (plans.size() >= 2 && replayed == 0) {
        std::size_t commuting = 0;
        for (std::size_t i = 0; i + 1 < plans.size(); ++i)
            commuting += analyzer.analyzePair(plans[i], plans[i + 1])
                             .verdict == InterferenceVerdict::commute;
        EXPECT_EQ(commuting, 0u)
            << name << ": commuting pairs existed but none replayed";
    }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadCommutativity,
                         ::testing::ValuesIn(extendedWorkloadNames()),
                         [](const auto &info) { return info.param; });

// ---------------------------------------------------------------------
// The seeded CONFLICT: the static pass flags it, the heaps show it.
// ---------------------------------------------------------------------

TEST(Commutativity, SeededConflictCaughtStaticallyAndDynamically)
{
    setVerbose(false);
    // Both plans relocate the same source object: E101, the canonical
    // racing-chain-append conflict.
    RelocationPlan a("conflict_a");
    a.assume(AliasAssumption::stale_pointers_possible)
        .move(srcSlot(0, 0), dstSlot(0, 0), 4);
    RelocationPlan b("conflict_b");
    b.assume(AliasAssumption::stale_pointers_possible)
        .move(srcSlot(0, 0), dstSlot(1, 0), 4);

    // Static: the analyzer calls the pair a conflict.
    const PairFinding f = InterferenceAnalyzer().analyzePair(a, b);
    EXPECT_EQ(f.verdict, InterferenceVerdict::conflict);
    EXPECT_TRUE(f.hasCode(DiagCode::E101_shared_move_source));

    // Dynamic: the order decides where the source ends up — the plan
    // that runs second appends its copy to the first one's chain, so
    // the source resolves to dstSlot(1,0) after A;B and to dstSlot(0,0)
    // after B;A.
    const std::uint64_t seed = testSeed(0xc04f11c7);
    const std::unique_ptr<Machine> ab = runSerial(a, b, seed);
    const std::unique_ptr<Machine> ba = runSerial(b, a, seed);
    EXPECT_EQ(resolveFinalWord(ab->mem(), srcSlot(0, 0)), dstSlot(1, 0));
    EXPECT_EQ(resolveFinalWord(ba->mem(), srcSlot(0, 0)), dstSlot(0, 0));
    std::string why;
    EXPECT_FALSE(canonicalHeapsEqual(ab->mem(), ba->mem(), why))
        << "a conflicting pair must be order-sensitive";
}

} // namespace
} // namespace memfwd
