/** @file Unit tests for the simulated-heap allocator. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd
{
namespace
{

TEST(SimAllocator, AllocationsAreWordAlignedAndDisjoint)
{
    Machine m;
    SimAllocator alloc(m);
    std::set<std::pair<Addr, Addr>> ranges;
    for (int i = 0; i < 200; ++i) {
        const Addr bytes = 8 + (i % 5) * 8;
        const Addr a = alloc.alloc(bytes, i % 2 ? Placement::scattered
                                                : Placement::sequential);
        EXPECT_TRUE(isWordAligned(a));
        for (const auto &[s, e] : ranges)
            EXPECT_TRUE(a + bytes <= s || a >= e);
        ranges.emplace(a, a + bytes);
    }
}

TEST(SimAllocator, OddSizesRoundUpToWords)
{
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(13);
    EXPECT_EQ(alloc.allocationSize(a), 16u);
}

TEST(SimAllocator, FreshMemoryHasClearForwardingBits)
{
    // Section 3.3: the OS must hand out memory with clear forwarding
    // bits.  Dirty arena space *before* it is allocated and confirm
    // the allocation sweep cleans it.
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(64, Placement::sequential);
    m.access(Access::unforwardedWrite(a + 64, 0xdead, true));
    const Addr b = alloc.alloc(64, Placement::sequential);
    EXPECT_EQ(b, a + 64);
    EXPECT_FALSE((m.access(Access::readFBit(b)).value != 0));
    EXPECT_EQ(m.access(Access::unforwardedRead(b)).value, 0u);
}

TEST(SimAllocator, ScatteredPlacementSpreadsBlocks)
{
    Machine m;
    SimAllocator alloc(m);
    // Scattered blocks should not be contiguous in general.
    std::vector<Addr> addrs;
    for (int i = 0; i < 50; ++i)
        addrs.push_back(alloc.alloc(32, Placement::scattered));
    unsigned adjacent = 0;
    for (std::size_t i = 1; i < addrs.size(); ++i) {
        if (addrs[i] == addrs[i - 1] + 32 ||
            addrs[i - 1] == addrs[i] + 32) {
            ++adjacent;
        }
    }
    EXPECT_LT(adjacent, 3u);
}

TEST(SimAllocator, SequentialPlacementPacksTightly)
{
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(32, Placement::sequential);
    const Addr b = alloc.alloc(32, Placement::sequential);
    EXPECT_EQ(b, a + 32);
}

TEST(SimAllocator, CustomAlignment)
{
    Machine m;
    SimAllocator alloc(m);
    alloc.alloc(8);
    const Addr a = alloc.alloc(64, Placement::sequential, 256);
    EXPECT_EQ(a % 256, 0u);
}

TEST(SimAllocator, StatsTrackLifecycle)
{
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(100); // rounds to 104
    EXPECT_EQ(alloc.bytesLive(), 104u);
    EXPECT_EQ(alloc.bytesTotal(), 104u);
    alloc.free(a);
    EXPECT_EQ(alloc.bytesLive(), 0u);
    EXPECT_EQ(alloc.bytesPeak(), 104u);
    EXPECT_EQ(alloc.allocCalls(), 1u);
    EXPECT_EQ(alloc.freeCalls(), 1u);
}

TEST(SimAllocator, DeterministicAcrossRunsWithSameSeed)
{
    Machine m1, m2;
    SimAllocator a1(m1, 77), a2(m2, 77);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a1.alloc(24, Placement::scattered),
                  a2.alloc(24, Placement::scattered));
    }
}

TEST(SimAllocator, ChainAwareFreeReclaimsRelocatedCopies)
{
    // Section 3.3: freeing an object whose words forward must free the
    // relocated copies too.
    Machine m;
    SimAllocator alloc(m);
    const Addr obj = alloc.alloc(32);
    const Addr copy = alloc.alloc(32);
    relocate(m, obj, copy, 4);
    EXPECT_TRUE(alloc.isAllocated(copy));
    alloc.free(obj);
    EXPECT_FALSE(alloc.isAllocated(obj));
    EXPECT_FALSE(alloc.isAllocated(copy));
    EXPECT_EQ(alloc.bytesLive(), 0u);
}

TEST(SimAllocator, ChainAwareFreeSkipsUnknownTargets)
{
    Machine m;
    SimAllocator alloc(m);
    const Addr obj = alloc.alloc(16);
    // Forward into pool-like space the allocator does not track.
    m.access(Access::unforwardedWrite(obj, 0x7f0000000ull, true));
    alloc.free(obj); // must not crash
    EXPECT_FALSE(alloc.isAllocated(obj));
}

TEST(SimAllocatorDeathTest, DoubleFreePanics)
{
    Machine m;
    SimAllocator alloc(m);
    const Addr a = alloc.alloc(16);
    alloc.free(a);
    EXPECT_DEATH(alloc.free(a), "unallocated");
}

TEST(SimAllocatorDeathTest, ZeroBytesPanics)
{
    Machine m;
    SimAllocator alloc(m);
    EXPECT_DEATH(alloc.alloc(0), "zero-byte");
}

TEST(SimAllocator, ScatteredHonoursAlignOnUnalignedBase)
{
    // The arena base sits 8 B past a 64-B boundary: scattered blocks
    // must still be 64-B aligned in absolute terms, like sequential.
    Machine m;
    const Addr base = m.config().heap_base + 8;
    SimAllocator alloc(m, base, Addr(1) << 20, 5);
    for (int i = 0; i < 100; ++i) {
        const Addr s = alloc.alloc(16, Placement::scattered, 64);
        EXPECT_EQ(s % 64, 0u);
        EXPECT_GE(s, base);
        const Addr q = alloc.alloc(16, Placement::sequential, 64);
        EXPECT_EQ(q % 64, 0u);
    }
}

TEST(SimAllocator, ScatteredRequestOfWholeSpan)
{
    Machine m;
    const Addr base = m.config().heap_base;
    const Addr span = 8192;
    {
        SimAllocator alloc(m, base, span);
        EXPECT_EQ(alloc.alloc(span, Placement::scattered), base);
        EXPECT_EQ(alloc.highestLiveEnd(), base + span);
    }
    SimAllocator alloc(m, base, span);
    EXPECT_THROW(alloc.alloc(span + 8, Placement::scattered), AllocFailure);
    EXPECT_EQ(alloc.bytesLive(), 0u);
}

TEST(SimAllocator, SequentialSkipsBlockAboveTheBump)
{
    // No block starts at or below the bump, and the only block sits
    // just above it: the collision skip must jump past that block.
    Machine m;
    const Addr base = m.config().heap_base;
    const Addr span = Addr(1) << 20;
    SimAllocator alloc(m, base, span, 1);
    const Addr s = alloc.alloc(64, Placement::scattered);
    ASSERT_GT(s, base);
    ASSERT_LT(s - base, span / 2); // room for the request past s
    EXPECT_EQ(alloc.alloc(s - base + 8, Placement::sequential), s + 64);
}

/**
 * The allocator's placement as an ordered map of live blocks, kept as
 * the reference SimAllocator must match address for address: the same
 * RNG draws, probes, skips and lowest holes.
 */
class MapPlacement
{
  public:
    MapPlacement(Addr base, Addr span, std::uint64_t seed)
        : base_(base), span_(span), rng_(seed)
    {
    }

    /** Place and record a block; throws AllocFailure like alloc(). */
    Addr
    alloc(Addr bytes, Placement placement, Addr align)
    {
        bytes = roundUpToWord(bytes);
        const Addr a = place(bytes, placement, align);
        blocks_.emplace(a, a + bytes);
        live_ += bytes;
        return a;
    }

    void
    erase(Addr addr)
    {
        const auto it = blocks_.find(addr);
        ASSERT_NE(it, blocks_.end());
        live_ -= it->second - it->first;
        blocks_.erase(it);
    }

    Addr live() const { return live_; }
    Addr
    highestLiveEnd() const
    {
        return blocks_.empty() ? base_ : blocks_.rbegin()->second;
    }
    Addr
    size(Addr addr) const
    {
        const auto it = blocks_.find(addr);
        return it == blocks_.end() ? 0 : it->second - it->first;
    }

    /** Scattered requests that fell back to sequential. */
    unsigned fallbacks = 0;

  private:
    bool
    rangeFree(Addr start, Addr bytes) const
    {
        if (start < base_ || start + bytes > base_ + span_)
            return false;
        auto it = blocks_.lower_bound(start);
        if (it != blocks_.end() && it->first < start + bytes)
            return false;
        return it == blocks_.begin() || std::prev(it)->second <= start;
    }

    Addr
    place(Addr bytes, Placement placement, Addr align)
    {
        if (placement == Placement::scattered && bytes < span_) {
            for (int attempt = 0; attempt < 64; ++attempt) {
                Addr c = (base_ + rng_.below(span_ - bytes)) & ~(align - 1);
                if (c < base_)
                    c += align;
                if (rangeFree(c, bytes))
                    return c;
            }
            ++fallbacks;
        }
        if (placement == Placement::first_fit) {
            Addr c = (base_ + align - 1) & ~(align - 1);
            for (const auto &[start, end] : blocks_) {
                if (c + bytes <= start)
                    break;
                if (end > c)
                    c = (end + align - 1) & ~(align - 1);
            }
            if (c + bytes > base_ + span_)
                throw AllocFailure(bytes, "simulated heap exhausted");
            bump_ = std::max(bump_, c + bytes - base_);
            return c;
        }
        Addr c = base_ + bump_;
        for (;;) {
            c = (c + align - 1) & ~(align - 1);
            if (c + bytes > base_ + span_)
                throw AllocFailure(bytes, "simulated heap exhausted");
            if (rangeFree(c, bytes))
                break;
            auto it = blocks_.upper_bound(c);
            if (it != blocks_.begin())
                --it;
            c = std::max(c + align, it->second);
        }
        bump_ = c + bytes - base_;
        return c;
    }

    Addr base_;
    Addr span_;
    Rng rng_;
    std::map<Addr, Addr> blocks_;
    Addr bump_ = 0;
    Addr live_ = 0;
};

/** The arena and block mix one oracle run drives. */
struct OracleMix
{
    Addr base_offset = 0;
    /** Arena size; 0 takes the Machine's whole default heap. */
    Addr span = 64 << 10;
    /** Requests are 1 to max_bytes bytes. */
    Addr max_bytes = 192;
    /** The larger of the two alignments allocs draw. */
    Addr big_align = 64;
    /** Share of allocs sized 64-96 KiB, past the bitmap's block limit. */
    double large_share = 0;
    /** The arena is small enough to fill: expect fallbacks and failures. */
    bool fills = true;
};

/**
 * Drive SimAllocator and MapPlacement with one seeded mix of allocs
 * (all three placements, align 8 and mix.big_align), chain-aware frees
 * of relocated objects and size queries.  A small arena runs past 70%
 * occupancy into exhaustion.  Every result must agree.
 */
void
runOracle(const OracleMix &mix, std::uint64_t seed)
{
    SCOPED_TRACE(::testing::Message() << "base +" << mix.base_offset
                                      << " span " << mix.span << " seed "
                                      << seed);
    setVerbose(false); // the fallbacks would each warn
    Machine m;
    const Addr base = m.config().heap_base + mix.base_offset;
    const Addr span = mix.span ? mix.span : m.config().heap_span;
    SimAllocator alloc(m, base, span, seed);
    MapPlacement ref(base, span, seed);
    Rng rng(seed ^ 0x0c1e);

    // Each root (an object the program owns) and the relocated copies
    // its chain reaches; only roots are freed.
    std::map<Addr, std::vector<Addr>> roots;
    double peak_occupancy = 0.0;
    unsigned failures = 0, first_fits = 0, chain_frees = 0;

    // One alloc on both sides; 0 when both fail.
    auto both = [&](Addr bytes, Placement pl, Addr align) -> Addr {
        Addr got = 0, want = 0;
        bool got_fail = false, want_fail = false;
        try {
            got = alloc.alloc(bytes, pl, align);
        } catch (const AllocFailure &) {
            got_fail = true;
        }
        try {
            want = ref.alloc(bytes, pl, align);
        } catch (const AllocFailure &) {
            want_fail = true;
        }
        EXPECT_EQ(got_fail, want_fail);
        EXPECT_EQ(got, want);
        failures += got_fail;
        return got_fail ? 0 : got;
    };
    auto pick = [&] {
        return std::next(roots.begin(), rng.below(roots.size()));
    };

    for (int op = 0; op < 6000; ++op) {
        const auto kind = rng.below(100);
        if (kind < 55 || roots.empty()) {
            const auto pl = static_cast<Placement>(rng.below(3));
            first_fits += pl == Placement::first_fit;
            const Addr align = rng.chance(0.3) ? mix.big_align : wordBytes;
            const Addr bytes = rng.chance(mix.large_share)
                                   ? (64 << 10) + rng.below(32 << 10)
                                   : 1 + rng.below(mix.max_bytes);
            const Addr a = both(bytes, pl, align);
            if (a)
                roots[a];
        } else if (kind < 85) {
            const auto it = pick();
            chain_frees += !it->second.empty();
            alloc.free(it->first);
            ref.erase(it->first);
            for (const Addr c : it->second)
                ref.erase(c);
            roots.erase(it);
        } else if (kind < 95) {
            // Relocate a root (its chain tail) into a fresh block.
            const auto it = pick();
            const Addr bytes = alloc.allocationSize(it->first);
            const Addr copy = both(bytes, static_cast<Placement>(
                                              rng.below(3)), wordBytes);
            if (copy) {
                relocate(m, it->first, copy,
                         static_cast<unsigned>(bytes / wordBytes));
                it->second.push_back(copy);
            }
        } else {
            const Addr probe = base + wordBytes * rng.below(span / 8);
            EXPECT_EQ(alloc.allocationSize(probe), ref.size(probe));
            EXPECT_EQ(alloc.isAllocated(probe), ref.size(probe) != 0);
        }
        ASSERT_EQ(alloc.bytesLive(), ref.live());
        ASSERT_EQ(alloc.highestLiveEnd(), ref.highestLiveEnd());
        if (::testing::Test::HasFailure())
            return;
        peak_occupancy = std::max(
            peak_occupancy, double(alloc.bytesLive()) / double(span));
    }
    // The mix reached every path it is meant to cover.
    if (mix.fills) {
        EXPECT_GE(peak_occupancy, 0.7);
        EXPECT_GT(ref.fallbacks, 0u);
        EXPECT_GT(failures, 0u);
    }
    EXPECT_GT(first_fits, 0u);
    EXPECT_GT(chain_frees, 0u);
}

TEST(SimAllocator, PlacementMatchesMapOracle)
{
    for (std::uint64_t s = 1; s <= 4; ++s)
        runOracle({}, testSeed(0x0a11c000 + s));
}

TEST(SimAllocator, PlacementMatchesMapOracleOnUnalignedBase)
{
    for (std::uint64_t s = 1; s <= 4; ++s)
        runOracle({.base_offset = 8}, testSeed(0x0a11c100 + s));
}

TEST(SimAllocator, PlacementMatchesMapOracleAcrossOccupancyPages)
{
    // Blocks of up to three pages, page-aligned or not, so probes and
    // frees cover the occupancy bitmap across page boundaries.
    for (std::uint64_t s = 1; s <= 2; ++s) {
        runOracle({.base_offset = 8, .span = 1 << 20, .max_bytes = 12 << 10,
                   .big_align = 4096},
                  testSeed(0x0a11c200 + s));
    }
}

TEST(SimAllocator, PlacementMatchesMapOracleWithLargeBlocks)
{
    // Small blocks among blocks large enough to be kept out of the
    // bitmap: probes must test both, and frees erase from both.  The
    // small blocks soon leave no hole a large one fits in, so this arena
    // is not expected to fill.
    for (std::uint64_t s = 1; s <= 2; ++s) {
        runOracle({.span = 1 << 20, .large_share = 0.05, .fills = false},
                  testSeed(0x0a11c400 + s));
    }
}

TEST(SimAllocator, PlacementMatchesMapOracleOnSparseDefaultHeap)
{
    // The default 4 GiB heap: nearly every scattered probe lands on a
    // page no block has touched.
    for (std::uint64_t s = 1; s <= 2; ++s) {
        runOracle({.span = 0, .large_share = 0.01, .fills = false},
                  testSeed(0x0a11c300 + s));
    }
}

TEST(RelocationPool, BumpAllocatesContiguously)
{
    Machine m;
    SimAllocator alloc(m);
    RelocationPool pool(alloc, 4096);
    const Addr a = pool.take(24);
    const Addr b = pool.take(24);
    EXPECT_EQ(b, a + 24);
    EXPECT_EQ(pool.used(), 48u);
    EXPECT_EQ(pool.remaining(), 4096u - 48);
}

TEST(RelocationPool, AlignedTake)
{
    Machine m;
    SimAllocator alloc(m);
    RelocationPool pool(alloc, 4096);
    pool.take(8);
    const Addr a = pool.take(64, 128);
    EXPECT_EQ(a % 128, 0u);
}

TEST(RelocationPoolDeathTest, ExhaustionPanics)
{
    Machine m;
    SimAllocator alloc(m);
    RelocationPool pool(alloc, 64);
    pool.take(64);
    EXPECT_DEATH(pool.take(8), "exhausted");
}

} // namespace
} // namespace memfwd
