/** @file BlockIndex against std::map on seeded random operation mixes. */

#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "common/random.hh"
#include "runtime/block_index.hh"

namespace memfwd
{
namespace
{

using Ref = std::map<Addr, Addr>;

void
expectSame(const BlockIndex &idx, BlockIndex::Pos p, const Ref &ref,
           Ref::const_iterator want)
{
    if (want == ref.end()) {
        EXPECT_TRUE(p == idx.end());
        return;
    }
    ASSERT_FALSE(p == idx.end());
    EXPECT_EQ(idx.start(p), want->first);
    EXPECT_EQ(idx.end(p), want->second);
}

void
expectContents(const BlockIndex &idx, const Ref &ref)
{
    ASSERT_EQ(idx.size(), ref.size());
    EXPECT_EQ(idx.empty(), ref.empty());
    auto it = ref.begin();
    idx.scan([&](Addr start, Addr end) {
        EXPECT_EQ(start, it->first);
        EXPECT_EQ(end, it->second);
        ++it;
        return true;
    });
    EXPECT_TRUE(it == ref.end());
    if (!ref.empty()) {
        EXPECT_EQ(idx.lastEnd(), ref.rbegin()->second);
    }
}

/**
 * Blocks live in 16-byte slots of [0x1000, 0x1000 + 16 * slots), each
 * 8 or 16 bytes long, so any set of distinct slots is disjoint.
 */
void
runMix(std::uint64_t seed, unsigned slots, unsigned ops, int insert_pct)
{
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    BlockIndex idx;
    Ref ref;
    std::size_t max_leaves = 0;
    auto key = [&] { return 0x1000 + 16 * rng.below(slots); };
    for (unsigned op = 0; op < ops; ++op) {
        const Addr k = key();
        const int kind = static_cast<int>(rng.below(100));
        if (kind < insert_pct) {
            if (!ref.count(k)) {
                const Addr end = k + 8 * (1 + rng.below(2));
                idx.insert(k, end);
                ref.emplace(k, end);
            }
        } else if (kind < 80) {
            if (!ref.empty()) {
                // Erase a present block: the first at or after k, else
                // the last.
                auto it = ref.lower_bound(k);
                if (it == ref.end())
                    --it;
                const BlockIndex::Pos p = idx.find(it->first);
                ASSERT_FALSE(p == idx.end());
                idx.erase(p);
                ref.erase(it);
            }
        } else {
            // Queries: exact find, the floor bound, and a step each way
            // from the floor (or from end() when there is none).
            expectSame(idx, idx.find(k), ref, ref.find(k));
            const auto ub = ref.upper_bound(k);
            const auto want = ub == ref.begin() ? ref.end() : std::prev(ub);
            const BlockIndex::Pos fl = idx.floor(k);
            expectSame(idx, fl, ref, want);
            if (!(fl == idx.end())) {
                expectSame(idx, idx.next(fl), ref, std::next(want));
            }
            if (!(fl == idx.begin())) {
                expectSame(idx, idx.prev(fl), ref, std::prev(want));
            }
        }
        max_leaves = std::max(max_leaves, idx.leafCount());
        if (op % 256 == 0)
            expectContents(idx, ref);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    expectContents(idx, ref);
    // The mix must have forced splits.
    EXPECT_GT(max_leaves, 4u);

    // Draining drops every leaf once it empties.
    while (!ref.empty()) {
        auto it = std::next(ref.begin(), rng.below(ref.size()));
        idx.erase(idx.find(it->first));
        ref.erase(it);
        ASSERT_LE(idx.leafCount(), idx.size());
    }
    expectContents(idx, ref);
    EXPECT_EQ(idx.leafCount(), 0u);
}

TEST(BlockIndex, MatchesMapOnRandomMixes)
{
    for (std::uint64_t s = 1; s <= 6; ++s)
        runMix(testSeed(0xb10c0000 + s), 4096, 20000, 50);
}

TEST(BlockIndex, MatchesMapWhenDense)
{
    // Mostly inserts over few slots: leaves fill and split repeatedly.
    for (std::uint64_t s = 1; s <= 3; ++s)
        runMix(testSeed(0xde5e0000 + s), 1024, 20000, 70);
}

TEST(BlockIndex, AscendingAndDescendingInsertsSplit)
{
    for (bool ascending : {true, false}) {
        BlockIndex idx;
        Ref ref;
        for (Addr i = 0; i < 1000; ++i) {
            const Addr k = 0x1000 + 16 * (ascending ? i : 999 - i);
            idx.insert(k, k + 8);
            ref.emplace(k, k + 8);
        }
        expectContents(idx, ref);
        EXPECT_GE(idx.leafCount(), 1000 / BlockIndex::leaf_capacity);
        EXPECT_TRUE(idx.floor(0x0fff) == idx.end());
        EXPECT_TRUE(idx.next(idx.floor(~Addr(0))) == idx.end());
    }
}

TEST(BlockIndexDeathTest, DuplicateStartPanics)
{
    BlockIndex idx;
    idx.insert(0x1000, 0x1008);
    EXPECT_DEATH(idx.insert(0x1000, 0x1010), "duplicate");
}

} // namespace
} // namespace memfwd
