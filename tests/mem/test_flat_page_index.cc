/**
 * @file
 * Differential tests for the flat open-addressed page index.
 *
 * The index replaced the two-level paged lookup on the hot path of
 * every simulated reference, so it is held to a reference
 * implementation (std::unordered_map) under sparse, dense, and
 * adversarial key distributions, across growth, and through forEach.
 * The TaggedMemory-level tests exercise the integration: the one-entry
 * last-page cache must never serve a stale page, and forwarding-state
 * listeners must keep firing exactly as before the swap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "mem/flat_page_index.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{
namespace
{

/** Drive index and reference map with the same inserts, then compare. */
void
differential(const std::vector<Addr> &keys)
{
    FlatPageIndex index;
    std::unordered_map<Addr, FlatPageIndex::Value> ref;

    FlatPageIndex::Value next = 0;
    for (Addr k : keys) {
        if (ref.count(k))
            continue; // insert() forbids duplicates, as TaggedMemory does
        index.insert(k, next);
        ref.emplace(k, next);
        ++next;

        // Every key ever inserted stays findable across growth.
        ASSERT_EQ(index.size(), ref.size());
        ASSERT_GE(index.capacity() * 7, index.size() * 10)
            << "load factor above the 70% growth trigger";
    }

    for (const auto &[k, v] : ref)
        EXPECT_EQ(index.find(k), v) << "key " << k;

    // Absent probes: neighbors of present keys stress the probe chains.
    for (const auto &[k, v] : ref) {
        (void)v;
        for (Addr miss : {k + 1, k - 1, k ^ (Addr(1) << 40)}) {
            if (!ref.count(miss) && miss != FlatPageIndex::empty_key) {
                EXPECT_EQ(index.find(miss), FlatPageIndex::no_value)
                    << "phantom key " << miss;
            }
        }
    }

    // forEach visits exactly the reference's entries, once each.
    std::unordered_map<Addr, FlatPageIndex::Value> seen;
    index.forEach([&](Addr k, FlatPageIndex::Value v) {
        EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate visit " << k;
    });
    EXPECT_EQ(seen, ref);
}

TEST(FlatPageIndex, EmptyIndexFindsNothing)
{
    FlatPageIndex index;
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.find(0), FlatPageIndex::no_value);
    EXPECT_EQ(index.find(12345), FlatPageIndex::no_value);
    index.forEach([](Addr, FlatPageIndex::Value) { FAIL(); });
}

TEST(FlatPageIndex, DenseSequentialKeys)
{
    // Page numbers of a contiguous heap: the common workload shape.
    std::vector<Addr> keys;
    for (Addr k = 0; k < 3000; ++k)
        keys.push_back(k);
    differential(keys);
}

TEST(FlatPageIndex, SparseRandomKeys)
{
    Rng rng(testSeed(0xf1a7));
    std::vector<Addr> keys;
    for (int i = 0; i < 2000; ++i)
        keys.push_back(rng.next() >> 12); // page numbers, top bits live
    differential(keys);
}

TEST(FlatPageIndex, AdversarialClusteredKeys)
{
    // Runs of consecutive keys at widely separated bases plus aliases
    // that differ only in bits above the table mask: long probe chains
    // before and after every growth step.
    std::vector<Addr> keys;
    for (Addr base : {Addr(0), Addr(1) << 20, Addr(1) << 44, Addr(1) << 51}) {
        for (Addr i = 0; i < 300; ++i) {
            keys.push_back(base + i);
            keys.push_back(base + i + (Addr(1) << 60));
        }
    }
    differential(keys);
}

TEST(FlatPageIndex, GrowthPreservesAllEntries)
{
    FlatPageIndex index;
    const std::size_t cap0 = index.capacity();
    std::size_t grows = 0;
    for (Addr k = 0; k < 10000; ++k) {
        const std::size_t before = index.capacity();
        index.insert(k * 7919, FlatPageIndex::Value(k));
        if (index.capacity() != before)
            ++grows;
    }
    EXPECT_GT(index.capacity(), cap0);
    EXPECT_GE(grows, 5u);
    for (Addr k = 0; k < 10000; ++k)
        ASSERT_EQ(index.find(k * 7919), FlatPageIndex::Value(k));
}

// ---------------------------------------------------------------------
// TaggedMemory on top of the flat index
// ---------------------------------------------------------------------

TEST(TaggedMemoryFlatIndex, SparseHeapMatchesModel)
{
    // Random word traffic over ~hundreds of far-apart pages, checked
    // against a plain map.  Alternating pages defeats the one-entry
    // last-page cache on nearly every access, so a stale-cache bug
    // cannot hide.
    Rng rng(testSeed(0x7a66));
    TaggedMemory mem;
    std::unordered_map<Addr, std::uint64_t> model;

    std::vector<Addr> pages;
    for (int i = 0; i < 300; ++i)
        pages.push_back((rng.next() >> 16) * TaggedMemory::pageBytes);

    for (int op = 0; op < 20000; ++op) {
        const Addr page = pages[rng.below(pages.size())];
        const Addr addr =
            page + rng.below(TaggedMemory::pageWords) * wordBytes;
        if (rng.below(2)) {
            const std::uint64_t v = rng.next();
            mem.rawWriteWord(addr, v);
            model[addr] = v;
        } else {
            const auto it = model.find(addr);
            ASSERT_EQ(mem.rawReadWord(addr),
                      it == model.end() ? 0u : it->second)
                << "addr " << addr;
        }
    }

    // Reads of never-touched pages still miss cleanly afterwards.
    EXPECT_EQ(mem.rawReadWord(Addr(1) << 61), 0u);
    EXPECT_FALSE(mem.fbit((Addr(1) << 61) + 8));
}

TEST(TaggedMemoryFlatIndex, LastPageCacheSurvivesMaterialization)
{
    TaggedMemory mem;
    const Addr a = 0x10000, b = 0x20000;

    // Prime the miss cache on page A, then materialize A via a write:
    // the following read must see the write, not the cached miss.
    EXPECT_EQ(mem.rawReadWord(a), 0u);
    mem.rawWriteWord(a, 111);
    EXPECT_EQ(mem.rawReadWord(a), 111u);

    // Ping-pong between pages; each switch must re-resolve.
    mem.rawWriteWord(b, 222);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(mem.rawReadWord(a), 111u);
        EXPECT_EQ(mem.rawReadWord(b), 222u);
    }
    EXPECT_EQ(mem.pagesAllocated(), 2u);
}

TEST(TaggedMemoryFlatIndex, MappedPageBasesAndFbitCountMatchModel)
{
    Rng rng(testSeed(0xbead));
    TaggedMemory mem;
    std::vector<Addr> bases;
    std::uint64_t fbits = 0;
    for (int i = 0; i < 64; ++i) {
        const Addr base = (rng.next() >> 20) * TaggedMemory::pageBytes;
        if (std::find(bases.begin(), bases.end(), base) != bases.end())
            continue;
        bases.push_back(base);
        mem.setFBit(base + 8 * (i % TaggedMemory::pageWords), true);
        ++fbits;
    }
    EXPECT_EQ(mem.fbitCount(), fbits);

    std::vector<Addr> got = mem.mappedPageBases();
    std::sort(bases.begin(), bases.end());
    EXPECT_EQ(got, bases);
}

/** Records every forwarding-state notification. */
struct RecordingListener : FwdStateListener
{
    std::vector<std::pair<Addr, bool>> events;
    void
    fwdStateChanged(Addr word, bool was_fbit) override
    {
        events.emplace_back(word, was_fbit);
    }
};

TEST(TaggedMemoryFlatIndex, ListenerFiresAcrossFlatIndexPages)
{
    // The FTC invalidation hook must keep firing after the index swap:
    // fbit flips and forwarded-payload rewrites notify, plain data
    // writes do not — on fresh and already-materialized pages alike.
    TaggedMemory mem;
    RecordingListener listener;
    mem.setFwdStateListener(&listener);

    const Addr plain = 0x5000, fwd = 0x9000008;

    mem.rawWriteWord(plain, 42); // untagged data write: silent
    EXPECT_TRUE(listener.events.empty());

    mem.setFBit(fwd, true); // tag flip on a fresh page: notifies
    ASSERT_EQ(listener.events.size(), 1u);
    EXPECT_EQ(listener.events[0], std::make_pair(wordAlign(fwd), false));

    mem.rawWriteWord(fwd, 0xabc); // rewrite of a forwarded payload
    ASSERT_EQ(listener.events.size(), 2u);
    EXPECT_EQ(listener.events[1], std::make_pair(wordAlign(fwd), true));

    mem.unforwardedWrite(fwd, 0, false); // untag: notifies
    ASSERT_EQ(listener.events.size(), 3u);
    EXPECT_EQ(listener.events[2], std::make_pair(wordAlign(fwd), true));

    mem.rawWriteWord(fwd, 7); // now plain again: silent
    EXPECT_EQ(listener.events.size(), 3u);
}

} // namespace
} // namespace memfwd
