/**
 * @file
 * Differential tests for the flat open-addressed page index.
 *
 * The index replaced the two-level paged lookup on the hot path of
 * every simulated reference, so it is held to a reference
 * implementation (std::unordered_map) under sparse, dense, and
 * adversarial key distributions, across growth, through in-place
 * rewrites, and through forEach.
 * The TaggedMemory-level tests exercise the integration: the 256-entry
 * direct-mapped page cache must never serve a stale page, also when
 * page numbers collide in it, and forwarding-state listeners must keep
 * firing exactly as before the swap.
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
                EXPECT_EQ(index.findMutable(miss), nullptr);
            }
        }
    }

    // Rewriting a value in place changes what find() returns for that
    // key alone.
    for (auto &[k, v] : ref) {
        FlatPageIndex::Value *slot = index.findMutable(k);
        ASSERT_NE(slot, nullptr) << "key " << k;
        ASSERT_EQ(*slot, v);
        *slot = v += 1u << 30;
    }
    for (const auto &[k, v] : ref)
        EXPECT_EQ(index.find(k), v) << "key " << k;

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

TEST(FlatPageIndex, KeysCollidingInThePageCache)
{
    // Page numbers equal modulo 256 share one entry of TaggedMemory's
    // direct-mapped page cache; the index itself must not care.
    std::vector<Addr> keys;
    for (Addr i = 0; i < 1500; ++i)
        keys.push_back(7 + i * 256);
    for (Addr i = 0; i < 300; ++i)
        keys.push_back((Addr(1) << 36) + i * 256 * 4096);
    differential(keys);
}

TEST(FlatPageIndex, PointerValuesWithNullAsAbsent)
{
    // TaggedMemory keys its pages by pointer, with nullptr as absent.
    BasicFlatPageIndex<const int *, nullptr> index;
    std::vector<int> targets(2000);
    for (std::size_t i = 0; i < targets.size(); ++i)
        index.insert(Addr(i) * 256 + 3, &targets[i]);
    for (std::size_t i = 0; i < targets.size(); ++i) {
        ASSERT_EQ(index.find(Addr(i) * 256 + 3), &targets[i]);
        ASSERT_EQ(index.find(Addr(i) * 256 + 4), nullptr);
    }
    EXPECT_EQ(index.size(), targets.size());
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
    // against a plain map.  With more pages than page-cache entries,
    // and 40 of them on one entry, most accesses replace an entry, so
    // a stale-cache bug cannot hide.
    Rng rng(testSeed(0x7a66));
    TaggedMemory mem;
    std::unordered_map<Addr, std::uint64_t> model;

    std::vector<Addr> pages;
    for (int i = 0; i < 300; ++i)
        pages.push_back((rng.next() >> 16) * TaggedMemory::pageBytes);
    // And pages whose numbers collide in the 256-entry page cache.
    for (Addr i = 0; i < 40; ++i)
        pages.push_back((0x3000 + i * 256) * TaggedMemory::pageBytes);

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

TEST(TaggedMemoryFlatIndex, CollidingPagesInThePageCache)
{
    // Pages 256 apart share a page-cache entry.  A cached miss for one
    // must not hide a write to the other, and vice versa.
    TaggedMemory mem;
    const Addr stride = Addr(256) * TaggedMemory::pageBytes;
    const Addr a = 0x7000, b = a + stride, c = a + 2 * stride;

    EXPECT_EQ(mem.rawReadWord(a), 0u); // caches a miss for a
    EXPECT_FALSE(mem.isMapped(b));     // ... replaced by a miss for b
    mem.rawWriteWord(b, 2);            // materializes b
    EXPECT_FALSE(mem.isMapped(a));
    EXPECT_EQ(mem.rawReadWord(b), 2u);
    mem.rawWriteWord(a, 1);            // materializes a over b's entry
    EXPECT_EQ(mem.rawReadWord(b), 2u);
    EXPECT_EQ(mem.rawReadWord(a), 1u);
    EXPECT_FALSE(mem.isMapped(c));
    EXPECT_FALSE(mem.fbit(c));
    mem.setFBit(c + 8, true);
    EXPECT_TRUE(mem.fbit(c + 8));
    EXPECT_EQ(mem.rawReadWord(a), 1u);
    EXPECT_FALSE(mem.fbit(a + 8));

    EXPECT_EQ(mem.pagesAllocated(), 3u);
    EXPECT_EQ(mem.mappedPageBases(),
              (std::vector<Addr>{0x7000 & ~Addr(4095),
                                 (a + stride) & ~Addr(4095),
                                 (a + 2 * stride) & ~Addr(4095)}));
    EXPECT_EQ(mem.fbitCount(), 1u);
}

TEST(TaggedMemoryFlatIndex, CachedMissLaterMaterializedByAWrite)
{
    // Every path that reads through the page cache caches a miss for
    // an unmapped page; each kind of write must then materialize it
    // visibly to every kind of read.
    TaggedMemory mem;
    const Addr base = 0x40000;
    for (unsigned kind = 0; kind < 4; ++kind) {
        const Addr a = base + Addr(kind) * TaggedMemory::pageBytes + 16;
        EXPECT_FALSE(mem.isMapped(a));
        EXPECT_EQ(mem.rawReadWord(a), 0u);
        EXPECT_FALSE(mem.fbit(a));
        EXPECT_EQ(mem.readBytes(a, 4), 0u);
        switch (kind) {
          case 0: mem.rawWriteWord(a, 0x55); break;
          case 1: mem.writeBytes(a, 1, 0x55); break;
          case 2: mem.unforwardedWrite(a, 0x55, true); break;
          case 3: mem.setFBit(a, true); break;
        }
        EXPECT_TRUE(mem.isMapped(a)) << "kind " << kind;
        EXPECT_EQ(mem.rawReadWord(a), kind == 3 ? 0u : 0x55u)
            << "kind " << kind;
        EXPECT_EQ(mem.fbit(a), kind >= 2) << "kind " << kind;
    }
    EXPECT_EQ(mem.pagesAllocated(), 4u);
    EXPECT_EQ(mem.mappedPageBases().size(), 4u);
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

    // A page on the same page-cache entry as `fwd`'s: its first tag
    // notifies, then `fwd`'s page is looked up again through the entry.
    const Addr alias = fwd + Addr(256) * TaggedMemory::pageBytes;
    EXPECT_EQ(mem.rawReadWord(alias), 0u);
    mem.unforwardedWrite(alias, 0x1234, true);
    ASSERT_EQ(listener.events.size(), 4u);
    EXPECT_EQ(listener.events[3], std::make_pair(wordAlign(alias), false));
    mem.setFBit(fwd, true);
    ASSERT_EQ(listener.events.size(), 5u);
    EXPECT_EQ(listener.events[4], std::make_pair(wordAlign(fwd), false));
    mem.rawWriteWord(alias, 0x1234); // same payload: silent
    EXPECT_EQ(listener.events.size(), 5u);
    EXPECT_TRUE(mem.isMapped(alias));
}

} // namespace
} // namespace memfwd
