/**
 * @file
 * Differential tests of Cache and MshrFile against literal references.
 *
 * RefCache and RefMshrFile below are the earlier array-of-structs
 * cache (one Line struct per way, set index by division, a pointer MRU
 * hint) and the branchy MSHR file (a pending flag per entry, the first
 * busy match wins), kept verbatim in behaviour.  The production classes
 * pack the same state into per-field arrays, index sets by shift and
 * mask, and answer outstandingFill() in one pass that relies on at
 * most one live MSHR entry per line.  Seeded random streams drive both
 * sides through two-level hierarchies with non-monotone `now`, every
 * access type, writebacks from above, flushes, all three replacement
 * policies and a sweep of geometries; every observable is compared
 * after every call.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "common/random.hh"

namespace memfwd
{
namespace
{

// ---------------------------------------------------------------------
// Reference MSHR file: one struct per entry, linear branchy scans.
// ---------------------------------------------------------------------

class RefMshrFile
{
  public:
    explicit RefMshrFile(unsigned entries)
        : entries_(entries), slots_(entries)
    {}

    Cycles
    outstandingFill(Addr line_addr, Cycles now) const
    {
        for (const auto &e : slots_) {
            const bool busy = e.pending || e.fill_done > now;
            if (busy && e.line_addr == line_addr)
                return e.pending ? now : e.fill_done;
        }
        return 0;
    }

    Cycles
    allocate(Addr line_addr, Cycles now)
    {
        expire(now);
        Entry *victim = nullptr;
        Cycles earliest = std::numeric_limits<Cycles>::max();
        unsigned busy = 0;
        for (auto &e : slots_) {
            const bool is_busy = e.pending || e.fill_done > now;
            if (!is_busy && !victim)
                victim = &e;
            if (is_busy) {
                ++busy;
                if (!e.pending)
                    earliest = std::min(earliest, e.fill_done);
            }
        }
        Cycles start = now;
        if (!victim) {
            ++alloc_stalls_;
            start = earliest;
            expire(start);
            for (auto &e : slots_) {
                if (!e.pending && e.fill_done == 0) {
                    victim = &e;
                    break;
                }
            }
            busy = entries_ - 1;
        }
        peak_ = std::max(peak_, busy + 1);
        victim->line_addr = line_addr;
        victim->pending = true;
        victim->fill_done = 0;
        return start;
    }

    void
    complete(Addr line_addr, Cycles fill_done)
    {
        for (auto &e : slots_) {
            if (e.pending && e.line_addr == line_addr) {
                e.pending = false;
                e.fill_done = fill_done;
                return;
            }
        }
        ADD_FAILURE() << "reference complete() without allocate()";
    }

    unsigned
    busyAt(Cycles now) const
    {
        unsigned busy = 0;
        for (const auto &e : slots_)
            busy += e.pending || e.fill_done > now;
        return busy;
    }

    unsigned peakOccupancy() const { return peak_; }
    std::uint64_t allocationStalls() const { return alloc_stalls_; }

    /** Most entries any one line holds that are pending or non-zero. */
    unsigned
    maxLiveEntriesPerLine() const
    {
        std::map<Addr, unsigned> live;
        unsigned most = 0;
        for (const auto &e : slots_) {
            if (e.pending || e.fill_done != 0)
                most = std::max(most, ++live[e.line_addr]);
        }
        return most;
    }

  private:
    struct Entry
    {
        Addr line_addr = 0;
        Cycles fill_done = 0;
        bool pending = false;
    };

    void
    expire(Cycles now)
    {
        for (auto &e : slots_) {
            if (!e.pending && e.fill_done != 0 && e.fill_done <= now)
                e.fill_done = 0;
        }
    }

    unsigned entries_;
    std::vector<Entry> slots_;
    unsigned peak_ = 0;
    std::uint64_t alloc_stalls_ = 0;
};

// ---------------------------------------------------------------------
// Reference cache: Line structs, division set index, pointer MRU hint.
// ---------------------------------------------------------------------

class RefCache : public MemLevel
{
  public:
    RefCache(const CacheConfig &cfg, MemLevel &below)
        : cfg_(cfg), below_(below), mshrs_(cfg.mshrs),
          lines_(static_cast<std::size_t>(cfg.numSets()) * cfg.assoc)
    {}

    Result
    access(Addr addr, AccessType type, Cycles now) override
    {
        const Addr line_addr = lineAlign(addr);
        if (Line *line = findLine(line_addr)) {
            line->lru = ++lru_clock_;
            if (type == AccessType::store)
                line->dirty = true;
            if (line->prefetched && type != AccessType::prefetch) {
                line->prefetched = false;
                ++stats_.useful_prefetches;
            }
            if (Cycles fill = mshrs_.outstandingFill(line_addr, now)) {
                count(type, MissKind::partial);
                return {std::max(fill, now + cfg_.hit_latency),
                        MissKind::partial, 0};
            }
            count(type, MissKind::hit);
            return {now + cfg_.hit_latency, MissKind::hit, 0};
        }
        if (Cycles fill = mshrs_.outstandingFill(line_addr, now)) {
            count(type, MissKind::partial);
            const Cycles ready = std::max(fill, now + cfg_.hit_latency);
            if (type == AccessType::store) {
                if (Line *line = findLine(line_addr))
                    line->dirty = true;
            }
            return {ready, MissKind::partial, 1};
        }
        const Cycles start = mshrs_.allocate(line_addr, now);
        const Result below =
            below_.access(line_addr, type, start + cfg_.hit_latency);
        mshrs_.complete(line_addr, below.ready);
        count(type, MissKind::full);
        stats_.bytes_in += cfg_.line_bytes;
        Line &victim = chooseVictim(setIndex(line_addr));
        if (victim.valid && victim.dirty) {
            ++stats_.writebacks;
            stats_.bytes_out += cfg_.line_bytes;
            below_.writeback(victim.tag, below.ready);
        }
        victim.valid = true;
        victim.tag = line_addr;
        victim.dirty = (type == AccessType::store);
        victim.prefetched = (type == AccessType::prefetch);
        victim.lru = ++lru_clock_;
        victim.filled = victim.lru;
        mru_hint_ = &victim;
        return {below.ready, MissKind::full, below.depth + 1};
    }

    void
    writeback(Addr line_addr, Cycles now) override
    {
        if (Line *line = findLine(line_addr)) {
            line->dirty = true;
            line->lru = ++lru_clock_;
            return;
        }
        Line &victim = chooseVictim(setIndex(line_addr));
        if (victim.valid && victim.dirty) {
            ++stats_.writebacks;
            stats_.bytes_out += cfg_.line_bytes;
            below_.writeback(victim.tag, now);
        }
        victim.valid = true;
        victim.tag = line_addr;
        victim.dirty = true;
        victim.prefetched = false;
        victim.lru = ++lru_clock_;
        victim.filled = victim.lru;
        mru_hint_ = &victim;
    }

    bool
    contains(Addr addr) const
    {
        return const_cast<RefCache *>(this)->findLine(lineAlign(addr));
    }

    void
    flush()
    {
        for (auto &l : lines_)
            l = Line();
    }

    const CacheStats &stats() const { return stats_; }
    const RefMshrFile &mshrs() const { return mshrs_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
        std::uint64_t lru = 0;
        std::uint64_t filled = 0;
    };

    Addr lineAlign(Addr a) const { return a & ~Addr(cfg_.line_bytes - 1); }

    unsigned
    setIndex(Addr line_addr) const
    {
        return static_cast<unsigned>((line_addr / cfg_.line_bytes) %
                                     cfg_.numSets());
    }

    Line *
    findLine(Addr line_addr)
    {
        if (mru_hint_ && mru_hint_->valid && mru_hint_->tag == line_addr)
            return mru_hint_;
        Line *base = &lines_[std::size_t(setIndex(line_addr)) * cfg_.assoc];
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            if (base[w].valid && base[w].tag == line_addr) {
                mru_hint_ = &base[w];
                return &base[w];
            }
        }
        return nullptr;
    }

    Line &
    chooseVictim(unsigned set)
    {
        Line *base = &lines_[std::size_t(set) * cfg_.assoc];
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            if (!base[w].valid)
                return base[w];
        }
        Line *victim = base;
        switch (cfg_.replacement) {
          case ReplacementPolicy::random:
            victim_seed_ ^= victim_seed_ << 13;
            victim_seed_ ^= victim_seed_ >> 7;
            victim_seed_ ^= victim_seed_ << 17;
            return base[victim_seed_ % cfg_.assoc];
          case ReplacementPolicy::fifo:
            for (unsigned w = 1; w < cfg_.assoc; ++w) {
                if (base[w].filled < victim->filled)
                    victim = &base[w];
            }
            return *victim;
          case ReplacementPolicy::lru:
          default:
            for (unsigned w = 1; w < cfg_.assoc; ++w) {
                if (base[w].lru < victim->lru)
                    victim = &base[w];
            }
            return *victim;
        }
    }

    void
    count(AccessType type, MissKind kind)
    {
        switch (type) {
          case AccessType::load:
            ++(kind == MissKind::hit       ? stats_.load_hits
               : kind == MissKind::partial ? stats_.load_partial_misses
                                           : stats_.load_full_misses);
            break;
          case AccessType::store:
            ++(kind == MissKind::hit       ? stats_.store_hits
               : kind == MissKind::partial ? stats_.store_partial_misses
                                           : stats_.store_full_misses);
            break;
          case AccessType::prefetch:
            ++(kind == MissKind::full ? stats_.prefetch_misses
                                      : stats_.prefetch_hits);
            break;
        }
    }

    CacheConfig cfg_;
    MemLevel &below_;
    RefMshrFile mshrs_;
    CacheStats stats_;
    std::vector<Line> lines_;
    Line *mru_hint_ = nullptr;
    std::uint64_t lru_clock_ = 0;
    std::uint64_t victim_seed_ = 0x2545f4914f6cdd1dULL;
};

// ---------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------

/** Memory with an address-dependent latency that logs writebacks. */
class LoggingMemory : public MemLevel
{
  public:
    Result
    access(Addr addr, AccessType, Cycles now) override
    {
        return {now + 20 + (addr >> 3) % 41, MissKind::full, 0};
    }

    void
    writeback(Addr line_addr, Cycles now) override
    {
        log.emplace_back(line_addr, now);
    }

    std::vector<std::pair<Addr, Cycles>> log;
};

void
expectSameStats(const CacheStats &a, const CacheStats &b, const char *level)
{
    SCOPED_TRACE(level);
    EXPECT_EQ(a.load_hits, b.load_hits);
    EXPECT_EQ(a.load_partial_misses, b.load_partial_misses);
    EXPECT_EQ(a.load_full_misses, b.load_full_misses);
    EXPECT_EQ(a.store_hits, b.store_hits);
    EXPECT_EQ(a.store_partial_misses, b.store_partial_misses);
    EXPECT_EQ(a.store_full_misses, b.store_full_misses);
    EXPECT_EQ(a.prefetch_hits, b.prefetch_hits);
    EXPECT_EQ(a.prefetch_misses, b.prefetch_misses);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.bytes_in, b.bytes_in);
    EXPECT_EQ(a.bytes_out, b.bytes_out);
    EXPECT_EQ(a.useful_prefetches, b.useful_prefetches);
}

template <class M, class R>
void
expectSameMshrs(const M &got, const R &ref, Cycles now)
{
    EXPECT_EQ(got.busyAt(now), ref.busyAt(now));
    EXPECT_EQ(got.peakOccupancy(), ref.peakOccupancy());
    EXPECT_EQ(got.allocationStalls(), ref.allocationStalls());
}

/** One geometry of the two-level hierarchy under test. */
struct Geometry
{
    unsigned line_bytes;
    unsigned assoc;
    unsigned sets;
    unsigned mshrs;
    ReplacementPolicy policy;
};

CacheConfig
configOf(const Geometry &g, unsigned sets, unsigned line_bytes)
{
    CacheConfig c;
    c.size_bytes = sets * g.assoc * line_bytes;
    c.assoc = g.assoc;
    c.line_bytes = line_bytes;
    c.hit_latency = 1 + g.assoc % 3;
    c.mshrs = g.mshrs;
    c.replacement = g.policy;
    return c;
}

/**
 * L1 over L2 over LoggingMemory, production and reference side by
 * side, driven by @p ops seeded operations.  Adds the L1's partial
 * misses to @p partials, so callers can check that the streams
 * combined with in-flight fills.
 */
void
runDifferential(const Geometry &g, std::uint64_t seed, int ops,
                std::uint64_t &partials)
{
    SCOPED_TRACE(testing::Message()
                 << "line " << g.line_bytes << " assoc " << g.assoc
                 << " sets " << g.sets << " mshrs " << g.mshrs
                 << " policy " << int(g.policy) << " seed " << seed);
    const unsigned l2_line = std::min(256u, g.line_bytes * 2);
    const CacheConfig l1_cfg = configOf(g, g.sets, g.line_bytes);
    const CacheConfig l2_cfg = configOf(g, g.sets * 4, l2_line);

    LoggingMemory mem, ref_mem;
    Cache l2(l2_cfg, mem);
    Cache l1(l1_cfg, l2);
    RefCache ref_l2(l2_cfg, ref_mem);
    RefCache ref_l1(l1_cfg, ref_l2);

    // A working set of ~3x the L1's lines, so hits, evictions and
    // dirty writebacks all recur.
    const unsigned lines = std::max(4u, 3 * g.sets * g.assoc);
    Rng rng(seed);
    Cycles now = 1000;
    for (int op = 0; op < ops; ++op) {
        // Mostly forward, sometimes back: `now` is not monotone.
        const std::uint64_t step = rng.below(64);
        now = step < 48 ? now + step : now - std::min(now, step * 3);
        const Addr addr =
            0x40000 + rng.below(lines) * g.line_bytes + rng.below(g.line_bytes);
        const unsigned what = static_cast<unsigned>(rng.below(100));
        if (what < 88) {
            const AccessType type = what < 55   ? AccessType::load
                                    : what < 78 ? AccessType::store
                                                : AccessType::prefetch;
            const MemLevel::Result got = l1.access(addr, type, now);
            const MemLevel::Result ref = ref_l1.access(addr, type, now);
            ASSERT_EQ(got.ready, ref.ready) << "op " << op;
            ASSERT_EQ(got.kind, ref.kind) << "op " << op;
            ASSERT_EQ(got.depth, ref.depth) << "op " << op;
        } else if (what < 97) {
            // A dirty line evicted from a level above the L1.
            const Addr line = addr & ~Addr(g.line_bytes - 1);
            l1.writeback(line, now);
            ref_l1.writeback(line, now);
        } else if (what < 99) {
            l2.writeback(addr & ~Addr(l2_line - 1), now);
            ref_l2.writeback(addr & ~Addr(l2_line - 1), now);
        } else if (rng.below(2)) {
            l1.flush();
            ref_l1.flush();
        } else {
            l2.flush();
            ref_l2.flush();
        }

        expectSameStats(l1.stats(), ref_l1.stats(), "l1");
        expectSameStats(l2.stats(), ref_l2.stats(), "l2");
        expectSameMshrs(l1.mshrs(), ref_l1.mshrs(), now);
        expectSameMshrs(l2.mshrs(), ref_l2.mshrs(), now);
        const Addr probe = 0x40000 + rng.below(lines) * g.line_bytes;
        for (Addr a : {addr, probe}) {
            ASSERT_EQ(l1.contains(a), ref_l1.contains(a)) << "op " << op;
            ASSERT_EQ(l2.contains(a), ref_l2.contains(a)) << "op " << op;
        }
        ASSERT_EQ(mem.log, ref_mem.log) << "op " << op;
        if (testing::Test::HasFailure())
            return;
    }
    partials +=
        l1.stats().load_partial_misses + l1.stats().store_partial_misses;
}

TEST(CacheOracle, MatchesReferenceAcrossGeometriesAndPolicies)
{
    const ReplacementPolicy policies[] = {ReplacementPolicy::lru,
                                          ReplacementPolicy::fifo,
                                          ReplacementPolicy::random};
    const unsigned mshrs[] = {1, 2, 3, 4, 8, 16};
    std::uint64_t partials = 0;
    unsigned config = 0;
    for (unsigned line = 8; line <= 256; line *= 2) {
        for (unsigned assoc = 1; assoc <= 8; ++assoc) {
            for (ReplacementPolicy policy : policies) {
                const Geometry g{line, assoc, 1u << (config % 4),
                                 mshrs[config % 6], policy};
                runDifferential(g, testSeed(0xcac4e + config), 1500,
                                partials);
                ASSERT_FALSE(HasFailure());
                ++config;
            }
        }
    }
    EXPECT_GT(partials, 0u) << "the streams never combined with a fill";
}

TEST(CacheOracle, MatchesReferenceOnLongStreams)
{
    // Fewer, longer runs on the shapes the workloads use.
    const Geometry shapes[] = {
        {32, 2, 16, 8, ReplacementPolicy::lru},
        {64, 4, 8, 16, ReplacementPolicy::lru},
        {128, 8, 4, 1, ReplacementPolicy::fifo},
        {16, 3, 2, 2, ReplacementPolicy::random},
    };
    std::uint64_t seed = testSeed(0x10ca1), partials = 0;
    for (const Geometry &g : shapes) {
        runDifferential(g, seed++, 20000, partials);
        ASSERT_FALSE(HasFailure());
    }
}

TEST(MshrOracle, MatchesReferenceUnderTheCacheProtocol)
{
    // The cache's calling protocol: query, and allocate then complete
    // only on a 0 answer at the same cycle.
    for (unsigned entries : {1u, 2u, 5u, 16u}) {
        MshrFile got(entries);
        RefMshrFile ref(entries);
        Rng rng(testSeed(0x3572 + entries));
        Cycles now = 500;
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t step = rng.below(40);
            now = step < 30 ? now + step : now - std::min(now, step * 4);
            const Addr line = rng.below(3 * entries + 2) * 32;
            const Cycles fill = got.outstandingFill(line, now);
            ASSERT_EQ(fill, ref.outstandingFill(line, now)) << "op " << op;
            if (fill == 0) {
                const Cycles start = got.allocate(line, now);
                ASSERT_EQ(start, ref.allocate(line, now)) << "op " << op;
                // Mid-allocation the pending entry answers "now" and
                // counts as busy.
                ASSERT_EQ(got.outstandingFill(line, start + 3),
                          ref.outstandingFill(line, start + 3));
                ASSERT_EQ(got.busyAt(start), ref.busyAt(start));
                const Cycles done = start + 1 + rng.below(150);
                got.complete(line, done);
                ref.complete(line, done);
            }
            expectSameMshrs(got, ref, now);
            ASSERT_EQ(got.busyAt(now + 100), ref.busyAt(now + 100));
            ASSERT_FALSE(HasFailure()) << "op " << op;
        }
    }
}

TEST(MshrOracle, AtMostOneLiveEntryPerLine)
{
    // outstandingFill() ORs every matching entry's completion, which is
    // exact only while each line has at most one pending or non-zero
    // entry.  Check that invariant on the reference file under both
    // the bare protocol and real cache traffic.
    for (unsigned entries : {1u, 4u, 16u}) {
        RefMshrFile ref(entries);
        Rng rng(testSeed(0x11fe + entries));
        Cycles now = 100;
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t step = rng.below(40);
            now = step < 30 ? now + step : now - std::min(now, step * 4);
            const Addr line = rng.below(entries + 3) * 64;
            if (ref.outstandingFill(line, now) == 0) {
                const Cycles start = ref.allocate(line, now);
                ASSERT_LE(ref.maxLiveEntriesPerLine(), 1u) << "op " << op;
                ref.complete(line, start + 1 + rng.below(300));
            }
            ASSERT_LE(ref.maxLiveEntriesPerLine(), 1u) << "op " << op;
        }
    }

    const Geometry g{32, 2, 4, 8, ReplacementPolicy::lru};
    LoggingMemory mem;
    RefCache l2(configOf(g, 16, 64), mem);
    RefCache l1(configOf(g, 4, 32), l2);
    Rng rng(testSeed(0x11e));
    Cycles now = 100;
    for (int op = 0; op < 20000; ++op) {
        const std::uint64_t step = rng.below(64);
        now = step < 48 ? now + step : now - std::min(now, step * 3);
        l1.access(0x8000 + rng.below(48) * 32,
                  rng.below(3) ? AccessType::load : AccessType::store, now);
        ASSERT_LE(l1.mshrs().maxLiveEntriesPerLine(), 1u) << "op " << op;
        ASSERT_LE(l2.mshrs().maxLiveEntriesPerLine(), 1u) << "op " << op;
    }
}

} // namespace
} // namespace memfwd
