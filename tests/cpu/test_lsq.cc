/** @file Unit tests for data-dependence speculation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/random.hh"
#include "cpu/lsq.hh"

namespace memfwd
{
namespace
{

OooParams
specOn()
{
    OooParams p;
    p.dep_speculation = true;
    p.misspec_penalty = 12;
    return p;
}

OooParams
specOff()
{
    OooParams p;
    p.dep_speculation = false;
    return p;
}

TEST(Lsq, NoStoresNoSpeculation)
{
    Lsq lsq(specOn());
    EXPECT_EQ(lsq.checkLoad(5, 10, 0x100, 0x100, 1), 0u);
    EXPECT_EQ(lsq.speculations(), 0u);
}

TEST(Lsq, ResolvedStoreIsNotSpeculation)
{
    Lsq lsq(specOn());
    lsq.recordStore(1, 0x100, 0x100, 1, /*resolved=*/5);
    // Load issues at 10, after the store resolved: no speculation.
    EXPECT_EQ(lsq.checkLoad(2, 10, 0x200, 0x200, 1), 0u);
    EXPECT_EQ(lsq.speculations(), 0u);
}

TEST(Lsq, UnresolvedStoreCountsSpeculation)
{
    Lsq lsq(specOn());
    lsq.recordStore(1, 0x100, 0x100, 1, /*resolved=*/50);
    // Load issued at 10, before the store's final address was known.
    EXPECT_EQ(lsq.checkLoad(2, 10, 0x200, 0x200, 1), 0u);
    EXPECT_EQ(lsq.speculations(), 1u);
    EXPECT_EQ(lsq.violations(), 0u);
}

TEST(Lsq, ForwardedAliasIsViolation)
{
    Lsq lsq(specOn());
    // Store to initial 0x100 that was forwarded to final 0x900.
    lsq.recordStore(1, 0x100, 0x900, 1, /*resolved=*/50);
    // Load with a different initial address but the same final word:
    // the speculation "final == initial" was wrong.
    EXPECT_EQ(lsq.checkLoad(2, 10, 0x300, 0x900, 1), 12u);
    EXPECT_EQ(lsq.violations(), 1u);
}

TEST(Lsq, SameInitialAddressIsNotViolation)
{
    Lsq lsq(specOn());
    // Same initial word: classic store-to-load ordering handles it, no
    // forwarding surprise.
    lsq.recordStore(1, 0x100, 0x900, 1, 50);
    EXPECT_EQ(lsq.checkLoad(2, 10, 0x100, 0x900, 1), 0u);
    EXPECT_EQ(lsq.violations(), 0u);
}

TEST(Lsq, DisjointFinalsNotViolation)
{
    Lsq lsq(specOn());
    lsq.recordStore(1, 0x100, 0x900, 1, 50);
    EXPECT_EQ(lsq.checkLoad(2, 10, 0x300, 0x700, 1), 0u);
    EXPECT_EQ(lsq.violations(), 0u);
}

TEST(Lsq, MultiWordRangesOverlap)
{
    Lsq lsq(specOn());
    // Store covers final words [0x900, 0x910).
    lsq.recordStore(1, 0x100, 0x900, 2, 50);
    // Load of word 0x908 overlaps the store's final range.
    EXPECT_GT(lsq.checkLoad(2, 10, 0x300, 0x908, 1), 0u);
}

TEST(Lsq, OldStoresPrunedByWindow)
{
    OooParams p = specOn();
    p.window = 8;
    Lsq lsq(p);
    lsq.recordStore(1, 0x100, 0x900, 1, 1000);
    // Instruction 100 is far outside the window of store 1.
    EXPECT_EQ(lsq.checkLoad(100, 10, 0x300, 0x900, 1), 0u);
    EXPECT_EQ(lsq.speculations(), 0u);
}

TEST(Lsq, YoungerStoresIgnored)
{
    Lsq lsq(specOn());
    lsq.recordStore(10, 0x100, 0x900, 1, 50);
    // Load is OLDER than the store (seq 5 < 10): no interaction.
    EXPECT_EQ(lsq.checkLoad(5, 10, 0x300, 0x900, 1), 0u);
}

TEST(Lsq, ConservativeModeWaitsForResolution)
{
    Lsq lsq(specOff());
    lsq.recordStore(1, 0x100, 0x100, 1, 80);
    lsq.recordStore(2, 0x200, 0x200, 1, 120);
    // With speculation off, the load's issue is pushed to the last
    // older store's resolution.
    EXPECT_EQ(lsq.loadIssueCycle(3, 10), 120u);
}

TEST(Lsq, SpeculativeModeIssuesImmediately)
{
    Lsq lsq(specOn());
    lsq.recordStore(1, 0x100, 0x100, 1, 80);
    EXPECT_EQ(lsq.loadIssueCycle(2, 10), 10u);
}

TEST(Lsq, ConservativeModeNeverPenalizes)
{
    Lsq lsq(specOff());
    lsq.recordStore(1, 0x100, 0x900, 1, 80);
    EXPECT_EQ(lsq.checkLoad(2, 100, 0x300, 0x900, 1), 0u);
    EXPECT_EQ(lsq.violations(), 0u);
}

/**
 * The Lsq's check as first written: every load scans the whole window
 * of stores.  The reference the Lsq's skip of that scan must match.
 */
class ScanLsq
{
  public:
    explicit ScanLsq(const OooParams &params) : params_(params) {}

    void
    recordStore(std::uint64_t seq, Addr initial_word, Addr final_word,
                unsigned words, Cycles resolved)
    {
        prune(seq);
        stores_.push_back({seq, initial_word, final_word, words, resolved});
    }

    Cycles
    loadIssueCycle(std::uint64_t seq, Cycles issue) const
    {
        if (params_.dep_speculation)
            return issue;
        Cycles earliest = issue;
        for (const auto &s : stores_) {
            if (s.seq < seq && s.seq + params_.window >= seq)
                earliest = std::max(earliest, s.resolved);
        }
        return earliest;
    }

    Cycles
    checkLoad(std::uint64_t seq, Cycles issue, Addr initial_word,
              Addr final_word, unsigned words)
    {
        if (!params_.dep_speculation)
            return 0;
        prune(seq);
        bool speculated = false;
        bool violated = false;
        for (const auto &s : stores_) {
            if (s.seq >= seq || s.resolved <= issue)
                continue;
            speculated = true;
            if (!overlaps(initial_word, words, s.initial_word, s.words) &&
                overlaps(final_word, words, s.final_word, s.words)) {
                violated = true;
            }
        }
        speculations += speculated;
        violations += violated;
        return violated ? params_.misspec_penalty : 0;
    }

    std::uint64_t speculations = 0;
    std::uint64_t violations = 0;

  private:
    struct StoreRec
    {
        std::uint64_t seq;
        Addr initial_word;
        Addr final_word;
        unsigned words;
        Cycles resolved;
    };

    static bool
    overlaps(Addr a, unsigned a_words, Addr b, unsigned b_words)
    {
        return a < b + Addr(b_words) * wordBytes &&
               b < a + Addr(a_words) * wordBytes;
    }

    void
    prune(std::uint64_t seq)
    {
        while (!stores_.empty() &&
               stores_.front().seq + params_.window < seq) {
            stores_.pop_front();
        }
    }

    OooParams params_;
    std::deque<StoreRec> stores_;
};

TEST(Lsq, MatchesWholeWindowScan)
{
    // Random store/load streams over a few dozen words, so ranges alias
    // and forwarding moves them onto each other; resolutions land on
    // both sides of later loads' issue cycles; a small window prunes.
    for (const bool spec : {true, false}) {
        for (const unsigned window : {4u, 16u, 64u}) {
            SCOPED_TRACE(::testing::Message() << "spec " << spec
                                              << " window " << window);
            OooParams p = spec ? specOn() : specOff();
            p.window = window;
            Lsq lsq(p);
            ScanLsq ref(p);
            Rng rng(testSeed(0x15c0000 + window * 2 + spec));
            auto word = [&] { return 0x1000 + wordBytes * rng.below(48); };
            std::uint64_t seq = 0;
            Cycles now = 0;
            unsigned loads = 0, skippable = 0;
            Cycles latest = 0; // the greatest resolution recorded so far
            for (int op = 0; op < 5000; ++op) {
                seq += 1 + rng.below(window / 2 + 1);
                now += rng.below(4);
                const Addr initial = word();
                const Addr final = rng.chance(0.3) ? word() : initial;
                const auto words = unsigned(1 + rng.below(4));
                if (rng.chance(0.4)) {
                    // Mostly quick resolutions, now and then a long one
                    // (a store miss) that outlives many later loads.
                    const Cycles resolved =
                        now + (rng.chance(0.05) ? rng.below(60) : rng.below(4));
                    latest = std::max(latest, resolved);
                    lsq.recordStore(seq, initial, final, words, resolved);
                    ref.recordStore(seq, initial, final, words, resolved);
                    continue;
                }
                // A load checked now or up to half a window in the past,
                // possibly older than the stores last recorded, so loads
                // reach the Lsq out of program order too.
                const std::uint64_t load_seq = seq - rng.below(window / 2 + 1);
                const Cycles issue = now - std::min<Cycles>(now, rng.below(16));
                ASSERT_EQ(lsq.loadIssueCycle(load_seq, issue),
                          ref.loadIssueCycle(load_seq, issue));
                ASSERT_EQ(lsq.checkLoad(load_seq, issue, initial, final,
                                        words),
                          ref.checkLoad(load_seq, issue, initial, final,
                                        words))
                    << "op " << op;
                ASSERT_EQ(lsq.speculations(), ref.speculations);
                ASSERT_EQ(lsq.violations(), ref.violations);
                ++loads;
                skippable += latest <= issue;
            }
            EXPECT_GT(loads, 1000u);
            if (spec) {
                // Loads on both sides of the skip, and both outcomes of
                // the scan.
                EXPECT_GT(skippable, loads / 10);
                EXPECT_LT(skippable, loads - loads / 10);
                EXPECT_GT(ref.speculations, 0u);
                EXPECT_GT(ref.violations, 0u);
            }
        }
    }
}

} // namespace
} // namespace memfwd
