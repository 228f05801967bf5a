/** @file Unit tests for the Rob graduation-slot model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "cpu/rob.hh"

namespace memfwd
{
namespace
{

TEST(Rob, FetchBandwidthFourPerCycle)
{
    Rob rob(4, 64);
    EXPECT_EQ(rob.dispatch(), 0u);
    EXPECT_EQ(rob.dispatch(), 0u);
    EXPECT_EQ(rob.dispatch(), 0u);
    EXPECT_EQ(rob.dispatch(), 0u);
    EXPECT_EQ(rob.dispatch(), 1u); // fifth spills to the next cycle
}

TEST(Rob, BusySlotsCountGraduations)
{
    Rob rob(4, 64);
    for (int i = 0; i < 8; ++i) {
        const Cycles d = rob.dispatch();
        rob.graduate(d + 1, WaitKind::none);
    }
    EXPECT_EQ(rob.stalls().busy, 8u);
    EXPECT_EQ(rob.instructions(), 8u);
}

TEST(Rob, StallSlotsAttributedToLoadMiss)
{
    Rob rob(4, 64);
    const Cycles d = rob.dispatch();
    // A load completing at cycle 100 stalls graduation until then.
    rob.graduate(100, WaitKind::load_miss);
    EXPECT_EQ(rob.currentCycle(), 100u);
    // All the empty slots from d+... to 100 are load-stall slots.
    EXPECT_EQ(rob.stalls().load_stall, (100 - d - 1) * 4 + 4 - 0);
    EXPECT_EQ(rob.stalls().busy, 1u);
    EXPECT_EQ(rob.stalls().store_stall, 0u);
}

TEST(Rob, StallSlotsAttributedToStoreMiss)
{
    Rob rob(4, 64);
    rob.dispatch();
    rob.graduate(50, WaitKind::store_miss);
    EXPECT_GT(rob.stalls().store_stall, 0u);
    EXPECT_EQ(rob.stalls().load_stall, 0u);
}

TEST(Rob, InstStallForNonMemoryWaits)
{
    Rob rob(4, 64);
    rob.dispatch();
    rob.graduate(10, WaitKind::none);
    EXPECT_GT(rob.stalls().inst_stall, 0u);
}

TEST(Rob, GraduationWidthLimit)
{
    Rob rob(2, 64);
    // Six instructions all ready at cycle 0: graduate 2 per cycle.
    for (int i = 0; i < 6; ++i) {
        const Cycles d = rob.dispatch();
        rob.graduate(d, WaitKind::none);
    }
    EXPECT_EQ(rob.currentCycle(), 2u); // cycles 0,1,2 hold 2 each
}

TEST(Rob, WindowLimitsRunahead)
{
    // Window of 8: instruction 8 cannot dispatch before instruction 0
    // retires.
    Rob rob(4, 8);
    Cycles d0 = rob.dispatch();
    rob.graduate(100, WaitKind::load_miss); // instr 0 retires at 100
    EXPECT_EQ(d0, 0u);
    for (int i = 1; i < 8; ++i) {
        rob.dispatch();
        rob.graduate(100, WaitKind::none);
    }
    // Ninth instruction: window slot frees only at cycle 100.
    EXPECT_GE(rob.dispatch(), 100u);
    rob.graduate(101, WaitKind::none);
}

TEST(Rob, SlotAccountingIsConsistent)
{
    Rob rob(4, 32);
    // Mixed stream.
    for (int i = 0; i < 100; ++i) {
        const Cycles d = rob.dispatch();
        const Cycles done = d + 1 + (i % 7 == 0 ? 25 : 0);
        rob.graduate(done,
                     i % 7 == 0 ? WaitKind::load_miss : WaitKind::none);
    }
    const StallStats &st = rob.stalls();
    // Total attributed slots never exceed cycles*width and cover all
    // but the unused slots of the final cycle.
    const std::uint64_t total = (rob.currentCycle() + 1) * 4;
    EXPECT_LE(st.totalSlots(), total);
    EXPECT_GE(st.totalSlots(), total - 4);
}

TEST(RobDeathTest, GraduateWithoutDispatch)
{
    Rob rob(4, 64);
    EXPECT_DEATH(rob.graduate(0, WaitKind::none), "matching dispatch");
}

TEST(RobDeathTest, BadGeometry)
{
    EXPECT_DEATH(Rob(0, 4), "geometry");
    EXPECT_DEATH(Rob(8, 4), "geometry");
}

TEST(Rob, AluBurstMatchesSingleOpsExactly)
{
    // aluBurst(n) is defined as n dispatch()/graduate(d+1) pairs; the
    // fast-forward engine retires whole batches through it, so any
    // divergence silently skews mixed fast-forward/timed cycle counts.
    // Interleave bursts with long-latency graduations to exercise
    // window pressure and stall attribution from non-trivial states.
    for (const auto &[width, window] : {std::pair<unsigned, unsigned>{4, 64},
                                        {1, 1}, {2, 8}, {8, 128}}) {
        Rob burst(width, window);
        Rob singles(width, window);

        std::uint64_t salt = 0x9e3779b97f4a7c15ull;
        for (int round = 0; round < 20; ++round) {
            salt = salt * 6364136223846793005ull + 1442695040888963407ull;
            const std::uint64_t n = salt % 300;

            burst.aluBurst(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                const Cycles d = singles.dispatch();
                singles.graduate(d + 1, WaitKind::none);
            }

            // A straggling "load" with a big completion delay.
            const Cycles delay = 1 + salt % 97;
            burst.graduate(burst.dispatch() + delay, WaitKind::load_miss);
            singles.graduate(singles.dispatch() + delay,
                             WaitKind::load_miss);

            ASSERT_EQ(burst.currentCycle(), singles.currentCycle())
                << "w" << width << "/" << window << " round " << round;
            ASSERT_EQ(burst.instructions(), singles.instructions());
            ASSERT_EQ(burst.stalls().busy, singles.stalls().busy);
            ASSERT_EQ(burst.stalls().load_stall,
                      singles.stalls().load_stall);
            ASSERT_EQ(burst.stalls().inst_stall,
                      singles.stalls().inst_stall);
        }
    }
}

/**
 * The Rob as first written, indexing its retire ring with `seq %
 * window`: the literal reference the cursor-based Rob must match.
 */
class ModuloRob
{
  public:
    ModuloRob(unsigned width, unsigned window)
        : width_(width), window_(window), retire_ring_(window, 0)
    {
    }

    Cycles
    dispatch()
    {
        Cycles earliest = 0;
        if (seq_ >= window_)
            earliest = retire_ring_[seq_ % window_];
        if (earliest > fetch_cycle_) {
            fetch_cycle_ = earliest;
            fetch_slots_ = 0;
        }
        if (fetch_slots_ == width_) {
            ++fetch_cycle_;
            fetch_slots_ = 0;
        }
        ++fetch_slots_;
        ++seq_;
        return fetch_cycle_;
    }

    Cycles
    graduate(Cycles completion, WaitKind kind)
    {
        Cycles target = std::max(completion, grad_cycle_);
        if (target == grad_cycle_ && grad_slots_ == width_) {
            ++grad_cycle_;
            grad_slots_ = 0;
            target = grad_cycle_;
        }
        if (target > grad_cycle_) {
            const std::uint64_t stall_slots =
                (width_ - grad_slots_) + (target - grad_cycle_ - 1) * width_;
            if (kind == WaitKind::load_miss)
                stalls.load_stall += stall_slots;
            else if (kind == WaitKind::store_miss)
                stalls.store_stall += stall_slots;
            else
                stalls.inst_stall += stall_slots;
            grad_cycle_ = target;
            grad_slots_ = 0;
        }
        ++stalls.busy;
        ++grad_slots_;
        ++graduated_;
        retire_ring_[(graduated_ - 1) % window_] = grad_cycle_;
        return grad_cycle_;
    }

    std::uint64_t instructions() const { return seq_; }
    Cycles currentCycle() const { return grad_cycle_; }

    StallStats stalls;

  private:
    unsigned width_;
    unsigned window_;
    std::uint64_t seq_ = 0;
    std::uint64_t graduated_ = 0;
    Cycles fetch_cycle_ = 0;
    unsigned fetch_slots_ = 0;
    Cycles grad_cycle_ = 0;
    unsigned grad_slots_ = 0;
    std::vector<Cycles> retire_ring_;
};

TEST(Rob, MatchesModuloReference)
{
    // Random dispatch/graduate pairs (completions near and far, every
    // WaitKind), ALU bursts of 0-300, and now and then a dispatch that
    // is never graduated, as when a reference's walk throws.  The last
    // leaves the two ring cursors apart for the rest of the run.  A
    // window as narrow as the width, (4, 4), binds even in a burst.
    for (const auto &[width, window] : {std::pair<unsigned, unsigned>{1, 1},
                                        {3, 7}, {4, 4}, {4, 64}, {8, 128}}) {
        SCOPED_TRACE(::testing::Message() << "w" << width << "/" << window);
        Rob rob(width, window);
        ModuloRob ref(width, window);
        Rng rng(testSeed(0x40b0000 + width * 1000 + window));
        unsigned orphans = 0;
        for (int op = 0; op < 4000; ++op) {
            const auto kind = rng.below(100);
            if (kind < 60) {
                const Cycles d = rob.dispatch();
                ASSERT_EQ(d, ref.dispatch());
                const Cycles done =
                    d + (rng.chance(0.2) ? rng.below(400) : rng.below(3));
                const auto wait = static_cast<WaitKind>(rng.below(3));
                ASSERT_EQ(rob.graduate(done, wait), ref.graduate(done, wait));
            } else if (kind < 95) {
                const std::uint64_t n = rng.below(301);
                rob.aluBurst(n);
                for (std::uint64_t i = 0; i < n; ++i)
                    ref.graduate(ref.dispatch() + 1, WaitKind::none);
            } else {
                ASSERT_EQ(rob.dispatch(), ref.dispatch());
                ++orphans;
            }
            ASSERT_EQ(rob.instructions(), ref.instructions()) << "op " << op;
            ASSERT_EQ(rob.currentCycle(), ref.currentCycle()) << "op " << op;
            ASSERT_EQ(rob.stalls().busy, ref.stalls.busy);
            ASSERT_EQ(rob.stalls().load_stall, ref.stalls.load_stall);
            ASSERT_EQ(rob.stalls().store_stall, ref.stalls.store_stall);
            ASSERT_EQ(rob.stalls().inst_stall, ref.stalls.inst_stall);
        }
        EXPECT_GT(orphans, 0u);
    }
}

} // namespace
} // namespace memfwd
