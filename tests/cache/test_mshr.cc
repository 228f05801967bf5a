/** @file Unit tests for the MSHR file. */

#include <gtest/gtest.h>

#include "cache/mshr.hh"

namespace memfwd
{
namespace
{

TEST(Mshr, NoOutstandingFillInitially)
{
    MshrFile m(4);
    EXPECT_EQ(m.outstandingFill(0x100, 0), 0u);
    EXPECT_EQ(m.busyAt(0), 0u);
}

TEST(Mshr, AllocateCompleteTracksFill)
{
    MshrFile m(4);
    EXPECT_EQ(m.allocate(0x100, 10), 10u);
    m.complete(0x100, 80);
    EXPECT_EQ(m.outstandingFill(0x100, 20), 80u);
    EXPECT_EQ(m.outstandingFill(0x100, 80), 0u); // done by then
    EXPECT_EQ(m.outstandingFill(0x200, 20), 0u); // different line
}

TEST(Mshr, PendingEntryVisibleBeforeComplete)
{
    MshrFile m(2);
    m.allocate(0x100, 5);
    // Before complete(), the entry reports "outstanding now".
    EXPECT_EQ(m.outstandingFill(0x100, 5), 5u);
    m.complete(0x100, 50);
}

TEST(Mshr, FullFileDelaysAllocation)
{
    MshrFile m(2);
    m.allocate(0xa0, 0);
    m.complete(0xa0, 100);
    m.allocate(0xb0, 0);
    m.complete(0xb0, 120);
    // Both busy at cycle 0; third miss waits for the earliest (100).
    EXPECT_EQ(m.allocate(0xc0, 0), 100u);
    m.complete(0xc0, 200);
    EXPECT_EQ(m.allocationStalls(), 1u);
}

TEST(Mshr, EntriesExpireAndGetReused)
{
    MshrFile m(1);
    m.allocate(0xa0, 0);
    m.complete(0xa0, 50);
    // At cycle 60 the single entry is free again.
    EXPECT_EQ(m.allocate(0xb0, 60), 60u);
    m.complete(0xb0, 130);
    EXPECT_EQ(m.allocationStalls(), 0u);
}

TEST(Mshr, PeakOccupancyTracked)
{
    MshrFile m(4);
    m.allocate(0x1, 0);
    m.complete(0x1, 100);
    m.allocate(0x2, 0);
    m.complete(0x2, 100);
    m.allocate(0x3, 0);
    m.complete(0x3, 100);
    EXPECT_EQ(m.peakOccupancy(), 3u);
    EXPECT_EQ(m.busyAt(50), 3u);
    EXPECT_EQ(m.busyAt(150), 0u);
}

TEST(MshrDeathTest, CompleteWithoutAllocatePanics)
{
    MshrFile m(2);
    EXPECT_DEATH(m.complete(0x123, 10), "without matching allocate");
}

TEST(MshrDeathTest, SecondPendingAllocationPanics)
{
    MshrFile m(4);
    m.allocate(0x100, 0);
    EXPECT_DEATH(m.allocate(0x200, 0), "another allocation is pending");
}

TEST(MshrDeathTest, CompleteOfAnotherLinePanics)
{
    MshrFile m(4);
    m.allocate(0x100, 0);
    EXPECT_DEATH(m.complete(0x200, 10), "without matching allocate");
}

TEST(MshrDeathTest, ZeroEntriesRejected)
{
    EXPECT_DEATH(MshrFile m(0), "at least one entry");
}

} // namespace
} // namespace memfwd
