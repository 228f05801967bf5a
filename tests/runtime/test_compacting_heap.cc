/** @file Unit tests for the forwarding-based compacting collector. */

#include <gtest/gtest.h>

#include "runtime/compacting_heap.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd
{
namespace
{

struct GcRig
{
    Machine m;
    SimAllocator alloc{m};
    ForwardingBackend backend{m};
    CompactingHeap heap{backend, alloc, 1 << 16};
    Addr root_slot;

    GcRig()
    {
        root_slot = alloc.alloc(8);
        m.access(Access::store(root_slot, 8, 0));
    }
};

TEST(CompactingHeap, AllocWritesHeaderAndZeroedPayload)
{
    GcRig rig;
    const Addr obj = rig.heap.alloc(3, 0b001);
    EXPECT_TRUE(rig.heap.inActiveSpace(obj));
    const std::uint64_t header = rig.m.peek(obj, 8);
    EXPECT_EQ(header & 0xff, 3u);
    EXPECT_EQ(header >> 8, 0b001u);
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_EQ(rig.m.peek(CompactingHeap::field(obj, i), 8), 0u);
}

TEST(CompactingHeap, CollectPreservesReachableData)
{
    GcRig rig;
    // root -> a -> b, with payloads.
    const Addr b = rig.heap.alloc(2, 0);
    rig.m.access(Access::store(CompactingHeap::field(b, 0), 8, 222));
    const Addr a = rig.heap.alloc(2, 0b001); // word 0 is a pointer
    rig.m.access(Access::store(CompactingHeap::field(a, 0), 8, b));
    rig.m.access(Access::store(CompactingHeap::field(a, 1), 8, 111));
    rig.m.access(Access::store(rig.root_slot, 8, a));

    rig.heap.collect({rig.root_slot});

    const Addr new_a =
        static_cast<Addr>(rig.m.access(Access::load(rig.root_slot, 8)).value);
    EXPECT_NE(new_a, a);
    EXPECT_TRUE(rig.heap.inActiveSpace(new_a));
    EXPECT_EQ(rig.m.access(Access::load(CompactingHeap::field(new_a, 1), 8)).value,
              111u);
    const Addr new_b = static_cast<Addr>(
        rig.m.access(Access::load(CompactingHeap::field(new_a, 0), 8)).value);
    EXPECT_TRUE(rig.heap.inActiveSpace(new_b));
    EXPECT_EQ(rig.m.access(Access::load(CompactingHeap::field(new_b, 0), 8)).value,
              222u);
}

TEST(CompactingHeap, GarbageIsNotCopied)
{
    GcRig rig;
    const Addr live = rig.heap.alloc(1, 0);
    rig.m.access(Access::store(CompactingHeap::field(live, 0), 8, 1));
    for (int i = 0; i < 10; ++i)
        rig.heap.alloc(4, 0); // unreachable
    rig.m.access(Access::store(rig.root_slot, 8, live));

    const Addr used_before = rig.heap.used();
    rig.heap.collect({rig.root_slot});
    EXPECT_LT(rig.heap.used(), used_before);
    EXPECT_EQ(rig.heap.stats().objects_copied, 1u);
    EXPECT_GT(rig.heap.stats().bytes_reclaimed, 0u);
}

TEST(CompactingHeap, SharedObjectCopiedOnce)
{
    GcRig rig;
    // Two roots point at the same object (a DAG, not a tree).
    const Addr shared = rig.heap.alloc(1, 0);
    rig.m.access(Access::store(CompactingHeap::field(shared, 0), 8, 77));
    const Addr r2 = rig.alloc.alloc(8);
    rig.m.access(Access::store(rig.root_slot, 8, shared));
    rig.m.access(Access::store(r2, 8, shared));

    rig.heap.collect({rig.root_slot, r2});
    EXPECT_EQ(rig.heap.stats().objects_copied, 1u);
    // Both roots updated to the SAME new address.
    EXPECT_EQ(rig.m.access(Access::load(rig.root_slot, 8)).value,
              rig.m.access(Access::load(r2, 8)).value);
}

TEST(CompactingHeap, CyclicGraphsTerminate)
{
    GcRig rig;
    const Addr a = rig.heap.alloc(1, 0b001);
    const Addr b = rig.heap.alloc(1, 0b001);
    rig.m.access(Access::store(CompactingHeap::field(a, 0), 8, b));
    rig.m.access(Access::store(CompactingHeap::field(b, 0), 8, a)); // cycle
    rig.m.access(Access::store(rig.root_slot, 8, a));

    rig.heap.collect({rig.root_slot});
    EXPECT_EQ(rig.heap.stats().objects_copied, 2u);
    const Addr na =
        static_cast<Addr>(rig.m.access(Access::load(rig.root_slot, 8)).value);
    const Addr nb = static_cast<Addr>(
        rig.m.access(Access::load(CompactingHeap::field(na, 0), 8)).value);
    EXPECT_EQ(rig.m.access(Access::load(CompactingHeap::field(nb, 0), 8)).value, na);
}

TEST(CompactingHeap, StalePointersForwardAfterCollection)
{
    // The memory-forwarding bonus: a pointer the collector never saw
    // still works after the flip.
    GcRig rig;
    const Addr obj = rig.heap.alloc(1, 0);
    rig.m.access(Access::store(CompactingHeap::field(obj, 0), 8, 1234));
    rig.m.access(Access::store(rig.root_slot, 8, obj));
    const Addr hidden = obj; // a pointer in a register somewhere

    rig.heap.collect({rig.root_slot});

    const AccessResult r =
        rig.m.access(Access::load(CompactingHeap::field(hidden, 0), 8));
    EXPECT_EQ(r.value, 1234u);
    EXPECT_EQ(r.hops, 1u);
}

TEST(CompactingHeap, GraceWindowEndsAtNextCollection)
{
    GcRig rig;
    const Addr obj = rig.heap.alloc(1, 0);
    rig.m.access(Access::store(CompactingHeap::field(obj, 0), 8, 55));
    rig.m.access(Access::store(rig.root_slot, 8, obj));

    rig.heap.collect({rig.root_slot}); // obj's space vacated
    rig.heap.collect({rig.root_slot}); // ...and now reused: words wiped

    // The doubly-stale pointer no longer forwards (its space was
    // reinitialized); the CURRENT root still reads correctly.
    EXPECT_FALSE((rig.m.access(Access::readFBit(obj)).value != 0));
    const Addr cur =
        static_cast<Addr>(rig.m.access(Access::load(rig.root_slot, 8)).value);
    EXPECT_EQ(rig.m.access(Access::load(CompactingHeap::field(cur, 0), 8)).value, 55u);
}

TEST(CompactingHeap, CompactionRestoresContiguity)
{
    GcRig rig;
    // Interleave live and garbage objects, then collect: survivors
    // become contiguous in allocation order.
    std::vector<Addr> live;
    std::vector<Addr> live_slots;
    for (int i = 0; i < 8; ++i) {
        const Addr o = rig.heap.alloc(1, 0);
        rig.m.access(Access::store(CompactingHeap::field(o, 0), 8, i));
        live.push_back(o);
        rig.heap.alloc(5, 0); // garbage spacer
        const Addr slot = rig.alloc.alloc(8);
        rig.m.access(Access::store(slot, 8, o));
        live_slots.push_back(slot);
    }

    rig.heap.collect(live_slots);

    Addr prev = 0;
    for (int i = 0; i < 8; ++i) {
        const Addr cur =
            static_cast<Addr>(rig.m.access(Access::load(live_slots[i], 8)).value);
        EXPECT_EQ(rig.m.access(Access::load(CompactingHeap::field(cur, 0), 8)).value,
                  static_cast<std::uint64_t>(i));
        if (prev) {
            EXPECT_EQ(cur, prev + 16); // header + 1 payload word
        }
        prev = cur;
    }
}

TEST(CompactingHeap, ManyCollectionsStayConsistent)
{
    GcRig rig;
    // A persistent linked structure surviving repeated collections
    // amid garbage churn.
    Addr head = rig.heap.alloc(2, 0b001);
    rig.m.access(Access::store(CompactingHeap::field(head, 1), 8, 0));
    rig.m.access(Access::store(rig.root_slot, 8, head));
    for (int n = 1; n <= 6; ++n) {
        // Prepend a node.
        const Addr node = rig.heap.alloc(2, 0b001);
        rig.m.access(Access::store(CompactingHeap::field(node, 0), 8,
                    rig.m.access(Access::load(rig.root_slot, 8)).value));
        rig.m.access(Access::store(CompactingHeap::field(node, 1), 8, n));
        rig.m.access(Access::store(rig.root_slot, 8, node));
        // Garbage.
        for (int g = 0; g < 5; ++g)
            rig.heap.alloc(3, 0);
        rig.heap.collect({rig.root_slot});
    }
    // Walk: values 6,5,4,3,2,1,0-tail.
    Addr cur = static_cast<Addr>(rig.m.access(Access::load(rig.root_slot, 8)).value);
    for (int expect = 6; expect >= 1; --expect) {
        EXPECT_EQ(rig.m.access(Access::load(CompactingHeap::field(cur, 1), 8)).value,
                  static_cast<std::uint64_t>(expect));
        cur = static_cast<Addr>(
            rig.m.access(Access::load(CompactingHeap::field(cur, 0), 8)).value);
    }
    EXPECT_EQ(rig.heap.stats().collections, 6u);
}

TEST(CompactingHeapDeathTest, OversizeObjectRejected)
{
    GcRig rig;
    EXPECT_DEATH(rig.heap.alloc(0, 0), "payload");
    EXPECT_DEATH(rig.heap.alloc(57, 0), "payload");
    EXPECT_DEATH(rig.heap.alloc(2, 0b100), "beyond the payload");
}

TEST(CompactingHeapDeathTest, ExhaustionIsFatalNotSilent)
{
    Machine m;
    SimAllocator alloc(m);
    ForwardingBackend backend(m);
    CompactingHeap heap(backend, alloc, 256);
    heap.alloc(20, 0);
    EXPECT_EXIT(
        {
            heap.alloc(20, 0);
            heap.alloc(20, 0);
        },
        ::testing::ExitedWithCode(1), "exhausted");
}

TEST(CompactingHeapDeathTest, RefusesBackendsThatBreakStalePointers)
{
    // Handles refuse raw-range relocation of unmediated pointers; none
    // refuses relocation outright.  Neither can host the collector.
    Machine m;
    SimAllocator alloc(m);
    HandleBackend handles(m, alloc);
    NullBackend none(m, alloc);
    EXPECT_EXIT(CompactingHeap(handles, alloc, 1 << 12),
                ::testing::ExitedWithCode(1), "'handles'");
    EXPECT_EXIT(CompactingHeap(none, alloc, 1 << 12),
                ::testing::ExitedWithCode(1), "'none'");
}

} // namespace
} // namespace memfwd
