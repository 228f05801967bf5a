/**
 * @file
 * Example: a copying garbage collector whose forwarding pointers are
 * the architecture's forwarding words (the paper's Lisp-machine
 * heritage, Section 1.2, brought back on modern hardware).
 *
 * Builds a binary tree with garbage interspersed, collects, and shows:
 *  - survivors compacted into contiguous memory (traversal speedup),
 *  - a pointer the collector never knew about still working afterward
 *    (illegal under a classical collector, safe under forwarding),
 *  - reclaimed bytes and copy statistics.
 */

#include <cstdio>
#include <vector>

#include "common/logging.hh"
#include "runtime/compacting_heap.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"

using namespace memfwd;

namespace
{

// Tree node payload: [0]=left ptr, [1]=right ptr, [2]=value.
constexpr std::uint64_t node_mask = 0b011;

Addr
buildTree(Machine &m, CompactingHeap &heap, unsigned depth,
          std::uint64_t seed)
{
    const Addr node = heap.alloc(3, node_mask);
    m.access(Access::store(CompactingHeap::field(node, 2), 8, seed));
    if (depth > 0) {
        // Garbage between siblings, as real allocation produces.
        heap.alloc(2, 0);
        const Addr l = buildTree(m, heap, depth - 1, seed * 2 + 1);
        heap.alloc(3, 0);
        const Addr r = buildTree(m, heap, depth - 1, seed * 2 + 2);
        m.access(Access::store(CompactingHeap::field(node, 0), 8, l));
        m.access(Access::store(CompactingHeap::field(node, 1), 8, r));
    }
    return node;
}

std::uint64_t
sumTree(Machine &m, Addr node, Cycles dep, Cycles *out_ready)
{
    if (node == 0) {
        *out_ready = dep;
        return 0;
    }
    const AccessResult v =
        m.access(Access::load(CompactingHeap::field(node, 2), 8, dep));
    const AccessResult l =
        m.access(Access::load(CompactingHeap::field(node, 0), 8, dep));
    const AccessResult r =
        m.access(Access::load(CompactingHeap::field(node, 1), 8, dep));
    Cycles lr = 0, rr = 0;
    const std::uint64_t sum =
        v.value +
        sumTree(m, static_cast<Addr>(l.value), l.ready, &lr) +
        sumTree(m, static_cast<Addr>(r.value), r.ready, &rr);
    *out_ready = std::max(lr, rr);
    return sum;
}

} // namespace

int
main()
{
    setVerbose(false);
    MachineConfig mc;
    mc.hierarchy.setLineBytes(128);
    Machine m(mc);
    SimAllocator alloc(m);
    ForwardingBackend backend(m);
    CompactingHeap heap(backend, alloc, 1 << 20);

    const Addr root_slot = alloc.alloc(8);
    const Addr root = buildTree(m, heap, 10, 1); // 2047 nodes + garbage
    m.access(Access::store(root_slot, 8, root));

    // A "register" pointer the collector will never see.
    const Addr hidden = root;

    const Addr used_before = heap.used();
    Cycles ready = 0;
    m.hierarchy().reset(); // cold sweep: measure the layout, not warmup
    const Cycles t0 = m.cycles();
    const std::uint64_t sum_before =
        sumTree(m, root, 0, &ready);
    const Cycles sweep_before = m.cycles() - t0;

    heap.collect({root_slot});

    const Addr new_root =
        static_cast<Addr>(m.access(Access::load(root_slot, 8)).value);
    m.hierarchy().reset();
    const Cycles t1 = m.cycles();
    const std::uint64_t sum_after =
        sumTree(m, new_root, 0, &ready);
    const Cycles sweep_after = m.cycles() - t1;

    std::printf("heap before collection : %llu bytes used\n",
                static_cast<unsigned long long>(used_before));
    std::printf("heap after  collection : %llu bytes used "
                "(%llu objects copied, %llu reclaimed)\n",
                static_cast<unsigned long long>(heap.used()),
                static_cast<unsigned long long>(
                    heap.stats().objects_copied),
                static_cast<unsigned long long>(
                    heap.stats().bytes_reclaimed));
    std::printf("tree sum               : %llu before, %llu after "
                "(%s)\n",
                static_cast<unsigned long long>(sum_before),
                static_cast<unsigned long long>(sum_after),
                sum_before == sum_after ? "match" : "MISMATCH");
    std::printf("full-tree sweep        : %llu cycles before, %llu "
                "after compaction (%.2fx)\n",
                static_cast<unsigned long long>(sweep_before),
                static_cast<unsigned long long>(sweep_after),
                double(sweep_before) / double(sweep_after));

    // The pointer the collector never saw.
    const AccessResult stale =
        m.access(Access::load(CompactingHeap::field(hidden, 2), 8));
    std::printf("hidden pointer read    : value=%llu via %u forwarding "
                "hop(s) — a classical collector would have broken "
                "this\n",
                static_cast<unsigned long long>(stale.value),
                stale.hops);

    return (sum_before == sum_after && stale.value == 1) ? 0 : 1;
}
