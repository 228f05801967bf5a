#include "runtime/sim_allocator.hh"

#include <algorithm>

#include "analysis/gate.hh"
#include "common/logging.hh"
#include "core/fault_injector.hh"
#include "runtime/machine.hh"

namespace memfwd
{

namespace
{

/** Approximate instruction cost of one malloc/free call. */
constexpr std::uint64_t alloc_compute_cost = 40;

} // namespace

SimAllocator::SimAllocator(Machine &machine, Addr base, Addr span,
                           std::uint64_t seed)
    : machine_(machine), base_(base), span_(span), rng_(seed)
{
    memfwd_assert(isWordAligned(base_), "heap base must be word-aligned");
    memfwd_assert(span_ >= TaggedMemory::pageBytes, "heap span too small");
}

SimAllocator::SimAllocator(Machine &machine, std::uint64_t seed)
    : SimAllocator(machine, machine.config().heap_base,
                   machine.config().heap_span, seed)
{
}

bool
SimAllocator::rangeFree(Addr start, Addr bytes) const
{
    if (start < base_ || start + bytes > base_ + span_)
        return false;
    // Blocks are disjoint, so only the last block starting inside the
    // range's end can reach into it.
    const BlockIndex::Pos p = blocks_.floor(start + bytes - 1);
    return p == blocks_.end() || blocks_.end(p) <= start;
}

Addr
SimAllocator::place(Addr bytes, Placement placement, Addr align)
{
    // A request of the whole arena or more has no room to probe in.
    if (placement == Placement::scattered && bytes < span_) {
        // Pseudo-random placement across the arena: this stands in for
        // the allocation interleaving and heap churn that scatter real
        // applications' nodes.  With span >> live bytes the first
        // probes almost always succeed.
        for (int attempt = 0; attempt < 64; ++attempt) {
            // Align absolutely, not relative to the arena base.
            Addr candidate =
                (base_ + rng_.below(span_ - bytes)) & ~(align - 1);
            if (candidate < base_)
                candidate += align;
            if (rangeFree(candidate, bytes))
                return candidate;
        }
        memfwd_warn("scattered placement degraded to sequential "
                    "(heap too full)");
    }
    if (placement == Placement::first_fit) {
        // Lowest hole that fits: walk the live blocks in address order
        // tracking the gap before each.
        Addr candidate = (base_ + align - 1) & ~(align - 1);
        blocks_.scan([&](Addr start, Addr end) {
            if (candidate + bytes <= start)
                return false;
            if (end > candidate)
                candidate = (end + align - 1) & ~(align - 1);
            return true;
        });
        if (candidate + bytes > base_ + span_)
            throw AllocFailure(bytes, "simulated heap exhausted");
        bump_ = std::max(bump_, candidate + bytes - base_);
        return candidate;
    }
    // Sequential bump with a free-range check (the scattered blocks
    // share the arena).
    Addr candidate = base_ + bump_;
    for (;;) {
        candidate = (candidate + align - 1) & ~(align - 1);
        if (candidate + bytes > base_ + span_)
            throw AllocFailure(bytes, "simulated heap exhausted");
        if (rangeFree(candidate, bytes))
            break;
        // Skip past the block at or below the candidate, or past the
        // first block when none starts that low (it is the collision).
        BlockIndex::Pos p = blocks_.floor(candidate);
        if (p == blocks_.end())
            p = blocks_.begin();
        candidate = std::max(candidate + align, blocks_.end(p));
    }
    bump_ = candidate + bytes - base_;
    return candidate;
}

Addr
SimAllocator::alloc(Addr bytes, Placement placement, Addr align)
{
    memfwd_assert(bytes > 0, "zero-byte allocation");
    memfwd_assert(align >= wordBytes && (align & (align - 1)) == 0,
                  "alignment must be a power of two >= %u", wordBytes);
    bytes = roundUpToWord(bytes);

    // An armed alloc-site fault fires before any state changes, so a
    // failed call is invisible to later ones (callers can retry).
    if (FaultInjector *faults = machine_.faultInjector();
        faults && faults->shouldFail(FaultSite::alloc)) {
        throw AllocFailure(bytes, "injected allocation failure");
    }

    const Addr addr = place(bytes, placement, align);
    blocks_.insert(addr, addr + bytes);

    // The OS guarantees clear forwarding bits on fresh memory
    // (Section 3.3); the sweep is functional, the allocator's own work
    // is charged as compute.
    machine_.mem().initializeRegion(addr, bytes);
    machine_.access(Access::compute(alloc_compute_cost));

    ++alloc_calls_;
    bytes_live_ += bytes;
    bytes_total_ += bytes;
    bytes_peak_ = std::max(bytes_peak_, bytes_live_);
    return addr;
}

bool
SimAllocator::isAllocated(Addr addr) const
{
    return blocks_.find(addr) != blocks_.end();
}

Addr
SimAllocator::allocationSize(Addr addr) const
{
    const BlockIndex::Pos p = blocks_.find(addr);
    return p == blocks_.end() ? 0 : blocks_.end(p) - addr;
}

void
SimAllocator::free(Addr addr)
{
    // Section 3.3: the wrapper walks the forwarding chain first and
    // deallocates every relocated copy of the object, then the block
    // itself.  The walk is performed with the ISA extensions so its
    // cost appears in the timing.
    Addr cur = wordAlign(addr);
    unsigned guard = 0;
    // Hand-proven chain walk: each raw read targets a word just
    // observed with its forwarding bit set.
    ScopedUnforwardedAnnotation walk_ok(machine_.analysisGate());
    while ((machine_.access(Access::readFBit(cur)).value != 0)) {
        cur = wordAlign(machine_.access(Access::unforwardedRead(cur)).value);
        if (const BlockIndex::Pos p = blocks_.find(cur); p != blocks_.end()) {
            bytes_live_ -= blocks_.end(p) - cur;
            blocks_.erase(p);
        }
        memfwd_assert(++guard < 1u << 20, "free(): runaway chain");
    }

    const BlockIndex::Pos p = blocks_.find(addr);
    memfwd_assert(p != blocks_.end(),
                  "free() of unallocated address %#llx",
                  static_cast<unsigned long long>(addr));
    bytes_live_ -= blocks_.end(p) - addr;
    blocks_.erase(p);

    machine_.access(Access::compute(alloc_compute_cost));
    ++free_calls_;
}

RelocationPool::RelocationPool(SimAllocator &alloc, Addr bytes)
    : bytes_(roundUpToWord(bytes))
{
    base_ = alloc.alloc(bytes_, Placement::sequential);
    cursor_ = base_;
}

Addr
RelocationPool::take(Addr bytes, Addr align)
{
    memfwd_assert(align >= wordBytes && (align & (align - 1)) == 0,
                  "bad pool alignment");
    Addr a = (cursor_ + align - 1) & ~(align - 1);
    bytes = roundUpToWord(bytes);
    memfwd_assert(a + bytes <= base_ + bytes_,
                  "relocation pool exhausted (capacity %llu)",
                  static_cast<unsigned long long>(bytes_));
    cursor_ = a + bytes;
    return a;
}

} // namespace memfwd
