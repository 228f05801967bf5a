#include "runtime/compacting_heap.hh"

#include "analysis/gate.hh"
#include "common/logging.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd
{

CompactingHeap::CompactingHeap(LayoutBackend &backend, SimAllocator &alloc,
                               Addr semispace_bytes)
    : machine_(backend.machine()),
      backend_(backend),
      semispace_bytes_(roundUpToWord(semispace_bytes))
{
    if (!backend.canRelocate() || !backend.stalePointersSafe()) {
        memfwd_fatal("CompactingHeap requires a backend with "
                     "stale-pointer-safe raw-range relocation "
                     "(got '%s')", backendKindName(backend.kind()));
    }
    memfwd_assert(semispace_bytes_ >= 64,
                  "semispace too small to be useful");
    space_a_ = alloc.alloc(semispace_bytes_);
    space_b_ = alloc.alloc(semispace_bytes_);
    active_base_ = space_a_;
    cursor_ = active_base_;
}

bool
CompactingHeap::inSpace(Addr addr, Addr base) const
{
    return addr >= base && addr < base + semispace_bytes_;
}

bool
CompactingHeap::inActiveSpace(Addr addr) const
{
    return inSpace(addr, active_base_);
}

Addr
CompactingHeap::alloc(unsigned payload_words, std::uint64_t pointer_mask)
{
    memfwd_assert(payload_words >= 1 &&
                      payload_words <= max_payload_words,
                  "object payload must be 1..%u words",
                  max_payload_words);
    memfwd_assert(pointer_mask >> payload_words == 0,
                  "pointer mask marks words beyond the payload");

    const Addr bytes = Addr(payload_words + 1) * wordBytes;
    if (cursor_ + bytes > active_base_ + semispace_bytes_) {
        memfwd_fatal("semispace exhausted (%llu bytes live); call "
                     "collect() before allocating",
                     static_cast<unsigned long long>(used()));
    }
    const Addr base = cursor_;
    cursor_ += bytes;

    // Header: payload word count + pointer bitmap.
    machine_.access(Access::store(base, wordBytes,
                   std::uint64_t(payload_words) | (pointer_mask << 8)));
    // Payload starts zeroed (the allocator initialized the region).
    return base;
}

Addr
CompactingHeap::copyObject(Addr base, Addr &to_cursor)
{
    // Already copied this cycle?  Then the header word forwards, and
    // its raw payload IS the collector's forwarding pointer — a
    // hand-proven raw read of a live forwarding word.
    if ((machine_.access(Access::readFBit(base)).value != 0)) {
        ScopedUnforwardedAnnotation fwd_ptr_ok(machine_.analysisGate());
        return wordAlign(machine_.access(Access::unforwardedRead(base)).value);
    }

    const std::uint64_t header = machine_.access(Access::load(base, wordBytes)).value;
    const unsigned payload_words =
        static_cast<unsigned>(header & 0xff);
    const Addr bytes = Addr(payload_words + 1) * wordBytes;
    memfwd_assert(to_cursor + bytes <=
                      (active_base_ == space_a_ ? space_b_ : space_a_) +
                          semispace_bytes_,
                  "to-space overflow: live data exceeds a semispace");

    const Addr new_base = to_cursor;
    to_cursor += bytes;

    // relocate() copies the payload AND installs the forwarding words
    // — the collector's forwarding pointer is the hardware's.  The
    // collector discovers objects incrementally during the Cheney scan,
    // so each copy is declared as its own single-move micro-plan right
    // before it executes (still strictly before any word moves).
    RelocationPlan plan("compacting_heap");
    plan.assume(AliasAssumption::stale_pointers_possible)
        .move(base, new_base, payload_words + 1);
    PlanScope scope(machine_.analysisGate(), plan);
    backend_.relocate(base, new_base, payload_words + 1);

    ++gc_stats_.objects_copied;
    gc_stats_.words_copied += payload_words + 1;
    return new_base;
}

void
CompactingHeap::collect(const std::vector<Addr> &root_slots)
{
    const Addr to_base = (active_base_ == space_a_) ? space_b_ : space_a_;

    // Reusing the to-space ends the grace window of the collection
    // before last: clear any leftover forwarding words so the space is
    // fresh.  (Functional only — an OS-style sweep, Section 3.3.)
    machine_.mem().initializeRegion(to_base, semispace_bytes_);

    Addr to_cursor = to_base;

    // Phase 1: copy the root targets and update the root slots.
    for (Addr slot : root_slots) {
        const AccessResult p = machine_.access(Access::load(slot, wordBytes));
        if (p.value != 0 && inActiveSpace(static_cast<Addr>(p.value))) {
            const Addr moved =
                copyObject(static_cast<Addr>(p.value), to_cursor);
            machine_.access(Access::store(slot, wordBytes, moved));
        }
    }

    // Phase 2: Cheney scan of the to-space.
    Addr scan = to_base;
    while (scan < to_cursor) {
        const std::uint64_t header =
            machine_.access(Access::load(scan, wordBytes)).value;
        const unsigned payload_words =
            static_cast<unsigned>(header & 0xff);
        const std::uint64_t mask = header >> 8;
        for (unsigned i = 0; i < payload_words; ++i) {
            if (!(mask & (std::uint64_t(1) << i)))
                continue;
            const Addr faddr = field(scan, i);
            const AccessResult p = machine_.access(Access::load(faddr, wordBytes));
            if (p.value == 0)
                continue;
            if (inActiveSpace(static_cast<Addr>(p.value))) {
                const Addr moved =
                    copyObject(static_cast<Addr>(p.value), to_cursor);
                machine_.access(Access::store(faddr, wordBytes, moved));
            }
        }
        scan += Addr(payload_words + 1) * wordBytes;
    }

    // Flip.  The vacated space keeps its forwarding words until the
    // next collection reuses it.
    gc_stats_.bytes_reclaimed += used() - (to_cursor - to_base);
    ++gc_stats_.collections;
    active_base_ = to_base;
    cursor_ = to_cursor;
}

} // namespace memfwd
