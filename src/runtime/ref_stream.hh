/**
 * @file
 * Batched reference-stream API — the host-speed execution surface.
 *
 * Machine::access(Access) executes one simulated reference per call.
 * That is one virtual-free but branch-heavy round trip per reference:
 * the tracer test, the fast-forward test and the result plumbing all
 * sit inside the hottest loop of the simulator.  The batched API
 * amortizes them:
 *
 *  - an AccessBatch is a flat array of MemRef{Access, AccessResult,
 *    dep}; the workload appends references and hands the whole batch to
 *    Machine::run(AccessBatch&), which hoists the tracer/fast-forward
 *    dispatch out of the loop and drains the refs back-to-back;
 *  - intra-batch dependences are expressed by index: a MemRef with
 *    `dep = i` has its addr_ready raised to the completion cycle of the
 *    batch's i-th reference, preserving the pointer-chasing
 *    serialization the per-call API threads by hand;
 *  - a BatchEmitter is the drop-in convenience for workload inner loops:
 *    result-free operations (store, prefetch, compute, unforwardedWrite)
 *    are deferred and flushed in batches; value-returning operations
 *    flush the pending batch and execute immediately, so program order
 *    and timing are preserved exactly.
 *
 * Batch size never changes simulated timing — references execute in
 * program order with the same cycle accounting as the per-call API
 * (tests/runtime/test_ref_stream.cc proves batch-size invariance).  The
 * default capacity is 256.
 */

#ifndef MEMFWD_RUNTIME_REF_STREAM_HH
#define MEMFWD_RUNTIME_REF_STREAM_HH

#include <cstdint>
#include <vector>

#include "runtime/machine.hh"

namespace memfwd
{

/** One reference in a batch: the request, its result, and a dep link. */
struct MemRef
{
    Access acc{};
    AccessResult res{};
    /**
     * Index of an earlier reference in the same batch whose completion
     * cycle gates this reference's address (load-to-load dependence),
     * or -1 for none.  At run time addr_ready is raised to
     * max(acc.addr_ready, refs[dep].res.ready).
     */
    std::int32_t dep = -1;
};

/** The batch capacity AccessBatch and BatchEmitter default to. */
constexpr std::size_t
defaultBatchCapacity()
{
    return 256;
}

/** A flat, bounded, reusable array of MemRefs. */
class AccessBatch
{
  public:
    explicit AccessBatch(std::size_t capacity = defaultBatchCapacity())
        : capacity_(capacity ? capacity : 1)
    {
        refs_.reserve(capacity_);
    }

    /** Append @p a; returns its index (for later deps). */
    std::size_t
    push(const Access &a, std::int32_t dep = -1)
    {
        refs_.push_back(MemRef{a, {}, dep});
        return refs_.size() - 1;
    }

    bool full() const { return refs_.size() >= capacity_; }
    bool empty() const { return refs_.empty(); }
    std::size_t size() const { return refs_.size(); }
    std::size_t capacity() const { return capacity_; }

    MemRef &operator[](std::size_t i) { return refs_[i]; }
    const MemRef &operator[](std::size_t i) const { return refs_[i]; }

    MemRef *data() { return refs_.data(); }

    /** Drop all refs (capacity and storage are kept). */
    void clear() { refs_.clear(); }

  private:
    std::vector<MemRef> refs_;
    std::size_t capacity_;
};

/**
 * Batch-building convenience for workload inner loops.  Keeps the exact
 * program-order semantics of the per-call Machine API: result-free
 * operations are queued; anything that needs a result (or the
 * destructor/flush()) drains the queue first.
 */
class BatchEmitter
{
  public:
    explicit BatchEmitter(Machine &machine,
                          std::size_t capacity = defaultBatchCapacity())
        : machine_(machine), batch_(capacity)
    {
    }

    ~BatchEmitter() { flush(); }

    BatchEmitter(const BatchEmitter &) = delete;
    BatchEmitter &operator=(const BatchEmitter &) = delete;

    /** Run everything queued so far. */
    void
    flush()
    {
        if (!batch_.empty()) {
            machine_.run(batch_);
            batch_.clear();
        }
    }

    // ----- deferred (result-free) operations ---------------------------

    void
    store(Addr addr, unsigned size, std::uint64_t value,
          Cycles addr_ready = 0, SiteId site = no_site,
          Addr pointer_slot = 0)
    {
        defer(Access::store(addr, size, value, addr_ready, site,
                            pointer_slot));
    }

    void
    unforwardedWrite(Addr addr, std::uint64_t value, bool fbit,
                     Cycles addr_ready = 0)
    {
        defer(Access::unforwardedWrite(addr, value, fbit, addr_ready));
    }

    void
    prefetch(Addr addr, unsigned lines, Cycles addr_ready = 0)
    {
        defer(Access::prefetch(addr, lines, addr_ready));
    }

    void compute(std::uint64_t n) { defer(Access::compute(n)); }

    // ----- flush-through (value-returning) operations ------------------

    AccessResult
    load(Addr addr, unsigned size, Cycles addr_ready = 0,
         SiteId site = no_site, Addr pointer_slot = 0)
    {
        flush();
        return machine_.access(
            Access::load(addr, size, addr_ready, site, pointer_slot));
    }

    bool
    readFBit(Addr addr, Cycles addr_ready = 0)
    {
        flush();
        return machine_.access(Access::readFBit(addr, addr_ready)).value
               != 0;
    }

    std::uint64_t
    unforwardedRead(Addr addr, Cycles addr_ready = 0)
    {
        flush();
        return machine_.access(Access::unforwardedRead(addr, addr_ready))
            .value;
    }

    Machine &machine() { return machine_; }

  private:
    void
    defer(const Access &a)
    {
        batch_.push(a);
        if (batch_.full())
            flush();
    }

    Machine &machine_;
    AccessBatch batch_;
};

} // namespace memfwd

#endif // MEMFWD_RUNTIME_REF_STREAM_HH
