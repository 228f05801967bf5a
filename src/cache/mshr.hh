/**
 * @file
 * Miss Status Holding Registers.
 *
 * An MSHR tracks one outstanding line fill.  A demand access that finds
 * an MSHR already allocated for its line is a *partial miss* in the
 * paper's terminology (Figure 6(a)): it combines with the in-flight
 * fill and waits only for the remaining latency.  The MSHR file has a
 * fixed number of entries; when all are busy, a new miss must wait for
 * the earliest entry to retire, modelling the limit on memory-level
 * parallelism.
 */

#ifndef MEMFWD_CACHE_MSHR_HH
#define MEMFWD_CACHE_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace memfwd
{

/** A fixed-size file of outstanding-miss registers. */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries);

    /**
     * If a fill for @p line_addr is outstanding at @p now, return its
     * completion cycle (the caller combines with it); otherwise 0.
     *
     * Called on every cache access (the partial-miss check), so the
     * common nothing-in-flight case must not scan the file: if no entry
     * is pending and the latest completion ever recorded is already in
     * the past, no fill can be outstanding at @p now.
     */
    Cycles
    outstandingFill(Addr line_addr, Cycles now) const
    {
        if (pending_ == no_slot && max_fill_done_ <= now)
            return 0;
        return outstandingFillSlow(line_addr, now);
    }

    /**
     * Allocate an entry for a new fill of @p line_addr.  If the file is
     * full at @p now, the allocation is delayed until the earliest
     * in-flight fill completes.  Returns the cycle at which the miss
     * may actually start being serviced (>= now).
     */
    Cycles allocate(Addr line_addr, Cycles now);

    /** Record the completion time of the fill started by allocate(). */
    void complete(Addr line_addr, Cycles fill_done);

    unsigned entries() const { return entries_; }

    /** Number of entries busy at @p now. */
    unsigned busyAt(Cycles now) const;

    /** Peak simultaneous occupancy observed. */
    unsigned peakOccupancy() const { return peak_; }

    /** Times an allocation had to wait for a free entry. */
    std::uint64_t allocationStalls() const { return alloc_stalls_; }

  private:
    static constexpr unsigned no_slot = ~0u;

    void expire(Cycles now);
    Cycles outstandingFillSlow(Addr line_addr, Cycles now) const;

    unsigned entries_;
    /**
     * Per-entry state in two packed arrays.  An entry is busy at @p now
     * while it is the pending slot or its fill_done is > now; a
     * fill_done of 0 means free.  expire() zeroes entries that are not
     * busy, so at most one entry per line is ever non-zero: the cache
     * allocates a line only after outstandingFill() found no busy entry
     * for it at the same cycle, and allocate() expires at that cycle.
     * @{
     */
    std::vector<Addr> line_;
    std::vector<Cycles> fill_done_;
    /** @} */
    /** Slot allocated whose completion is not yet recorded. */
    unsigned pending_ = no_slot;
    unsigned peak_ = 0;
    std::uint64_t alloc_stalls_ = 0;
    /** Monotone upper bound on every entry's fill_done. */
    Cycles max_fill_done_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_CACHE_MSHR_HH
