/**
 * @file
 * Software block prefetching (Section 5.2 of the paper).
 *
 * The paper assumes "a single prefetch instruction can prefetch one or
 * more consecutive cache lines (i.e. block prefetching is supported)".
 * The Prefetcher issues those line fetches into the hierarchy as
 * non-blocking prefetch accesses and keeps the usefulness statistics
 * that back Figure 7's block-size sweep.
 */

#ifndef MEMFWD_CACHE_PREFETCHER_HH
#define MEMFWD_CACHE_PREFETCHER_HH

#include <cstdint>

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "obs/metrics.hh"

namespace memfwd
{

/** Issues block prefetches into a MemoryHierarchy. */
class Prefetcher
{
  public:
    explicit Prefetcher(MemoryHierarchy &hierarchy)
        : hierarchy_(hierarchy)
    {}

    /**
     * Prefetch @p lines consecutive cache lines starting at the line
     * containing @p addr, beginning at cycle @p now.  Returns the cycle
     * at which the last fill completes (useful for tests; the CPU never
     * stalls on it).
     */
    Cycles
    issue(Addr addr, unsigned lines, Cycles now)
    {
        const unsigned line_bytes = hierarchy_.config().l1d.line_bytes;
        Cycles last = now;
        for (unsigned i = 0; i < lines; ++i) {
            const Addr a = addr + static_cast<Addr>(i) * line_bytes;
            const HierarchyResult r =
                hierarchy_.access(a, AccessType::prefetch, now);
            if (r.ready > last)
                last = r.ready;
            ++issued_;
        }
        ++instructions_;
        return last;
    }

    /** Prefetch instructions executed. */
    std::uint64_t instructions() const { return instructions_; }

    /** Individual line prefetches issued. */
    std::uint64_t issued() const { return issued_; }

    void
    fillMetrics(obs::MetricsNode &into) const
    {
        into.counter("instructions", instructions_);
        into.counter("issued", issued_);
    }

    void
    clearStats()
    {
        instructions_ = 0;
        issued_ = 0;
    }

  private:
    MemoryHierarchy &hierarchy_;
    std::uint64_t instructions_ = 0;
    std::uint64_t issued_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_CACHE_PREFETCHER_HH
