/**
 * @file
 * One processor's private cache under MSI snooping coherence.
 *
 * Deliberately simpler than cache/Cache: in-order, blocking, no MSHRs
 * — the multiprocessor experiments measure coherence traffic, not
 * memory-level parallelism.  States are Modified / Shared / Invalid.
 */

#ifndef MEMFWD_COHERENCE_COHERENT_CACHE_HH
#define MEMFWD_COHERENCE_COHERENT_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/set_index.hh"
#include "common/types.hh"
#include "obs/metrics.hh"

namespace memfwd
{

class SnoopBus;

/** MSI line state. */
enum class CoherenceState : std::uint8_t
{
    invalid,
    shared,
    modified
};

/** Per-cache coherence statistics. */
struct CoherentCacheStats
{
    std::uint64_t load_hits = 0;
    std::uint64_t load_misses = 0;
    std::uint64_t store_hits = 0;          ///< store to Modified line
    std::uint64_t store_misses = 0;        ///< store to Invalid line
    std::uint64_t store_upgrades = 0;      ///< store to Shared line
    std::uint64_t invalidations_taken = 0; ///< lines lost to peers

    std::uint64_t
    coherenceEvents() const
    {
        return store_upgrades + invalidations_taken;
    }
};

/** A private, set-associative, write-back MSI cache. */
class CoherentCache
{
  public:
    CoherentCache(unsigned size_bytes, unsigned assoc,
                  unsigned line_bytes, SnoopBus &bus);

    CoherentCache(const CoherentCache &) = delete;
    CoherentCache &operator=(const CoherentCache &) = delete;

    /**
     * Timed load at local time @p now; returns data-ready time.
     * Misses go over the bus (possibly supplied by a peer) or to
     * memory.
     */
    Cycles load(Addr addr, Cycles now);

    /** Timed store; may require a bus upgrade or BusRdX. */
    Cycles store(Addr addr, Cycles now);

    /** Snoop hooks, called by the bus. @{ */
    bool snoopRead(Addr line_addr);          ///< true if we supplied
    bool snoopInvalidate(Addr line_addr);    ///< true if we had a copy
    /** @} */

    CoherenceState state(Addr addr) const;

    const CoherentCacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CoherentCacheStats(); }

    void
    fillMetrics(obs::MetricsNode &into) const
    {
        into.counter("load_hits", stats_.load_hits);
        into.counter("load_misses", stats_.load_misses);
        into.counter("store_hits", stats_.store_hits);
        into.counter("store_misses", stats_.store_misses);
        into.counter("store_upgrades", stats_.store_upgrades);
        into.counter("invalidations_taken", stats_.invalidations_taken);
        into.counter("coherence_events", stats_.coherenceEvents());
    }

    unsigned lineBytes() const { return line_bytes_; }
    Addr lineAlign(Addr a) const { return a & ~Addr(line_bytes_ - 1); }

    /** Latency parameters (cycles). @{ */
    static constexpr Cycles hit_latency = 1;
    static constexpr Cycles bus_latency = 20;  ///< bus + peer supply
    static constexpr Cycles mem_latency = 70;  ///< miss to memory
    /** @} */

  private:
    struct Line
    {
        Addr tag = 0;
        CoherenceState state = CoherenceState::invalid;
        std::uint64_t lru = 0;
    };

    Line *findLine(Addr line_addr);
    const Line *findLine(Addr line_addr) const;
    Line &victim(unsigned set);

    unsigned size_bytes_;
    unsigned assoc_;
    unsigned line_bytes_;
    unsigned sets_;
    SetIndex set_index_;
    SnoopBus &bus_;
    unsigned port_;
    std::vector<Line> lines_;
    std::uint64_t lru_clock_ = 0;
    CoherentCacheStats stats_;
};

} // namespace memfwd

#endif // MEMFWD_COHERENCE_COHERENT_CACHE_HH
