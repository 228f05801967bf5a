/**
 * @file
 * A TLB reach model.
 *
 * Scattered small objects do not just waste cache lines — they spread
 * the working set over many pages, thrashing the TLB.  Linearization
 * compresses the page footprint, so modelling the TLB exposes another
 * benefit of the paper's layout optimizations (and of their page-level
 * applicability, Section 2.2's closing remark).
 *
 * Modelled as a fully-associative, LRU, fixed-entry translation cache
 * with a constant page-walk penalty.  Disabled by default so the
 * baseline reproduction matches the paper's cache-focused numbers;
 * enable via MachineConfig::tlb.enabled.
 */

#ifndef MEMFWD_MEM_TLB_HH
#define MEMFWD_MEM_TLB_HH

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/types.hh"
#include "obs/metrics.hh"

namespace memfwd
{

/** TLB parameters. */
struct TlbConfig
{
    bool enabled = false;
    unsigned entries = 64;
    unsigned page_bytes = 4096;
    Cycles miss_penalty = 30; ///< page-table walk cost

    bool operator==(const TlbConfig &) const = default;
};

/** Fully-associative LRU translation cache. */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &cfg);

    /**
     * Translate the page of @p addr at @p now.  Returns the cycle the
     * translation is available (now on a hit, now + miss_penalty on a
     * walk).
     */
    Cycles access(Addr addr, Cycles now);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    double
    missRate() const
    {
        const std::uint64_t total = hits_ + misses_;
        return total ? double(misses_) / double(total) : 0.0;
    }

    const TlbConfig &config() const { return cfg_; }

    void
    fillMetrics(obs::MetricsNode &into) const
    {
        into.counter("hits", hits_);
        into.counter("misses", misses_);
        into.gauge("miss_rate", missRate());
    }

    void
    clearStats()
    {
        hits_ = 0;
        misses_ = 0;
    }

    /** Drop every cached translation (e.g. a context switch). */
    void flush();

  private:
    TlbConfig cfg_;
    std::list<Addr> lru_; ///< front = most recent
    std::unordered_map<Addr, std::list<Addr>::iterator> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_MEM_TLB_HH
