/**
 * @file
 * Main-memory (DRAM) timing and traffic model.
 *
 * Sits below the L2 in the hierarchy.  Models a fixed access latency
 * plus a simple bandwidth constraint (one line transfer per
 * `cyclesPerLine` cycles), and counts every byte moved across the
 * L2<->memory link — the top section of each bar in Figure 6(b).
 */

#ifndef MEMFWD_MEM_MAIN_MEMORY_HH
#define MEMFWD_MEM_MAIN_MEMORY_HH

#include <cstdint>

#include "common/types.hh"

namespace memfwd
{

/** Configuration for the DRAM model. */
struct MainMemoryConfig
{
    /** Fixed access latency in cycles (row access + transfer start). */
    Cycles latency = 70;

    /**
     * Minimum spacing between line transfers, modelling limited pin
     * bandwidth: bytesPerCycle bytes can stream per cycle.
     */
    unsigned bytesPerCycle = 8;

    bool operator==(const MainMemoryConfig &) const = default;
};

/** Flat DRAM with fixed latency, limited bandwidth, and byte counters. */
class MainMemory
{
  public:
    explicit MainMemory(const MainMemoryConfig &cfg = {}) : cfg_(cfg) {}

    /**
     * Perform a line transfer of @p bytes starting no earlier than
     * @p now.  Returns the cycle at which the data is available.
     */
    Cycles
    access(Cycles now, unsigned bytes)
    {
        // Serialize transfers on the memory channel.
        const Cycles start = now > channel_free_ ? now : channel_free_;
        const Cycles burst =
            (bytes + cfg_.bytesPerCycle - 1) / cfg_.bytesPerCycle;
        channel_free_ = start + burst;
        bytes_transferred_ += bytes;
        ++accesses_;
        return start + cfg_.latency + burst;
    }

    /** Total bytes moved across the memory channel so far. */
    std::uint64_t bytesTransferred() const { return bytes_transferred_; }

    /** Total line transfers so far. */
    std::uint64_t accesses() const { return accesses_; }

    const MainMemoryConfig &config() const { return cfg_; }

    /** Reset traffic counters (channel occupancy is kept). */
    void
    clearStats()
    {
        bytes_transferred_ = 0;
        accesses_ = 0;
    }

  private:
    MainMemoryConfig cfg_;
    Cycles channel_free_ = 0;
    std::uint64_t bytes_transferred_ = 0;
    std::uint64_t accesses_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_MEM_MAIN_MEMORY_HH
