/**
 * @file
 * Memory allocation on the simulated heap.
 *
 * Two placement policies:
 *
 *  - *sequential* — a bump allocator, giving the tight, ordered layout
 *    a fresh heap would give;
 *  - *scattered*  — blocks are placed at pseudo-random positions across
 *    the arena.  This is our documented substitution for the heap aging
 *    / allocation interleaving that scatters the paper's real
 *    applications' nodes across the address space (DESIGN.md Section 2):
 *    the paper's premise is data "scattered sparsely throughout the
 *    address space", which fresh bump allocation would not reproduce.
 *
 * free() is the forwarding-chain-aware wrapper of Section 3.3: when a
 * block whose first word carries a forwarding address is freed, every
 * relocated copy reachable through the chain is freed as well (if it is
 * a known allocation — relocation-pool space is reclaimed by resetting
 * the pool).
 *
 * All words handed out are word-aligned (Section 3.3, "Memory
 * Alignment") and their forwarding bits are cleared before reuse
 * (Section 3.3, "Initialization of Forwarding Bits").
 */

#ifndef MEMFWD_RUNTIME_SIM_ALLOCATOR_HH
#define MEMFWD_RUNTIME_SIM_ALLOCATOR_HH

#include <array>
#include <cstdint>
#include <deque>
#include <stdexcept>

#include "common/random.hh"
#include "common/types.hh"
#include "mem/flat_page_index.hh"
#include "runtime/block_index.hh"

namespace memfwd
{

class Machine;

/**
 * Thrown when an allocation cannot be satisfied — the simulated heap is
 * exhausted, or a fault injector armed at the alloc site fired.
 * Recoverable: the allocator's bookkeeping and the heap are unchanged,
 * so the caller may free memory and retry.
 */
class AllocFailure : public std::runtime_error
{
  public:
    AllocFailure(Addr bytes, const std::string &why)
        : std::runtime_error("allocation of " + std::to_string(bytes) +
                             " bytes failed: " + why),
          bytes_(bytes)
    {
    }

    /** Size of the request that failed, in bytes. */
    Addr bytes() const { return bytes_; }

  private:
    Addr bytes_;
};

/** Placement policy for new blocks. */
enum class Placement
{
    sequential,
    scattered,
    /**
     * Lowest hole that fits, scanning live blocks from the arena base.
     * This is the compacting placement: relocating a high block into a
     * first-fit hole shrinks the live extent of the heap.  The host
     * cost is one in-order pass over the block index's leaves up to
     * the hole; the simulated cost is the flat alloc charge.
     */
    first_fit
};

/**
 * Word-aligned allocator over a Machine's simulated heap.
 *
 * Two host structures track the live blocks.  An occupancy map (one
 * bit per heap word, kept per 4 KiB page) answers every placement
 * probe, scattered or sequential, with one page lookup and a test of a
 * few bitmap words.  A page that has only ever held one block at a time
 * keeps that block's words inline in its index entry instead of in a
 * 64 B bitmap: on a sparse heap, nearly every page.  Blocks of 64 KiB
 * or more (relocation pools) skip the map, which would otherwise hold
 * every page of a pool the program never touches; a probe also
 * searches their own small index.
 * A BlockIndex of all blocks holds the boundaries: the sequential
 * collision skip, free() of each chain target and isAllocated() are
 * each one two-level search of it, O(log blocks), and first-fit is a
 * contiguous scan of it.  None of this host bookkeeping is simulated:
 * alloc() and free() charge a flat compute cost, plus the timed chain
 * walk in free().
 */
class SimAllocator
{
  public:
    /**
     * Manage [base, base+span) of @p machine's address space.  @p seed
     * drives scattered placement deterministically.
     */
    SimAllocator(Machine &machine, Addr base, Addr span,
                 std::uint64_t seed = 1);

    /** Convenience: manage the machine's configured heap region. */
    explicit SimAllocator(Machine &machine, std::uint64_t seed = 1);

    SimAllocator(const SimAllocator &) = delete;
    SimAllocator &operator=(const SimAllocator &) = delete;

    /**
     * Allocate @p bytes (rounded up to whole words) with the given
     * placement.  Alignment is at least a word; pass a larger
     * power-of-two @p align to line-align blocks.
     */
    Addr alloc(Addr bytes, Placement placement = Placement::sequential,
               Addr align = wordBytes);

    /**
     * Free the block at @p addr, first freeing every relocated copy
     * reachable through the forwarding chain of its first word.
     * Unknown chain targets (e.g. pool space) are skipped.
     */
    void free(Addr addr);

    /** True if @p addr is the start of a live allocation. */
    bool isAllocated(Addr addr) const;

    /** Size in bytes of the live allocation at @p addr (0 if none). */
    Addr allocationSize(Addr addr) const;

    /** Bytes currently allocated. */
    Addr bytesLive() const { return bytes_live_; }

    /** High-water mark of bytesLive(). */
    Addr bytesPeak() const { return bytes_peak_; }

    /** Total bytes ever allocated. */
    Addr bytesTotal() const { return bytes_total_; }

    std::uint64_t allocCalls() const { return alloc_calls_; }
    std::uint64_t freeCalls() const { return free_calls_; }

    Addr base() const { return base_; }
    Addr span() const { return span_; }

    /**
     * End of the highest live block (base() when empty).  The live
     * extent `highestLiveEnd() - base()` versus bytesLive() is the
     * external-fragmentation measure the kv_server bench reports.
     */
    Addr
    highestLiveEnd() const
    {
        return blocks_.empty() ? base_ : blocks_.lastEnd();
    }

  private:
    /** Heap bytes covered by one occupancy page. */
    static constexpr Addr occupancy_page_bytes = 4096;

    /** Blocks this large go to large_blocks_, not the occupancy map. */
    static constexpr Addr large_block_bytes = 16 * occupancy_page_bytes;

    /** Bit w of a page is set while a live block covers its word w. */
    using OccupancyPage =
        std::array<std::uint64_t, occupancy_page_bytes / wordBytes / 64>;

    Addr place(Addr bytes, Placement placement, Addr align);
    bool rangeFree(Addr start, Addr bytes) const;

    /**
     * Record the block [start, end) as live (@p live) or free in the
     * occupancy map or, if large, in large_blocks_.
     */
    void markOccupied(Addr start, Addr end, bool live);

    Machine &machine_;
    Addr base_;
    Addr span_;
    Rng rng_;

    /**
     * [start, end) of every live block, relocation pools included.
     * Every free, size query and collision skip is a search here.
     */
    BlockIndex blocks_;

    /**
     * The occupancy map: the words of the live blocks under
     * large_block_bytes, by heap page number.  A page's entry holds its
     * one live run inline, or the slot of its OccupancyPage in
     * occupancy_ once two blocks have shared it.  A page without an
     * entry holds no such block.  Entries are never dropped, so the
     * cost is bounded by the pages those blocks have touched (an index
     * slot each, plus 64 B for a shared page), whatever the span.
     */
    FlatPageIndex occupancy_index_;
    std::deque<OccupancyPage> occupancy_;

    /** The live blocks of large_block_bytes or more. */
    BlockIndex large_blocks_;

    Addr bump_ = 0;
    Addr bytes_live_ = 0;
    Addr bytes_peak_ = 0;
    Addr bytes_total_ = 0;
    std::uint64_t alloc_calls_ = 0;
    std::uint64_t free_calls_ = 0;
};

/**
 * A contiguous arena for relocation targets — the "pool of contiguous
 * memory" ListLinearize() draws from (Figure 4(b)).  Its footprint is
 * the "Space Overhead" column of Table 1.
 */
class RelocationPool
{
  public:
    /** Carve @p bytes out of @p alloc as one contiguous arena. */
    RelocationPool(SimAllocator &alloc, Addr bytes);

    /** Bump-allocate @p bytes (word-aligned), optionally @p align-ed. */
    Addr take(Addr bytes, Addr align = wordBytes);

    /** Bytes handed out so far (the space overhead actually used). */
    Addr used() const { return cursor_ - base_; }

    /** Total arena size. */
    Addr capacity() const { return bytes_; }

    Addr base() const { return base_; }

    /** Remaining capacity. */
    Addr remaining() const { return base_ + bytes_ - cursor_; }

  private:
    Addr base_;
    Addr bytes_;
    Addr cursor_;
};

} // namespace memfwd

#endif // MEMFWD_RUNTIME_SIM_ALLOCATOR_HH
