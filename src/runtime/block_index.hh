/**
 * @file
 * Ordered index of the simulated heap's live blocks.
 *
 * SimAllocator asks four questions of its live blocks: does a range
 * overlap one (every placement probe), where does the block at or
 * below an address end (the sequential collision skip), what are the
 * blocks in address order (first-fit), and what is the block starting
 * exactly here (free, isAllocated).  A node-based ordered map answers
 * each with a pointer chase per tree level.  This index keeps the
 * blocks in two flat levels instead:
 *
 *  - sorted leaves of at most leaf_capacity (start, end) pairs, starts
 *    and ends in separate arrays so a search touches only starts;
 *  - one contiguous array holding each leaf's minimum start.
 *
 * A lookup is a branchless bound over the minimums, then one over a
 * leaf.  A leaf splits in half when an insert overflows it and is
 * dropped when its last block is erased, so no leaf is ever empty and
 * the leaves partition the blocks in address order.
 *
 * Blocks are disjoint, so their ends are ordered like their starts.
 */

#ifndef MEMFWD_RUNTIME_BLOCK_INDEX_HH
#define MEMFWD_RUNTIME_BLOCK_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace memfwd
{

/** Sorted set of disjoint [start, end) blocks, keyed by start. */
class BlockIndex
{
  public:
    /** Maximum blocks per leaf. */
    static constexpr std::uint32_t leaf_capacity = 64;

    /**
     * A block's position: its leaf and its slot in that leaf.  end()
     * is one leaf past the last.  A mutation invalidates every Pos.
     */
    struct Pos
    {
        std::uint32_t leaf = 0;
        std::uint32_t slot = 0;

        friend bool operator==(Pos, Pos) = default;
    };

    BlockIndex() = default;
    BlockIndex(const BlockIndex &) = delete;
    BlockIndex &operator=(const BlockIndex &) = delete;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Leaves in use (for tests of split and removal). */
    std::size_t leafCount() const { return leaves_.size(); }

    Pos begin() const { return {0, 0}; }
    Pos end() const { return {std::uint32_t(leaves_.size()), 0}; }

    Addr start(Pos p) const { return leaves_[p.leaf]->start[p.slot]; }
    Addr end(Pos p) const { return leaves_[p.leaf]->end[p.slot]; }

    /** End of the highest block; the index must not be empty. */
    Addr
    lastEnd() const
    {
        const Leaf &l = *leaves_.back();
        return l.end[l.n - 1];
    }

    Pos
    next(Pos p) const
    {
        if (++p.slot == leaves_[p.leaf]->n)
            p = {p.leaf + 1, 0};
        return p;
    }

    /** The block before @p p, which must not be begin(). */
    Pos
    prev(Pos p) const
    {
        if (p.slot == 0)
            return {p.leaf - 1, leaves_[p.leaf - 1]->n - 1};
        return {p.leaf, p.slot - 1};
    }

    /** The block with the greatest start <= @p key, or end(). */
    Pos
    floor(Addr key) const
    {
        const std::uint32_t li = upperBound(mins_.data(), mins_.size(), key);
        if (li == 0)
            return end();
        const Leaf &l = *leaves_[li - 1];
        // The leaf's minimum is <= key, so the slot is at least 0.
        return {li - 1, upperBound(l.start, l.n, key) - 1};
    }

    /** The block starting exactly at @p key, or end(). */
    Pos
    find(Addr key) const
    {
        const Pos p = floor(key);
        return p != end() && start(p) == key ? p : end();
    }

    /**
     * Add [start, end).  No block may start at @p start; the caller
     * keeps blocks disjoint.
     */
    void
    insert(Addr start, Addr end)
    {
        memfwd_assert(start < end, "block index: empty block");
        if (leaves_.empty()) {
            leaves_.push_back(std::make_unique<Leaf>());
            mins_.push_back(start);
        }
        // The leaf holding start's floor, or the first leaf when start
        // precedes every block.
        std::uint32_t li = upperBound(mins_.data(), mins_.size(), start);
        li = li == 0 ? 0 : li - 1;
        if (leaves_[li]->n == leaf_capacity) {
            split(li);
            if (start >= mins_[li + 1])
                ++li;
        }
        Leaf &l = *leaves_[li];
        const std::uint32_t s = lowerBound(l.start, l.n, start);
        memfwd_assert(s == l.n || l.start[s] != start,
                      "block index: duplicate start %#llx",
                      static_cast<unsigned long long>(start));
        for (std::uint32_t i = l.n; i > s; --i) {
            l.start[i] = l.start[i - 1];
            l.end[i] = l.end[i - 1];
        }
        l.start[s] = start;
        l.end[s] = end;
        ++l.n;
        mins_[li] = l.start[0];
        ++size_;
    }

    /** Remove the block at @p p. */
    void
    erase(Pos p)
    {
        Leaf &l = *leaves_[p.leaf];
        for (std::uint32_t i = p.slot + 1; i < l.n; ++i) {
            l.start[i - 1] = l.start[i];
            l.end[i - 1] = l.end[i];
        }
        --size_;
        if (--l.n == 0) {
            leaves_.erase(leaves_.begin() + p.leaf);
            mins_.erase(mins_.begin() + p.leaf);
        } else {
            mins_[p.leaf] = l.start[0];
        }
    }

    /**
     * Call @p fn(start, end) on each block in address order until it
     * returns false.
     */
    template <class Fn>
    void
    scan(Fn &&fn) const
    {
        for (const auto &lp : leaves_) {
            const Leaf &l = *lp;
            for (std::uint32_t i = 0; i < l.n; ++i) {
                if (!fn(l.start[i], l.end[i]))
                    return;
            }
        }
    }

  private:
    struct Leaf
    {
        std::uint32_t n = 0;
        Addr start[leaf_capacity] = {};
        Addr end[leaf_capacity] = {};
    };

    /**
     * First index in sorted a[0, n) whose value is >= key (Strict) or
     * > key.  The step is a mask, not a branch: probes land at random
     * in the heap, so a branch would mispredict half the time.
     */
    template <bool Strict>
    static std::uint32_t
    bound(const Addr *a, std::size_t n, Addr key)
    {
        if (n == 0)
            return 0;
        std::size_t lo = 0;
        while (n > 1) {
            const std::size_t half = n / 2;
            const Addr probe = a[lo + half - 1];
            lo += half & -std::size_t(Strict ? probe < key : probe <= key);
            n -= half;
        }
        return std::uint32_t(lo) + (Strict ? a[lo] < key : a[lo] <= key);
    }

    static std::uint32_t
    lowerBound(const Addr *a, std::size_t n, Addr key)
    {
        return bound<true>(a, n, key);
    }

    static std::uint32_t
    upperBound(const Addr *a, std::size_t n, Addr key)
    {
        return bound<false>(a, n, key);
    }

    /** Move the upper half of full leaf @p li into a new leaf after it. */
    void
    split(std::uint32_t li)
    {
        auto fresh = std::make_unique<Leaf>();
        Leaf &l = *leaves_[li];
        const std::uint32_t keep = l.n / 2;
        for (std::uint32_t i = keep; i < l.n; ++i) {
            fresh->start[i - keep] = l.start[i];
            fresh->end[i - keep] = l.end[i];
        }
        fresh->n = l.n - keep;
        l.n = keep;
        mins_.insert(mins_.begin() + li + 1, fresh->start[0]);
        leaves_.insert(leaves_.begin() + li + 1, std::move(fresh));
    }

    std::vector<std::unique_ptr<Leaf>> leaves_;
    /** mins_[i] is leaves_[i]'s first start. */
    std::vector<Addr> mins_;
    std::size_t size_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_RUNTIME_BLOCK_INDEX_HH
