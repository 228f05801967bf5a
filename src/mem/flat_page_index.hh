/**
 * @file
 * Flat open-addressed page index.
 *
 * Maps sparse page numbers to dense arena slots for TaggedMemory, for
 * the optional per-word MetadataPlane that mirrors its paging, and for
 * SimAllocator's occupancy pages.  The
 * previous implementation kept pages behind
 * `std::unordered_map<Addr, std::unique_ptr<Page>>`, which costs a
 * hash-node pointer chase per simulated reference; this table keeps the
 * whole index in one contiguous power-of-two array probed linearly, so
 * the common lookup touches a single host cache line.
 *
 * Pages are never unmapped, so the table never deletes — that keeps
 * probing tombstone-free.  A stored value may be rewritten in place.
 * Growth rehashes into a table twice the size at 70% load.
 */

#ifndef MEMFWD_MEM_FLAT_PAGE_INDEX_HH
#define MEMFWD_MEM_FLAT_PAGE_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace memfwd
{

/** Open-addressed Addr -> dense-slot map (insert, find and rewrite). */
class FlatPageIndex
{
  public:
    using Value = std::uint32_t;

    /** Returned by find() when the key is absent. */
    static constexpr Value no_value = ~Value(0);

    /** Reserved key; page numbers (addr >> 12) can never reach it. */
    static constexpr Addr empty_key = ~Addr(0);

    FlatPageIndex() { slots_.resize(initial_capacity); }

    FlatPageIndex(const FlatPageIndex &) = delete;
    FlatPageIndex &operator=(const FlatPageIndex &) = delete;

    /** Slot stored for @p key, or no_value if absent. */
    Value
    find(Addr key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash(key) & mask;
        while (true) {
            const Slot &s = slots_[i];
            if (s.key == key)
                return s.val;
            if (s.key == empty_key)
                return no_value;
            i = (i + 1) & mask;
        }
    }

    /**
     * The value stored for @p key, to rewrite in place, or nullptr if
     * absent.  The pointer is valid until the next insert().
     */
    Value *
    findMutable(Addr key)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash(key) & mask;
        while (true) {
            Slot &s = slots_[i];
            if (s.key == key)
                return &s.val;
            if (s.key == empty_key)
                return nullptr;
            i = (i + 1) & mask;
        }
    }

    /** Insert @p key -> @p val; the key must not already be present. */
    void
    insert(Addr key, Value val)
    {
        memfwd_assert(key != empty_key && val != no_value,
                      "flat page index: reserved key or value");
        if ((size_ + 1) * 10 > slots_.size() * 7)
            grow();
        insertNoGrow(key, val);
        ++size_;
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    /** Invoke @p fn(key, value) for every entry, in table order. */
    template <class Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_) {
            if (s.key != empty_key)
                fn(s.key, s.val);
        }
    }

  private:
    struct Slot
    {
        Addr key = empty_key;
        Value val = no_value;
    };

    static constexpr std::size_t initial_capacity = 64;

    /** splitmix64 finalizer: cheap and well-mixed for near-dense keys. */
    static std::size_t
    hash(Addr key)
    {
        std::uint64_t x = key;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<std::size_t>(x);
    }

    void
    insertNoGrow(Addr key, Value val)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash(key) & mask;
        while (slots_[i].key != empty_key) {
            memfwd_assert(slots_[i].key != key,
                          "flat page index: duplicate key %#llx",
                          static_cast<unsigned long long>(key));
            i = (i + 1) & mask;
        }
        slots_[i] = Slot{key, val};
    }

    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.resize(old.size() * 2);
        for (const Slot &s : old) {
            if (s.key != empty_key)
                insertNoGrow(s.key, s.val);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_MEM_FLAT_PAGE_INDEX_HH
