/**
 * @file
 * Set index of a line address in a power-of-two set-associative array.
 *
 * Both the timed Cache and the snooping CoherentCache look up every
 * reference by `(line_addr / line_bytes) % sets`.  With both quantities
 * powers of two that is a shift and a mask, fixed at construction, so
 * the lookup pays no integer division.
 */

#ifndef MEMFWD_CACHE_SET_INDEX_HH
#define MEMFWD_CACHE_SET_INDEX_HH

#include <bit>

#include "common/logging.hh"
#include "common/types.hh"

namespace memfwd
{

/** `(line_addr / line_bytes) % sets` by shift and mask. */
class SetIndex
{
  public:
    SetIndex(unsigned line_bytes, unsigned sets)
        : shift_(static_cast<unsigned>(std::countr_zero(line_bytes))),
          mask_(Addr(sets) - 1)
    {
        memfwd_assert(std::has_single_bit(line_bytes) &&
                          std::has_single_bit(sets),
                      "set index needs a power of two line size and set "
                      "count (%u, %u)", line_bytes, sets);
    }

    unsigned
    operator()(Addr line_addr) const
    {
        return static_cast<unsigned>((line_addr >> shift_) & mask_);
    }

  private:
    unsigned shift_;
    Addr mask_;
};

} // namespace memfwd

#endif // MEMFWD_CACHE_SET_INDEX_HH
