#include "cpu/rob.hh"

#include "common/logging.hh"

namespace memfwd
{

Rob::Rob(unsigned width, unsigned window)
    : width_(width), window_(window), retire_ring_(window, 0)
{
    memfwd_assert(width > 0 && window >= width,
                  "Rob(width=%u, window=%u) is not a sane geometry",
                  width, window);
}

} // namespace memfwd
