#include "cache/mshr.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace memfwd
{

MshrFile::MshrFile(unsigned entries)
    : entries_(entries), line_(entries, 0), fill_done_(entries, 0)
{
    memfwd_assert(entries > 0, "MSHR file needs at least one entry");
}

void
MshrFile::expire(Cycles now)
{
    // The pending slot's fill_done is 0 until complete(), so it stays.
    for (Cycles &done : fill_done_) {
        if (done <= now)
            done = 0;
    }
}

Cycles
MshrFile::outstandingFillSlow(Addr line_addr, Cycles now) const
{
    if (pending_ != no_slot && line_[pending_] == line_addr)
        return now;
    // At most one entry per line is non-zero (see line_), so OR-ing
    // the masked completions of every slot yields that entry's or 0.
    Cycles fill = 0;
    for (unsigned i = 0; i < entries_; ++i) {
        const bool hit = (line_[i] == line_addr) & (fill_done_[i] > now);
        fill |= fill_done_[i] & -Cycles(hit);
    }
    return fill;
}

Cycles
MshrFile::allocate(Addr line_addr, Cycles now)
{
    memfwd_assert(pending_ == no_slot,
                  "MSHR allocate() while another allocation is pending");
    expire(now);
    // Every entry still non-zero is busy: take the first zero one, or
    // wait until the earliest fill retires.
    unsigned slot = no_slot;
    Cycles earliest = std::numeric_limits<Cycles>::max();
    unsigned busy = 0;
    for (unsigned i = 0; i < entries_; ++i) {
        if (fill_done_[i] == 0) {
            if (slot == no_slot)
                slot = i;
        } else {
            ++busy;
            earliest = std::min(earliest, fill_done_[i]);
        }
    }

    Cycles start = now;
    if (slot == no_slot) {
        ++alloc_stalls_;
        start = earliest;
        expire(start);
        slot = static_cast<unsigned>(
            std::find(fill_done_.begin(), fill_done_.end(), Cycles(0)) -
            fill_done_.begin());
        busy = entries_ - 1;
    }

    peak_ = std::max(peak_, busy + 1);
    line_[slot] = line_addr;
    pending_ = slot;
    return start;
}

void
MshrFile::complete(Addr line_addr, Cycles fill_done)
{
    if (pending_ == no_slot || line_[pending_] != line_addr) {
        memfwd_panic("MSHR complete() without matching allocate(): "
                     "line %#llx",
                     static_cast<unsigned long long>(line_addr));
    }
    fill_done_[pending_] = fill_done;
    pending_ = no_slot;
    max_fill_done_ = std::max(max_fill_done_, fill_done);
}

unsigned
MshrFile::busyAt(Cycles now) const
{
    unsigned busy = pending_ != no_slot;
    for (const Cycles done : fill_done_)
        busy += done > now;
    return busy;
}

} // namespace memfwd
