#include "mem/tagged_memory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memfwd
{

TaggedMemory::Page &
TaggedMemory::pageSlow(Addr addr)
{
    const Addr key = addr / pageBytes;
    Page *p = index_.find(key);
    if (!p) {
        p = &page_arena_.emplace_back();
        index_.insert(key, p);
    }
    pageCacheEntry(key) = {key, p};
    return *p;
}

void
TaggedMemory::rawWriteWord(Addr addr, Word value)
{
    Page &p = page(addr);
    const unsigned idx = (addr % pageBytes) >> wordShift;
    // Rewriting the payload of a forwarding word redirects its chain.
    const bool notify = listener_ && p.fbits[idx] && p.data[idx] != value;
    p.data[idx] = value;
    if (notify)
        listener_->fwdStateChanged(wordAlign(addr), true);
}

void
TaggedMemory::setFBit(Addr addr, bool value)
{
    Page &p = page(addr);
    const unsigned idx = (addr % pageBytes) >> wordShift;
    const bool old = p.fbits[idx];
    p.fbits[idx] = value;
    if (listener_ && old != value)
        listener_->fwdStateChanged(wordAlign(addr), old);
}

void
TaggedMemory::unforwardedWrite(Addr addr, Word value, bool fbit_value)
{
    Page &p = page(addr);
    const unsigned idx = (addr % pageBytes) >> wordShift;
    const bool old = p.fbits[idx];
    // Untagged data staying untagged is the common, chain-neutral case;
    // everything else can redirect, create, or sever a chain.
    const bool notify = listener_ && (old || fbit_value)
                        && (old != fbit_value || p.data[idx] != value);
    // Simulated memory is single-threaded, so updating both fields
    // back-to-back models the atomic word+tag write the ISA requires.
    p.data[idx] = value;
    p.fbits[idx] = fbit_value;
    if (notify)
        listener_->fwdStateChanged(wordAlign(addr), old);
}

void
TaggedMemory::writeBytes(Addr addr, unsigned size, std::uint64_t value)
{
    const unsigned off = wordOffset(addr);
    memfwd_assert(size == 1 || size == 2 || size == 4 || size == 8,
                  "bad access size %u", size);
    memfwd_assert(off + size <= wordBytes,
                  "access crosses word boundary: addr=%#llx size=%u",
                  static_cast<unsigned long long>(addr), size);
    if (size == 8) {
        rawWriteWord(addr, value);
        return;
    }
    const unsigned shift = off * 8;
    const std::uint64_t mask =
        ((std::uint64_t(1) << (size * 8)) - 1) << shift;
    Word w = rawReadWord(addr);
    w = (w & ~mask) | ((value << shift) & mask);
    rawWriteWord(addr, w);
}

bool
TaggedMemory::isMapped(Addr addr) const
{
    return pageIfPresent(addr) != nullptr;
}

std::vector<Addr>
TaggedMemory::mappedPageBases() const
{
    std::vector<Addr> bases;
    bases.reserve(index_.size());
    index_.forEach([&](Addr key, const Page *) {
        bases.push_back(key * pageBytes);
    });
    std::sort(bases.begin(), bases.end());
    return bases;
}

void
TaggedMemory::forEachForwardedWord(
    const std::function<void(Addr, Word)> &fn) const
{
    for (const Addr base : mappedPageBases()) {
        const Page *p = pageIfPresent(base);
        if (p->fbits.none())
            continue;
        for (unsigned i = 0; i < pageWords; ++i) {
            if (p->fbits[i])
                fn(base + Addr(i) * wordBytes, p->data[i]);
        }
    }
}

std::uint64_t
TaggedMemory::fbitCount() const
{
    std::uint64_t count = 0;
    for (const Page &p : page_arena_)
        count += p.fbits.count();
    return count;
}

void
TaggedMemory::initializeRegion(Addr addr, Addr bytes)
{
    memfwd_assert(isWordAligned(addr) && isWordAligned(bytes),
                  "initializeRegion must be word-aligned");
    // Pages that were never materialized are already all-zero with
    // clear forwarding bits, so only touched pages need sweeping.  This
    // keeps huge, mostly-cold regions (relocation pools) cheap.
    const Addr end = addr + bytes;
    Addr a = addr;
    while (a < end) {
        const Addr page_start = a - (a % pageBytes);
        const Addr page_end = page_start + pageBytes;
        const Addr sweep_end = end < page_end ? end : page_end;
        if (index_.find(page_start / pageBytes)) {
            for (Addr w = a; w < sweep_end; w += wordBytes)
                unforwardedWrite(w, 0, false);
        }
        a = sweep_end;
    }
    // Freshly initialized memory belongs to no object: drop any stale
    // metadata so a recycled quarantine slot can never false-positive.
    if (meta_plane_)
        meta_plane_->clearRange(addr, bytes);
}

MetadataPlane &
TaggedMemory::enableMetadataPlane()
{
    if (!meta_plane_)
        meta_plane_ = std::make_unique<MetadataPlane>();
    return *meta_plane_;
}

} // namespace memfwd
