#include "coherence/coherent_cache.hh"

#include "coherence/snoop_bus.hh"
#include "common/logging.hh"

namespace memfwd
{

CoherentCache::CoherentCache(unsigned size_bytes, unsigned assoc,
                             unsigned line_bytes, SnoopBus &bus)
    : size_bytes_(size_bytes), assoc_(assoc), line_bytes_(line_bytes),
      sets_(size_bytes / (assoc * line_bytes)),
      set_index_(line_bytes, sets_), bus_(bus)
{
    memfwd_assert(sets_ > 0 && (sets_ & (sets_ - 1)) == 0,
                  "coherent cache geometry must be a power of two");
    memfwd_assert((line_bytes_ & (line_bytes_ - 1)) == 0 &&
                      line_bytes_ >= wordBytes,
                  "bad line size %u", line_bytes);
    lines_.resize(static_cast<std::size_t>(sets_) * assoc_);
    port_ = bus_.attach(this);
}

CoherentCache::Line *
CoherentCache::findLine(Addr line_addr)
{
    Line *base = &lines_[static_cast<std::size_t>(set_index_(line_addr)) *
                         assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w].state != CoherenceState::invalid &&
            base[w].tag == line_addr) {
            return &base[w];
        }
    }
    return nullptr;
}

const CoherentCache::Line *
CoherentCache::findLine(Addr line_addr) const
{
    return const_cast<CoherentCache *>(this)->findLine(line_addr);
}

CoherentCache::Line &
CoherentCache::victim(unsigned set)
{
    Line *base = &lines_[static_cast<std::size_t>(set) * assoc_];
    Line *v = base;
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w].state == CoherenceState::invalid)
            return base[w];
        if (base[w].lru < v->lru)
            v = &base[w];
    }
    // Silent eviction: the functional data lives in TaggedMemory, and
    // the timing of the writeback is folded into the miss latencies.
    return *v;
}

CoherenceState
CoherentCache::state(Addr addr) const
{
    const Line *l = findLine(lineAlign(addr));
    return l ? l->state : CoherenceState::invalid;
}

Cycles
CoherentCache::load(Addr addr, Cycles now)
{
    const Addr line_addr = lineAlign(addr);
    if (Line *l = findLine(line_addr)) {
        ++stats_.load_hits;
        l->lru = ++lru_clock_;
        return now + hit_latency;
    }
    ++stats_.load_misses;
    const bool supplied = bus_.busRead(port_, line_addr);
    Line &v = victim(set_index_(line_addr));
    v.tag = line_addr;
    v.state = CoherenceState::shared;
    v.lru = ++lru_clock_;
    return now + (supplied ? bus_latency : mem_latency);
}

Cycles
CoherentCache::store(Addr addr, Cycles now)
{
    const Addr line_addr = lineAlign(addr);
    if (Line *l = findLine(line_addr)) {
        l->lru = ++lru_clock_;
        if (l->state == CoherenceState::modified) {
            ++stats_.store_hits;
            return now + hit_latency;
        }
        // Shared -> Modified: upgrade, invalidating peers.
        ++stats_.store_upgrades;
        bus_.busUpgrade(port_, line_addr);
        l->state = CoherenceState::modified;
        return now + bus_latency;
    }
    ++stats_.store_misses;
    const unsigned peers = bus_.busReadExclusive(port_, line_addr);
    Line &v = victim(set_index_(line_addr));
    v.tag = line_addr;
    v.state = CoherenceState::modified;
    v.lru = ++lru_clock_;
    return now + (peers > 0 ? bus_latency : mem_latency);
}

bool
CoherentCache::snoopRead(Addr line_addr)
{
    if (Line *l = findLine(line_addr)) {
        if (l->state == CoherenceState::modified) {
            l->state = CoherenceState::shared;
            return true; // we supply the dirty line
        }
    }
    return false;
}

bool
CoherentCache::snoopInvalidate(Addr line_addr)
{
    if (Line *l = findLine(line_addr)) {
        l->state = CoherenceState::invalid;
        ++stats_.invalidations_taken;
        return true;
    }
    return false;
}

} // namespace memfwd
