#include "cache/cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mem/main_memory.hh"

namespace memfwd
{

// ---------------------------------------------------------------------
// MemoryLevel
// ---------------------------------------------------------------------

MemLevel::Result
MemoryLevel::access(Addr addr, AccessType type, Cycles now)
{
    (void)addr;
    (void)type;
    const Cycles ready = mem_.access(now, line_bytes_);
    return {ready, MissKind::full, 0};
}

void
MemoryLevel::writeback(Addr line_addr, Cycles now)
{
    (void)line_addr;
    mem_.access(now, line_bytes_);
}

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

Cache::Cache(const CacheConfig &cfg, MemLevel &below)
    : cfg_(cfg), below_(below), mshrs_(cfg.mshrs),
      set_index_(cfg.line_bytes, cfg.numSets()), assoc_(cfg.assoc)
{
    memfwd_assert(cfg_.line_bytes >= wordBytes &&
                      (cfg_.line_bytes & (cfg_.line_bytes - 1)) == 0,
                  "line size must be a power of two >= %u", wordBytes);
    memfwd_assert(cfg_.numSets() > 0 &&
                      (cfg_.numSets() & (cfg_.numSets() - 1)) == 0,
                  "cache geometry must give a power-of-two set count");
    const std::size_t ways = std::size_t(cfg_.numSets()) * assoc_;
    tags_.assign(ways, invalid_tag);
    lru_.assign(ways, 0);
    filled_.assign(ways, 0);
    flags_.assign(ways, 0);
}

std::size_t
Cache::findWaySlow(Addr line_addr)
{
    const std::size_t base = std::size_t(set_index_(line_addr)) * assoc_;
    for (std::size_t w = base; w < base + assoc_; ++w) {
        if (tags_[w] == line_addr) {
            mru_ = w;
            return w;
        }
    }
    return no_way;
}

std::size_t
Cache::chooseVictim(Addr line_addr)
{
    const std::size_t base = std::size_t(set_index_(line_addr)) * assoc_;
    const std::size_t end = base + assoc_;
    // Invalid ways first, regardless of policy.
    for (std::size_t w = base; w < end; ++w) {
        if (tags_[w] == invalid_tag)
            return w;
    }
    switch (cfg_.replacement) {
      case ReplacementPolicy::random: {
        // Deterministic xorshift over the victim stream.
        victim_seed_ ^= victim_seed_ << 13;
        victim_seed_ ^= victim_seed_ >> 7;
        victim_seed_ ^= victim_seed_ << 17;
        return base + victim_seed_ % assoc_;
      }
      case ReplacementPolicy::fifo: {
        std::size_t victim = base;
        for (std::size_t w = base + 1; w < end; ++w) {
            if (filled_[w] < filled_[victim])
                victim = w;
        }
        return victim;
      }
      case ReplacementPolicy::lru:
      default: {
        std::size_t victim = base;
        for (std::size_t w = base + 1; w < end; ++w) {
            if (lru_[w] < lru_[victim])
                victim = w;
        }
        return victim;
      }
    }
}

void
Cache::install(std::size_t way, Addr line_addr, std::uint8_t flags)
{
    tags_[way] = line_addr;
    flags_[way] = flags;
    lru_[way] = filled_[way] = ++lru_clock_;
    mru_ = way;
}

bool
Cache::contains(Addr addr) const
{
    return const_cast<Cache *>(this)->findWay(lineAlign(addr)) != no_way;
}

void
Cache::flush()
{
    // Empty ways are chosen before any stamp is read, and install()
    // rewrites both stamps, so only tags and flags need clearing.
    std::fill(tags_.begin(), tags_.end(), invalid_tag);
    std::fill(flags_.begin(), flags_.end(), 0);
}

MemLevel::Result
Cache::access(Addr addr, AccessType type, Cycles now)
{
    const Addr line_addr = lineAlign(addr);

    if (const std::size_t way = findWay(line_addr); way != no_way) {
        lru_[way] = ++lru_clock_;
        if (type == AccessType::store)
            flags_[way] |= dirty_bit;
        if ((flags_[way] & prefetched_bit) && type != AccessType::prefetch) {
            flags_[way] &= ~prefetched_bit;
            ++stats_.useful_prefetches;
        }

        // The line is installed eagerly at miss time, so a "hit" may be
        // to a line whose fill is still in flight: that is the paper's
        // *partial miss* — it combines with the outstanding miss and
        // waits only the remaining latency.
        if (Cycles fill = mshrs_.outstandingFill(line_addr, now)) {
            switch (type) {
              case AccessType::load:
                ++stats_.load_partial_misses;
                break;
              case AccessType::store:
                ++stats_.store_partial_misses;
                break;
              case AccessType::prefetch:
                ++stats_.prefetch_hits;
                break;
            }
            const Cycles ready = std::max(fill, now + cfg_.hit_latency);
            return {ready, MissKind::partial, 0};
        }

        switch (type) {
          case AccessType::load:
            ++stats_.load_hits;
            break;
          case AccessType::store:
            ++stats_.store_hits;
            break;
          case AccessType::prefetch:
            ++stats_.prefetch_hits;
            break;
        }
        return {now + cfg_.hit_latency, MissKind::hit, 0};
    }

    // Miss.  First see whether a fill for this line is already in
    // flight — if so, combine with it (a "partial miss").  The line was
    // installed when that fill started and has since been evicted, so
    // there is no resident line for a store to dirty.
    if (Cycles fill = mshrs_.outstandingFill(line_addr, now)) {
        switch (type) {
          case AccessType::load:
            ++stats_.load_partial_misses;
            break;
          case AccessType::store:
            ++stats_.store_partial_misses;
            break;
          case AccessType::prefetch:
            ++stats_.prefetch_hits; // combined; no new traffic
            break;
        }
        return {std::max(fill, now + cfg_.hit_latency), MissKind::partial,
                1};
    }

    // Full miss: allocate an MSHR (possibly waiting for a free one) and
    // fetch the line from below.
    const Cycles start = mshrs_.allocate(line_addr, now);
    const Result below = below_.access(line_addr, type,
                                       start + cfg_.hit_latency);
    mshrs_.complete(line_addr, below.ready);

    switch (type) {
      case AccessType::load:
        ++stats_.load_full_misses;
        break;
      case AccessType::store:
        ++stats_.store_full_misses;
        break;
      case AccessType::prefetch:
        ++stats_.prefetch_misses;
        break;
    }
    stats_.bytes_in += cfg_.line_bytes;

    // Install the line now (simulation state is eager; timing is carried
    // by the returned ready cycle and the MSHR entry).
    const std::size_t victim = chooseVictim(line_addr);
    if (flags_[victim] & dirty_bit) {
        ++stats_.writebacks;
        stats_.bytes_out += cfg_.line_bytes;
        below_.writeback(tags_[victim], below.ready);
    }
    install(victim, line_addr,
            type == AccessType::store      ? dirty_bit
            : type == AccessType::prefetch ? prefetched_bit
                                           : 0);

    return {below.ready, MissKind::full, below.depth + 1};
}

void
Cache::writeback(Addr line_addr, Cycles now)
{
    memfwd_assert(line_addr != invalid_tag, "writeback of the empty tag");
    // A dirty line arrives from the level above.  If we hold the line,
    // just mark it dirty; otherwise allocate it without fetching from
    // below (the incoming data is the whole line).
    if (const std::size_t way = findWay(line_addr); way != no_way) {
        flags_[way] |= dirty_bit;
        lru_[way] = ++lru_clock_;
        return;
    }
    const std::size_t victim = chooseVictim(line_addr);
    if (flags_[victim] & dirty_bit) {
        ++stats_.writebacks;
        stats_.bytes_out += cfg_.line_bytes;
        below_.writeback(tags_[victim], now);
    }
    install(victim, line_addr, dirty_bit);
}

void
Cache::fillMetrics(obs::MetricsNode &into) const
{
    into.counter("load_hits", stats_.load_hits);
    into.counter("load_partial_misses", stats_.load_partial_misses);
    into.counter("load_full_misses", stats_.load_full_misses);
    into.counter("store_hits", stats_.store_hits);
    into.counter("store_partial_misses", stats_.store_partial_misses);
    into.counter("store_full_misses", stats_.store_full_misses);
    into.counter("prefetch_hits", stats_.prefetch_hits);
    into.counter("prefetch_misses", stats_.prefetch_misses);
    into.counter("writebacks", stats_.writebacks);
    into.counter("bytes_in", stats_.bytes_in);
    into.counter("bytes_out", stats_.bytes_out);
    into.counter("useful_prefetches", stats_.useful_prefetches);
    const std::uint64_t demand = stats_.demandAccesses();
    if (demand) {
        into.gauge("miss_rate",
                   double(stats_.loadMisses() + stats_.storeMisses()) /
                       double(demand));
    }
}

} // namespace memfwd
