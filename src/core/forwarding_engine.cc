#include "core/forwarding_engine.hh"

#include <algorithm>

#include "cache/hierarchy.hh"
#include "common/logging.hh"
#include "core/cycle_check.hh"
#include "core/fault_injector.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{

const char *
cyclePolicyName(CyclePolicy policy)
{
    switch (policy) {
      case CyclePolicy::abort:
        return "abort";
      case CyclePolicy::trap:
        return "trap";
      case CyclePolicy::quarantine:
        return "quarantine";
    }
    return "?";
}

ForwardingIntegrityError::ForwardingIntegrityError(Addr word, Word payload,
                                                   SiteId site)
    : std::runtime_error(strfmt(
          "corrupt forwarding word: addr=%#llx payload=%#llx site=%u",
          static_cast<unsigned long long>(word),
          static_cast<unsigned long long>(payload), site)),
      word_(word), payload_(payload), site_(site)
{
}

// ----- TranslationCache ----------------------------------------------

namespace
{

unsigned
roundUpPow2(unsigned v)
{
    unsigned p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

void
TranslationCache::configure(unsigned sets, unsigned ways)
{
    sets_ = roundUpPow2(sets ? sets : 1);
    ways_ = ways ? ways : 1;
    tick_ = 0;
    entries_.assign(std::size_t(sets_) * ways_, Entry{});
}

TranslationCache::Entry *
TranslationCache::set(Addr word)
{
    const std::size_t idx = (word >> wordShift) & (sets_ - 1);
    return entries_.data() + idx * ways_;
}

const TranslationCache::Entry *
TranslationCache::lookup(Addr word)
{
    if (entries_.empty())
        return nullptr;
    Entry *row = set(word);
    for (unsigned w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].start == word) {
            row[w].lru = ++tick_;
            return &row[w];
        }
    }
    return nullptr;
}

void
TranslationCache::insert(Addr start, Addr final_word, unsigned hops)
{
    if (entries_.empty())
        return;
    Entry *row = set(start);
    Entry *victim = row;
    for (unsigned w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].start == start) {
            victim = &row[w];
            break;
        }
        if (!row[w].valid)
            victim = &row[w];
        else if (victim->valid && row[w].lru < victim->lru)
            victim = &row[w];
    }
    *victim = {start, final_word, hops, ++tick_, true};
}

Addr
TranslationCache::peek(Addr word) const
{
    if (entries_.empty())
        return 0;
    const std::size_t idx = (word >> wordShift) & (sets_ - 1);
    const Entry *row = entries_.data() + idx * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].start == word)
            return row[w].final_word;
    }
    return 0;
}

std::uint64_t
TranslationCache::invalidateStart(Addr word)
{
    if (entries_.empty())
        return 0;
    Entry *row = set(word);
    for (unsigned w = 0; w < ways_; ++w) {
        if (row[w].valid && row[w].start == word) {
            row[w] = Entry{};
            return 1;
        }
    }
    return 0;
}

std::uint64_t
TranslationCache::invalidateFinal(Addr word)
{
    std::uint64_t dropped = 0;
    for (Entry &e : entries_) {
        if (e.valid && e.final_word == word) {
            e = Entry{};
            ++dropped;
        }
    }
    return dropped;
}

std::uint64_t
TranslationCache::flush()
{
    std::uint64_t dropped = 0;
    for (Entry &e : entries_) {
        if (e.valid) {
            e = Entry{};
            ++dropped;
        }
    }
    return dropped;
}

std::uint64_t
TranslationCache::entryCount() const
{
    std::uint64_t n = 0;
    for (const Entry &e : entries_)
        n += e.valid ? 1 : 0;
    return n;
}

// ----- ForwardingEngine ----------------------------------------------

ForwardingEngine::ForwardingEngine(TaggedMemory &mem,
                                   MemoryHierarchy &hierarchy,
                                   const ForwardingConfig &cfg)
    : mem_(mem), hierarchy_(hierarchy), cfg_(cfg)
{
    memfwd_assert(cfg_.hop_limit >= 1, "hop limit must be at least 1");
    if (cfg_.ftc_enabled) {
        ftc_.configure(cfg_.ftc_sets, cfg_.ftc_ways);
        // Cached translations are derived chain state: the memory must
        // report every mutation that could stale them.
        mem_.setFwdStateListener(this);
    }
}

ForwardingEngine::~ForwardingEngine()
{
    if (mem_.fwdStateListener() == this)
        mem_.setFwdStateListener(nullptr);
}

void
ForwardingEngine::fwdStateChanged(Addr word, bool was_fbit)
{
    if (self_write_)
        return; // the collapse rewrite preserves every cached resolution
    if (!was_fbit) {
        // The word just became forwarded.  It was a chain tail (or plain
        // data), so only entries that resolved *to* it are stale.
        stats_.ftc_invalidations += ftc_.invalidateFinal(word);
    } else {
        // An existing forwarding word was redirected or severed; it may
        // sit in the middle of any cached chain, so drop everything.
        stats_.ftc_invalidations += ftc_.flush();
    }
}

Addr
ForwardingEngine::ftcPeek(Addr addr) const
{
    return ftc_.peek(wordAlign(addr));
}

Addr
ForwardingEngine::quarantinePin(Addr word) const
{
    auto it = quarantined_.find(wordAlign(word));
    return it == quarantined_.end() ? 0 : it->second;
}

void
ForwardingEngine::temporalCheck(Addr addr, Addr final_addr, unsigned hops,
                                AccessType type, Cycles t, SiteId site,
                                Addr pointer_slot, std::uint32_t object_id)
{
    if (type == AccessType::prefetch)
        return;
    const MetadataPlane::Meta meta = plane_->get(wordAlign(final_addr));
    if (!MetadataPlane::isQuarantined(meta))
        return;
    // The reference resolved into the quarantined remains of a freed
    // object.  Provenance classifies it: a pointer derived from the
    // dead object itself is a use-after-free; anything else strayed in
    // from outside (out-of-bounds into a freed slot).
    const bool uaf =
        object_id != 0 && MetadataPlane::objectId(meta) == object_id;
    if (uaf)
        ++stats_.temporal_uaf;
    else
        ++stats_.temporal_oob;
    traps_.deliver({site, addr, final_addr, hops, pointer_slot,
                    TrapKind::TemporalViolation});
    if (tracer_ && tracer_->active()) {
        tracer_->emit({obs::EventKind::temporal_violation, type, t, addr,
                       final_addr, uaf ? 1u : 0u, 0});
    }
}

Addr
ForwardingEngine::condemnChain(Addr word, unsigned length, Addr pin,
                               SiteId site)
{
    switch (cfg_.cycle_policy) {
      case CyclePolicy::abort:
        throw ForwardingCycleError(word, length, site, "abort");
      case CyclePolicy::trap:
        if (!traps_.armed())
            throw ForwardingCycleError(word, length, site, "trap");
        // The handler learns the cycle's context through the ordinary
        // trap channel: initial address, the pin it will resolve to,
        // and the chain length walked.
        traps_.deliver({site, word, pin, length, 0});
        [[fallthrough]];
      case CyclePolicy::quarantine:
        ++stats_.cycles_quarantined;
        quarantined_[word] = pin;
        return pin;
    }
    throw ForwardingCycleError(word, length, site, "abort");
}

Addr
ForwardingEngine::condemnCorrupt(Addr word, Addr cur, Word payload,
                                 SiteId site)
{
    ++stats_.corrupt_forwards;
    switch (cfg_.cycle_policy) {
      case CyclePolicy::abort:
        throw ForwardingIntegrityError(cur, payload, site);
      case CyclePolicy::trap:
        if (!traps_.armed())
            throw ForwardingIntegrityError(cur, payload, site);
        traps_.deliver({site, word, cur, 0, 0});
        [[fallthrough]];
      case CyclePolicy::quarantine:
        // Pin at the corrupt word itself: the last address whose
        // contents are still trustworthy as a location.
        quarantined_[word] = cur;
        return cur;
    }
    throw ForwardingIntegrityError(cur, payload, site);
}

// Forced inline: each entry point then carries its own copy of the walk,
// so the common unforwarded reference pays no extra call.
template <bool Timed>
[[gnu::always_inline]] inline WalkResult
ForwardingEngine::walk(Addr addr, AccessType type, Cycles start,
                       SiteId site, Addr pointer_slot,
                       std::uint32_t object_id)
{
    const Addr word = wordAlign(addr);
    const unsigned offset = wordOffset(addr);

    if (!mem_.fbit(word)) {
        // Common case: not forwarded.  The forwarding bit travels with
        // the line, so the test itself costs nothing extra (it is part
        // of the eventual data access).
        stats_.recordHops(0);
        return {addr, 0, start, 0, false, false};
    }

    // A chain already proven unresolvable serves its pin directly: the
    // quarantine entry exists precisely so execution can continue
    // without re-walking a poisoned chain.
    if (auto it = quarantined_.find(word); it != quarantined_.end()) {
        ++stats_.quarantine_hits;
        stats_.recordHops(0);
        return {it->second + offset, 0, start, 0, false, true};
    }

    if (faults_)
        faults_->corruptChain(mem_, word, FaultSite::resolve);

    // Perfect mode is the idealized bound of Figure 10 ("Perf"): the
    // chain is resolved with every architectural check, but with no
    // time or cache effects, as if every pointer had been updated in
    // advance — so the reference is reported as unforwarded.
    const bool perfect = cfg_.mode == ForwardingConfig::Mode::perfect;
    const bool exception = cfg_.mode == ForwardingConfig::Mode::exception;
    Cycles t = start;

    const auto trap = [&](Addr final_addr, unsigned hops) {
        if (!traps_.armed() || type == AccessType::prefetch)
            return;
        traps_.deliver({site, addr, final_addr, hops, pointer_slot});
        if constexpr (Timed) {
            if (tracer_ && tracer_->active()) {
                tracer_->emit({obs::EventKind::trap, type, t, addr,
                               final_addr, hops, 0});
            }
        }
    };

    if constexpr (Timed) {
        // Translation-cache shortcut: a hit hands back the final address
        // for ftc_hit_cost cycles — no hop accesses (hence no pollution)
        // and, in exception mode, no exception, the "hardware remembers
        // resolved addresses" idea the paper floats.  Checked after the
        // fault hook so an injected corruption invalidates the cache
        // (through the mutation listener) before it could be served
        // stale.
        if (cfg_.ftc_enabled && !perfect) {
            if (const TranslationCache::Entry *e = ftc_.lookup(word)) {
                // Invalidation keeps entries whose final word regrew a
                // chain out of the cache; re-check defensively and
                // re-walk rather than serve a non-terminal address.
                if (!mem_.fbit(e->final_word)) {
                    ++stats_.ftc_hits;
                    t += cfg_.ftc_hit_cost;
                    stats_.recordHops(0);
                    const Addr final_addr = e->final_word + offset;
                    const unsigned cached_hops = e->hops;
                    if (tracer_ && tracer_->active()) {
                        tracer_->emit({obs::EventKind::ftc, type, t, addr,
                                       final_addr, cached_hops, 0});
                    }
                    // The user-level trap still fires — stale-pointer
                    // tracking must see the same events with and
                    // without the cache.  It reports the chain length
                    // the fill-time walk measured.
                    trap(final_addr, cached_hops);
                    if (plane_) {
                        temporalCheck(addr, final_addr, cached_hops, type,
                                      t, site, pointer_slot, object_id);
                    }
                    return {final_addr, 0, t, t - start, false, true};
                }
                stats_.ftc_invalidations += ftc_.invalidateStart(word);
            }
            ++stats_.ftc_misses;
        }
        if (exception)
            t += cfg_.exception_cost;
    }

    Addr cur = word;
    unsigned hops = 0;
    unsigned hop_counter = 0;
    unsigned check_attempts = 0;
    bool hop_missed = false;

    // The one result shape every exit of the walk reports.
    const auto done = [&](Addr final_addr) -> WalkResult {
        return {final_addr, perfect ? 0 : hops, t, t - start, hop_missed,
                !perfect};
    };

    while (mem_.fbit(cur)) {
        if constexpr (Timed) {
            // The hop reads the forwarding word through the cache — this
            // is the pollution effect Section 5.4 measures: old locations
            // stay live in the cache.
            if (!perfect) {
                const HierarchyResult r =
                    hierarchy_.access(cur, AccessType::load, t);
                if (r.l1 != MissKind::hit)
                    hop_missed = true;
                t = r.ready + cfg_.hop_cost;
            }
        }

        const Word payload = mem_.rawReadWord(cur);
        if (cfg_.validate_targets && !isWordAligned(payload)) {
            // A legitimate forwarding word always holds a word-aligned
            // target (relocation endpoints are asserted aligned), so a
            // misaligned payload proves the word was corrupted.
            return done(condemnCorrupt(word, cur, payload, site) + offset);
        }
        cur = wordAlign(payload);
        ++hops;
        if (++hop_counter <= cfg_.hop_limit)
            continue;

        // Fast counter overflowed: run the accurate software check.
        if constexpr (Timed) {
            if (!perfect)
                t += cfg_.cycle_check_cost;
        }
        const CycleCheckResult chk = accurateCycleCheck(mem_, word);
        if (chk.is_cycle) {
            ++stats_.cycles_detected;
            return done(condemnChain(word, chk.length, chk.pre_cycle, site)
                        + offset);
        }
        hop_counter = 0; // false alarm: reset and resume
        if (perfect)
            continue; // no hop counter fires in the idealized bound
        ++stats_.false_alarms;
        if (exception) {
            // The software handler re-walks the chain; bound the retries
            // (architectural: it decides the outcome) and charge
            // exponential backoff (timing only) so a pathological but
            // acyclic chain cannot wedge the handler.
            ++stats_.handler_retries;
            ++check_attempts;
            if constexpr (Timed) {
                const Cycles backoff = cfg_.retry_backoff_base
                                       << std::min(check_attempts - 1, 16u);
                t += backoff;
                stats_.backoff_cycles += backoff;
            }
            if (check_attempts > cfg_.max_handler_retries)
                return done(condemnChain(word, chk.length, cur, site)
                            + offset);
        }
    }

    const Addr final_addr = cur + offset;
    if (perfect) {
        stats_.recordHops(0);
    } else {
        ++stats_.walks;
        stats_.hops += hops;
        stats_.recordHops(hops);
        if constexpr (Timed) {
            stats_.hop_l1_misses += hop_missed ? 1 : 0;

            // Lazy chain collapsing: a long-enough walk earns a rewrite
            // of the chain head straight at the final word, so later
            // references pay at most one hop.  The rewrite is one store
            // to the head word (which the walk's first hop just pulled
            // into the cache), and preserves the resolution of every
            // pointer into the chain.
            if (cfg_.collapse_enabled && collapse_suspend_ == 0
                && hops >= cfg_.collapse_threshold && cur != word) {
                self_write_ = true;
                mem_.unforwardedWrite(word, cur, true);
                self_write_ = false;
                t = hierarchy_.access(word, AccessType::store, t).ready;
                ++stats_.chains_collapsed;
            }

            // The freshly-walked translation is the best possible fill.
            if (cfg_.ftc_enabled)
                ftc_.insert(word, cur, hops);
        }
        trap(final_addr, hops);
    }

    if (plane_)
        temporalCheck(addr, final_addr, hops, type, t, site, pointer_slot,
                      object_id);
    return done(final_addr);
}

WalkResult
ForwardingEngine::resolve(Addr addr, AccessType type, Cycles start,
                          SiteId site, Addr pointer_slot,
                          std::uint32_t object_id)
{
    return walk<true>(addr, type, start, site, pointer_slot, object_id);
}

WalkResult
ForwardingEngine::resolveFunctional(Addr addr, AccessType type,
                                    SiteId site, Addr pointer_slot,
                                    std::uint32_t object_id)
{
    return walk<false>(addr, type, 0, site, pointer_slot, object_id);
}

void
ForwardingEngine::fillMetrics(obs::MetricsNode &into) const
{
    into.counter("walks", stats_.walks);
    into.counter("hops", stats_.hops);
    into.counter("hop_l1_misses", stats_.hop_l1_misses);
    into.counter("false_alarms", stats_.false_alarms);
    into.counter("cycles_detected", stats_.cycles_detected);
    into.counter("cycles_quarantined", stats_.cycles_quarantined);
    into.counter("corrupt_forwards", stats_.corrupt_forwards);
    into.counter("quarantine_hits", stats_.quarantine_hits);
    into.counter("handler_retries", stats_.handler_retries);
    into.counter("backoff_cycles", stats_.backoff_cycles);
    into.counter("ftc_hits", stats_.ftc_hits);
    into.counter("ftc_misses", stats_.ftc_misses);
    into.counter("ftc_invalidations", stats_.ftc_invalidations);
    into.counter("chains_collapsed", stats_.chains_collapsed);
    if (stats_.walks)
        into.gauge("hops_per_walk",
                   double(stats_.hops) / double(stats_.walks));
    if (stats_.ftc_hits + stats_.ftc_misses)
        into.gauge("ftc_hit_rate",
                   double(stats_.ftc_hits)
                       / double(stats_.ftc_hits + stats_.ftc_misses));

    auto &hist = into.distribution("hop_hist");
    for (std::size_t h = 0; h < stats_.hop_histogram.size(); ++h)
        hist.record(h, stats_.hop_histogram[h]);
}

void
ForwardingEngine::forwardWord(Addr src, Addr tgt)
{
    memfwd_assert(isWordAligned(src) && isWordAligned(tgt),
                  "relocation endpoints must be word-aligned "
                  "(src=%#llx tgt=%#llx)",
                  static_cast<unsigned long long>(src),
                  static_cast<unsigned long long>(tgt));
    // Copy the payload, then atomically install the forwarding address
    // and set the bit (Figure 1(b)).
    const Word value = mem_.rawReadWord(src);
    mem_.rawWriteWord(tgt, value);
    mem_.unforwardedWrite(src, tgt, true);
}

} // namespace memfwd
