#include "cpu/lsq.hh"

#include <algorithm>

namespace memfwd
{

namespace
{

/** Word-range overlap test. */
bool
overlaps(Addr a, unsigned a_words, Addr b, unsigned b_words)
{
    const Addr a_end = a + static_cast<Addr>(a_words) * wordBytes;
    const Addr b_end = b + static_cast<Addr>(b_words) * wordBytes;
    return a < b_end && b < a_end;
}

} // namespace

void
Lsq::prune(std::uint64_t seq)
{
    // Only stores within the instruction window can interact with a
    // load; older records are dead.
    while (!stores_.empty() &&
           stores_.front().seq + params_.window < seq) {
        stores_.pop_front();
    }
}

void
Lsq::recordStore(std::uint64_t seq, Addr initial_word, Addr final_word,
                 unsigned words, Cycles resolved)
{
    prune(seq);
    stores_.push_back({seq, initial_word, final_word, words, resolved});
    latest_resolved_ = std::max(latest_resolved_, resolved);
}

Cycles
Lsq::loadIssueCycle(std::uint64_t seq, Cycles issue) const
{
    if (params_.dep_speculation)
        return issue;
    // Conservative: wait for every older in-window store to resolve.
    Cycles earliest = issue;
    for (const auto &s : stores_) {
        if (s.seq < seq && s.seq + params_.window >= seq)
            earliest = std::max(earliest, s.resolved);
    }
    return earliest;
}

Cycles
Lsq::checkLoad(std::uint64_t seq, Cycles issue, Addr initial_word,
               Addr final_word, unsigned words)
{
    if (!params_.dep_speculation)
        return 0;

    prune(seq);
    // When every store ever recorded resolved by the load's issue, the
    // scan below would find nothing unresolved: skip it.
    if (latest_resolved_ <= issue)
        return 0;
    bool speculated = false;
    bool violated = false;
    for (const auto &s : stores_) {
        if (s.seq >= seq)
            continue;
        if (s.resolved <= issue)
            continue; // store already resolved; no speculation involved
        speculated = true;
        // The speculation "final == initial" fails only when the
        // initial addresses were disjoint but the final words overlap.
        if (!overlaps(initial_word, words, s.initial_word, s.words) &&
            overlaps(final_word, words, s.final_word, s.words)) {
            violated = true;
        }
    }
    if (speculated)
        ++speculations_;
    if (violated) {
        ++violations_;
        return params_.misspec_penalty;
    }
    return 0;
}

} // namespace memfwd
