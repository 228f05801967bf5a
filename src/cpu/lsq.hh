/**
 * @file
 * Load/store queue model for data dependence speculation (Section 3.2).
 *
 * With memory forwarding, a store's *final* address is not known until
 * the store actually completes its forwarding walk, so conservatively a
 * load could never bypass an older store.  The paper's fix is data
 * dependence speculation: speculate that final == initial and recover
 * when wrong.  A speculation is wrong only when the load and store had
 * different initial addresses but the same final word — which the paper
 * observed "almost never" happens.
 *
 * The Lsq records recent stores' initial/final word ranges and
 * resolution times.  When a load finishes, it is checked against every
 * older store that was still unresolved when the load issued; a
 * violation costs a pipeline-flush penalty and is counted.  A load that
 * issued after the latest resolution of any recorded store skips the
 * scan: no store can have been unresolved for it.  When
 * speculation is disabled, the Lsq instead returns the cycle at which
 * all older stores resolve, and loads stall until then.
 */

#ifndef MEMFWD_CPU_LSQ_HH
#define MEMFWD_CPU_LSQ_HH

#include <cstdint>
#include <deque>

#include "common/types.hh"
#include "cpu/ooo_params.hh"

namespace memfwd
{

/** Tracks in-flight stores for dependence speculation. */
class Lsq
{
  public:
    explicit Lsq(const OooParams &params) : params_(params) {}

    /**
     * Record a completed store.  @p seq is its dynamic instruction
     * number, the word ranges are [initial, initial+words) before
     * forwarding and [final, final+words) after.  @p resolved is the
     * cycle its final address became known (its completion).
     */
    void recordStore(std::uint64_t seq, Addr initial_word, Addr final_word,
                     unsigned words, Cycles resolved);

    /**
     * Earliest cycle a load dispatched as instruction @p seq at cycle
     * @p issue may actually issue.  With speculation on, that is just
     * @p issue; with speculation off, the load must additionally wait
     * for every older in-window store to resolve its final address.
     */
    Cycles loadIssueCycle(std::uint64_t seq, Cycles issue) const;

    /**
     * Check a finishing load against older unresolved stores.  Returns
     * the penalty (0 or misspec_penalty) to add to the load's
     * completion.  Counts speculation events and violations.
     */
    Cycles checkLoad(std::uint64_t seq, Cycles issue, Addr initial_word,
                     Addr final_word, unsigned words);

    /** Loads that issued past at least one unresolved older store. */
    std::uint64_t speculations() const { return speculations_; }

    /** Speculations that violated a true dependence via forwarding. */
    std::uint64_t violations() const { return violations_; }

  private:
    struct StoreRec
    {
        std::uint64_t seq;
        Addr initial_word;
        Addr final_word;
        unsigned words;
        Cycles resolved;
    };

    void prune(std::uint64_t seq);

    OooParams params_;
    std::deque<StoreRec> stores_;
    /** Greatest `resolved` of any store recorded, pruned ones included. */
    Cycles latest_resolved_ = 0;
    std::uint64_t speculations_ = 0;
    std::uint64_t violations_ = 0;
};

} // namespace memfwd

#endif // MEMFWD_CPU_LSQ_HH
