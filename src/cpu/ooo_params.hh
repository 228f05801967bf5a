/**
 * @file
 * Parameters of the out-of-order CPU timing model.
 *
 * Section 4 of the paper models a MIPS R10000-class 4-way out-of-order
 * superscalar; we adopt the same class of machine (DESIGN.md Section 5).
 */

#ifndef MEMFWD_CPU_OOO_PARAMS_HH
#define MEMFWD_CPU_OOO_PARAMS_HH

#include "common/types.hh"

namespace memfwd
{

/** Tunables of the OooCpu model. */
struct OooParams
{
    /** Fetch/dispatch/graduate width (instructions per cycle). */
    unsigned width = 4;

    /** Instruction window (ROB) size. */
    unsigned window = 64;

    /** Memory units: data references that may issue per cycle. */
    unsigned mem_ports = 2;

    /**
     * Whether loads may speculatively issue before older stores whose
     * *final* addresses (post-forwarding) are unresolved — the data
     * dependence speculation of Section 3.2.  When false, every load
     * waits for all older stores to resolve, which destroys memory
     * parallelism (the conservative baseline of the ablation bench).
     */
    bool dep_speculation = true;

    /**
     * Pipeline-flush penalty in cycles charged when a speculated load
     * turns out to alias an older store through forwarding (different
     * initial addresses, same final address).
     */
    Cycles misspec_penalty = 12;

    /**
     * Store-buffer depth: stores graduate as soon as a buffer slot is
     * free and drain to the cache in the background; a store only
     * stalls graduation (Figure 5's store-stall slots) when the buffer
     * is full of outstanding misses.
     */
    unsigned store_buffer = 16;

    bool operator==(const OooParams &) const = default;
};

} // namespace memfwd

#endif // MEMFWD_CPU_OOO_PARAMS_HH
