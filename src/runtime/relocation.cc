#include "runtime/relocation.hh"

#include <optional>
#include <vector>

#include "analysis/gate.hh"
#include "common/logging.hh"
#include "core/cycle_check.hh"
#include "core/fault_injector.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd
{

namespace
{

/**
 * Timed Read_FBit loops run a cheap hop counter just like the
 * hardware walk; past this many hops the software falls back to the
 * accurate functional check rather than spinning forever on a cycle.
 */
constexpr unsigned chase_soft_limit = 64;

} // namespace

Addr
chaseChain(Machine &machine, Addr addr)
{
    Addr word = wordAlign(addr);
    const unsigned offset = wordOffset(addr);
    unsigned guard = 0;
    // Hand-proven raw reads: every word read here was just observed
    // with its forwarding bit set, and a forwarding word's payload is
    // the one thing a raw read of it legitimately fetches.
    ScopedUnforwardedAnnotation chase_ok(machine.analysisGate());
    while ((machine.access(Access::readFBit(word)).value != 0)) {
        word = wordAlign(machine.access(Access::unforwardedRead(word)).value);
        if (++guard > chase_soft_limit) {
            const CycleCheckResult chk =
                accurateCycleCheck(machine.mem(), addr);
            if (chk.is_cycle)
                throw ForwardingCycleError(wordAlign(addr), chk.length);
            guard = 0;
        }
    }
    return word + offset;
}

void
relocate(Machine &machine, Addr src, Addr tgt, unsigned n_words)
{
    memfwd_assert(isWordAligned(src) && isWordAligned(tgt),
                  "relocate: endpoints must be word-aligned");

    // Relocate() is transactional: every word it is about to mutate is
    // journaled first (raw payload + forwarding bit — runtime
    // bookkeeping, so the capture itself is untimed), and any failure
    // rolls the journal back in reverse before rethrowing.  A
    // half-relocated object is therefore never visible: either every
    // chain tail forwards to the new home, or the heap is bit-identical
    // to its pre-call state.
    struct Step
    {
        Addr tail;        ///< chain tail turned into a forwarding word
        Word tail_payload;
        bool tail_fbit;
        Addr dest;        ///< word the payload was copied to
        Word dest_payload;
        bool dest_fbit;
    };
    std::vector<Step> journal;
    journal.reserve(n_words);

    // The timed stores below resolve the target's chain; a lazy
    // collapse there would rewrite a forwarding word the journal never
    // captured, so collapsing is suspended for the whole transaction —
    // rollback must restore the heap bit-identically.
    ScopedCollapseSuspend no_collapse(machine.forwarding());

    // A relocation invoked directly (no optimizer plan open) submits
    // its own single-move micro-plan, so even ad-hoc relocate() calls
    // are statically vetted when an analysis gate is attached.
    AnalysisGate *gate = machine.analysisGate();
    std::optional<PlanScope> micro;
    if (gate && gate->mode() != AnalyzeMode::off &&
        gate->activePlans() == 0) {
        RelocationPlan plan("relocate");
        plan.assume(AliasAssumption::stale_pointers_possible)
            .move(src, tgt, n_words);
        micro.emplace(gate, plan);
    }

    FaultInjector *faults = machine.faultInjector();

    try {
        for (unsigned i = 0; i < n_words; ++i) {
            const Addr s = src + static_cast<Addr>(i) * wordBytes;
            const Addr t = tgt + static_cast<Addr>(i) * wordBytes;

            if (faults && faults->armedAt(FaultSite::relocate)) {
                faults->corruptChain(machine.mem(), s,
                                     FaultSite::relocate);
                if (faults->shouldFail(FaultSite::relocate)) {
                    throw AllocFailure(wordBytes,
                                       "injected mid-relocation failure");
                }
            }

            // Loop until a clear forwarding bit is read, so the target
            // is appended at the end of any existing chain (Figure 4(a)).
            const Addr tail = chaseChain(machine, s);

            // The copy lands wherever the target word's own chain ends
            // (a fresh target is its own tail); journal that word, not
            // the nominal target, so rollback restores the bytes the
            // store actually changed.
            Addr dest = t;
            unsigned guard = 0;
            while (machine.mem().fbit(dest)) {
                dest = wordAlign(machine.mem().rawReadWord(dest));
                memfwd_assert(++guard < chase_soft_limit,
                              "relocate: target chain runaway");
            }

            journal.push_back({tail, machine.mem().rawReadWord(tail),
                               machine.mem().fbit(tail), dest,
                               machine.mem().rawReadWord(dest),
                               machine.mem().fbit(dest)});

            // Copy the payload to its new home, then atomically turn
            // the chain tail into a forwarding address.
            const std::uint64_t value = machine.access(Access::unforwardedRead(tail)).value;
            machine.access(Access::store(t, wordBytes, value));
            {
                // The append target is the *dynamic* chain tail, which
                // lies outside the plan's declared source range whenever
                // the object was relocated before; the chase above is
                // the proof the write is the legal chain append.
                ScopedUnforwardedAnnotation append_ok(gate);
                machine.access(Access::unforwardedWrite(tail, t, true));
            }
        }
        if (machine.tracer().active()) {
            machine.tracer().emit({obs::EventKind::relocation,
                                   AccessType::store, machine.cycles(),
                                   src, tgt, n_words, 0});
        }
    } catch (...) {
        // Undo newest-first with timed atomic writes: the rollback is
        // real work the machine pays for, like the aborted steps were.
        // Rollback restores journaled pre-images bit-identically — a
        // hand-proven raw sequence, annotated as such.
        ScopedUnforwardedAnnotation rollback_ok(gate);
        for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
            machine.access(Access::unforwardedWrite(it->tail, it->tail_payload,
                                     it->tail_fbit));
            machine.access(Access::unforwardedWrite(it->dest, it->dest_payload,
                                     it->dest_fbit));
        }
        if (machine.tracer().active()) {
            machine.tracer().emit(
                {obs::EventKind::rollback, AccessType::store,
                 machine.cycles(), src, tgt,
                 static_cast<unsigned>(journal.size()), 0});
        }
        throw;
    }
}

} // namespace memfwd
