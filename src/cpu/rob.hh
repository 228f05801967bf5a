/**
 * @file
 * Reorder-buffer model: in-order dispatch and in-order graduation with
 * per-slot stall attribution.
 *
 * The model is stream-driven: the Machine walks the dynamic instruction
 * sequence in program order; for each instruction it asks the Rob for a
 * dispatch cycle (bounded by fetch bandwidth and by the window — an
 * instruction cannot dispatch until the instruction `window` places
 * ahead of it has retired), computes the instruction's completion cycle
 * (1 cycle for ALU ops, the hierarchy's answer for memory ops), and
 * hands it back for graduation.  Graduation retires up to `width`
 * instructions per cycle in order; non-graduating slots are attributed
 * per the paper's Figure 5 categories.
 */

#ifndef MEMFWD_CPU_ROB_HH
#define MEMFWD_CPU_ROB_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "cpu/stall_stats.hh"

namespace memfwd
{

/** In-order dispatch / in-order graduation window. */
class Rob
{
  public:
    Rob(unsigned width, unsigned window);

    /**
     * Dispatch the next instruction in program order.  Returns the
     * cycle at which it occupies an issue slot (fetch-bandwidth- and
     * window-limited).
     */
    Cycles dispatch() { return dispatchIn(st_); }

    /**
     * Graduate the oldest dispatched instruction not yet graduated,
     * which became ready at @p completion.  @p kind attributes any
     * slots the graduation had to wait for.  Returns the retire cycle.
     */
    Cycles
    graduate(Cycles completion, WaitKind kind)
    {
        return graduateIn(st_, completion, kind);
    }

    /**
     * Dispatch + graduate @p n consecutive single-cycle ALU
     * instructions.  Exactly n dispatch()/graduate(d+1) pairs — the
     * definition of OooCpu::alu(n) — run on a local copy of the state:
     * stores into the retire ring cannot alias a local, so the state
     * stays in registers across the loop.
     */
    void
    aluBurst(std::uint64_t n)
    {
        State s = st_;
        for (std::uint64_t i = 0; i < n; ++i)
            graduateIn(s, dispatchIn(s) + 1, WaitKind::none);
        st_ = s;
    }

    /** Instructions dispatched (== graduated) so far. */
    std::uint64_t instructions() const { return st_.seq; }

    /** Cycle of the most recent graduation — the execution time. */
    Cycles currentCycle() const { return st_.grad_cycle; }

    const StallStats &stalls() const { return st_.stalls; }

    unsigned width() const { return width_; }
    unsigned window() const { return window_; }

  private:
    /** Everything dispatch and graduation advance but the ring. */
    struct State
    {
        std::uint64_t seq = 0;       ///< instructions dispatched
        std::uint64_t graduated = 0;

        /**
         * Ring slots of the next dispatch (seq % window_) and the next
         * graduation (graduated % window_).  Two cursors, because a
         * dispatch whose reference throws is never graduated, and from
         * then on the two counts differ.
         */
        unsigned dispatch_pos = 0;
        unsigned grad_pos = 0;

        Cycles fetch_cycle = 0;      ///< cycle the next fetch group occupies
        unsigned fetch_slots = 0;    ///< fetches already taken this cycle

        Cycles grad_cycle = 0;       ///< current graduation cycle
        unsigned grad_slots = 0;     ///< graduation slots used this cycle

        StallStats stalls;
    };

    Cycles
    dispatchIn(State &s)
    {
        // Window constraint: instruction seq cannot enter until
        // instruction (seq - window_) has retired and freed its slot.
        // Until seq reaches window_ the slot still holds its initial
        // 0, which never delays a fetch.
        const Cycles earliest = retire_ring_[s.dispatch_pos];
        if (++s.dispatch_pos == window_)
            s.dispatch_pos = 0;

        if (earliest > s.fetch_cycle) {
            s.fetch_cycle = earliest;
            s.fetch_slots = 0;
        }
        if (s.fetch_slots == width_) {
            ++s.fetch_cycle;
            s.fetch_slots = 0;
        }
        ++s.fetch_slots;
        ++s.seq;
        return s.fetch_cycle;
    }

    Cycles
    graduateIn(State &s, Cycles completion, WaitKind kind)
    {
        memfwd_assert(s.graduated < s.seq,
                      "graduate() without a matching dispatch()");

        Cycles target = std::max(completion, s.grad_cycle);

        if (target == s.grad_cycle && s.grad_slots == width_) {
            // Current cycle's slots are exhausted; spill to the next.
            ++s.grad_cycle;
            s.grad_slots = 0;
            target = s.grad_cycle;
        }

        if (target > s.grad_cycle) {
            // Attribute every empty slot between the graduation cursor
            // and the cycle this instruction becomes ready.
            const std::uint64_t stall_slots =
                (width_ - s.grad_slots) +
                static_cast<std::uint64_t>(target - s.grad_cycle - 1) *
                    width_;
            switch (kind) {
              case WaitKind::load_miss:
                s.stalls.load_stall += stall_slots;
                break;
              case WaitKind::store_miss:
                s.stalls.store_stall += stall_slots;
                break;
              case WaitKind::none:
                s.stalls.inst_stall += stall_slots;
                break;
            }
            s.grad_cycle = target;
            s.grad_slots = 0;
        }

        ++s.stalls.busy;
        ++s.grad_slots;
        ++s.graduated;
        retire_ring_[s.grad_pos] = s.grad_cycle;
        if (++s.grad_pos == window_)
            s.grad_pos = 0;
        return s.grad_cycle;
    }

    unsigned width_;
    unsigned window_;
    State st_;

    /** Retire cycle of instruction i, at slot i % window_. */
    std::vector<Cycles> retire_ring_;
};

} // namespace memfwd

#endif // MEMFWD_CPU_ROB_HH
