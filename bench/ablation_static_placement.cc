/**
 * @file
 * Ablation: static placement vs. run-time relocation (Section 1).
 *
 * The paper frames two ways to control layout: *static placement*
 * (choose a good address at creation — simple, no relocation machinery
 * needed) and *relocation* (move objects later — "it can adapt to
 * dynamic program behavior").  This bench quantifies that tradeoff on
 * a long-lived list under churn:
 *
 *  - scattered  : no layout control at all;
 *  - static     : nodes allocated contiguously at creation, but churn
 *                 inserts later nodes wherever the (aged) heap has
 *                 space — the initial locality decays irreversibly;
 *  - relocation : nodes start scattered, and counter-triggered
 *                 linearization (needs forwarding to be safe) restores
 *                 contiguity for the *current* membership repeatedly.
 *
 * Per-phase traversal costs show static placement matching relocation
 * at first, then drifting toward the scattered baseline.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "runtime/layout_backend.hh"
#include "runtime/list_linearize.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/workload_util.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

constexpr unsigned node_bytes = 24;
constexpr unsigned off_next = 0;
constexpr unsigned off_key = 8;
constexpr unsigned off_payload = 16;

enum class Mode
{
    scattered,
    static_placement,
    relocation
};

struct PhaseCosts
{
    std::vector<Cycles> per_phase;
    Cycles total = 0;
    std::uint64_t checksum = 0;
};

/** Run one mode and record it as @p label (cycles: the phase total). */
PhaseCosts
runList(Report &report, const std::string &label, Mode mode,
        unsigned n_nodes, unsigned phases, unsigned churn,
        BackendKind kind = BackendKind::forwarding)
{
    MachineConfig mc;
    mc.hierarchy.setLineBytes(64);
    mc.backend(kind);
    Machine m(mc);
    SimAllocator alloc(m, 7);
    RelocationPool pool(alloc, 256 << 20);
    std::unique_ptr<LayoutBackend> backend;
    if (mode == Mode::relocation)
        backend = makeLayoutBackend(m, alloc);

    const Placement init_place = mode == Mode::static_placement
                                     ? Placement::sequential
                                     : Placement::scattered;

    const Addr head = alloc.alloc(8);
    m.access(Access::store(head, 8, 0));
    std::uint64_t next_key = 1;

    auto insert = [&](Placement place) {
        const Addr n = alloc.alloc(node_bytes, place);
        const std::uint64_t key = next_key++;
        const AccessResult h = m.access(Access::load(head, 8));
        m.access(Access::store(n + off_next, 8, h.value));
        m.access(Access::store(n + off_key, 8, key));
        m.access(Access::store(n + off_payload, 8, mix64(key)));
        m.access(Access::store(head, 8, n));
    };

    for (unsigned i = 0; i < n_nodes; ++i)
        insert(init_place);

    PhaseCosts out;
    std::uint64_t op_counter = 0;

    for (unsigned phase = 0; phase < phases; ++phase) {
        // Traverse (the hot work), timed per phase.
        const Cycles begin = m.cycles();
        for (int t = 0; t < 4; ++t) {
            AccessResult cur = m.access(Access::load(head, 8));
            while (cur.value != 0) {
                out.checksum +=
                    m.access(Access::load(cur.value + off_payload, 8, cur.ready)).value &
                    0xff;
                cur = m.access(Access::load(cur.value + off_next, 8, cur.ready));
            }
        }
        out.per_phase.push_back(m.cycles() - begin);
        out.total += out.per_phase.back();

        // Churn: deletions plus insertions.  Even under static
        // placement, churn-era nodes land wherever the aged heap has
        // room (scattered), so the early contiguity cannot be
        // maintained without relocation.
        for (unsigned c = 0; c < churn; ++c) {
            const std::uint64_t k =
                mix64(0xc0ffee, (std::uint64_t(phase) << 20) | c);
            if (hashChance(k, 500, 1000)) {
                insert(Placement::scattered);
            } else {
                // Delete a position-uniform victim: walk a
                // deterministic number of hops and unlink the node
                // there (turnover reaches the whole list, so static
                // placement's initial block genuinely erodes).
                std::uint64_t hops = mix64(k, 0xd1e) % n_nodes;
                Addr prev_slot = head;
                AccessResult cur = m.access(Access::load(prev_slot, 8));
                while (cur.value != 0 && hops > 0) {
                    prev_slot = static_cast<Addr>(cur.value) + off_next;
                    cur = m.access(Access::load(prev_slot, 8, cur.ready));
                    --hops;
                }
                if (cur.value != 0) {
                    const AccessResult nx =
                        m.access(Access::load(cur.value + off_next, 8, cur.ready));
                    m.access(Access::store(prev_slot, 8, nx.value));
                }
            }
            ++op_counter;
            if (mode == Mode::relocation && op_counter >= 50) {
                listLinearize(*backend, head, {node_bytes, off_next, 0},
                              pool);
                op_counter = 0;
            }
        }
    }
    report.addCase(label, out.total, m.cpu().instructions(), out.checksum,
                   m.metrics(), m.refsExecuted());
    return out;
}

} // namespace

int
bench::ablation_static_placement(Report &report)
{
    header("Ablation: static placement vs. run-time relocation "
           "(64B lines)",
           "per-phase traversal cycles for a churning list; lower is "
           "better");

    const unsigned n = static_cast<unsigned>(2000 * benchScale());
    const unsigned phases = 16;
    const unsigned churn = 350;

    const PhaseCosts scattered =
        runList(report, "scattered", Mode::scattered, n, phases, churn);
    const PhaseCosts fixed = runList(report, "static_placement",
                                     Mode::static_placement, n, phases,
                                     churn);
    const PhaseCosts reloc =
        runList(report, "relocation", Mode::relocation, n, phases, churn);
    // Backend axis: the same relocation-mode code run on a backend
    // that refuses to relocate — the pass becomes a no-op and the
    // "relocation" curve collapses onto the scattered baseline.
    const PhaseCosts refused =
        runList(report, "relocation_backend_none", Mode::relocation, n,
                phases, churn, BackendKind::none);

    if (scattered.checksum != fixed.checksum ||
        fixed.checksum != reloc.checksum ||
        reloc.checksum != refused.checksum) {
        std::printf("CHECKSUM MISMATCH\n");
        return 1;
    }

    std::printf("\n%-8s %14s %18s %14s %16s\n", "phase", "scattered",
                "static placement", "relocation", "reloc (refused)");
    for (unsigned p = 0; p < phases; ++p) {
        std::printf("%-8u %14s %18s %14s %16s\n", p,
                    withCommas(scattered.per_phase[p]).c_str(),
                    withCommas(fixed.per_phase[p]).c_str(),
                    withCommas(reloc.per_phase[p]).c_str(),
                    withCommas(refused.per_phase[p]).c_str());
    }

    std::printf("\ntotals: scattered %s, static %s (%.2fx), relocation "
                "%s (%.2fx), refused %s (%.2fx)\n",
                withCommas(scattered.total).c_str(),
                withCommas(fixed.total).c_str(),
                double(scattered.total) / double(fixed.total),
                withCommas(reloc.total).c_str(),
                double(scattered.total) / double(reloc.total),
                withCommas(refused.total).c_str(),
                double(scattered.total) / double(refused.total));
    std::printf("\ntakeaway: static placement starts as good as "
                "relocation and decays with churn; relocation tracks "
                "the dynamic membership — the adaptivity the paper "
                "claims for relocation-based optimization, which only "
                "forwarding makes safe.\n");
    return 0;
}
