/**
 * @file
 * VIS: the paper's largest application (150k+ lines of C) makes
 * extensive use of a *generic list library*, and the optimization is
 * localized entirely inside that library: each list head carries a
 * counter of insertions/deletions since the last linearization, and
 * when the counter exceeds a threshold — "arbitrarily set to 50 in our
 * experiments" — the list is linearized and the counter reset
 * (Section 5.3).
 *
 * We reproduce that library and drive it with a deterministic
 * BDD-package-like operation mix: many full traversals (the dominant
 * cost in VIS's list usage) interleaved with insertions and deletions
 * that churn the layout.  Functions returning pointers to list
 * elements are modelled by retaining *stale element pointers* across
 * linearizations and occasionally dereferencing them — the exact
 * hazard ("a pointer to the middle of the list that existed before
 * the linearization") that memory forwarding makes safe.
 *
 * Optimization (L): counter-triggered list linearization, threshold 50.
 * Prefetching (P): next-node block prefetch in the traversal loop.
 */

#include "workloads/workload.hh"

#include "common/logging.hh"
#include "runtime/layout_backend.hh"
#include "runtime/list_linearize.hh"
#include "runtime/machine.hh"
#include "runtime/sim_allocator.hh"
#include "workloads/workload_util.hh"

#include <memory>
#include <vector>

namespace memfwd
{

namespace
{

// Generic list node (24 bytes): next, key, payload.
constexpr unsigned node_next = 0;
constexpr unsigned node_key = 8;
constexpr unsigned node_payload = 16;
constexpr unsigned node_bytes = 24;

// List head record (16 bytes): head pointer + op counter, mirroring the
// paper's "counter field added to the head record of each list".
constexpr unsigned head_ptr = 0;
constexpr unsigned head_counter = 8;
constexpr unsigned head_bytes = 16;


class Vis final : public Workload
{
  public:
    explicit Vis(const WorkloadParams &params) : params_(params) {}

    std::string name() const override { return "vis"; }

    std::string
    description() const override
    {
        return "VIS: verification tool driving a generic linked-list "
               "library (traversal-heavy with insertion/deletion churn)";
    }

    std::string
    optimization() const override
    {
        return "counter-triggered list linearization inside the list "
               "library (threshold 50)";
    }

    void run(Machine &machine, const WorkloadVariant &variant) override;

    std::uint64_t checksum() const override { return checksum_; }
    Addr spaceOverheadBytes() const override { return space_overhead_; }

  private:
    WorkloadParams params_;
    std::uint64_t checksum_ = 0;
    Addr space_overhead_ = 0;
};

void
Vis::run(Machine &machine, const WorkloadVariant &variant)
{
    // VIS's library lists are traversed far more often than they are
    // modified; the mix below keeps roughly one linearization per list
    // per couple of phases once churn accumulates.
    const unsigned n_lists =
        std::max(8u, static_cast<unsigned>(96 * params_.scale));
    const unsigned init_len = 220;
    const unsigned n_phases = 10;
    const unsigned traversals_per_phase = 8;
    const unsigned churn_per_phase = 22;

    SimAllocator alloc(machine, params_.seed);
    std::unique_ptr<RelocationPool> pool;
    if (variant.layout_opt)
        pool = std::make_unique<RelocationPool>(alloc, Addr(192) << 20);
    std::unique_ptr<LayoutBackend> backend;
    if (variant.layout_opt)
        backend = makeLayoutBackend(machine, alloc);

    // ----- library: primitive list operations --------------------------

    auto bumpCounter = [&](Addr head) {
        const AccessResult c = machine.access(Access::load(head + head_counter, wordBytes));
        machine.access(Access::store(head + head_counter, wordBytes, c.value + 1,
                      c.ready));
        return c.value + 1;
    };

    auto maybeLinearize = [&](Addr head) {
        if (!variant.layout_opt)
            return;
        const AccessResult c = machine.access(Access::load(head + head_counter, wordBytes));
        if (c.value <= variant.linearize_threshold)
            return;
        const LinearizeResult lr = listLinearize(
            *backend, head + head_ptr, {node_bytes, node_next, 0}, *pool);
        space_overhead_ += lr.pool_bytes;
        machine.access(Access::store(head + head_counter, wordBytes, 0));
    };

    std::uint64_t next_key = 1;
    auto listInsert = [&](Addr head) {
        const Addr n = alloc.alloc(node_bytes, Placement::scattered);
        const std::uint64_t key = next_key++;
        const AccessResult h = machine.access(Access::load(head + head_ptr, wordBytes));
        machine.access(Access::store(n + node_next, wordBytes, h.value));
        machine.access(Access::store(n + node_key, wordBytes, key));
        machine.access(Access::store(n + node_payload, wordBytes, mix64(key)));
        machine.access(Access::store(head + head_ptr, wordBytes, n));
        bumpCounter(head);
        maybeLinearize(head);
        return n;
    };

    // Delete the first node whose key hashes with `salt`.
    auto listDeleteOne = [&](Addr head, std::uint64_t salt) {
        Addr prev_slot = head + head_ptr;
        AccessResult cur = machine.access(Access::load(prev_slot, wordBytes));
        while (cur.value != 0) {
            const Addr n = static_cast<Addr>(cur.value);
            const AccessResult k =
                machine.access(Access::load(n + node_key, wordBytes, cur.ready));
            const AccessResult nx =
                machine.access(Access::load(n + node_next, wordBytes, cur.ready));
            if (hashChance(mix64(k.value, salt), 60, 1000)) {
                machine.access(Access::store(prev_slot, wordBytes, nx.value));
                bumpCounter(head);
                maybeLinearize(head);
                return;
            }
            prev_slot = n + node_next;
            cur = AccessResult{nx.value, nx.ready, 0, nx.final_addr};
        }
    };

    auto listTraverse = [&](Addr head) {
        std::uint64_t acc = 0;
        AccessResult cur = machine.access(Access::load(head + head_ptr, wordBytes));
        while (cur.value != 0) {
            const Addr n = static_cast<Addr>(cur.value);
            const AccessResult nx =
                machine.access(Access::load(n + node_next, wordBytes, cur.ready));
            if (variant.prefetch && nx.value != 0) {
                machine.access(Access::prefetch(static_cast<Addr>(nx.value),
                                 variant.prefetch_block, nx.ready));
            }
            const AccessResult p =
                machine.access(Access::load(n + node_payload, wordBytes, cur.ready));
            acc += p.value;
            machine.access(Access::compute(3));
            cur = AccessResult{nx.value, nx.ready, 0, nx.final_addr};
        }
        return acc;
    };

    // ----- build the lists ----------------------------------------------
    machine.enterRegion("build");
    std::vector<Addr> heads(n_lists);
    for (unsigned i = 0; i < n_lists; ++i) {
        heads[i] = alloc.alloc(head_bytes, Placement::scattered);
        machine.access(Access::store(heads[i] + head_ptr, wordBytes, 0));
        machine.access(Access::store(heads[i] + head_counter, wordBytes, 0));
        for (unsigned k = 0; k < init_len; ++k)
            listInsert(heads[i]);
    }

    // Stale element pointers: VIS's library functions return pointers
    // into lists that live across linearizations, scattered over "any
    // of the over hundred source files".  We keep a few per list and
    // dereference them each phase — memory forwarding makes this safe.
    std::vector<Addr> stale;
    for (unsigned i = 0; i < n_lists; ++i) {
        AccessResult cur = machine.access(Access::load(heads[i] + head_ptr, wordBytes));
        unsigned hop = 0;
        while (cur.value != 0 && hop < 10) {
            if (hop % 5 == 4)
                stale.push_back(static_cast<Addr>(cur.value));
            cur = machine.access(Access::load(static_cast<Addr>(cur.value) + node_next,
                               wordBytes, cur.ready));
            ++hop;
        }
    }
    machine.exitRegion("build");

    // ----- drive the operation mix ---------------------------------------
    checksum_ = 0;
    machine.enterRegion("kernel");
    for (unsigned phase = 0; phase < n_phases; ++phase) {
        for (unsigned i = 0; i < n_lists; ++i) {
            for (unsigned t = 0; t < traversals_per_phase; ++t)
                checksum_ += listTraverse(heads[i]);

            for (unsigned c = 0; c < churn_per_phase; ++c) {
                const std::uint64_t key =
                    mix64(params_.seed,
                          (std::uint64_t(phase) << 40) |
                              (std::uint64_t(i) << 20) | c);
                if (hashChance(key, 550, 1000))
                    listInsert(heads[i]);
                else
                    listDeleteOne(heads[i], key);
            }
        }

        // Dereference the stale pointers (possible forwarding).
        for (std::size_t s = phase % 4; s < stale.size(); s += 4) {
            const AccessResult p =
                machine.access(Access::load(stale[s] + node_payload, wordBytes));
            checksum_ += p.value & 0xffff;
        }
    }
    machine.exitRegion("kernel");
}

} // namespace

std::unique_ptr<Workload>
makeVis(const WorkloadParams &params)
{
    return std::make_unique<Vis>(params);
}

} // namespace memfwd
