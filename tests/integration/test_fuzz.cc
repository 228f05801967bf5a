/** @file
 * Randomized structural fuzzing: layout optimizations applied to
 * randomly shaped structures must preserve contents, order, and
 * reachability — for any shape, repeatedly, interleaved with mutation.
 * Every fuzzer runs with the FTC + chain-collapsing accelerations both
 * off and on: acceleration must never change what a structure holds.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "runtime/layout_backend.hh"
#include "runtime/list_linearize.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"
#include "runtime/subtree_cluster.hh"

namespace memfwd
{
namespace
{

/** Seed + whether the FTC and collapsing are enabled. */
using FuzzParam = std::tuple<std::uint64_t, bool>;

MachineConfig
fuzzConfig(bool accelerated)
{
    return accelerated ? MachineConfig{}.ftc().collapse()
                       : MachineConfig{};
}

std::string
fuzzParamName(const ::testing::TestParamInfo<FuzzParam> &info)
{
    return "s" + std::to_string(std::get<0>(info.param))
           + (std::get<1>(info.param) ? "_accel" : "_plain");
}

// ---------------------------------------------------------------------
// Random trees through subtreeCluster.
// ---------------------------------------------------------------------

constexpr unsigned t_node = 32;
constexpr unsigned t_left = 0;
constexpr unsigned t_right = 8;
constexpr unsigned t_key = 16;

class RandomTreeFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(RandomTreeFuzz, ClusteringPreservesRandomBsts)
{
    setVerbose(false);
    const std::uint64_t seed = testSeed(std::get<0>(GetParam()));
    Rng rng(seed);
    Machine m(fuzzConfig(std::get<1>(GetParam())));
    SimAllocator alloc(m, seed);
    RelocationPool pool(alloc, 8 << 20);
    ForwardingBackend fwd(m);

    const Addr root_handle = alloc.alloc(8);
    m.access(Access::store(root_handle, 8, 0));

    // Random BST insertion of 120 keys.
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 120; ++i) {
        const std::uint64_t key = rng.below(1 << 20);
        const Addr node = alloc.alloc(t_node, Placement::scattered);
        m.access(Access::store(node + t_left, 8, 0));
        m.access(Access::store(node + t_right, 8, 0));
        m.access(Access::store(node + t_key, 8, key));
        Addr slot = root_handle;
        bool dup = false;
        AccessResult cur = m.access(Access::load(slot, 8));
        while (cur.value != 0) {
            const std::uint64_t k =
                m.access(Access::load(cur.value + t_key, 8, cur.ready)).value;
            if (k == key) {
                dup = true;
                break;
            }
            slot = static_cast<Addr>(cur.value) +
                   (key < k ? t_left : t_right);
            cur = m.access(Access::load(slot, 8, cur.ready));
        }
        if (dup)
            continue;
        m.access(Access::store(slot, 8, node));
        keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());

    auto inorder = [&] {
        std::vector<std::uint64_t> out;
        std::vector<Addr> stack;
        Addr cur = static_cast<Addr>(m.access(Access::load(root_handle, 8)).value);
        while (cur != 0 || !stack.empty()) {
            while (cur != 0) {
                stack.push_back(cur);
                cur = static_cast<Addr>(m.access(Access::load(cur + t_left, 8)).value);
            }
            cur = stack.back();
            stack.pop_back();
            out.push_back(m.access(Access::load(cur + t_key, 8)).value);
            cur = static_cast<Addr>(m.access(Access::load(cur + t_right, 8)).value);
        }
        return out;
    };

    ASSERT_EQ(inorder(), keys);

    // Cluster repeatedly with random cluster sizes, mutating between.
    TreeDesc desc;
    desc.node_bytes = t_node;
    desc.child_offsets = {t_left, t_right};
    for (int round = 0; round < 3; ++round) {
        const unsigned cluster =
            32u << rng.below(4); // 32..256
        subtreeCluster(fwd, root_handle, desc, pool, cluster);
        EXPECT_EQ(inorder(), keys) << "round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomTreeFuzz,
    ::testing::Combine(::testing::Values(101u, 202u, 303u, 404u),
                       ::testing::Bool()),
    fuzzParamName);

// ---------------------------------------------------------------------
// Random lists through repeated linearization + splicing.
// ---------------------------------------------------------------------

class RandomListFuzz : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(RandomListFuzz, LinearizeSurvivesArbitrarySplices)
{
    setVerbose(false);
    const std::uint64_t seed = testSeed(std::get<0>(GetParam()));
    Rng rng(seed);
    Machine m(fuzzConfig(std::get<1>(GetParam())));
    SimAllocator alloc(m, seed ^ 0xf00);
    RelocationPool pool(alloc, 16 << 20);
    ForwardingBackend fwd(m);

    const Addr head = alloc.alloc(8);
    m.access(Access::store(head, 8, 0));
    std::vector<std::uint64_t> model; // front = list head

    auto checkAgainstModel = [&] {
        std::vector<std::uint64_t> got;
        AccessResult cur = m.access(Access::load(head, 8));
        while (cur.value != 0) {
            got.push_back(m.access(Access::load(cur.value + 8, 8, cur.ready)).value);
            cur = m.access(Access::load(cur.value + 0, 8, cur.ready));
        }
        ASSERT_EQ(got, model);
    };

    std::uint64_t next_val = 1;
    for (unsigned op = 0; op < 300; ++op) {
        const std::uint64_t pick = rng.below(10);
        if (pick < 5) {
            // Insert at a random position.
            const std::size_t pos =
                model.empty() ? 0 : rng.below(model.size() + 1);
            const Addr node = alloc.alloc(16, Placement::scattered);
            m.access(Access::store(node + 8, 8, next_val));
            Addr slot = head;
            AccessResult cur = m.access(Access::load(slot, 8));
            for (std::size_t i = 0; i < pos; ++i) {
                slot = static_cast<Addr>(cur.value) + 0;
                cur = m.access(Access::load(slot, 8, cur.ready));
            }
            m.access(Access::store(node + 0, 8, cur.value));
            m.access(Access::store(slot, 8, node));
            model.insert(model.begin() + pos, next_val);
            ++next_val;
        } else if (pick < 8 && !model.empty()) {
            // Delete at a random position.
            const std::size_t pos = rng.below(model.size());
            Addr slot = head;
            AccessResult cur = m.access(Access::load(slot, 8));
            for (std::size_t i = 0; i < pos; ++i) {
                slot = static_cast<Addr>(cur.value) + 0;
                cur = m.access(Access::load(slot, 8, cur.ready));
            }
            const AccessResult nx =
                m.access(Access::load(static_cast<Addr>(cur.value) + 0, 8, cur.ready));
            m.access(Access::store(slot, 8, nx.value));
            model.erase(model.begin() + pos);
        } else {
            listLinearize(fwd, head, {16, 0, 0}, pool);
        }
        if (op % 37 == 0)
            checkAgainstModel();
    }
    checkAgainstModel();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomListFuzz,
    ::testing::Combine(::testing::Values(7u, 14u, 21u, 28u),
                       ::testing::Bool()),
    fuzzParamName);

// ---------------------------------------------------------------------
// Relocation / collapse / cycle interleavings under quarantine.
// ---------------------------------------------------------------------

/** Seed + machine flavor (0 plain, 1 accelerated, 2 accel+exception). */
class ChainInterleavingFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>>
{
};

TEST_P(ChainInterleavingFuzz, QuarantinedCyclesNeverDerailCleanChains)
{
    setVerbose(false);
    const std::uint64_t seed = testSeed(std::get<0>(GetParam()) + 0xc0de);
    const int flavor = std::get<1>(GetParam());

    MachineConfig cfg = fuzzConfig(flavor >= 1);
    cfg.cyclePolicy(CyclePolicy::quarantine).hopLimit(6);
    if (flavor == 2)
        cfg.forwardingMode(MachineConfig::Mode::exception);
    Machine m(cfg);
    Rng rng(seed);

    // One-word objects at fixed slots; relocation targets from a bump.
    constexpr unsigned n_objects = 16;
    constexpr Addr base = 0x00200000;
    Addr bump = 0x05000000;
    std::vector<std::uint64_t> model(n_objects);
    std::vector<bool> poisoned(n_objects, false);
    for (unsigned k = 0; k < n_objects; ++k) {
        model[k] = seed ^ (k * 977);
        m.access(Access::store(base + k * 0x80, 8, model[k]));
    }

    unsigned cycles_made = 0;
    for (unsigned op = 0; op < 500; ++op) {
        const unsigned k = unsigned(rng.below(n_objects));
        const Addr head = base + k * 0x80;
        const std::uint64_t pick = rng.below(100);
        if (pick < 40) {
            // A load through the (possibly long, possibly collapsed)
            // chain: clean objects must match the model; poisoned ones
            // must simply keep resolving without throwing.
            const AccessResult r = m.access(Access::load(head, 8));
            if (!poisoned[k]) {
                EXPECT_EQ(r.value, model[k]) << "object " << k;
            }
        } else if (pick < 65) {
            if (!poisoned[k]) {
                const std::uint64_t v = rng.next();
                m.access(Access::store(head, 8, v));
                model[k] = v;
            }
        } else if (pick < 90) {
            // Chains only grow on healthy objects: relocate() walks the
            // source chain and would (correctly) quarantine a poisoned
            // one mid-transaction.
            if (!poisoned[k]) {
                relocate(m, head, bump, 1);
                bump += 0x40;
            }
        } else {
            // Close the chain into a cycle: tail re-forwarded at the
            // head.  Resolution quarantines it and execution continues.
            if (!poisoned[k] && (m.access(Access::readFBit(head)).value != 0)) {
                const Addr tail = chaseChain(m, head);
                if (tail != head) {
                    m.access(Access::unforwardedWrite(tail, head, true));
                    poisoned[k] = true;
                    ++cycles_made;
                }
            }
        }
    }

    // Every healthy object still reads its model value; every poisoned
    // one resolves from its pin without throwing.
    for (unsigned k = 0; k < n_objects; ++k) {
        const AccessResult r = m.access(Access::load(base + k * 0x80, 8));
        if (!poisoned[k]) {
            EXPECT_EQ(r.value, model[k]) << "object " << k;
        }
    }
    const auto &st = m.forwarding().stats();
    EXPECT_EQ(st.cycles_quarantined, cycles_made);
    if (cycles_made > 0) {
        EXPECT_GE(st.cycles_detected, cycles_made);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ChainInterleavingFuzz,
    ::testing::Combine(::testing::Values(11u, 22u, 33u, 44u, 55u, 66u),
                       ::testing::Values(0, 1, 2)),
    [](const auto &info) {
        const int f = std::get<1>(info.param);
        const char *kind =
            f == 0 ? "plain" : (f == 1 ? "accel" : "accel_exc");
        return std::string(kind) + "_s"
               + std::to_string(std::get<0>(info.param));
    });

} // namespace
} // namespace memfwd
