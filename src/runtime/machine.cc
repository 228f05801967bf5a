#include "runtime/machine.hh"

#include <algorithm>

#include "analysis/gate.hh"
#include "common/logging.hh"
#include "core/fault_injector.hh"
#include "runtime/layout_backend.hh"
#include "runtime/quarantine_allocator.hh"
#include "runtime/ref_stream.hh"

namespace memfwd
{

const char *
quarantinePolicyName(QuarantinePolicy policy)
{
    switch (policy) {
      case QuarantinePolicy::watermark:
        return "watermark";
      case QuarantinePolicy::on_full:
        return "on_full";
    }
    return "?";
}

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg)
{
    hierarchy_ = std::make_unique<MemoryHierarchy>(cfg_.hierarchy);
    cpu_ = std::make_unique<OooCpu>(cfg_.cpu);
    fwd_ = std::make_unique<ForwardingEngine>(mem_, *hierarchy_,
                                              cfg_.forwarding);
    fwd_->setTracer(&tracer_);
    if (cfg_.metadata_plane)
        fwd_->setMetadataPlane(&mem_.enableMetadataPlane());
    prefetcher_ = std::make_unique<Prefetcher>(*hierarchy_);
    tlb_ = std::make_unique<Tlb>(cfg_.tlb);

    for (const std::string &r : cfg_.fast_forward_regions)
        ff_all_ = ff_all_ || r == "all";
    ff_active_ = ff_all_;
}

void
Machine::enterRegion(std::string_view name)
{
    if (regionFastForwarded(name))
        ++ff_depth_;
    ff_active_ = ff_all_ || ff_depth_ > 0;
}

void
Machine::exitRegion(std::string_view name)
{
    if (regionFastForwarded(name)) {
        memfwd_assert(ff_depth_ > 0, "exitRegion() without enterRegion()");
        --ff_depth_;
    }
    ff_active_ = ff_all_ || ff_depth_ > 0;
}

Machine::~Machine() = default;

void
Machine::setFaultInjector(FaultInjector *faults)
{
    faults_ = faults;
    fwd_->setFaultInjector(faults);
}

void
Machine::setAnalysisGate(AnalysisGate *gate)
{
    gate_ = gate;
    if (gate_)
        gate_->setTrace(&tracer_, [this] { return cycles(); });
}

void
Machine::setLayoutBackend(LayoutBackend *backend)
{
    if (backend == nullptr && backend_ != nullptr) {
        // The backend is going away — this call comes from the BASE
        // class destructor, where the derived object (and its virtual
        // kind()) no longer exists.  Keep only the non-virtual counters;
        // the kind was recorded at registration below.
        backend_snapshot_ =
            std::make_unique<LayoutBackendStats>(backend_->stats());
    } else if (backend != nullptr) {
        backend_snapshot_kind_ = backend->kind();
    }
    backend_ = backend;
}

BackendKind
Machine::backendKindSeen() const
{
    if (backend_)
        return backend_->kind();
    if (backend_snapshot_)
        return backend_snapshot_kind_;
    return cfg_.backend_kind;
}

LayoutBackendStats
Machine::backendStats() const
{
    if (backend_)
        return backend_->stats();
    if (backend_snapshot_)
        return *backend_snapshot_;
    return {};
}

Cycles
Machine::translate(Addr addr, Cycles now)
{
    if (!cfg_.tlb.enabled)
        return now;
    return tlb_->access(addr, now);
}

// Forced inline: each of step()'s load and store cases gets a copy with
// is_load folded to a constant.
template <Machine::Exec E>
[[gnu::always_inline]] inline AccessResult
Machine::reference(const Access &a, bool is_load, std::uint64_t &alu_acc)
{
    constexpr bool timed = E != Exec::functional;
    const AccessType type = is_load ? AccessType::load : AccessType::store;
    const std::uint64_t traps_before = fwd_->traps().delivered();
    const MemIssue mi =
        timed ? cpu_->issueMem(a.addr_ready, is_load) : MemIssue{};
    const WalkResult w =
        timed ? fwd_->resolve(a.addr, type, mi.issue, a.site,
                              a.pointer_slot, a.object_id)
              : fwd_->resolveFunctional(a.addr, type, a.site,
                                        a.pointer_slot, a.object_id);
    const HierarchyResult r =
        timed ? hierarchy_->access(w.final_addr, type,
                                   translate(w.final_addr, w.ready))
              : HierarchyResult{};

    std::uint64_t value = a.value;
    if (is_load) {
        value = mem_.readBytes(w.final_addr, a.size);
        ++loads_;
        loads_forwarded_ += w.forwarded ? 1 : 0;
    } else {
        mem_.writeBytes(w.final_addr, a.size, a.value);
        ++stores_;
        stores_forwarded_ += w.forwarded ? 1 : 0;
    }

    Cycles done = 0;
    if constexpr (timed) {
        if constexpr (E == Exec::traced) {
            tracer_.emit({obs::EventKind::reference, type, mi.issue,
                          a.addr, w.final_addr, w.hops, a.size});
            if (w.hops > 0)
                tracer_.emit({obs::EventKind::chain_walk, type,
                              mi.issue, a.addr, w.final_addr, w.hops,
                              a.size});
            if (r.l1 != MissKind::hit)
                tracer_.emit({obs::EventKind::cache_miss, type,
                              mi.issue, a.addr, w.final_addr, 0,
                              a.size});
        }
        const bool missed = r.l1 != MissKind::hit || w.hop_missed_l1;
        const Addr initial = wordAlign(a.addr);
        const Addr final_word = wordAlign(w.final_addr);
        done = is_load ? cpu_->finishLoad(mi, r.ready, w.forward_cycles,
                                          missed, initial, final_word, 1)
                       : cpu_->finishStore(mi, r.ready,
                                           w.forward_cycles, missed,
                                           initial, final_word, 1);
    } else {
        ++alu_acc;
        done = cpu_->cycles();
    }
    return {value, done, w.hops, w.final_addr,
            fwd_->traps().delivered() != traps_before};
}

template <Machine::Exec E>
AccessResult
Machine::step(const Access &a, std::uint64_t &alu_acc)
{
    // Fast-forward (Exec::functional) keeps forwarding semantics — chain
    // resolution, traps, quarantine, cycle policy — exact; cache and CPU
    // timing are skipped and every reference retires as one ALU
    // instruction, accumulated into @p alu_acc, so instruction counts
    // stay meaningful.
    constexpr bool timed = E != Exec::functional;
    ++refs_;
    switch (a.kind) {
      case RefKind::load:
        return reference<E>(a, true, alu_acc);
      case RefKind::store:
        return reference<E>(a, false, alu_acc);

      // The three ISA extensions touch the word itself without following
      // forwarding.  The forwarding bit cannot be tested until the word
      // is in the primary cache (Section 3.2), so even Read_FBit is a
      // timed load-class access.
      case RefKind::read_fbit:
        return {mem_.fbit(a.addr) ? 1u : 0u, touchWord<E>(a, alu_acc), 0,
                a.addr, false};

      case RefKind::unforwarded_read:
        if (gate_ && gate_->enforcing())
            gate_->checkUnforwardedRead(a.addr, mem_);
        return {mem_.rawReadWord(a.addr), touchWord<E>(a, alu_acc), 0,
                a.addr, false};

      case RefKind::unforwarded_write:
        if (gate_ && gate_->enforcing())
            gate_->checkUnforwardedWrite(a.addr, a.value, a.fbit, mem_);
        mem_.unforwardedWrite(a.addr, a.value, a.fbit);
        return {a.value, touchWord<E>(a, alu_acc), 0, a.addr, false};

      case RefKind::prefetch:
        if constexpr (timed) {
            // Prefetches are non-binding: they do not follow forwarding
            // (a prefetch of a forwarded word harmlessly pulls in the
            // forwarding word itself) and never block graduation.
            const MemIssue mi = cpu_->issueMem(a.addr_ready, true);
            prefetcher_->issue(a.addr, static_cast<unsigned>(a.value),
                               mi.issue);
            cpu_->finishNonBlocking(mi);
        } else {
            ++alu_acc; // timing-only: a no-op when timing is skipped
        }
        return {0, 0, 0, a.addr, false};

      case RefKind::compute:
        if constexpr (timed)
            cpu_->alu(a.value);
        else
            alu_acc += a.value;
        return {0, 0, 0, 0, false};
    }
    memfwd_panic("bad RefKind %u", static_cast<unsigned>(a.kind));
}

template <Machine::Exec E>
Cycles
Machine::touchWord(const Access &a, std::uint64_t &alu_acc)
{
    if constexpr (E == Exec::functional) {
        ++alu_acc;
        return cpu_->cycles();
    } else {
        const bool is_load = a.kind != RefKind::unforwarded_write;
        const Addr word = wordAlign(a.addr);
        const MemIssue mi = cpu_->issueMem(a.addr_ready, is_load);
        const HierarchyResult r = hierarchy_->access(
            word, is_load ? AccessType::load : AccessType::store, mi.issue);
        const bool missed = r.l1 != MissKind::hit;
        return is_load
                   ? cpu_->finishLoad(mi, r.ready, 0, missed, word, word, 1)
                   : cpu_->finishStore(mi, r.ready, 0, missed, word, word,
                                       1);
    }
}

template <Machine::Exec E>
void
Machine::runRefs(MemRef *refs, std::size_t n)
{
    // Fast-forwarded ALU retirement is order-independent, so the whole
    // batch's count retires in one Rob pass; per-reference `ready`
    // cycles are not meaningful while timing is skipped (docs/API.md).
    std::uint64_t alu_acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
        MemRef &r = refs[i];
        if (r.dep >= 0) {
            Access a = r.acc;
            a.addr_ready = std::max(
                a.addr_ready,
                refs[static_cast<std::size_t>(r.dep)].res.ready);
            r.res = step<E>(a, alu_acc);
        } else {
            r.res = step<E>(r.acc, alu_acc);
        }
    }
    if constexpr (E == Exec::functional)
        cpu_->alu(alu_acc);
}

AccessResult
Machine::access(const Access &a)
{
    const bool ff = ff_active_;
    std::uint64_t alu_acc = 0;
    AccessResult r = ff                 ? step<Exec::functional>(a, alu_acc)
                     : tracer_.active() ? step<Exec::traced>(a, alu_acc)
                                        : step<Exec::timed>(a, alu_acc);
    if (ff) {
        // A lone fast-forwarded reference retires at once and reports
        // the cycle after its own retirement.
        cpu_->alu(alu_acc);
        if (a.kind != RefKind::prefetch && a.kind != RefKind::compute)
            r.ready = cpu_->cycles();
    }
    return r;
}

void
Machine::run(AccessBatch &batch)
{
    // The dispatch (fast-forward? tracer?) is decided once per batch —
    // this is the branch hoisting the batched API exists for.
    MemRef *refs = batch.data();
    const std::size_t n = batch.size();
    if (ff_active_)
        runRefs<Exec::functional>(refs, n);
    else if (tracer_.active())
        runRefs<Exec::traced>(refs, n);
    else
        runRefs<Exec::timed>(refs, n);
}

Addr
Machine::chainTail(Addr addr) const
{
    Addr word = wordAlign(addr);
    unsigned guard = 0;
    while (mem_.fbit(word)) {
        word = wordAlign(mem_.rawReadWord(word));
        memfwd_assert(++guard < 1u << 20, "runaway forwarding chain");
    }
    return word + wordOffset(addr);
}

std::uint64_t
Machine::peek(Addr addr, unsigned size) const
{
    return mem_.readBytes(chainTail(addr), size);
}

void
Machine::poke(Addr addr, unsigned size, std::uint64_t value)
{
    mem_.writeBytes(chainTail(addr), size, value);
}

obs::MetricsNode
Machine::metrics() const
{
    obs::MetricsNode root;

    // The CPU and hierarchy fill the machine root directly, so their
    // paths are top-level ("cycles", "slots.busy", "l1d.load_hits").
    cpu_->fillMetrics(root);
    hierarchy_->fillMetrics(root);
    fwd_->fillMetrics(root.child("fwd"));
    prefetcher_->fillMetrics(root.child("prefetch"));

    auto &refs = root.child("refs");
    refs.counter("loads", loads_);
    refs.counter("stores", stores_);
    refs.counter("loads_forwarded", loads_forwarded_);
    refs.counter("stores_forwarded", stores_forwarded_);
    if (loads_)
        refs.gauge("load_forwarded_fraction",
                   double(loads_forwarded_) / double(loads_));
    if (stores_)
        refs.gauge("store_forwarded_fraction",
                   double(stores_forwarded_) / double(stores_));

    if (cfg_.tlb.enabled)
        tlb_->fillMetrics(root.child("tlb"));

    if (gate_)
        gate_->fillMetrics(root.child("analysis"));

    if (backendSeen()) {
        auto &b = root.child("backend");
        b.gauge("kind", static_cast<double>(backendKindSeen()));
        backendStats().fillMetrics(b);
    }

    if (cfg_.metadata_plane || quarantine_) {
        // Temporal-safety family: violation classification comes from
        // the engine's check; arena accounting from the allocator (all
        // zero when only the plane is enabled).
        auto &q = root.child("quarantine");
        q.counter("violations_uaf", fwd_->stats().temporal_uaf);
        q.counter("violations_oob", fwd_->stats().temporal_oob);
        if (quarantine_)
            quarantine_->fillMetrics(q);
        else {
            q.counter("live_bytes", 0);
            q.counter("quarantined_frees", 0);
            q.counter("reclaims", 0);
            q.counter("degraded_frees", 0);
        }
    }

    return root;
}

} // namespace memfwd
