/**
 * @file
 * The Machine: the public simulation facade.
 *
 * A Machine is one simulated processor + memory system with memory
 * forwarding support.  Workloads execute by issuing *timed operations*
 * against it, in program order:
 *
 *  - load/store      — ordinary references, subject to forwarding;
 *  - readFBit, unforwardedRead, unforwardedWrite
 *                    — the three ISA extensions of Figure 3;
 *  - prefetch        — block prefetch of N consecutive lines;
 *  - compute         — N single-cycle ALU instructions.
 *
 * Loads return both the value and the cycle it becomes available; a
 * workload threads that cycle into the next access's `addr_ready` when
 * the address depends on the loaded value.  This is how the
 * pointer-chasing serialization the paper discusses (Section 2.2) is
 * expressed: `b = load(a.next)` then `load(b.data, addr_ready=b.ready)`.
 */

#ifndef MEMFWD_RUNTIME_MACHINE_HH
#define MEMFWD_RUNTIME_MACHINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hierarchy.hh"
#include "cache/prefetcher.hh"
#include "common/types.hh"
#include "core/forwarding_engine.hh"
#include "cpu/ooo_cpu.hh"
#include "mem/tagged_memory.hh"
#include "mem/tlb.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace memfwd
{

class AnalysisGate;
class FaultInjector;
class LayoutBackend;
class QuarantineAllocator;
struct LayoutBackendStats;

/** How the quarantining allocator bounds its arena (docs/API.md). */
enum class QuarantinePolicy
{
    /**
     * Reclaim the oldest entries ahead of need whenever live quarantine
     * bytes cross `watermark * capacity_bytes` (the default).
     */
    watermark,
    /**
     * Reclaim only when an insertion actually fails: quarantine fills
     * to capacity, then each free pays the retry/backoff path.
     */
    on_full
};

const char *quarantinePolicyName(QuarantinePolicy policy);

/** Bounds and policy of the quarantine arena (runtime/quarantine_allocator). */
struct QuarantineConfig
{
    bool enabled = false;

    /** Ceiling on bytes held in quarantine at once. */
    Addr capacity_bytes = 1ULL << 20;

    /** Fraction of capacity the watermark policy reclaims down to. */
    double watermark = 0.75;

    /** Reclaim-and-retry attempts before a free degrades to plain. */
    unsigned max_retries = 3;

    /** Base of the exponential compute backoff charged per retry. */
    Cycles retry_backoff_base = 64;

    QuarantinePolicy policy = QuarantinePolicy::watermark;

    bool operator==(const QuarantineConfig &) const = default;
};

/**
 * Whole-machine configuration.
 *
 * Fields are public and aggregate-initializable; the knobs the benches
 * sweep also have fluent setters, so a config reads as one expression:
 *
 *   Machine m(MachineConfig{}.lineBytes(64).hopLimit(8).ftc());
 */
struct MachineConfig
{
    using Mode = ForwardingConfig::Mode;

    HierarchyConfig hierarchy{};
    OooParams cpu{};
    ForwardingConfig forwarding{};

    /** TLB reach model; disabled by default (see mem/tlb.hh). */
    TlbConfig tlb{};

    /** Base of the simulated heap handed to SimAllocator. */
    Addr heap_base = 0x0000000010000000ULL;

    /** Size of the simulated heap region. */
    Addr heap_span = 1ULL << 32;

    /**
     * Materialize the per-word metadata plane (mem/metadata_plane.hh)
     * and attach it to the forwarding engine's temporal-safety check.
     * Off by default: a plane-off machine constructs no plane and the
     * engine's forwarded path tests one null pointer, so timing and
     * heap state are bit-identical to builds predating the plane.
     */
    bool metadata_plane = false;

    /** Quarantine arena bounds/policy; implies the metadata plane. */
    QuarantineConfig quarantine_cfg{};

    /**
     * Which layout backend mediates allocation/relocation for backend
     * clients (runtime/layout_backend.hh, makeLayoutBackend()).  The
     * default is the paper's mechanism; `handles` and `none` are the
     * rival safety mechanism and the no-relocation baseline.
     */
    BackendKind backend_kind = BackendKind::forwarding;

    /**
     * Workload regions executed in functional fast-forward mode:
     * references inside a matching Machine::enterRegion/exitRegion
     * bracket skip cache/CPU timing while keeping forwarding semantics
     * (chain walks, traps, quarantine, cycle detection) exact.  The
     * special name "all" fast-forwards everything.
     */
    std::vector<std::string> fast_forward_regions{};

    // ----- fluent setters (each returns *this for chaining) ------------

    /** Cache line size at both levels (the paper's sweep knob). */
    MachineConfig &
    lineBytes(unsigned bytes)
    {
        hierarchy.setLineBytes(bytes);
        return *this;
    }

    MachineConfig &
    l1Bytes(unsigned bytes)
    {
        hierarchy.l1d.size_bytes = bytes;
        return *this;
    }

    MachineConfig &
    memLatency(Cycles cycles)
    {
        hierarchy.memory.latency = cycles;
        return *this;
    }

    MachineConfig &
    hopLimit(unsigned limit)
    {
        forwarding.hop_limit = limit;
        return *this;
    }

    /** Enable/disable the forwarding translation cache. */
    MachineConfig &
    ftc(bool on = true)
    {
        forwarding.ftc_enabled = on;
        return *this;
    }

    /** FTC geometry; implies ftc(true). */
    MachineConfig &
    ftcGeometry(unsigned sets, unsigned ways)
    {
        forwarding.ftc_enabled = true;
        forwarding.ftc_sets = sets;
        forwarding.ftc_ways = ways;
        return *this;
    }

    /** Enable/disable lazy chain collapsing. */
    MachineConfig &
    collapse(bool on = true)
    {
        forwarding.collapse_enabled = on;
        return *this;
    }

    /** Fast-forward @p region ("all" = the whole run). */
    MachineConfig &
    fastForward(std::string region = "all")
    {
        fast_forward_regions.push_back(std::move(region));
        return *this;
    }

    /** Enable/disable the per-word metadata plane. */
    MachineConfig &
    metadataPlane(bool on = true)
    {
        metadata_plane = on;
        return *this;
    }

    /** Configure the quarantine arena; implies metadataPlane(true). */
    MachineConfig &
    quarantine(Addr capacity,
               QuarantinePolicy policy = QuarantinePolicy::watermark)
    {
        metadata_plane = true;
        quarantine_cfg.enabled = true;
        quarantine_cfg.capacity_bytes = capacity;
        quarantine_cfg.policy = policy;
        return *this;
    }

    /** Select the layout backend (forwarding | handles | none). */
    MachineConfig &
    backend(BackendKind kind)
    {
        backend_kind = kind;
        return *this;
    }

    bool operator==(const MachineConfig &) const = default;
};

// ---------------------------------------------------------------------
// Unified access API
// ---------------------------------------------------------------------

/** Kinds of reference the unified access entry point accepts. */
enum class RefKind : std::uint8_t
{
    load,             ///< ordinary load, subject to forwarding
    store,            ///< ordinary store, subject to forwarding
    read_fbit,        ///< Read_FBit (Figure 3)
    unforwarded_read, ///< Unforwarded_Read (Figure 3)
    unforwarded_write, ///< Unforwarded_Write (Figure 3)
    prefetch,         ///< non-binding block prefetch
    compute,          ///< N single-cycle ALU instructions
};

/**
 * One reference in the unified access API.  Build instances with the
 * named constructors (Access::load, Access::store, ...) — they keep the
 * call sites as readable as the old per-kind methods while funnelling
 * everything through one entry point that the batched loop shares.
 */
struct Access
{
    Addr addr = 0;
    /** Store data / Unforwarded_Write payload / prefetch line count /
     *  compute instruction count. */
    std::uint64_t value = 0;
    /** Cycle the address operand becomes available (dep threading). */
    Cycles addr_ready = 0;
    /** Slot holding the pointer being dereferenced (trap fixup). */
    Addr pointer_slot = 0;
    /** Static reference site for user-level traps. */
    SiteId site = no_site;
    /**
     * Provenance of the pointer being dereferenced: the id of the
     * object it was derived from (QuarantineAllocator::objectId), or 0
     * when unknown.  Feeds the temporal-safety classification when a
     * metadata plane is enabled — a reference resolving into
     * quarantined memory is a use-after-free if the ids match, an
     * out-of-bounds stray otherwise.  Ignored plane-off.
     */
    std::uint32_t object_id = 0;
    RefKind kind = RefKind::load;
    std::uint8_t size = wordBytes;
    /** Forwarding bit written by an unforwarded_write. */
    bool fbit = false;

    /** Chainable provenance tag: access(Access::load(...).objectId(id)). */
    Access &
    objectId(std::uint32_t id)
    {
        object_id = id;
        return *this;
    }

    static Access
    load(Addr addr, unsigned size, Cycles addr_ready = 0,
         SiteId site = no_site, Addr pointer_slot = 0)
    {
        Access a;
        a.addr = addr;
        a.addr_ready = addr_ready;
        a.pointer_slot = pointer_slot;
        a.site = site;
        a.kind = RefKind::load;
        a.size = static_cast<std::uint8_t>(size);
        return a;
    }

    static Access
    store(Addr addr, unsigned size, std::uint64_t value,
          Cycles addr_ready = 0, SiteId site = no_site,
          Addr pointer_slot = 0)
    {
        Access a;
        a.addr = addr;
        a.value = value;
        a.addr_ready = addr_ready;
        a.pointer_slot = pointer_slot;
        a.site = site;
        a.kind = RefKind::store;
        a.size = static_cast<std::uint8_t>(size);
        return a;
    }

    static Access
    readFBit(Addr addr, Cycles addr_ready = 0)
    {
        Access a;
        a.addr = addr;
        a.addr_ready = addr_ready;
        a.kind = RefKind::read_fbit;
        return a;
    }

    static Access
    unforwardedRead(Addr addr, Cycles addr_ready = 0)
    {
        Access a;
        a.addr = addr;
        a.addr_ready = addr_ready;
        a.kind = RefKind::unforwarded_read;
        return a;
    }

    static Access
    unforwardedWrite(Addr addr, std::uint64_t value, bool fbit,
                     Cycles addr_ready = 0)
    {
        Access a;
        a.addr = addr;
        a.value = value;
        a.addr_ready = addr_ready;
        a.kind = RefKind::unforwarded_write;
        a.fbit = fbit;
        return a;
    }

    static Access
    prefetch(Addr addr, unsigned lines, Cycles addr_ready = 0)
    {
        Access a;
        a.addr = addr;
        a.value = lines;
        a.addr_ready = addr_ready;
        a.kind = RefKind::prefetch;
        return a;
    }

    static Access
    compute(std::uint64_t n)
    {
        Access a;
        a.value = n;
        a.kind = RefKind::compute;
        return a;
    }
};

/**
 * Result of one reference through the unified entry point.  The leading
 * four fields mirror the (since removed) legacy LoadResult so
 * positional initialization carried over.
 */
struct AccessResult
{
    /** Loaded value; the forwarding bit (0/1) for read_fbit; the raw
     *  payload for unforwarded_read. */
    std::uint64_t value = 0;
    /** Completion cycle of the reference. */
    Cycles ready = 0;
    /** Forwarding hops this reference took. */
    unsigned hops = 0;
    /** Address the data was actually found (or landed) at. */
    Addr final_addr = 0;
    /** True if a user-level trap was delivered for this reference. */
    bool trapped = false;
};

class AccessBatch;
struct MemRef;

/** One simulated CPU + forwarding memory system. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg = {});
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    // ----- unified access entry point ----------------------------------

    /**
     * Execute one reference of any kind (runtime/ref_stream.hh has the
     * batched form).  This is the single timed entry point.
     */
    AccessResult access(const Access &a);

    /**
     * Drain @p batch in order, filling each MemRef's result.  The
     * tracer/fast-forward dispatch is hoisted out of the per-reference
     * loop, so large batches pay one branch per batch instead of
     * several per reference.
     */
    void run(AccessBatch &batch);

    // ----- fast-forward regions ----------------------------------------

    /**
     * Bracket a named workload phase (prefer RegionGuard).  While any
     * region named in MachineConfig::fast_forward_regions (or "all") is
     * open, references execute functionally: forwarding semantics —
     * chain walks, traps, quarantine, cycle detection — stay exact,
     * but cache/CPU timing is skipped and each reference retires as one
     * ALU instruction.
     */
    void enterRegion(std::string_view name);
    void exitRegion(std::string_view name);

    /** True while references are being fast-forwarded. */
    bool fastForwardActive() const { return ff_active_; }

    // The seven legacy per-kind entry points (load/store/readFBit/
    // unforwardedRead/unforwardedWrite/prefetch/compute) were removed
    // after their deprecation release; access() with the Access named
    // constructors is the one entry point.  docs/API.md has the
    // migration table.

    // ----- untimed (debug/test) access ---------------------------------

    /** Functional read following forwarding, no timing, no stats. */
    std::uint64_t peek(Addr addr, unsigned size) const;

    /** Functional write following forwarding, no timing, no stats. */
    void poke(Addr addr, unsigned size, std::uint64_t value);

    // ----- component access --------------------------------------------

    TaggedMemory &mem() { return mem_; }
    const TaggedMemory &mem() const { return mem_; }
    MemoryHierarchy &hierarchy() { return *hierarchy_; }
    const MemoryHierarchy &hierarchy() const { return *hierarchy_; }
    OooCpu &cpu() { return *cpu_; }
    const OooCpu &cpu() const { return *cpu_; }
    ForwardingEngine &forwarding() { return *fwd_; }
    const ForwardingEngine &forwarding() const { return *fwd_; }
    Prefetcher &prefetcher() { return *prefetcher_; }
    Tlb &tlb() { return *tlb_; }
    const Tlb &tlb() const { return *tlb_; }

    const MachineConfig &config() const { return cfg_; }

    /** Execution time so far, in cycles. */
    Cycles cycles() const { return cpu_->cycles(); }

    // ----- tracing -----------------------------------------------------

    /**
     * The machine's event tracer.  Register any number of
     * obs::TraceSinks to observe demand references, chain walks,
     * relocations, traps, L1 misses and rollbacks; with no sink
     * registered nothing is emitted and nothing is paid.
     */
    obs::Tracer &tracer() { return tracer_; }
    const obs::Tracer &tracer() const { return tracer_; }

    /**
     * Attach (or clear, with nullptr) a fault injector.  The engine
     * consults it at resolve time; the runtime (allocator, relocation)
     * consults it through faultInjector().  Not owned.
     */
    void setFaultInjector(FaultInjector *faults);

    FaultInjector *faultInjector() const { return faults_; }

    /**
     * Attach (or clear, with nullptr) a static-analysis gate
     * (src/analysis).  Layout optimizers submit RelocationPlans through
     * it before touching memory; in enforce mode every
     * unforwardedRead/Write is cross-checked against the active plan's
     * proven ranges.  With no gate attached (the default) the fast
     * paths test one pointer and pay nothing.  Not owned.
     */
    void setAnalysisGate(AnalysisGate *gate);

    AnalysisGate *analysisGate() const { return gate_; }

    /**
     * Attach (or clear, with nullptr) the quarantining allocator so
     * metrics() can export its counters under the "quarantine" node.
     * QuarantineAllocator registers itself on construction.  Not owned.
     */
    void setQuarantineAllocator(QuarantineAllocator *quarantine)
    {
        quarantine_ = quarantine;
    }

    QuarantineAllocator *quarantineAllocator() const { return quarantine_; }

    /**
     * Attach (or clear, with nullptr) the active layout backend so
     * metrics() exports its mediation counters under "backend" and
     * memfwd_sim can print the per-backend summary line.
     * makeLayoutBackend() registers the backend it builds; clearing
     * (which LayoutBackend's destructor does) snapshots the counters so
     * they outlive the backend — workloads construct backends on their
     * own stack.  Not owned.
     */
    void setLayoutBackend(LayoutBackend *backend);

    LayoutBackend *layoutBackend() const { return backend_; }

    /** True if a layout backend is, or has been, attached. */
    bool
    backendSeen() const
    {
        return backend_ != nullptr || backend_snapshot_ != nullptr;
    }

    /** Kind of the attached (or last-detached) backend. */
    BackendKind backendKindSeen() const;

    /** Counters of the attached (or last-detached) backend. */
    LayoutBackendStats backendStats() const;

    // ----- reference-level forwarding stats (Figure 10(c)) -------------

    std::uint64_t loads() const { return loads_; }
    std::uint64_t stores() const { return stores_; }
    std::uint64_t loadsForwarded() const { return loads_forwarded_; }
    std::uint64_t storesForwarded() const { return stores_forwarded_; }

    /**
     * References executed through the unified entry point (every kind,
     * including compute).  The host.refs_per_sec gauge divides the delta
     * of this counter by host wall time.
     */
    std::uint64_t refsExecuted() const { return refs_; }

    /**
     * The machine's full hierarchical metrics tree: every component's
     * counters, gauges and distributions under stable dotted names
     * (docs/METRICS.md); `metrics().dump(os)` prints them as text.
     */
    obs::MetricsNode metrics() const;

  private:
    /** TLB lookup applied to a reference's final address. */
    Cycles translate(Addr addr, Cycles now);

    /** How the access kernel executes: fast-forward, timed, traced. */
    enum class Exec
    {
        functional, ///< forwarding semantics only; ALU retirement batched
        timed,      ///< full cache/CPU timing
        traced      ///< timed, emitting per-reference trace events
    };

    /**
     * The one per-reference access kernel behind access() and run().
     * Functional execution accumulates each reference's ALU retirement
     * into @p alu_acc instead of hitting the Rob per reference —
     * pure-ALU retirement is order-independent, so a batch may retire
     * its whole count in one aluBurst() with bit-identical cycles.
     */
    template <Exec E>
    AccessResult step(const Access &a, std::uint64_t &alu_acc);

    /** step() for an ordinary load or store, which follows forwarding. */
    template <Exec E>
    AccessResult reference(const Access &a, bool is_load,
                           std::uint64_t &alu_acc);

    /** Timing of an ISA-extension access to the word itself. */
    template <Exec E>
    Cycles touchWord(const Access &a, std::uint64_t &alu_acc);

    /** The batch loop: drain @p n refs through step<E>(). */
    template <Exec E> void runRefs(MemRef *refs, std::size_t n);

    /** Where @p addr lands after following its chain (peek/poke). */
    Addr chainTail(Addr addr) const;

    bool
    regionFastForwarded(std::string_view name) const
    {
        if (ff_all_)
            return true;
        for (const std::string &r : cfg_.fast_forward_regions) {
            if (r == name)
                return true;
        }
        return false;
    }

    MachineConfig cfg_;
    TaggedMemory mem_;
    std::unique_ptr<MemoryHierarchy> hierarchy_;
    std::unique_ptr<OooCpu> cpu_;
    std::unique_ptr<ForwardingEngine> fwd_;
    std::unique_ptr<Prefetcher> prefetcher_;
    std::unique_ptr<Tlb> tlb_;
    FaultInjector *faults_ = nullptr;
    AnalysisGate *gate_ = nullptr;
    QuarantineAllocator *quarantine_ = nullptr;
    LayoutBackend *backend_ = nullptr;

    /** Counters of the last detached backend (see setLayoutBackend). */
    std::unique_ptr<LayoutBackendStats> backend_snapshot_;
    BackendKind backend_snapshot_kind_ = BackendKind::forwarding;

    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t loads_forwarded_ = 0;
    std::uint64_t stores_forwarded_ = 0;
    std::uint64_t refs_ = 0;

    bool ff_all_ = false;     ///< "all" appears in fast_forward_regions
    unsigned ff_depth_ = 0;   ///< open fast-forwarded regions
    bool ff_active_ = false;  ///< ff_depth_ > 0 || ff_all_

    obs::Tracer tracer_;
};

/** RAII bracket for Machine::enterRegion/exitRegion. */
class RegionGuard
{
  public:
    RegionGuard(Machine &machine, std::string_view name)
        : machine_(machine), name_(name)
    {
        machine_.enterRegion(name_);
    }

    ~RegionGuard() { machine_.exitRegion(name_); }

    RegionGuard(const RegionGuard &) = delete;
    RegionGuard &operator=(const RegionGuard &) = delete;

  private:
    Machine &machine_;
    std::string name_;
};

} // namespace memfwd

#endif // MEMFWD_RUNTIME_MACHINE_HH
