#include "traced.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "analysis/gate.hh"
#include "cache/hierarchy.hh"
#include "cpu/ooo_cpu.hh"
#include "mem/tlb.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/ref_stream.hh"
#include "workloads/kv_server.hh"

using namespace memfwd;

namespace perfbench
{

int
SpanLog::open(std::string name, int parent)
{
    spans_.push_back({std::move(name), now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::close(int id)
{
    spans_[static_cast<std::size_t>(id)].end = now();
}

double
SpanLog::total(const std::string &name, std::size_t from) const
{
    double s = 0.0;
    for (std::size_t i = from; i < spans_.size(); ++i)
        s += spans_[i].name == name ? spans_[i].end - spans_[i].start : 0.0;
    return s;
}

void
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write spans to " + path);
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"name\":\"" << s.name << "\",\"start_ns\":"
           << static_cast<long long>((s.start - t0) * 1e9)
           << ",\"end_ns\":" << static_cast<long long>((s.end - t0) * 1e9)
           << "}\n";
    }
}

namespace
{

/** Keeps replay results observable so no replay loop is optimized out. */
volatile std::uint64_t g_sink = 0;

/** One captured demand reference. */
struct Ref
{
    Addr initial = 0;
    Addr final_addr = 0;
    Cycles ts = 0;
    /** Cache-replay latency, consumed by the CPU replay. */
    std::uint32_t latency = 0;
    AccessType type = AccessType::load;
    std::uint8_t size = 0;
    bool l1_miss = false;
};

/** Records the demand-reference stream of one run. */
class CaptureSink : public obs::TraceSink
{
  public:
    void
    emit(const obs::TraceEvent &e) override
    {
        if (e.kind == obs::EventKind::reference)
            refs.push_back({e.addr, e.addr2, e.ts, 0, e.access,
                            static_cast<std::uint8_t>(e.size), false});
    }

    std::vector<Ref> refs;
};

/** Counter at dotted @p path in @p root (0 if absent). */
std::uint64_t
counterAt(const obs::MetricsNode &root, const std::string &path)
{
    const obs::MetricsNode *n = &root;
    std::size_t from = 0;
    for (std::size_t dot; (dot = path.find('.', from)) != std::string::npos;
         from = dot + 1) {
        n = n->findChild(path.substr(from, dot - from));
        if (!n)
            return 0;
    }
    return n->counterValue(path.substr(from));
}

/** The metrics-tree counters the per-layer ratios are built from. */
const char *const tree_counters[] = {
    "fwd.hops",
    "fwd.hop_l1_misses",
    "refs.loads",
    "refs.stores",
    "l1d.load_hits",
    "l1d.load_partial_misses",
    "l1d.load_full_misses",
    "l1d.store_hits",
    "l1d.store_partial_misses",
    "l1d.store_full_misses",
    "l2.load_hits",
    "l2.load_partial_misses",
    "l2.load_full_misses",
    "l2.store_hits",
    "l2.store_partial_misses",
    "l2.store_full_misses",
    "traffic.l1_l2_bytes",
    "traffic.l2_mem_bytes",
    "lsq.speculations",
    "slots.busy",
    "slots.load_stall",
    "slots.store_stall",
    "slots.inst_stall",
    "backend.relocated_words",
    "backend.compactions",
    "backend.handle_derefs",
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Run @p body inside a span called @p name. */
template <typename F>
void
inSpan(SpanLog &spans, const std::string &name, int parent, F &&body)
{
    const int id = spans.open(name, parent);
    body();
    spans.close(id);
}

void
replayMem(const std::vector<Ref> &refs, const TaggedMemory &mem)
{
    std::uint64_t acc = 0;
    for (const Ref &r : refs)
        acc += mem.readBytes(r.final_addr, r.size);
    g_sink = acc;
}

void
replayTlb(const std::vector<Ref> &refs, Tlb &tlb)
{
    std::uint64_t acc = 0;
    for (const Ref &r : refs)
        acc += tlb.access(r.final_addr, r.ts);
    g_sink = acc;
}

void
replayCore(const std::vector<Ref> &refs, ForwardingEngine &fwd)
{
    std::uint64_t acc = 0;
    for (const Ref &r : refs)
        acc += fwd.resolveFunctional(r.initial, r.type).final_addr;
    g_sink = acc;
}

void
replayCache(std::vector<Ref> &refs, MemoryHierarchy &hier)
{
    for (Ref &r : refs) {
        const HierarchyResult h = hier.access(r.final_addr, r.type, r.ts);
        r.latency = static_cast<std::uint32_t>(h.ready - r.ts);
        r.l1_miss = h.l1 != MissKind::hit;
    }
}

void
replayCpu(const std::vector<Ref> &refs, OooCpu &cpu)
{
    std::uint64_t acc = 0;
    for (const Ref &r : refs) {
        const bool load = r.type == AccessType::load;
        const MemIssue mi = cpu.issueMem(r.ts, load);
        const Cycles done = mi.issue + r.latency;
        acc += load ? cpu.finishLoad(mi, done, 0, r.l1_miss,
                                     wordAlign(r.initial),
                                     wordAlign(r.final_addr), 1)
                    : cpu.finishStore(mi, done, 0, r.l1_miss,
                                      wordAlign(r.initial),
                                      wordAlign(r.final_addr), 1);
    }
    g_sink = acc;
}

void
replayRuntime(const std::vector<Ref> &refs, Machine &machine)
{
    // Stores write 0: the replay runs after every output was read, and
    // its loads take their addresses from the capture, not from memory.
    // Each reference is held to its captured issue cycle, so the timed
    // model sees the capture's spacing instead of a burst.
    const Cycles base = machine.cycles();
    AccessBatch batch;
    for (const Ref &r : refs) {
        batch.push(r.type == AccessType::load
                       ? Access::load(r.initial, r.size, base + r.ts)
                       : Access::store(r.initial, r.size, 0, base + r.ts));
        if (batch.full()) {
            machine.run(batch);
            batch.clear();
        }
    }
    machine.run(batch);
}

void
replayGate(const std::vector<RelocationPlan> &plans)
{
    AnalysisGate gate(AnalyzeMode::plan);
    gate.setKeepGoing(true);
    for (const RelocationPlan &p : plans) {
        gate.submit(p);
        gate.planDone();
    }
    g_sink = gate.stats().plans_submitted;
}

} // namespace

TracedResult
runTraced(const BenchWorkload &w, SpanLog &spans)
{
    TracedResult out;
    std::map<std::string, double> tree;
    std::uint64_t refs_total = 0;
    std::uint64_t tlb_hits = 0;
    std::uint64_t tlb_misses = 0;
    std::size_t max_pages = 0;
    double frag_sum = 0.0;
    unsigned frag_cases = 0;
    const bool fast_forward = w.fastForward();

    const std::size_t first_span = spans.size();
    const std::string root_name = "traced_run " + w.name;
    const int root = spans.open(root_name, -1);
    std::vector<Sample> untraced(w.cases.size());
    std::vector<Sample> captured(w.cases.size());
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
        const Case &c = w.cases[i];
        const int cs = spans.open("case " + c.label, root);
        LiveRun u;
        LiveRun cap;
        CaptureSink sink;
        AnalysisGate gate(AnalyzeMode::plan);
        gate.setKeepGoing(true);
        gate.setRetainPlans(true);
        std::uint64_t gated_checksum = 0;
        try {
            inSpan(spans, "untraced", cs, [&] { u = runCase(c.cfg); });
            // Fast-forward emits no trace events, so the capture always
            // runs the timed model; the architectural stream is the same.
            RunConfig timed = c.cfg;
            timed.machine.fast_forward_regions.clear();
            timed.trace_sink = &sink;
            inSpan(spans, "capture", cs, [&] { cap = runCase(timed); });
            // A gate changes the instruction stream (proven sites use
            // unforwarded accesses), so plans come from a run of their own.
            inSpan(spans, "plans", cs, [&] {
                gated_checksum = runCase(c.cfg, &gate).sample.sim.checksum;
            });
        } catch (const std::exception &e) {
            reject(untraced[i], c.label, std::string("threw: ") + e.what());
            spans.close(cs);
            continue;
        }
        untraced[i] = u.sample;
        captured[i] = cap.sample;
        if (gated_checksum != u.sample.sim.checksum)
            reject(captured[i], c.label,
                   "the run with an analysis gate computed another checksum");

        // Tracing must not change what is simulated.
        const SimCounters &a = u.sample.sim;
        const SimCounters &b = cap.sample.sim;
        const bool same = fast_forward
                              ? a.checksum == b.checksum &&
                                    a.loads == b.loads &&
                                    a.stores == b.stores &&
                                    a.loads_forwarded == b.loads_forwarded &&
                                    a.stores_forwarded == b.stores_forwarded
                              : a == b;
        if (!same)
            reject(captured[i], c.label,
                   "the traced capture simulated different results");

        const obs::MetricsNode m = cap.machine->metrics();
        for (const char *path : tree_counters)
            tree[path] += double(counterAt(m, path));
        if (const auto *kv = dynamic_cast<const KvServer *>(
                cap.workload.get())) {
            frag_sum += kv->kvStats().frag_final;
            ++frag_cases;
        }
        max_pages = std::max(max_pages, u.machine->mem().pagesAllocated());
        cap.machine.reset();

        std::vector<Ref> &refs = sink.refs;
        refs_total += refs.size();
        const MachineConfig &mc = c.cfg.machine;
        inSpan(spans, "mem.read", cs,
               [&] { replayMem(refs, u.machine->mem()); });
        TlbConfig tc = mc.tlb;
        tc.enabled = true;
        Tlb tlb(tc);
        inSpan(spans, "mem.tlb.access", cs, [&] { replayTlb(refs, tlb); });
        tlb_hits += tlb.hits();
        tlb_misses += tlb.misses();
        inSpan(spans, "core.resolve", cs,
               [&] { replayCore(refs, u.machine->forwarding()); });
        MemoryHierarchy hier(mc.hierarchy);
        inSpan(spans, "cache.access", cs, [&] { replayCache(refs, hier); });
        OooCpu cpu(mc.cpu);
        inSpan(spans, "cpu.ref", cs, [&] { replayCpu(refs, cpu); });
        inSpan(spans, "analysis.submit", cs,
               [&] { replayGate(gate.plans()); });
        // Last: its stores change the untraced machine's memory.
        inSpan(spans, "runtime.access", cs,
               [&] { replayRuntime(refs, *u.machine); });
        spans.close(cs);
    }
    spans.close(root);
    checkGroups(w.cases, untraced);
    checkGroups(w.cases, captured);
    out.samples = untraced;
    out.samples.insert(out.samples.end(), captured.begin(), captured.end());

    const double n = double(refs_total);
    const auto ns = [&](const char *span) {
        return ratio(spans.total(span, first_span) * 1e9, n);
    };
    const auto at = [&](const std::string &path) { return tree[path]; };
    const double demand = at("refs.loads") + at("refs.stores");
    const auto missRate = [&](const std::string &c) {
        const double misses =
            at(c + ".load_partial_misses") + at(c + ".load_full_misses") +
            at(c + ".store_partial_misses") + at(c + ".store_full_misses");
        return ratio(misses,
                     misses + at(c + ".load_hits") + at(c + ".store_hits"));
    };
    const double slots = at("slots.busy") + at("slots.load_stall") +
                         at("slots.store_stall") + at("slots.inst_stall");

    // The layers the measured path calls per reference: fast-forward
    // skips the cache and the CPU model, and the TLB is off by default.
    double layers = ns("mem.read") + ns("core.resolve");
    if (!fast_forward)
        layers += ns("cache.access") + ns("cpu.ref");
    const double untraced_s = spans.total("untraced", first_span);
    // Everything the traced run did besides its untraced runs.
    const double traced_s = spans.total(root_name, first_span) - untraced_s;

    out.metrics = {
        {"mem.read_ns", ns("mem.read"), "ns"},
        {"mem.pages", double(max_pages), "pages"},
        {"mem.tlb.access_ns", ns("mem.tlb.access"), "ns"},
        {"mem.tlb.miss_rate",
         ratio(double(tlb_misses), double(tlb_hits + tlb_misses)), "ratio"},
        {"core.resolve_ns", ns("core.resolve"), "ns"},
        {"core.hops_per_ref", ratio(at("fwd.hops"), demand), "hops/ref"},
        {"core.hop_l1_miss_rate",
         ratio(at("fwd.hop_l1_misses"), at("fwd.hops")), "ratio"},
        {"cache.access_ns", ns("cache.access"), "ns"},
        {"cache.l1d.miss_rate", missRate("l1d"), "ratio"},
        {"cache.l2.miss_rate", missRate("l2"), "ratio"},
        {"cache.bytes_per_ref",
         ratio(at("traffic.l1_l2_bytes") + at("traffic.l2_mem_bytes"),
               demand),
         "B/ref"},
        {"cpu.ref_ns", ns("cpu.ref"), "ns"},
        {"cpu.lsq.speculations_per_load",
         ratio(at("lsq.speculations"), at("refs.loads")), "ratio"},
        {"cpu.slots.load_stall_share", ratio(at("slots.load_stall"), slots),
         "ratio"},
        {"cpu.slots.busy_share", ratio(at("slots.busy"), slots), "ratio"},
        {"runtime.access_ns", ns("runtime.access"), "ns"},
        {"runtime.dispatch_ns", ns("runtime.access") - layers, "ns"},
        {"runtime.relocated_words", at("backend.relocated_words"), "count"},
        {"runtime.backend.compactions", at("backend.compactions"), "count"},
        {"runtime.backend.handle_derefs_per_ref",
         ratio(at("backend.handle_derefs"), demand), "ratio"},
        {"runtime.frag_final", ratio(frag_sum, double(frag_cases)), "ratio"},
        {"analysis.submit_ns", ns("analysis.submit"), "ns"},
        {"obs.trace_overhead", ratio(traced_s, untraced_s), "ratio"},
    };
    return out;
}

} // namespace perfbench
