/**
 * @file
 * Extension: three layout-safety mechanisms compete on a production
 * KV/session-cache workload.
 *
 * The kv_server workload routes every reference through
 * LayoutBackend::resolve(), so the identical Zipf-skewed get/put/expire
 * trace runs under:
 *
 *   none            no relocation — compaction refused, fragmentation
 *                   accrues (the honest baseline);
 *   forwarding      the paper's mechanism — online compaction leaves
 *                   forwarding chains behind stale refs (hops/ref);
 *   forwarding+ftc  same, with the translation cache amortizing the
 *                   chain walks;
 *   handles         the classic alternative — every resolve pays a
 *                   dependent handle-table load, relocation is one
 *                   slot update (derefs/ref, zero hops).
 *
 * Acceptance (exit code): all four cases compute the identical
 * checksum — the mechanisms may differ in time and space, never in
 * answers.  Each case carries top-level cycles_per_op,
 * hops_or_derefs_per_ref, fragmentation and hit_rate fields; the CI
 * lane gates on host.refs_per_sec via bench_diff --require-metric.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "runtime/layout_backend.hh"
#include "runtime/machine.hh"
#include "workloads/kv_server.hh"

using namespace memfwd;
using namespace memfwd::bench;

namespace
{

/**
 * Run the trace under one backend, print its row and record it as
 * @p label; returns the checksum.
 */
std::uint64_t
runKv(Report &report, const std::string &label, BackendKind kind, bool ftc)
{
    MachineConfig mc = machineAt(64);
    mc.backend(kind);
    if (ftc)
        mc.ftcGeometry(64, 4);

    WorkloadParams params;
    params.scale = benchScale();

    Machine machine(mc);
    KvServer kv(params);
    WorkloadVariant variant;
    variant.layout_opt = true; // online compaction where supported
    kv.run(machine, variant);

    const KvStats &st = kv.kvStats();
    const LayoutBackendStats backend = machine.backendStats();
    const auto ratio = [](double num, std::uint64_t den) {
        return den ? num / double(den) : 0.0;
    };
    // The locality tax of each mechanism, per mediated get reference:
    // forwarding pays chain hops on refs made stale by compaction,
    // handles pays one table deref per resolve.
    const double tax = ratio(kind == BackendKind::handles
                                 ? double(backend.handle_derefs)
                                 : double(st.hops_total),
                             st.get_refs);
    const double cyc_per_op = ratio(double(machine.cycles()), st.ops);
    const double hit_rate = ratio(double(st.hits), st.gets);
    const double frag_avg = ratio(st.frag_sum, st.frag_samples);

    std::printf("%-15s %14s %9.1f %7.1f%% %10.4f %6.1f%% %6llu\n",
                label.c_str(), withCommas(machine.cycles()).c_str(),
                cyc_per_op, 100.0 * hit_rate, tax, 100.0 * frag_avg,
                static_cast<unsigned long long>(st.compacted_objects));
    report.addCase(label, machine.cycles(), machine.cpu().instructions(),
                   kv.checksum(), obs::MetricsNode{},
                   machine.refsExecuted(),
                   {{"cycles_per_op", cyc_per_op},
                    {"hops_or_derefs_per_ref", tax},
                    {"fragmentation", frag_avg},
                    {"fragmentation_final", st.frag_final},
                    {"hit_rate", hit_rate},
                    {"evictions", double(st.evictions)},
                    {"compacted_objects", double(st.compacted_objects)},
                    {"relocation_refusals", double(backend.refusals)}});
    return kv.checksum();
}

} // namespace

int
bench::ext_kv_server(Report &report)
{
    header("Extension: KV/session cache under three layout backends",
           "same Zipf get/put/expire trace; forwarding vs handle "
           "indirection vs no relocation");

    std::printf("%-15s %14s %9s %8s %10s %7s %6s\n", "backend", "cycles",
                "cyc/op", "hit%", "tax/ref", "frag%", "moved");
    const std::uint64_t checksum =
        runKv(report, "none", BackendKind::none, false);
    bool ok =
        runKv(report, "forwarding", BackendKind::forwarding, false) ==
        checksum;
    ok = runKv(report, "forwarding_ftc", BackendKind::forwarding, true) ==
             checksum &&
         ok;
    ok = runKv(report, "handles", BackendKind::handles, false) == checksum &&
         ok;

    std::printf("\ntakeaway: the three safety mechanisms answer "
                "identically (checksum %llu) and differ only in what "
                "they pay — handles taxes every reference, forwarding "
                "taxes only the references a relocation made stale, and "
                "refusing to relocate leaves the fragmentation.%s\n",
                static_cast<unsigned long long>(checksum),
                ok ? "" : "  CHECKSUM MISMATCH — ACCEPTANCE FAILED");
    return ok ? 0 : 1;
}
