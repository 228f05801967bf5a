#include "workloads/driver.hh"

namespace memfwd
{

RunResult
runWorkload(const RunConfig &cfg)
{
    Machine machine(cfg.machine);
    if (cfg.trace_sink)
        machine.tracer().addSink(cfg.trace_sink);
    auto workload = makeWorkload(cfg.workload, cfg.params);
    workload->run(machine, cfg.variant);

    RunResult r;
    r.workload = cfg.workload;
    r.variant = cfg.variant;

    r.cycles = machine.cycles();
    r.instructions = machine.cpu().instructions();
    r.stalls = machine.cpu().stalls();

    const auto &l1 = machine.hierarchy().l1d().stats();
    r.load_partial_misses = l1.load_partial_misses;
    r.load_full_misses = l1.load_full_misses;
    r.store_misses = l1.storeMisses();
    r.l1_l2_bytes = machine.hierarchy().l1L2Bytes();
    r.l2_mem_bytes = machine.hierarchy().l2MemBytes();

    r.loads = machine.loads();
    r.stores = machine.stores();
    r.loads_forwarded = machine.loadsForwarded();
    r.stores_forwarded = machine.storesForwarded();

    const auto &rl = machine.cpu().refLatency();
    r.avg_load_cycles = rl.avgLoadCycles();
    r.avg_store_cycles = rl.avgStoreCycles();
    r.avg_load_forward_cycles =
        rl.loads ? double(rl.load_forward_cycles) / double(rl.loads) : 0.0;
    r.avg_store_forward_cycles =
        rl.stores ? double(rl.store_forward_cycles) / double(rl.stores)
                  : 0.0;

    r.lsq_speculations = machine.cpu().lsq().speculations();
    r.lsq_violations = machine.cpu().lsq().violations();

    r.checksum = workload->checksum();
    r.space_overhead_bytes = workload->spaceOverheadBytes();
    r.refs = machine.refsExecuted();

    r.prefetches_issued = machine.prefetcher().issued();
    r.useful_prefetches = l1.useful_prefetches;

    r.metrics = machine.metrics();

    return r;
}

} // namespace memfwd
