#include "cases.hh"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/json.hh"
#include "runtime/layout_backend.hh"

using namespace memfwd;

namespace perfbench
{

namespace
{

/** The stated scales.  Each keeps one pass of the workload's cases
 *  under about two seconds, so a run takes the median over ten or more
 *  passes. */
constexpr double paper_scale = 0.1;
constexpr double health_scale = 0.25; // health relocates only at >= 0.2
constexpr double smv_scale = 1.0;
constexpr double kv_scale = 1.0;

/** Scale of the committed bench baselines (bench/baseline/). */
constexpr double baseline_scale = 0.05;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

Case
makeCase(std::string label, std::string group, std::string workload,
         double scale, std::uint64_t seed, bool layout_opt,
         MachineConfig machine)
{
    Case c;
    c.label = std::move(label);
    c.group = std::move(group);
    c.cfg.workload = std::move(workload);
    c.cfg.params.scale = scale;
    c.cfg.params.seed = seed;
    c.cfg.variant.layout_opt = layout_opt;
    c.cfg.machine = std::move(machine);
    return c;
}

MachineConfig
kvMachine(BackendKind kind)
{
    return MachineConfig{}.lineBytes(64).backend(kind);
}

} // namespace

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

BenchWorkload
makeBenchWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    // --seed picks the inputs; the simulator only ever sees the
    // generated WorkloadParams.  The baseline slice keeps the seed the
    // committed baselines were made with.
    const std::uint64_t params_seed = splitmix64(seed);
    const std::uint64_t baseline_seed = WorkloadParams{}.seed;
    const double shrink = smoke ? 0.05 : 1.0;

    BenchWorkload w;
    w.name = name;
    if (name == "paper_timed") {
        w.baseline_file = "BENCH_fig5_exec_breakdown.json";
        for (const std::string &app : figure5Workloads()) {
            for (bool opt : {false, true}) {
                const char *v = opt ? "L" : "N";
                const double scale =
                    app == "health" ? health_scale : paper_scale;
                w.cases.push_back(makeCase(
                    app + "/" + v, app, app, scale * shrink,
                    params_seed, opt, MachineConfig{}.lineBytes(32)));
                w.slice.push_back(makeCase(
                    app + "/32B/" + v, app, app, baseline_scale,
                    baseline_seed, opt, MachineConfig{}.lineBytes(32)));
            }
        }
    } else if (name == "stale_fwd") {
        w.baseline_file = "BENCH_fig10_smv_forwarding.json";
        for (bool opt : {false, true}) {
            const char *v = opt ? "L" : "N";
            w.cases.push_back(makeCase(
                std::string("smv/") + v, "smv", "smv", smv_scale * shrink,
                params_seed, opt,
                MachineConfig{}.lineBytes(32).fastForward("all")));
            w.slice.push_back(makeCase(v, "smv", "smv", baseline_scale,
                                       baseline_seed, opt,
                                       MachineConfig{}.lineBytes(32)));
        }
    } else if (name == "kv_churn") {
        w.baseline_file = "BENCH_ext_kv_server.json";
        // `none` first: it is the control layout_speedup divides by.
        for (BackendKind kind : {BackendKind::none, BackendKind::forwarding,
                                 BackendKind::handles}) {
            const std::string b = backendKindName(kind);
            w.cases.push_back(makeCase("kv_server/" + b, "kv", "kv_server",
                                       kv_scale * shrink, params_seed, true,
                                       kvMachine(kind)));
        }
        const std::pair<const char *, BackendKind> slice_cases[] = {
            {"none", BackendKind::none},
            {"forwarding", BackendKind::forwarding},
            {"forwarding_ftc", BackendKind::forwarding},
            {"handles", BackendKind::handles},
        };
        for (const auto &[label, kind] : slice_cases) {
            MachineConfig mc = kvMachine(kind);
            if (std::string(label) == "forwarding_ftc")
                mc.ftcGeometry(64, 4);
            w.slice.push_back(makeCase(label, "kv", "kv_server",
                                       baseline_scale, baseline_seed, true,
                                       mc));
        }
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

LiveRun
runCase(const RunConfig &cfg, AnalysisGate *gate)
{
    LiveRun r;
    const double t0 = now();
    r.machine = std::make_unique<Machine>(cfg.machine);
    r.workload = makeWorkload(cfg.workload, cfg.params);
    const double t1 = now();

    if (cfg.trace_sink)
        r.machine->tracer().addSink(cfg.trace_sink);
    r.machine->setAnalysisGate(gate);
    r.workload->run(*r.machine, cfg.variant);
    const double t2 = now();
    if (cfg.trace_sink)
        r.machine->tracer().removeSink(cfg.trace_sink);
    r.machine->setAnalysisGate(nullptr);

    const Machine &m = *r.machine;
    SimCounters &s = r.sample.sim;
    s.cycles = m.cycles();
    s.instructions = m.cpu().instructions();
    s.refs = m.refsExecuted();
    s.checksum = r.workload->checksum();
    s.loads = m.loads();
    s.stores = m.stores();
    s.loads_forwarded = m.loadsForwarded();
    s.stores_forwarded = m.storesForwarded();
    r.sample.setup_s = t1 - t0;
    r.sample.run_s = t2 - t1;
    r.sample.ok = true;
    return r;
}

void
reject(Sample &s, const std::string &label, const std::string &why)
{
    s.ok = false;
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", label.c_str(),
                 why.c_str());
}

void
checkGroups(const std::vector<Case> &cases, std::vector<Sample> &samples)
{
    std::map<std::string, std::size_t> first;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        if (!samples[i].ok)
            continue;
        const auto [it, fresh] = first.try_emplace(cases[i].group, i);
        const Sample &ref = samples[it->second];
        if (!fresh && ref.sim.checksum != samples[i].sim.checksum)
            reject(samples[i], cases[i].label,
                   "checksum " + std::to_string(samples[i].sim.checksum) +
                       " differs from " + cases[it->second].label + "'s " +
                       std::to_string(ref.sim.checksum));
    }
}

std::vector<Sample>
runPass(const std::vector<Case> &cases)
{
    std::vector<Sample> out(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        try {
            out[i] = runCase(cases[i].cfg).sample;
        } catch (const std::exception &e) {
            reject(out[i], cases[i].label, std::string("threw: ") + e.what());
        }
    }
    checkGroups(cases, out);
    return out;
}

std::vector<Sample>
checkBaseline(const BenchWorkload &w, const std::string &baseline_dir)
{
    const std::string path = baseline_dir + "/" + w.baseline_file;
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot read baseline " + path);
    std::stringstream text;
    text << is.rdbuf();
    const obs::Json doc = obs::Json::parse(text.str());
    std::map<std::string, const obs::Json *> by_label;
    for (const obs::Json &c : doc.find("cases")->items())
        by_label[c.find("label")->asString()] = &c;

    std::vector<Sample> got = runPass(w.slice);
    for (std::size_t i = 0; i < w.slice.size(); ++i) {
        const std::string &label = w.slice[i].label;
        const auto it = by_label.find(label);
        if (it == by_label.end()) {
            reject(got[i], label, "no such case in " + w.baseline_file);
            continue;
        }
        const std::uint64_t cycles = it->second->find("cycles")->asU64();
        const std::uint64_t checksum =
            it->second->find("checksum")->asU64();
        if (got[i].ok &&
            (got[i].sim.cycles != cycles || got[i].sim.checksum != checksum))
            reject(got[i], label,
                   "cycles " + std::to_string(got[i].sim.cycles) +
                       " checksum " + std::to_string(got[i].sim.checksum) +
                       " differ from the committed cycles " +
                       std::to_string(cycles) + " checksum " +
                       std::to_string(checksum));
    }
    return got;
}

} // namespace perfbench
