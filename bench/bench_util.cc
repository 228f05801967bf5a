#include "bench_util.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/logging.hh"

namespace memfwd::bench
{

namespace
{

Report *current_report = nullptr;

/** One configuration runCase() simulated, and the case that recorded it. */
struct MemoEntry
{
    RunConfig cfg;
    RunResult result;
    std::string origin; ///< "<bench>/<label>"
    double wall_ms;
};

std::vector<MemoEntry> memo;

const MemoEntry *
findRun(const RunConfig &cfg)
{
    if (cfg.trace_sink)
        return nullptr;
    for (const MemoEntry &m : memo)
        if (m.cfg == cfg)
            return &m;
    return nullptr;
}

std::string
variantLabel(const WorkloadVariant &v)
{
    std::string s = v.layout_opt ? "L" : "N";
    if (v.prefetch)
        s += "+pf" + std::to_string(v.prefetch_block);
    return s;
}

/**
 * One case (docs/METRICS.md).  The host-speed gauges vary across
 * machines, so scripts/bench_diff.py treats them as advisory —
 * present-and-tracked, never a pass/fail gate.
 */
obs::Json
caseJson(const std::string &label, const std::string &workload,
         const std::string &variant, std::uint64_t cycles,
         std::uint64_t instructions, std::uint64_t checksum,
         const obs::MetricsNode &metrics, std::uint64_t refs,
         double wall_ms)
{
    obs::Json h = obs::Json::object();
    h["refs"] = obs::Json::number(refs);
    h["wall_ms"] = obs::Json::real(wall_ms);
    const double rps =
        (refs && wall_ms > 0.0) ? double(refs) * 1000.0 / wall_ms : 0.0;
    h["refs_per_sec"] = obs::Json::real(rps);

    obs::Json c = obs::Json::object();
    c["label"] = obs::Json::string(label);
    c["workload"] = obs::Json::string(workload);
    c["variant"] = obs::Json::string(variant);
    c["cycles"] = obs::Json::number(cycles);
    c["instructions"] = obs::Json::number(instructions);
    c["checksum"] = obs::Json::number(checksum);
    c["wall_ms"] = obs::Json::real(wall_ms);
    c["host"] = std::move(h);
    c["metrics"] = metrics.toJson();
    return c;
}

} // namespace

double
benchScale()
{
    // MEMFWD_BENCH_SCALE lets CI run the full harness quickly.
    if (const char *env = std::getenv("MEMFWD_BENCH_SCALE"))
        return std::atof(env);
    return 1.0;
}

MachineConfig
machineAt(unsigned line_bytes)
{
    return MachineConfig{}.lineBytes(line_bytes);
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

Report::Report(const std::string &name)
    : name_(name), lap_start_(std::chrono::steady_clock::now())
{
    memfwd_assert(!current_report,
                  "only one bench::Report may be alive at a time");
    current_report = this;
}

Report::~Report()
{
    current_report = nullptr;
    obs::Json doc = obs::Json::object();
    doc["schema"] = obs::Json::string("memfwd.bench");
    doc["version"] = obs::Json::number(1);
    doc["bench"] = obs::Json::string(name_);
    doc["scale"] = obs::Json::real(benchScale());
    obs::Json arr = obs::Json::array();
    for (const auto &c : cases_)
        arr.push(c);
    doc["cases"] = std::move(arr);

    std::string dir = ".";
    if (const char *env = std::getenv("MEMFWD_BENCH_OUT"))
        dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
        return;
    }
    doc.write(os, 2);
    os << "\n";
}

Report *
Report::current()
{
    return current_report;
}

double
Report::lap()
{
    const auto now = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(now - lap_start_).count();
    lap_start_ = now;
    return ms;
}

obs::Json &
Report::record(const std::string &label, const RunResult &r,
               double wall_ms)
{
    cases_.push_back(caseJson(label, r.workload, variantLabel(r.variant),
                              r.cycles, r.instructions, r.checksum,
                              r.metrics, r.refs, wall_ms));
    return cases_.back();
}

void
Report::addCase(const std::string &label, std::uint64_t cycles,
                std::uint64_t instructions, std::uint64_t checksum,
                const obs::MetricsNode &metrics, std::uint64_t refs,
                const Fields &extra)
{
    cases_.push_back(caseJson(label, "", "", cycles, instructions,
                              checksum, metrics, refs, lap()));
    addFields(extra);
}

void
Report::addFields(const Fields &extra)
{
    memfwd_assert(!cases_.empty(), "addFields() before any case");
    for (const auto &[key, val] : extra)
        cases_.back()[key] = obs::Json::real(val);
}

// ---------------------------------------------------------------------
// Memoized runs
// ---------------------------------------------------------------------

RunResult
runCase(const std::string &label, const RunConfig &cfg)
{
    Report *rep = Report::current();
    memfwd_assert(rep, "runCase() needs a live bench::Report");
    if (const MemoEntry *m = findRun(cfg)) {
        rep->record(label, m->result, m->wall_ms)["reused_from"] =
            obs::Json::string(m->origin);
        return m->result;
    }
    RunResult r = runWorkload(cfg);
    const double wall_ms = rep->lap();
    rep->record(label, r, wall_ms);
    if (!cfg.trace_sink)
        memo.push_back({cfg, r, rep->name_ + "/" + label, wall_ms});
    return r;
}

RunResult
simulate(const RunConfig &cfg)
{
    if (const MemoEntry *m = findRun(cfg))
        return m->result;
    return runWorkload(cfg);
}

RunConfig
standardConfig(const std::string &workload, unsigned line_bytes,
               bool layout_opt, bool prefetch, unsigned prefetch_block)
{
    RunConfig cfg;
    cfg.workload = workload;
    cfg.params.scale = benchScale();
    cfg.machine = machineAt(line_bytes);
    cfg.variant.layout_opt = layout_opt;
    cfg.variant.prefetch = prefetch;
    cfg.variant.prefetch_block = prefetch_block;
    return cfg;
}

RunResult
run(const std::string &workload, unsigned line_bytes, bool layout_opt,
    bool prefetch, unsigned prefetch_block)
{
    const RunConfig cfg = standardConfig(workload, line_bytes, layout_opt,
                                         prefetch, prefetch_block);
    return runCase(workload + "/" + std::to_string(line_bytes) + "B/" +
                       variantLabel(cfg.variant),
                   cfg);
}

void
header(const std::string &title, const std::string &subtitle)
{
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", subtitle.c_str());
    std::printf("================================================================\n");
}

void
printBar(const std::string &label, const RunResult &r, double norm_cycles)
{
    const double scale = 100.0 / norm_cycles;
    const std::uint64_t width = 4; // graduation width of the model
    const double slot_to_cycle = 1.0 / double(width);
    const double busy = r.stalls.busy * slot_to_cycle * scale;
    const double load = r.stalls.load_stall * slot_to_cycle * scale;
    const double store = r.stalls.store_stall * slot_to_cycle * scale;
    const double inst = r.stalls.inst_stall * slot_to_cycle * scale;
    std::printf(
        "  %-8s total %6.1f | busy %5.1f  load %5.1f  store %5.1f  "
        "inst %5.1f | %s cycles\n",
        label.c_str(), r.cycles * scale, busy, load, store, inst,
        withCommas(r.cycles).c_str());
}

std::string
withCommas(std::uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            out.insert(out.begin(), ',');
        out.insert(out.begin(), *it);
        ++count;
    }
    return out;
}

} // namespace memfwd::bench
