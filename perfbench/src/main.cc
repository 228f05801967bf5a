/**
 * @file
 * memfwd's benchmark program (see ../README.md).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--smoke] [--spans-dir DIR]
 *
 * Run it from the checkout root: it reads the committed baselines from
 * bench/baseline/.
 *
 * --trace 0 runs the workload's cases round-robin for S seconds (at
 * least two passes) and prints the end-to-end metrics; --trace 1
 * repeats the separate traced run for S seconds and prints the
 * per-layer metrics.  Either way the scale-0.05 slice is first checked
 * against the committed bench baselines, every case is checked, and the
 * last line of stdout is one JSON object: correct, attempted, failed,
 * metrics.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cases.hh"
#include "common/logging.hh"
#include "traced.hh"

using namespace perfbench;

namespace
{

/** A measured phase never starts another pass after this many seconds,
 *  so a run ends well inside its time limit. */
constexpr double max_measure_s = 120.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool smoke = false;
    std::string spans_dir;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload paper_timed|stale_fwd|kv_churn"
                 " --seed N --seconds S --trace 0|1 [--smoke]"
                 " [--spans-dir DIR]\n",
                 why.c_str());
    std::exit(64);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            std::size_t used = 0;
            if (a == "--workload") {
                o.workload = v;
            } else if (a == "--seed") {
                o.seed = std::stoull(v, &used);
                have_seed = used == v.size();
            } else if (a == "--seconds") {
                o.seconds = std::stod(v, &used);
                if (used != v.size() || !(o.seconds > 0.0))
                    usage("--seconds must be a positive number");
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace must be 0 or 1");
                o.trace = v == "1";
                have_trace = true;
            } else if (a == "--spans-dir") {
                o.spans_dir = v;
            } else {
                usage("unknown option " + a);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + a);
        }
    }
    if (o.workload.empty() || !have_seed || o.seconds <= 0.0 || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    return o;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/**
 * The simulated-time metrics of one pass: summed cycles, and the
 * geomean over groups of (first case's cycles / second case's cycles),
 * i.e. N/L per application or none/forwarding for the KV server.
 */
std::vector<Metric>
simMetrics(const std::vector<Case> &cases, const std::vector<Sample> &pass)
{
    double cycles = 0.0;
    double log_sum = 0.0;
    unsigned groups = 0;
    std::map<std::string, std::size_t> first;
    std::map<std::string, unsigned> members;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        cycles += double(pass[i].sim.cycles);
        const std::string &g = cases[i].group;
        if (++members[g] == 1) {
            first[g] = i;
        } else if (members[g] == 2 && pass[first[g]].ok && pass[i].ok) {
            log_sum += std::log(double(pass[first[g]].sim.cycles) /
                                double(pass[i].sim.cycles));
            ++groups;
        }
    }
    return {{"sim_cycles", cycles, "cycles"},
            {"layout_speedup", groups ? std::exp(log_sum / groups) : 0.0,
             "ratio"}};
}

/** The measured (untraced) run: end-to-end metrics. */
std::vector<Metric>
measure(const BenchWorkload &w, const std::vector<Sample> &slice,
        double seconds, Tally &tally)
{
    std::vector<std::vector<Sample>> passes;
    const double t0 = now();
    while (passes.size() < 2 ||
           (now() - t0 < seconds && now() - t0 < max_measure_s)) {
        std::vector<Sample> pass = runPass(w.cases);
        // A deterministic simulator repeats every counter exactly.
        for (std::size_t i = 0; i < pass.size() && !passes.empty(); ++i) {
            const Sample &first = passes.front()[i];
            if (pass[i].ok && first.ok && !(pass[i].sim == first.sim))
                reject(pass[i], w.cases[i].label,
                       "simulated counters differ from the first pass");
        }
        tally.add(pass);
        passes.push_back(std::move(pass));
    }

    double wall = 0.0;
    double setup = 0.0;
    double refs = 0.0;
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
        std::vector<double> run_s;
        std::vector<double> setup_s;
        for (const auto &p : passes) {
            run_s.push_back(p[i].run_s);
            setup_s.push_back(p[i].setup_s);
        }
        wall += median(run_s);
        setup += median(setup_s);
        refs += double(passes.front()[i].sim.refs);
    }

    std::vector<Metric> out = {
        {"wall_s", wall, "s"},
        {"refs_per_s", refs / wall, "refs/s"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
    };
    // Fast-forward simulates no time, so such a workload reports the
    // simulated time of its timed baseline slice.
    for (Metric &m : w.fastForward() ? simMetrics(w.slice, slice)
                                  : simMetrics(w.cases, passes.front()))
        out.push_back(std::move(m));
    std::fprintf(stderr, "perfbench: %s measured %zu passes in %.2f s\n",
                 w.name.c_str(), passes.size(), now() - t0);
    return out;
}

/**
 * The traced run, repeated until @p seconds have passed (at least
 * once): each per-layer metric is the median over the repetitions.
 */
std::vector<Metric>
traced(const BenchWorkload &w, double seconds, SpanLog &spans, Tally &tally)
{
    std::vector<std::vector<Metric>> reps;
    const double t0 = now();
    do {
        TracedResult t = runTraced(w, spans);
        tally.add(t.samples);
        reps.push_back(std::move(t.metrics));
    } while (now() - t0 < seconds && now() - t0 < max_measure_s);

    std::vector<Metric> out = reps.front();
    for (std::size_t j = 0; j < out.size(); ++j) {
        std::vector<double> values;
        for (const auto &r : reps)
            values.push_back(r[j].value);
        out[j].value = median(values);
    }
    std::fprintf(stderr, "perfbench: %s traced %zu times in %.2f s\n",
                 w.name.c_str(), reps.size(), now() - t0);
    return out;
}

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    memfwd::setVerbose(false);
    // Keep freed memory in the process: every case builds a fresh
    // Machine, and returning its pages to the kernel would make each
    // case pay page faults whose cost swings with the host's load.
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, -1);
    // Stay on one CPU: a migration refills the host caches mid-case,
    // and pinning narrowed the run-to-run spread on a shared host.
    const int cpu = sched_getcpu();
    if (cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_setaffinity(0, sizeof set, &set);
    }
    try {
        const BenchWorkload w = makeBenchWorkload(o.workload, o.seed,
                                                  o.smoke);
        Tally tally;
        const std::vector<Sample> slice = checkBaseline(w, "bench/baseline");
        tally.add(slice);

        std::vector<Metric> metrics;
        if (o.trace) {
            SpanLog spans;
            metrics = traced(w, o.seconds, spans, tally);
            if (!o.spans_dir.empty())
                spans.write(o.spans_dir + "/spans-" + w.name + ".jsonl");
        } else {
            metrics = measure(w, slice, o.seconds, tally);
        }
        printResult(tally, metrics);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
