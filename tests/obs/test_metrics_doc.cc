/**
 * @file
 * docs/METRICS.md against what the simulator emits.
 *
 * The "machine tree" table documents every metric path: one row per
 * child, with backticked counter, gauge and distribution names in their
 * own columns.  These tests parse that table and hold it in sync with
 * two exports: the golden machine export (tests/obs/data) and a live
 * export of a machine with every optional subsystem attached.  The
 * trace-event table is held in sync with the trace kinds the same way.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/gate.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/heap_verifier.hh"
#include "runtime/layout_backend.hh"
#include "runtime/machine.hh"
#include "runtime/quarantine_allocator.hh"
#include "runtime/relocation.hh"
#include "runtime/sim_allocator.hh"

namespace memfwd::obs
{
namespace
{

/** A metric path tagged with its kind: "counter fwd.walks". */
using Paths = std::set<std::string>;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot read " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The backticked names in one table cell. */
std::vector<std::string>
ticked(const std::string &cell)
{
    static const std::regex tick("`([^`]+)`");
    std::vector<std::string> names;
    for (std::sregex_iterator it(cell.begin(), cell.end(), tick), end;
         it != end; ++it)
        names.push_back((*it)[1]);
    return names;
}

/** The cells of a markdown table row ("| a | b |" -> {"a", "b"}). */
std::vector<std::string>
cells(const std::string &row)
{
    std::vector<std::string> out;
    std::stringstream ss(row.substr(1));
    std::string cell;
    while (std::getline(ss, cell, '|'))
        out.push_back(cell);
    return out;
}

/** The table rows of the section under heading @p heading. */
std::vector<std::vector<std::string>>
tableRows(const std::string &doc, const std::string &heading)
{
    std::stringstream in(doc);
    std::string line;
    bool inside = false;
    std::vector<std::vector<std::string>> rows;
    while (std::getline(in, line)) {
        if (line.rfind("#", 0) == 0) {
            inside = line == heading;
            continue;
        }
        if (inside && line.rfind("|", 0) == 0 &&
            line.rfind("|---", 0) != 0)
            rows.push_back(cells(line));
    }
    return rows;
}

std::string
metricsDoc()
{
    return readFile(std::string(MEMFWD_DOCS_DIR) + "/METRICS.md");
}

/** Every path the machine-tree table documents. */
Paths
documentedPaths()
{
    static const char *const kinds[] = {"counter", "gauge", "distribution"};
    Paths paths;
    const auto rows = tableRows(metricsDoc(), "### The machine tree");
    EXPECT_GT(rows.size(), 10u) << "machine-tree table not found";
    for (const auto &row : rows) {
        if (row.size() < 4 || row[0].find("child") != std::string::npos)
            continue; // header
        std::vector<std::string> prefixes;
        for (const std::string &child : ticked(row[0]))
            prefixes.push_back(child + ".");
        if (row[0].find("(root)") != std::string::npos)
            prefixes.push_back("");
        EXPECT_FALSE(prefixes.empty()) << "row without a child: " << row[0];
        for (std::size_t k = 0; k < 3; ++k)
            for (const std::string &prefix : prefixes)
                for (const std::string &name : ticked(row[k + 1]))
                    paths.insert(std::string(kinds[k]) + " " + prefix +
                                 name);
    }
    return paths;
}

void
collect(const MetricsNode &node, const std::string &prefix, Paths &out)
{
    for (const auto &entry : node.counters())
        out.insert("counter " + prefix + entry.first);
    for (const auto &entry : node.gauges())
        out.insert("gauge " + prefix + entry.first);
    for (const auto &entry : node.distributions())
        out.insert("distribution " + prefix + entry.first);
    for (const auto &[name, child] : node.children())
        collect(child, prefix + name + ".", out);
}

void
collect(const Json &node, const std::string &prefix, Paths &out)
{
    static const std::pair<const char *, const char *> sections[] = {
        {"counters", "counter"},
        {"gauges", "gauge"},
        {"distributions", "distribution"}};
    for (const auto &[key, kind] : sections)
        if (const Json *s = node.find(key))
            for (const auto &entry : s->fields())
                out.insert(std::string(kind) + " " + prefix + entry.first);
    if (const Json *children = node.find("children"))
        for (const auto &[name, child] : children->fields())
            collect(child, prefix + name + ".", out);
}

/** The paths of the committed golden machine export. */
Paths
goldenPaths()
{
    const Json doc = Json::parse(readFile(
        std::string(MEMFWD_OBS_DATA_DIR) + "/machine_metrics_golden.json"));
    Paths paths;
    const Json *metrics = doc.find("metrics");
    EXPECT_NE(metrics, nullptr);
    if (metrics)
        collect(*metrics, "", paths);
    return paths;
}

/**
 * A machine with every optional subsystem attached and exercised
 * (TLB, FTC, quarantine, analysis gate, a layout backend
 * resolving references, a folded-in audit), so every conditional
 * child and gauge is emitted.
 */
Paths
fullyConfiguredPaths()
{
    MachineConfig cfg =
        MachineConfig{}.ftcGeometry(16, 2).quarantine(1ULL << 20);
    cfg.tlb.enabled = true;
    Machine m(cfg);
    AnalysisGate gate(AnalyzeMode::enforce);
    m.setAnalysisGate(&gate);
    SimAllocator alloc(m);
    QuarantineAllocator qa(m, alloc);
    const auto backend =
        makeLayoutBackend(BackendKind::handles, m, alloc);

    const BackendRef obj = backend->allocate(32, Placement::sequential, 8);
    m.access(Access::store(backend->resolve(obj).addr, 8, 7));
    m.access(Access::store(0x1000, 8, 42));
    relocate(m, 0x1000, 0x2000, 1);
    relocate(m, 0x2000, 0x3000, 1);
    m.access(Access::load(0x1000, 8)); // walks, FTC miss
    m.access(Access::load(0x1000, 8)); // FTC hit
    qa.free(qa.alloc(32));

    MetricsNode root = m.metrics();
    HeapVerifier(m.mem()).audit().fillMetrics(root.child("audit"));
    m.setAnalysisGate(nullptr);
    Paths paths;
    collect(root, "", paths);
    return paths;
}

std::string
join(const Paths &paths)
{
    std::string s;
    for (const std::string &p : paths)
        s += "\n  " + p;
    return s;
}

TEST(MetricsDoc, GoldenExportIsDocumented)
{
    const Paths documented = documentedPaths();
    Paths missing;
    for (const std::string &p : goldenPaths())
        if (!documented.count(p))
            missing.insert(p);
    EXPECT_TRUE(missing.empty())
        << "emitted in the golden export but not in docs/METRICS.md:"
        << join(missing);
}

TEST(MetricsDoc, FullyConfiguredExportIsDocumented)
{
    const Paths documented = documentedPaths();
    Paths missing;
    for (const std::string &p : fullyConfiguredPaths())
        if (!documented.count(p))
            missing.insert(p);
    EXPECT_TRUE(missing.empty())
        << "emitted but not in docs/METRICS.md:" << join(missing);
}

TEST(MetricsDoc, EveryDocumentedNameIsEmitted)
{
    // Conditional children and gauges (ftc_hit_rate needs FTC lookups)
    // are absent from the golden export; the fully configured machine
    // emits them.
    const Paths golden = goldenPaths();
    const Paths full = fullyConfiguredPaths();
    Paths stale;
    for (const std::string &p : documentedPaths())
        if (!golden.count(p) && !full.count(p))
            stale.insert(p);
    EXPECT_TRUE(stale.empty())
        << "documented in docs/METRICS.md but never emitted:"
        << join(stale);
}

TEST(MetricsDoc, TraceEventTableMatchesTheKinds)
{
    std::set<std::string> kinds;
    for (unsigned i = 0;; ++i) {
        const std::string name = eventKindName(static_cast<EventKind>(i));
        if (name == "?")
            break;
        kinds.insert(name);
    }
    ASSERT_FALSE(kinds.empty());

    std::set<std::string> documented;
    for (const auto &row : tableRows(metricsDoc(), "## Trace formats")) {
        const auto names = ticked(row[0]);
        if (!names.empty())
            documented.insert(names.front());
    }
    EXPECT_EQ(documented, kinds);
}

} // namespace
} // namespace memfwd::obs
