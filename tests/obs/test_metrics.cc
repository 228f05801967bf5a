/**
 * @file
 * Hierarchical metrics: tree construction, distributions, the versioned
 * JSON export (golden-file checked), and the dotted names of the text
 * dump.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/metrics.hh"
#include "runtime/machine.hh"
#include "runtime/relocation.hh"

namespace memfwd::obs
{
namespace
{

TEST(Distribution, RecordsMoments)
{
    Distribution d;
    EXPECT_EQ(d.count, 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);

    d.record(3);
    d.record(1, 2); // two samples of value 1
    d.record(5);
    EXPECT_EQ(d.count, 4u);
    EXPECT_EQ(d.sum, 10u);
    EXPECT_EQ(d.min, 1u);
    EXPECT_EQ(d.max, 5u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    ASSERT_GE(d.buckets.size(), 6u);
    EXPECT_EQ(d.buckets[1], 2u);
    EXPECT_EQ(d.buckets[3], 1u);
    EXPECT_EQ(d.buckets[5], 1u);
}

TEST(MetricsNode, TreeConstruction)
{
    MetricsNode root;
    EXPECT_TRUE(root.empty());

    root.counter("a", 1);
    root.addCounter("a", 2);
    root.gauge("rate", 0.5);
    root.child("sub").counter("b", 7);
    root.distribution("hist").record(4);

    EXPECT_FALSE(root.empty());
    EXPECT_EQ(root.counterValue("a"), 3u);
    EXPECT_EQ(root.counterValue("missing"), 0u);
    ASSERT_NE(root.findChild("sub"), nullptr);
    EXPECT_EQ(root.findChild("sub")->counterValue("b"), 7u);
    EXPECT_EQ(root.findChild("nope"), nullptr);
}

/** The `name = value` lines of @p node's text dump, keyed by name. */
std::map<std::string, std::uint64_t>
dumpedValues(const MetricsNode &node)
{
    std::ostringstream os;
    node.dump(os);
    std::istringstream in(os.str());
    std::map<std::string, std::uint64_t> values;
    std::string name, eq;
    std::uint64_t value = 0;
    while (in >> name >> eq >> value)
        values[name] = value;
    return values;
}

TEST(MetricsNode, FlattenReproducesDottedNames)
{
    MetricsNode root;
    root.counter("cycles", 100);
    root.counter("fwd_total", 9); // '_' sorts after "fwd.": global order
    root.gauge("ipc", 2.0);       // gauges are not integers: skipped
    root.child("l1d").counter("load_hits", 5);
    root.child("fwd").distribution("hop_hist").record(2, 3);

    std::ostringstream os;
    root.dump(os);
    EXPECT_EQ(os.str(), "cycles = 100\n"
                        "fwd.hop_hist.count = 3\n"
                        "fwd.hop_hist.max = 2\n"
                        "fwd.hop_hist.min = 2\n"
                        "fwd.hop_hist.sum = 6\n"
                        "fwd_total = 9\n"
                        "l1d.load_hits = 5\n");

    std::ostringstream prefixed;
    root.dump(prefixed, "m0.");
    EXPECT_NE(prefixed.str().find("m0.l1d.load_hits = 5\n"),
              std::string::npos);
    EXPECT_EQ(prefixed.str().rfind("m0.cycles = 100\n", 0), 0u);
}

TEST(MetricsDocument, VersionedEnvelope)
{
    MetricsNode root;
    root.counter("x", 1);
    const Json doc = metricsDocument(root, "unit-test");
    EXPECT_EQ(doc.find("schema")->asString(), metrics_schema);
    EXPECT_EQ(doc.find("version")->asU64(), metrics_schema_version);
    EXPECT_EQ(doc.find("source")->asString(), "unit-test");
    ASSERT_NE(doc.find("metrics"), nullptr);

    // The export parses back to the identical document.
    EXPECT_EQ(Json::parse(doc.str(2)).str(), doc.str());
}

/** The deterministic mini-program behind the golden export. */
MetricsNode
goldenMachineMetrics()
{
    Machine m;
    for (unsigned i = 0; i < 16; ++i)
        m.access(Access::store(0x1000 + i * 8, 8, i + 1));
    relocate(m, 0x1000, 0x8000, 16);
    Cycles dep = 0;
    for (unsigned i = 0; i < 16; ++i)
        dep = m.access(Access::load(0x1000 + i * 8, 8, dep)).ready;
    return m.metrics();
}

/**
 * Golden file: the full machine metrics document for a fixed
 * mini-program.  Regenerate deliberately (schema/name changes only!)
 * with MEMFWD_UPDATE_GOLDEN=1; docs/METRICS.md explains the name
 * stability policy this test enforces.
 */
TEST(MetricsDocument, MachineExportMatchesGolden)
{
    const std::string path =
        std::string(MEMFWD_OBS_DATA_DIR) + "/machine_metrics_golden.json";
    const std::string actual =
        metricsDocument(goldenMachineMetrics(), "golden").str(2) + "\n";

    if (std::getenv("MEMFWD_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden file regenerated";
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with MEMFWD_UPDATE_GOLDEN=1 to create)";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << "machine metrics drifted from the golden export; if the "
           "change is intentional, bump docs/METRICS.md and regenerate "
           "with MEMFWD_UPDATE_GOLDEN=1";
}

TEST(FlattenedMetrics, KeepsLegacyNames)
{
    // The dotted names the pre-observability registry exposed must
    // keep falling out of metrics().dump() — downstream scripts key on
    // them (docs/METRICS.md name-stability policy).
    Machine m;
    m.access(Access::store(0x3000, 8, 1));
    relocate(m, 0x3000, 0xa000, 1);
    m.access(Access::load(0x3000, 8));

    const auto values = dumpedValues(m.metrics());
    for (const char *name :
         {"cycles", "instructions", "slots.busy", "slots.load_stall",
          "slots.store_stall", "slots.inst_stall", "l1d.load_hits",
          "l1d.load_partial_misses", "l1d.load_full_misses",
          "l1d.store_hits", "l1d.writebacks", "traffic.l1_l2_bytes",
          "traffic.l2_mem_bytes", "fwd.walks", "fwd.hops",
          "fwd.false_alarms", "fwd.cycles_detected", "fwd.ftc_hits",
          "fwd.ftc_misses", "fwd.ftc_invalidations",
          "fwd.chains_collapsed", "refs.loads", "refs.stores",
          "refs.loads_forwarded", "lsq.speculations",
          "lsq.violations"}) {
        EXPECT_TRUE(values.count(name)) << "legacy stat lost: " << name;
    }
    EXPECT_EQ(values.at("refs.loads"), 1u);
    EXPECT_EQ(values.at("fwd.walks"), 1u);
    EXPECT_EQ(values.at("fwd.hops"), 1u);
}

TEST(FtcMetrics, CountersExportAndRoundTrip)
{
    // A 3-hop chain referenced twice: the first load walks (FTC miss +
    // collapse), the second is an FTC hit.  The counters must survive
    // the JSON export/parse round-trip exactly.
    Machine m(MachineConfig{}.ftcGeometry(16, 2).collapseThreshold(2));
    m.access(Access::store(0x1000, 8, 42));
    relocate(m, 0x1000, 0x2000, 1);
    relocate(m, 0x2000, 0x3000, 1);
    relocate(m, 0x3000, 0x4000, 1);
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).value, 42u);
    EXPECT_EQ(m.access(Access::load(0x1000, 8)).value, 42u);

    const MetricsNode root = m.metrics();
    const MetricsNode *fwd = root.findChild("fwd");
    ASSERT_NE(fwd, nullptr);
    EXPECT_EQ(fwd->counterValue("ftc_hits"), 1u);
    EXPECT_GE(fwd->counterValue("ftc_misses"), 1u);
    EXPECT_EQ(fwd->counterValue("chains_collapsed"), 1u);
    // Each relocation appends at a chain tail; the tail-append
    // invalidations are counted (they may be zero only if nothing was
    // cached yet, which the hit above rules out for the final state).
    EXPECT_TRUE(fwd->counters().count("ftc_invalidations"));

    // Round-trip: the document parses back identically, FTC counters
    // included.
    const Json doc = metricsDocument(root, "ftc-test");
    const Json back = Json::parse(doc.str(2));
    EXPECT_EQ(back.str(), doc.str());
    const Json *fwd_json = doc.find("metrics")->find("children")
                               ->find("fwd")->find("counters");
    ASSERT_NE(fwd_json, nullptr);
    EXPECT_EQ(fwd_json->find("ftc_hits")->asU64(), 1u);
    EXPECT_EQ(fwd_json->find("chains_collapsed")->asU64(), 1u);
}

TEST(SubsystemMetrics, MachineTreeComposesComponents)
{
    Machine m;
    m.access(Access::store(0x4000, 8, 5));
    relocate(m, 0x4000, 0xb000, 1);
    m.access(Access::load(0x4000, 8));

    const MetricsNode root = m.metrics();
    ASSERT_NE(root.findChild("fwd"), nullptr);
    ASSERT_NE(root.findChild("refs"), nullptr);
    ASSERT_NE(root.findChild("l1d"), nullptr);
    EXPECT_EQ(root.findChild("fwd")->counterValue("walks"), 1u);
    EXPECT_EQ(root.findChild("refs")->counterValue("loads"), 1u);
    EXPECT_GT(root.counterValue("cycles"), 0u);

    // The hop histogram rides along as a real distribution: one sample
    // per resolved reference (0-hop references included), so the
    // single 1-hop load shows up as the lone sample above zero.
    const auto &dists = root.findChild("fwd")->distributions();
    ASSERT_TRUE(dists.count("hop_hist"));
    const Distribution &hist = dists.at("hop_hist");
    EXPECT_GE(hist.count, 1u);
    EXPECT_EQ(hist.max, 1u);
    ASSERT_EQ(hist.buckets.size(), 2u);
    EXPECT_EQ(hist.buckets[1], 1u);
}

} // namespace
} // namespace memfwd::obs
