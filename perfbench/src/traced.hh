/**
 * @file
 * The traced run: per-layer host cost and per-layer counters.
 *
 * Each case runs twice.  The untraced run uses the measured
 * configuration.  The capture run uses the timed model with a trace
 * sink that records every demand reference (type, initial address,
 * final address, size, issue cycle) and an analysis gate that keeps
 * every relocation plan.  The captured stream is then replayed through
 * one layer's public entry point at a time, each replay inside a span,
 * and the per-layer metrics are span time per replayed reference.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <string>
#include <utility>
#include <vector>

#include "cases.hh"

namespace perfbench
{

/** One timed interval; parent is an index into the span list or -1. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
};

/** Spans kept in memory until the benchmark writes them out. */
class SpanLog
{
  public:
    /** Open a span now and return its index. */
    int open(std::string name, int parent);

    void close(int id);

    /** Number of spans opened so far. */
    std::size_t size() const { return spans_.size(); }

    /** Summed duration of every span called @p name opened at index
     *  @p from or later, in seconds. */
    double total(const std::string &name, std::size_t from) const;

    /** One JSON object per line: name, start_ns, end_ns, id, parent. */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** A metric as the benchmark prints it. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The traced run's per-layer metrics and its case executions. */
struct TracedResult
{
    std::vector<Metric> metrics;
    std::vector<Sample> samples;
};

/** Run every case of @p w traced once, recording spans in @p spans. */
TracedResult runTraced(const BenchWorkload &w, SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
