/**
 * @file
 * The AnalysisGate: where static plan verdicts meet the running machine.
 *
 * A gate is attached to a Machine (Machine::setAnalysisGate) in one of
 * three modes:
 *
 *  - `off`     — nothing is checked, nothing is paid (the Machine's
 *                fast paths test one pointer and branch away);
 *  - `plan`    — every layout optimizer must submit its RelocationPlan
 *                before touching memory; the PlanAnalyzer verifies it
 *                and a plan carrying error diagnostics is rejected
 *                (PlanRejected) before a single word moves;
 *  - `enforce` — as `plan`, plus a dynamic cross-check of every static
 *                verdict: each Unforwarded_Read/Write the Machine
 *                executes is checked against the live tag state and
 *                the active plan, so a raw access that would observe
 *                or clobber a live forwarding word outside the plan's
 *                proven ranges is caught at the instruction, not as
 *                silent chain corruption a million cycles later (the
 *                same differential spirit as the FTC equivalence
 *                harness).
 *
 * The legality contract for raw accesses under enforcement:
 *
 *  - reading a word whose forwarding bit is CLEAR is always legal;
 *  - reading a live forwarding word raw is legal only inside the
 *    active plan's source ranges (the relocation engine chasing and
 *    appending chains) or inside an explicit annotation scope
 *    (ScopedUnforwardedAnnotation — the hand-proven runtime internals:
 *    chain chases, transaction rollback, GC forwarding-pointer reads);
 *  - writing a word raw is legal if its forwarding bit is clear and
 *    stays clear; installing or mutating a forwarding word is legal
 *    only inside the active plan's source ranges or an annotation
 *    scope.
 *
 * Static site tokens: after a plan is submitted, siteApproved(id)
 * reports whether the analyzer proved the declared access site safe
 * for the raw fast path; optimizers branch on that to choose between
 * `access(Access::unforwardedWrite(...))` and the forwarded
 * `access(Access::store(...))`.
 */

#ifndef MEMFWD_ANALYSIS_GATE_HH
#define MEMFWD_ANALYSIS_GATE_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/plan.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace memfwd
{

class TaggedMemory;

/** How much of the analysis machinery is active. */
enum class AnalyzeMode
{
    off,    ///< gate is inert
    plan,   ///< plans verified statically; bad plans rejected
    enforce ///< plan + dynamic cross-check of every raw access
};

const char *analyzeModeName(AnalyzeMode mode);

/** Parse "off" | "plan" | "enforce"; false if @p name is unknown. */
bool analyzeModeFromName(const std::string &name, AnalyzeMode &out);

/** Thrown when a submitted plan carries error diagnostics. */
class PlanRejected : public std::runtime_error
{
  public:
    explicit PlanRejected(const AnalysisReport &report);

    /** The rejected plan's optimizer name. */
    const std::string &optimizer() const { return optimizer_; }

    /** Error diagnostics of the rejected plan. */
    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

  private:
    std::string optimizer_;
    std::vector<Diagnostic> diags_;
};

/** Thrown by the enforce-mode cross-check on an illegal raw access. */
class EnforcementError : public std::runtime_error
{
  public:
    EnforcementError(Addr addr, bool is_write, const std::string &why);

    Addr addr() const { return addr_; }
    bool isWrite() const { return is_write_; }

  private:
    Addr addr_;
    bool is_write_;
};

/** Counters the gate keeps (exported as machine metrics). */
struct GateStats
{
    std::uint64_t plans_submitted = 0;
    std::uint64_t plans_verified = 0;  ///< zero error diagnostics
    std::uint64_t plans_rejected = 0;
    std::uint64_t sites_proven_unforwarded = 0;
    std::uint64_t sites_must_forward = 0;
    std::uint64_t diag_errors = 0;
    std::uint64_t diag_warnings = 0;
    std::uint64_t diag_notes = 0;
    std::uint64_t enforce_checks = 0;     ///< raw accesses cross-checked
    std::uint64_t enforce_violations = 0; ///< illegal raw accesses caught
};

/** Static-analysis gate for one Machine. */
class AnalysisGate
{
  public:
    explicit AnalysisGate(AnalyzeMode mode = AnalyzeMode::plan)
        : mode_(mode)
    {
    }

    AnalyzeMode mode() const { return mode_; }
    void setMode(AnalyzeMode mode) { mode_ = mode; }

    bool enforcing() const { return mode_ == AnalyzeMode::enforce; }

    /**
     * Lint mode: collect diagnostics (and reports) but never throw
     * PlanRejected, so a lint pass can survey every plan a workload
     * emits in one run.  Enforcement violations still throw.
     */
    void setKeepGoing(bool keep_going) { keep_going_ = keep_going; }

    /** Retain every submitted plan's report (the lint tool reads them). */
    void setRetainReports(bool retain) { retain_reports_ = retain; }

    /** Retain a copy of every submitted plan (interference passes
     *  cross-check them pairwise after the run). */
    void setRetainPlans(bool retain) { retain_plans_ = retain; }

    /** Plans retained under setRetainPlans(true), oldest first. */
    const std::vector<RelocationPlan> &plans() const { return plans_; }

    /**
     * Submit a plan: analyze it, account its diagnostics, and — in any
     * active mode — activate it for enforcement until planDone().
     * Plans nest (the collector emits per-object plans while an outer
     * scope is open); ranges of every open plan stay legal.
     *
     * @throws PlanRejected if the report carries error diagnostics and
     *         keep-going is off.  The plan is NOT activated.
     * @returns the analyzer's verdict for the plan.
     */
    AnalysisReport submit(const RelocationPlan &plan);

    /** Deactivate the most recently submitted plan. */
    void planDone();

    /** Number of currently active (nested) plans. */
    std::size_t activePlans() const { return active_.size(); }

    /** Emit a `plan` trace event per submitted plan (Machine wires this). */
    void
    setTrace(obs::Tracer *tracer, std::function<Cycles()> clock)
    {
        tracer_ = tracer;
        clock_ = std::move(clock);
    }

    /** True if the active plan proved the declared site @p id safe. */
    bool siteApproved(SiteId id) const
    {
        return approved_sites_.count(id) != 0;
    }

    // ----- enforce-mode dynamic cross-check ----------------------------

    /**
     * Cross-check a raw read of @p addr against the live tag state in
     * @p mem.  @throws EnforcementError on an illegal access.
     */
    void checkUnforwardedRead(Addr addr, const TaggedMemory &mem);

    /** Cross-check a raw write; same contract as checkUnforwardedRead. */
    void checkUnforwardedWrite(Addr addr, Word value, bool fbit,
                               const TaggedMemory &mem);

    /** Enter/leave an explicit annotation scope (nests). */
    void annotateBegin() { ++annotate_depth_; }

    void
    annotateEnd()
    {
        if (annotate_depth_ > 0)
            --annotate_depth_;
    }

    const GateStats &stats() const { return stats_; }

    /** Reports retained under setRetainReports(true), oldest first. */
    const std::vector<AnalysisReport> &reports() const { return reports_; }

    /** Add the gate's counters to @p into (docs/METRICS.md). */
    void fillMetrics(obs::MetricsNode &into) const;

  private:
    bool addrInActiveSources(Addr word) const;

    AnalyzeMode mode_;
    bool keep_going_ = false;
    bool retain_reports_ = false;
    bool retain_plans_ = false;
    unsigned annotate_depth_ = 0;

    PlanAnalyzer analyzer_;
    GateStats stats_;
    std::vector<AnalysisReport> reports_;
    std::vector<RelocationPlan> plans_;
    obs::Tracer *tracer_ = nullptr;
    std::function<Cycles()> clock_;

    /** Source ranges of every active (nested) plan, as (begin,end). */
    struct ActivePlan
    {
        std::vector<std::pair<Addr, Addr>> src_ranges;
        std::vector<SiteId> approved;
    };
    std::vector<ActivePlan> active_;
    std::unordered_set<SiteId> approved_sites_;
};

/**
 * RAII plan scope: submits on entry (when a gate is attached and not
 * off), deactivates on exit.  Null-gate tolerant so optimizers write
 * one unconditional line:
 *
 *   PlanScope scope(machine.analysisGate(), plan);
 *   ...
 *   if (scope.approved(site_id)) { raw fast path } else { store }
 */
class PlanScope
{
  public:
    PlanScope(AnalysisGate *gate, const RelocationPlan &plan)
        : gate_(gate && gate->mode() != AnalyzeMode::off ? gate : nullptr)
    {
        if (gate_)
            gate_->submit(plan);
    }

    ~PlanScope()
    {
        if (gate_)
            gate_->planDone();
    }

    PlanScope(const PlanScope &) = delete;
    PlanScope &operator=(const PlanScope &) = delete;

    /** True if the analyzer proved site @p id safe_unforwarded. */
    bool approved(SiteId id) const
    {
        return gate_ && gate_->siteApproved(id);
    }

  private:
    AnalysisGate *gate_;
};

/**
 * RAII annotation scope for hand-proven raw accesses in the runtime
 * (chain chases, rollback, GC forwarding-pointer reads).  Null-gate
 * tolerant.
 */
class ScopedUnforwardedAnnotation
{
  public:
    explicit ScopedUnforwardedAnnotation(AnalysisGate *gate) : gate_(gate)
    {
        if (gate_)
            gate_->annotateBegin();
    }

    ~ScopedUnforwardedAnnotation()
    {
        if (gate_)
            gate_->annotateEnd();
    }

    ScopedUnforwardedAnnotation(const ScopedUnforwardedAnnotation &) =
        delete;
    ScopedUnforwardedAnnotation &
    operator=(const ScopedUnforwardedAnnotation &) = delete;

  private:
    AnalysisGate *gate_;
};

} // namespace memfwd

#endif // MEMFWD_ANALYSIS_GATE_HH
