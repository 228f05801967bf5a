#include "analysis/gate.hh"

#include "common/logging.hh"
#include "mem/tagged_memory.hh"

namespace memfwd
{

const char *
analyzeModeName(AnalyzeMode mode)
{
    switch (mode) {
      case AnalyzeMode::off:
        return "off";
      case AnalyzeMode::plan:
        return "plan";
      case AnalyzeMode::enforce:
        return "enforce";
    }
    return "?";
}

bool
analyzeModeFromName(const std::string &name, AnalyzeMode &out)
{
    if (name == "off") {
        out = AnalyzeMode::off;
    } else if (name == "plan") {
        out = AnalyzeMode::plan;
    } else if (name == "enforce") {
        out = AnalyzeMode::enforce;
    } else {
        return false;
    }
    return true;
}

namespace
{

std::string
rejectionMessage(const AnalysisReport &report)
{
    std::string msg = "relocation plan from '" + report.optimizer() +
                      "' rejected: " + std::to_string(report.errors()) +
                      " error diagnostic(s)";
    for (const Diagnostic &d : report.diagnostics()) {
        if (d.severity == Severity::error) {
            msg += "; [";
            msg += diagCodeName(d.code);
            msg += "] " + d.message;
            break; // first error names the failure; the report has all
        }
    }
    return msg;
}

} // namespace

PlanRejected::PlanRejected(const AnalysisReport &report)
    : std::runtime_error(rejectionMessage(report)),
      optimizer_(report.optimizer())
{
    for (const Diagnostic &d : report.diagnostics())
        if (d.severity == Severity::error)
            diags_.push_back(d);
}

EnforcementError::EnforcementError(Addr addr, bool is_write,
                                   const std::string &why)
    : std::runtime_error(
          strfmt("illegal unforwarded %s at %#llx: %s",
                 is_write ? "write" : "read",
                 static_cast<unsigned long long>(addr), why.c_str())),
      addr_(addr),
      is_write_(is_write)
{
}

AnalysisReport
AnalysisGate::submit(const RelocationPlan &plan)
{
    AnalysisReport report = analyzer_.analyze(plan);

    ++stats_.plans_submitted;
    stats_.diag_errors += report.errors();
    stats_.diag_warnings += report.warnings();
    stats_.diag_notes += report.notes();
    stats_.sites_proven_unforwarded += report.provenSites();
    stats_.sites_must_forward +=
        report.sites().size() - report.provenSites();

    if (retain_reports_)
        reports_.push_back(report);
    if (retain_plans_)
        plans_.push_back(plan);

    if (!report.verified()) {
        ++stats_.plans_rejected;
        if (!keep_going_)
            throw PlanRejected(report);
        // Lint mode: record the rejection but let the pass continue so
        // one run surveys every plan.  The plan still activates (the
        // optimizer is about to execute it regardless).
    } else {
        ++stats_.plans_verified;
    }

    ActivePlan active;
    for (const PlanMove &m : plan.moves())
        active.src_ranges.emplace_back(m.src, m.srcEnd());

    // A SiteId is approved only when EVERY declared site carrying it was
    // proven safe_unforwarded — optimizers reuse one token for a whole
    // family of accesses (every next-pointer rewrite, say) and branch on
    // it once.
    std::unordered_map<SiteId, bool> all_safe;
    for (const SiteReport &s : report.sites()) {
        if (s.site.site == no_site)
            continue;
        const bool safe = s.verdict == SiteVerdict::safe_unforwarded;
        auto [it, fresh] = all_safe.emplace(s.site.site, safe);
        if (!fresh)
            it->second = it->second && safe;
    }
    for (const auto &[id, safe] : all_safe) {
        if (safe) {
            active.approved.push_back(id);
            approved_sites_.insert(id);
        }
    }
    active_.push_back(std::move(active));

    if (tracer_ && tracer_->active()) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::plan;
        ev.access = AccessType::store;
        ev.ts = clock_ ? clock_() : 0;
        ev.addr = plan.moves().empty() ? 0 : plan.moves().front().src;
        ev.addr2 = plan.moves().empty() ? 0 : plan.moves().front().dst;
        ev.arg = plan.moves().size();
        ev.size = static_cast<std::uint32_t>(report.errors());
        tracer_->emit(ev);
    }
    return report;
}

void
AnalysisGate::planDone()
{
    memfwd_assert(!active_.empty(), "planDone() with no active plan");
    for (SiteId id : active_.back().approved)
        approved_sites_.erase(id);
    active_.pop_back();
}

bool
AnalysisGate::addrInActiveSources(Addr word) const
{
    for (const ActivePlan &p : active_) {
        for (const auto &[begin, end] : p.src_ranges)
            if (word >= begin && word < end)
                return true;
    }
    return false;
}

void
AnalysisGate::checkUnforwardedRead(Addr addr, const TaggedMemory &mem)
{
    ++stats_.enforce_checks;
    const Addr word = wordAlign(addr);
    if (!mem.fbit(word))
        return; // raw reads of clean words are always legal
    if (annotate_depth_ > 0 || addrInActiveSources(word))
        return;
    ++stats_.enforce_violations;
    throw EnforcementError(
        word, false,
        "reads a live forwarding word outside any active plan's source "
        "ranges and outside an annotation scope");
}

void
AnalysisGate::checkUnforwardedWrite(Addr addr, Word value, bool fbit,
                                    const TaggedMemory &mem)
{
    (void)value;
    ++stats_.enforce_checks;
    const Addr word = wordAlign(addr);
    const bool was_fbit = mem.fbit(word);
    if (!was_fbit && !fbit)
        return; // clean word stays clean: plain raw data write
    if (annotate_depth_ > 0 || addrInActiveSources(word))
        return;
    ++stats_.enforce_violations;
    throw EnforcementError(
        word, true,
        was_fbit
            ? "mutates a live forwarding word outside any active plan's "
              "source ranges — this would silently corrupt the chain"
            : "installs a forwarding word the analyzer never saw (no "
              "active plan covers this address)");
}

void
AnalysisGate::fillMetrics(obs::MetricsNode &into) const
{
    into.counter("plans_submitted", stats_.plans_submitted);
    into.counter("plans_verified", stats_.plans_verified);
    into.counter("plans_rejected", stats_.plans_rejected);
    into.counter("sites_proven_unforwarded",
                 stats_.sites_proven_unforwarded);
    into.counter("sites_must_forward", stats_.sites_must_forward);
    into.counter("enforce_checks", stats_.enforce_checks);
    into.counter("enforce_violations", stats_.enforce_violations);

    auto &diags = into.child("diagnostics");
    diags.counter("error", stats_.diag_errors);
    diags.counter("warn", stats_.diag_warnings);
    diags.counter("note", stats_.diag_notes);
}

} // namespace memfwd
