#include "core/report.h"

#include <sstream>

#include "core/query_answering.h"
#include "core/rewriting.h"
#include "obs/context.h"
#include "obs/trace.h"

namespace vqdr {

std::string DeterminacyReport::Summary() const {
  std::ostringstream out;
  switch (verdict) {
    case DeterminacyVerdict::kDeterminedWithRewriting:
      out << "DETERMINED (unrestricted chase test): the views determine the "
             "query on all instances, finite ones included. Rewriting: "
          << (rewriting.has_value() ? rewriting->ToString() : "<none>")
          << ".";
      if (monotonicity_violation.has_value()) {
        out << " NOTE: Q_V is non-monotonic on the searched fragment, so no "
               "monotonic rewriting language suffices.";
      }
      break;
    case DeterminacyVerdict::kRefuted:
      out << "REFUTED: two instances with equal view images disagree on the "
             "query (finite determinacy fails, hence also unrestricted).";
      break;
    case DeterminacyVerdict::kOpenWithinBound:
      out << "OPEN within the search bound: no CQ rewriting exists (the "
             "chase test fails), and no finite counterexample with up to "
             "the configured domain size"
          << (searches_exhaustive ? "" : " (search budget exhausted)")
          << ". Whether the views determine the query is unknown.";
      break;
  }
  if (!guard::IsComplete(outcome)) {
    out << " [stopped: " << guard::OutcomeName(outcome) << "]";
  }
  if (!metrics.empty()) out << "\n[metrics] " << metrics.ToString();
  if (memo.any()) out << "\n[memo] " << memo.ToString();
  // Snapshot load/flush/skip/corrupt events are process-lifetime facts, not
  // per-battery deltas; surface them whenever any happened.
  memo::SnapshotActivity snapshot = memo::GlobalSnapshotActivity();
  if (snapshot.any()) out << "\n[memo] snapshot " << snapshot.ToString();
  return out.str();
}

namespace {

DeterminacyReport AnalyzeDeterminacyImpl(
    const ViewSet& views, const ConjunctiveQuery& q, const Schema& base,
    const DeterminacyAnalysisOptions& opts, obs::ExplainLog* log) {
  guard::Budget* budget =
      opts.budget != nullptr ? opts.budget : opts.search.budget;
  EnumerationOptions search_opts = opts.search;
  search_opts.budget = budget;
  search_opts.explain = log;

  DeterminacyReport report;
  report.unrestricted =
      DecideUnrestrictedDeterminacy(views, q, budget, {}, log);
  if (!guard::IsComplete(report.unrestricted.outcome)) {
    // The exact decision could not finish inside the budget: no fabricated
    // verdict. Everything the chase computed so far rides along in
    // report.unrestricted.
    report.verdict = DeterminacyVerdict::kOpenWithinBound;
    report.searches_exhaustive = false;
    report.outcome = report.unrestricted.outcome;
    return report;
  }

  if (report.unrestricted.determined) {
    report.verdict = DeterminacyVerdict::kDeterminedWithRewriting;
    CqRewritingResult rewriting = FindCqRewriting(views, q);
    if (rewriting.exists) report.rewriting = rewriting.rewriting;
    if (opts.probe_monotonicity) {
      MonotonicitySearchResult probe = SearchMonotonicityViolation(
          views, Query::FromCq(q), base, search_opts);
      if (probe.verdict == SearchVerdict::kCounterexampleFound) {
        report.monotonicity_violation = probe.violation;
      }
      if (probe.verdict == SearchVerdict::kBudgetExhausted) {
        report.searches_exhaustive = false;
        report.outcome = guard::MergeOutcome(report.outcome, probe.outcome);
      }
    }
    return report;
  }

  DeterminacySearchResult search = SearchDeterminacyCounterexample(
      views, Query::FromCq(q), base, search_opts);
  if (search.verdict == SearchVerdict::kCounterexampleFound) {
    report.verdict = DeterminacyVerdict::kRefuted;
    report.counterexample = search.counterexample;
    return report;
  }
  report.verdict = DeterminacyVerdict::kOpenWithinBound;
  report.searches_exhaustive =
      search.verdict == SearchVerdict::kNoneWithinBound;
  report.outcome = guard::MergeOutcome(report.outcome, search.outcome);
  return report;
}

}  // namespace

DeterminacyReport AnalyzeDeterminacy(const ViewSet& views,
                                     const ConjunctiveQuery& q,
                                     const Schema& base,
                                     const DeterminacyAnalysisOptions& opts) {
  // The whole battery is one in-flight operation: every sub-call (decision,
  // searches, probes) attributes to it in the live registry.
  obs::OpScope op(obs::OpKind::kAnalyze, "report.analyze",
                  opts.budget != nullptr ? opts.budget : opts.search.budget);
  // Attribute all counter/histogram movement during the battery to this
  // report (single-threaded analysis, so the delta is exactly ours).
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  memo::StatsSnapshot memo_before = memo::GlobalStats();
  // The provenance log lives in a local and is spliced into the report at
  // the end: the battery's sub-calls write through a stable pointer even
  // though the report object itself is move-assigned below.
  obs::ExplainLog log;
  obs::ExplainLog* log_ptr = opts.explain ? &log : nullptr;
  DeterminacyReport report;
  {
    VQDR_TRACE_SPAN("report.analyze");
    report = AnalyzeDeterminacyImpl(views, q, base, opts, log_ptr);
  }
  if (obs::Wants(log_ptr)) {
    obs::ExplainEvent closing;
    closing.kind = obs::ExplainKind::kDecision;
    closing.label = "report.verdict";
    switch (report.verdict) {
      case DeterminacyVerdict::kDeterminedWithRewriting:
        closing.detail = "determined (with rewriting)";
        break;
      case DeterminacyVerdict::kRefuted:
        closing.detail = "refuted";
        break;
      case DeterminacyVerdict::kOpenWithinBound:
        closing.detail = "open within bound";
        break;
    }
    closing.stats["searches_exhaustive"] = report.searches_exhaustive ? 1 : 0;
    log.Append(std::move(closing));
    report.explain = std::move(log);
  }
  report.metrics = obs::SnapshotDelta(before);
  report.memo = memo::GlobalStats().Delta(memo_before);
  return report;
}

InstanceDeterminacyResult DecideInstanceDeterminacy(
    const ViewSet& views, const Query& q, const Schema& base,
    const Instance& extent, int extra_values, std::uint64_t max_instances) {
  QueryAnsweringOptions opts;
  opts.extra_values = extra_values;
  opts.max_instances = max_instances;
  PreimageAgreement agreement =
      AnswerViaAllPreimages(views, q, base, extent, opts);

  InstanceDeterminacyResult result;
  result.any_preimage = agreement.any_preimage;
  result.determined_on_instance = agreement.all_agree;
  result.exhaustive = agreement.exhaustive;
  result.answer = agreement.answer;
  result.disagreement = agreement.disagreement;
  return result;
}

}  // namespace vqdr
