// The battery workload: one thread runs AnalyzeDeterminacy (the full
// report: chase decision, rewriting, bounded counterexample search and the
// monotonicity probe, domain size 3, threads=1, memo off) over a seeded set
// of random CQ (V, Q) pairs over E/2.
//
// The set is stratified: the independent LMSS enumerator
// (FindCqRewritingByEnumeration) sorts generated pairs into determined and
// not determined before anything is timed, and the set interleaves one
// determined pair with fifteen others. Determined pairs run the quadratic
// monotonicity probe (tens of ms); the rest end in a cheap refutation
// (well under 1 ms). With the share fixed, the median report lies inside
// the cheap cluster and the tail inside the expensive one on every seed,
// instead of jumping between them as the random share of determined pairs
// (about half) moves around the median. The many cheap pairs keep the
// median's seed-to-seed spread small.
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "chase/chain.h"
#include "core/finite_search.h"
#include "core/reference_rewriter.h"
#include "core/report.h"
#include "core/rewriting.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "gen/enumerate.h"
#include "gen/random_query.h"
#include "memo/memo.h"

namespace perfbench {
namespace {

using vqdr::ConjunctiveQuery;
using vqdr::DeterminacyReport;
using vqdr::DeterminacyVerdict;
using vqdr::Instance;
using vqdr::Query;
using vqdr::Schema;
using vqdr::ViewSet;

constexpr std::size_t kDetermined = 64;
constexpr std::size_t kOthersPerDetermined = 15;
constexpr std::size_t kOthers = kOthersPerDetermined * kDetermined;
// With one pair in sixteen determined, the 97th percentile sits near the
// middle of the expensive cluster (and has 30 pairs beyond it).
constexpr double kTailQuantile = 0.97;
// Pairs the traced run decomposes call by call (the first eight blocks).
constexpr std::size_t kProbePairs = 8 * (kOthersPerDetermined + 1);
// Pairs whose report counters are compared across two identical runs.
constexpr int kDeterminismPairs = 8;

const Schema& EdgeSchema() {
  static const Schema kSchema{{"E", 2}};
  return kSchema;
}

struct PairText {
  std::vector<std::string> views;
  std::string query;
  bool determined = false;  // the LMSS enumerator's verdict
};

struct Pair {
  ViewSet views;
  ConjunctiveQuery query;
  bool determined = false;
};

std::vector<PairText> GeneratePairs(std::uint64_t seed) {
  vqdr::Rng rng(seed);
  vqdr::RandomCqOptions view_opts;
  view_opts.schema = EdgeSchema();
  view_opts.min_atoms = 1;
  view_opts.max_atoms = 3;
  vqdr::RandomCqOptions query_opts = view_opts;
  // Queries of at most two atoms keep the enumerator complete and cheap:
  // by the LMSS bound a rewriting needs at most |body(Q)| view atoms, and
  // their at most four variables fit the head plus a pool of three.
  query_opts.max_atoms = 2;
  query_opts.head_arity = 1;

  std::vector<PairText> determined, others;
  while (determined.size() < kDetermined || others.size() < kOthers) {
    ViewSet views = vqdr::RandomCqViews(rng, view_opts, 2);
    ConjunctiveQuery q = vqdr::RandomCq(rng, query_opts);
    vqdr::ReferenceRewritingOptions oracle_opts;
    oracle_opts.max_atoms = static_cast<int>(q.atoms().size());
    oracle_opts.variable_pool = 3;
    vqdr::ReferenceRewritingResult oracle =
        vqdr::FindCqRewritingByEnumeration(views, q, oracle_opts);
    if (!oracle.exhaustive) continue;  // unclassified; never seen so far
    auto& bucket = oracle.exists ? determined : others;
    if (bucket.size() >= (oracle.exists ? kDetermined : kOthers)) continue;
    PairText p;
    for (const vqdr::View& v : views.views()) {
      p.views.push_back(v.query.AsCq().ToString());
    }
    p.query = q.ToString();
    p.determined = oracle.exists;
    bucket.push_back(std::move(p));
  }
  std::vector<PairText> out;
  for (std::size_t k = 0; k < kDetermined; ++k) {
    out.push_back(determined[k]);
    for (std::size_t j = 0; j < kOthersPerDetermined; ++j) {
      out.push_back(others[kOthersPerDetermined * k + j]);
    }
  }
  return out;
}

std::vector<Pair> ParsePairs(const std::vector<PairText>& texts) {
  vqdr::NamePool pool;
  std::vector<Pair> out;
  out.reserve(texts.size());
  for (const PairText& t : texts) {
    Pair p;
    for (const std::string& v : t.views) {
      ConjunctiveQuery def = vqdr::ParseCq(v, pool).value();
      std::string name = def.head_name();
      p.views.Add(std::move(name), Query::FromCq(std::move(def)));
    }
    p.query = vqdr::ParseCq(t.query, pool).value();
    p.determined = t.determined;
    out.push_back(std::move(p));
  }
  return out;
}

vqdr::DeterminacyAnalysisOptions AnalysisOptions() {
  vqdr::DeterminacyAnalysisOptions opts;
  opts.search.domain_size = 3;
  opts.search.threads = 1;
  opts.probe_monotonicity = true;
  return opts;
}

// The full output check of one report against the enumerator's verdict:
// a refutation must really separate Q on equal view images, a rewriting
// must really compute Q from the views over the searched space.
bool ReportIsCorrect(const Pair& p, const DeterminacyReport& r) {
  if (!vqdr::guard::IsComplete(r.outcome)) return false;
  if (p.determined) {
    if (r.verdict != DeterminacyVerdict::kDeterminedWithRewriting ||
        !r.rewriting.has_value()) {
      return false;
    }
    vqdr::EnumerationOptions eopts;
    eopts.domain_size = AnalysisOptions().search.domain_size;
    vqdr::RewritingValidation v = vqdr::ValidateRewriting(
        p.views, Query::FromCq(p.query), Query::FromCq(*r.rewriting),
        EdgeSchema(), eopts);
    return v.valid && v.exhaustive;
  }
  if (r.verdict == DeterminacyVerdict::kDeterminedWithRewriting) return false;
  if (r.verdict == DeterminacyVerdict::kRefuted) {
    if (!r.counterexample.has_value()) return false;
    const Instance& d1 = r.counterexample->d1;
    const Instance& d2 = r.counterexample->d2;
    return p.views.Apply(d1) == p.views.Apply(d2) &&
           vqdr::EvaluateCq(p.query, d1) != vqdr::EvaluateCq(p.query, d2);
  }
  return true;  // open within the bound: the only claim is "no rewriting"
}

// Work counters of a report that must repeat exactly on the same input.
std::map<std::string, std::uint64_t> WorkCounters(const DeterminacyReport& r) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : r.metrics.counters) {
    if (name.rfind("search.", 0) == 0 || name.rfind("cq.hom.", 0) == 0 ||
        name == "chase.view_inverse.facts_added") {
      out[name] = value;
    }
  }
  return out;
}

std::uint64_t CounterOf(const DeterminacyReport& r, const std::string& name) {
  auto it = r.metrics.counters.find(name);
  return it == r.metrics.counters.end() ? 0 : it->second;
}

// The traced decomposition: each public call the report makes, timed on
// its own, plus the chase chain, view application and query evaluation on
// a sample of enumerated instances.
void ProbeLayers(const std::vector<Pair>& pairs,
                 std::map<std::string, double>& layers) {
  const vqdr::DeterminacyAnalysisOptions opts = AnalysisOptions();
  vqdr::InstanceSpace space(
      EdgeSchema(), {vqdr::Value(1), vqdr::Value(2), vqdr::Value(3)});
  std::vector<Instance> sample;
  for (std::uint64_t k = 0; k < 8; ++k) {
    sample.push_back(space.At((k * space.total()) / 8 + 7));
  }

  Trace trace;
  QuietCpu quiet;
  std::vector<double> decide_us, rewrite_us, search_ms, mono_ms, residual_ms,
      chain_us, apply_us, eval_us;
  double calls_total_ms = 0, report_total_ms = 0, searched_us = 0;
  std::map<std::string, double> counts;
  for (std::size_t i = 0; i < kProbePairs; ++i) {
    quiet.MaybeRepin();
    const Pair& p = pairs[i];
    const Query q = Query::FromCq(p.query);
    DeterminacyReport report;
    const double report_ms = Timed(&trace, "core.report", [&] {
      report = vqdr::AnalyzeDeterminacy(p.views, p.query, EdgeSchema(), opts);
    }) / 1000;
    for (const char* name :
         {"search.instances", "search.mono.pairs", "cq.hom.attempts",
          "cq.hom.matches", "chase.view_inverse.facts_added"}) {
      counts[name] += static_cast<double>(CounterOf(report, name));
    }
    bool determined = false;
    double calls_us = Timed(&trace, "core.decide", [&] {
      determined =
          vqdr::DecideUnrestrictedDeterminacy(p.views, p.query).determined;
    });
    decide_us.push_back(calls_us);
    if (determined) {
      double us = Timed(&trace, "core.rewrite", [&] {
        (void)vqdr::FindCqRewriting(p.views, p.query);
      });
      rewrite_us.push_back(us);
      calls_us += us;
      us = Timed(&trace, "core.mono", [&] {
        (void)vqdr::SearchMonotonicityViolation(p.views, q, EdgeSchema(),
                                                opts.search);
      });
      mono_ms.push_back(us / 1000);
      searched_us += us;
      calls_us += us;
    } else {
      double us = Timed(&trace, "core.search", [&] {
        (void)vqdr::SearchDeterminacyCounterexample(p.views, q, EdgeSchema(),
                                                    opts.search);
      });
      search_ms.push_back(us / 1000);
      searched_us += us;
      calls_us += us;
    }
    residual_ms.push_back(report_ms - calls_us / 1000);
    report_total_ms += report_ms;
    calls_total_ms += calls_us / 1000;

    chain_us.push_back(Timed(&trace, "chase.chain", [&] {
      vqdr::ValueFactory factory;
      (void)vqdr::BuildChaseChain(p.views, p.query, 1, factory);
    }));
    for (const Instance& d : sample) {
      apply_us.push_back(
          Timed(&trace, "views.apply", [&] { (void)p.views.Apply(d); }));
      eval_us.push_back(Timed(&trace, "cq.eval", [&] {
        (void)vqdr::EvaluateCq(p.query, d);
      }));
    }
  }
  layers["core.decide_us"] = Median(decide_us);
  layers["core.rewrite_us"] = Median(rewrite_us);
  layers["core.search_ms"] = Median(search_ms);
  layers["core.mono_ms"] = Median(mono_ms);
  layers["core.report_residual_ms"] = Median(residual_ms);
  // The four calls must account for the report: what they leave unexplained
  // is the residual's share of the total report time.
  double err = DeviationPct(calls_total_ms, report_total_ms);
  layers["core.reconcile_err_pct"] = err;
  if (err > kReconcileTolerancePct) {
    std::cerr << "perfbench: core calls reconcile only within " << err
              << "% (tolerance " << kReconcileTolerancePct << "%)\n";
  }
  for (const auto& [name, value] : counts) layers[name] = value;
  layers["cq.hom.attempts_per_match"] =
      counts["cq.hom.matches"] > 0
          ? counts["cq.hom.attempts"] / counts["cq.hom.matches"]
          : 0;
  layers["search.us_per_instance"] =
      counts["search.instances"] > 0 ? searched_us / counts["search.instances"]
                                     : 0;
  layers["chase.chain_us"] = Median(chain_us);
  layers["views.apply_us"] = Median(apply_us);
  layers["cq.eval_us"] = Median(eval_us);
}

}  // namespace

RunResult RunBattery(const Args& args) {
  // The library default; pinned so an environment switch cannot turn the
  // memo on under this workload.
  vqdr::memo::SetEnabled(false);
  const std::vector<PairText> texts = GeneratePairs(args.seed);

  std::vector<Pair> pairs;
  QuietCpu quiet;
  double setup_s = TimeSetup(
      &quiet, [&] { pairs.clear(); }, [&] { pairs = ParsePairs(texts); });
  const vqdr::DeterminacyAnalysisOptions opts = AnalysisOptions();

  RunResult result;
  for (int i = 0; i < kDeterminismPairs; ++i) {
    const Pair& p = pairs[i];
    DeterminacyReport a =
        vqdr::AnalyzeDeterminacy(p.views, p.query, EdgeSchema(), opts);
    DeterminacyReport b =
        vqdr::AnalyzeDeterminacy(p.views, p.query, EdgeSchema(), opts);
    result.Check(WorkCounters(a) == WorkCounters(b),
                 "report work counters differ on pair " + std::to_string(i));
  }

  // Every report is checked: the first one of each pair in full, repeats
  // for the same verdict.
  std::vector<int> verdict(pairs.size(), -1);
  auto op = [&](std::size_t k) {
    const Pair& p = pairs[k];
    return vqdr::AnalyzeDeterminacy(p.views, p.query, EdgeSchema(), opts);
  };
  auto check = [&](std::size_t k, const DeterminacyReport& r,
                   RunResult& res) {
    int v = static_cast<int>(r.verdict);
    bool ok = verdict[k] < 0 ? ReportIsCorrect(pairs[k], r) : verdict[k] == v;
    if (verdict[k] < 0) verdict[k] = v;
    res.Check(ok, "battery report for pair " + std::to_string(k) + ": " +
                      texts[k].query);
  };
  return RunSingleThreaded(
      args, setup_s, pairs.size(), kTailQuantile, std::move(result), op,
      check,
      [&](std::map<std::string, double>& layers, RunResult&) {
        ProbeLayers(pairs, layers);
      });
}

}  // namespace perfbench
