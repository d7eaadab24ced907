// E-F1: the language zoo of Figure 1, measured — the same semantic query
// (paths of length 2 over a random graph) evaluated as CQ, UCQ, FO and
// Datalog, plus transitive closure where only Datalog applies. The shape
// to observe: CQ/UCQ join evaluation ≈ guarded FO (which scans guard
// atoms, not the active domain) ≪ anything second-order (BM_EvalExistsSo,
// budget-capped).

#include <benchmark/benchmark.h>

#include "bench_json.h"

#include "cq/matcher.h"
#include "datalog/program.h"
#include "fo/from_cq.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "gen/workloads.h"
#include "so/so_query.h"

namespace vqdr {
namespace {

Instance Graph(int nodes) { return RandomGraph(nodes, 3 * nodes, 42); }

void BM_EvalCq(benchmark::State& state) {
  ConjunctiveQuery q = ChainQuery(2);
  Instance d = Graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateCq(q, d));
  }
  state.counters["nodes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_EvalCq)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_EvalUcq(benchmark::State& state) {
  UnionQuery q;
  q.AddDisjunct(ChainQuery(2, "E", "Q"));
  q.AddDisjunct(ChainQuery(3, "E", "Q"));
  Instance d = Graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateUcq(q, d));
  }
}
BENCHMARK(BM_EvalUcq)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_EvalFo(benchmark::State& state) {
  // The same path-2 query through the FO evaluator: every variable is
  // guarded by an atom or an equality, so none ranges over the domain.
  FoQuery q = CqToFoQuery(ChainQuery(2));
  Instance d = Graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateFo(q, d));
  }
}
BENCHMARK(BM_EvalFo)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_EvalFoGuardedForall(benchmark::State& state) {
  // The ∃SO 2-colourability matrix as an FO sentence, on a cycle with a
  // fixed alternating colouring C: the ∀ over (x, y) is guarded by E(x, y),
  // so it visits the cycle's edges rather than every pair of nodes.
  NamePool pool;
  FoPtr matrix = ParseFo("forall x, y . (E(x, y) -> "
                         "(C(x) & !C(y)) | (!C(x) & C(y)))",
                         pool)
                     .value();
  int n = static_cast<int>(state.range(0));
  Instance d(Schema{{"E", 2}, {"C", 1}});
  for (int i = 0; i < n; ++i) {
    d.AddFact("E", MakeTuple({i + 1, (i + 1) % n + 1}));
    if (i % 2 == 0) d.AddFact("C", MakeTuple({i + 1}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FoSentenceHolds(matrix, d));
  }
}
BENCHMARK(BM_EvalFoGuardedForall)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_EvalDatalogTc(benchmark::State& state) {
  NamePool pool;
  DatalogProgram program =
      ParseDatalog("T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)", pool)
          .value();
  Instance d = Graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.Query(d, "T"));
  }
}
BENCHMARK(BM_EvalDatalogTc)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_EvalDatalogUnreachable(benchmark::State& state) {
  // Stratified negation: the nodes not reachable from node 1, the
  // complement of a recursive predicate computed one stratum below.
  NamePool pool;
  DatalogProgram program =
      ParseDatalog("Reach(x) :- S(x); Reach(y) :- Reach(x), E(x, y);"
                   "Node(x) :- E(x, y); Node(y) :- E(x, y);"
                   "Unreach(x) :- Node(x), not Reach(x)",
                   pool)
          .value();
  Instance d(Schema{{"E", 2}, {"S", 1}});
  d.Set("E", Graph(static_cast<int>(state.range(0))).Get("E"));
  d.AddFact("S", MakeTuple({1}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(program.Query(d, "Unreach"));
  }
}
BENCHMARK(BM_EvalDatalogUnreachable)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_EvalExistsSo(benchmark::State& state) {
  // 2-colorability on tiny graphs: the exponential wall of ∃SO.
  NamePool pool;
  SoQuery q;
  q.existential = true;
  q.relation_vars = {{"C", 1}};
  FoQuery matrix;
  matrix.formula =
      ParseFo("forall x, y . (E(x, y) -> "
              "(C(x) & !C(y)) | (!C(x) & C(y)))",
              pool)
          .value();
  q.matrix = matrix;
  Instance d = PathInstance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto result = EvaluateSo(q, d);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EvalExistsSo)->DenseRange(2, 6)
    ->Unit(benchmark::kMillisecond);

void BM_HomomorphismSearch(benchmark::State& state) {
  // Boolean chain query into a random graph: the raw hom-search engine.
  ConjunctiveQuery q = CycleQuery(static_cast<int>(state.range(0)));
  Instance d = Graph(24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CqHolds(q, d));
  }
  state.counters["cycle_len"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_HomomorphismSearch)->DenseRange(2, 6)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace vqdr

VQDR_BENCH_MAIN("eval");
