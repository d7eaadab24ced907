// Tests for second-order evaluation (∃SO/∀SO, Figure 1) and the Datalog
// engine (Corollaries 5.6/5.9 machinery).

#include <gtest/gtest.h>

#include "cq/parser.h"
#include "datalog/program.h"
#include "fo/parser.h"
#include "obs/metrics.h"
#include "so/so_query.h"
#include "views/query.h"

namespace vqdr {
namespace {

class SoDatalogFixture : public ::testing::Test {
 protected:
  FoQuery FoQ(const std::string& text) {
    auto q = ParseFoQuery(text, pool_);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q.value();
  }

  Instance Db(const std::string& text, const Schema& schema) {
    auto d = ParseInstance(text, schema, pool_);
    EXPECT_TRUE(d.ok()) << d.status().message();
    return d.value();
  }

  NamePool pool_;
};

// ∃SO: 2-colorability (a classic NP property). A 2-coloring partitions the
// nodes so that every edge crosses.
TEST_F(SoDatalogFixture, ExistsSoTwoColorability) {
  SoQuery q;
  q.existential = true;
  q.relation_vars = {{"C", 1}};
  q.matrix = FoQ(
      "Q() := forall x, y . (E(x, y) -> (C(x) & !C(y)) | (!C(x) & C(y)))");

  Schema schema{{"E", 2}};
  // A 4-cycle is 2-colorable.
  Instance square = Db("E(a, b), E(b, c), E(c, d), E(d, a)", schema);
  auto r1 = SoSentenceHolds(q, square);
  ASSERT_TRUE(r1.ok()) << r1.status().message();
  EXPECT_TRUE(r1.value());
  // A triangle is not.
  Instance triangle = Db("E(a, b), E(b, c), E(c, a)", schema);
  auto r2 = SoSentenceHolds(q, triangle);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value());
}

// ∀SO: non-3-colorability is co-NP; here a simpler ∀SO check — every
// subset closed under edges and containing a source contains everything —
// expresses connectivity-style reachability from 'a'.
TEST_F(SoDatalogFixture, ForallSoReachability) {
  SoQuery q;
  q.existential = false;
  q.relation_vars = {{"S", 1}};
  q.matrix = FoQ(
      "Q() := (S('a') & (forall x, y . (S(x) & E(x, y) -> S(y)))) "
      "-> forall z . ((exists w . E(z, w) | E(w, z)) -> S(z))");

  Schema schema{{"E", 2}};
  Instance path = Db("E(a, b), E(b, c)", schema);
  auto reachable = SoSentenceHolds(q, path);
  ASSERT_TRUE(reachable.ok());
  EXPECT_TRUE(reachable.value());

  Instance split = Db("E(a, b), E(c, d)", schema);
  auto unreachable = SoSentenceHolds(q, split);
  ASSERT_TRUE(unreachable.ok());
  EXPECT_FALSE(unreachable.value());
}

TEST_F(SoDatalogFixture, SoWithFreeVariables) {
  // Q(x): x belongs to some independent set containing it of size >= 2 —
  // phrased: exists S with x ∈ S, some y ≠ x in S, and no edge within S.
  SoQuery q;
  q.existential = true;
  q.relation_vars = {{"S", 1}};
  q.matrix = FoQ(
      "Q(h) := S(h) & (exists y . S(y) & y != h) "
      "& (forall u, v . (S(u) & S(v) -> !E(u, v)))");
  Schema schema{{"E", 2}};
  Instance path = Db("E(a, b), E(b, c)", schema);
  auto answer = EvaluateSo(q, path);
  ASSERT_TRUE(answer.ok());
  // {a, c} is independent; b is adjacent to both others but {b} ∪ {} too
  // small, and {a,c} ∌ b. So answers: a and c.
  EXPECT_EQ(answer->size(), 2u);
  EXPECT_TRUE(answer->Contains(Tuple{pool_.Intern("a")}));
  EXPECT_TRUE(answer->Contains(Tuple{pool_.Intern("c")}));
}

TEST_F(SoDatalogFixture, SoBudgetIsEnforced) {
  SoQuery q;
  q.existential = true;
  q.relation_vars = {{"S", 2}};  // n² candidate tuples
  q.matrix = FoQ("Q() := exists x . S(x, x)");
  Schema schema{{"E", 2}};
  // 6 nodes → 36 candidate tuples > default 24.
  Instance big = Db("E(a,b), E(b,c), E(c,d), E(d,e), E(e,f)", schema);
  auto result = SoSentenceHolds(q, big);
  EXPECT_FALSE(result.ok());
}

TEST_F(SoDatalogFixture, DatalogTransitiveClosure) {
  auto program = ParseDatalog(
      "T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)", pool_);
  ASSERT_TRUE(program.ok()) << program.status().message();
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, b), E(b, c), E(c, d)", schema);
  auto t = program->Query(d, "T");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 6u);  // all forward pairs
  EXPECT_TRUE(t->Contains(Tuple{pool_.Intern("a"), pool_.Intern("d")}));
}

TEST_F(SoDatalogFixture, DatalogSemiNaiveMatchesOnCycle) {
  auto program = ParseDatalog(
      "T(x, y) :- E(x, y); T(x, y) :- T(x, z), T(z, y)", pool_);
  ASSERT_TRUE(program.ok());
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, b), E(b, a)", schema);
  auto t = program->Query(d, "T");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 4u);  // {a,b}²
}

TEST_F(SoDatalogFixture, DatalogWithDisequality) {
  auto program =
      ParseDatalog("NEq(x, y) :- E(x, y), x != y", pool_);
  ASSERT_TRUE(program.ok());
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, a), E(a, b)", schema);
  auto answer = program->Query(d, "NEq");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 1u);
}

TEST_F(SoDatalogFixture, DatalogStratifiedNegation) {
  // Nodes not reachable from 'a'.
  auto program = ParseDatalog(
      "Reach(x) :- S(x);"
      "Reach(y) :- Reach(x), E(x, y);"
      "Node(x) :- E(x, y); Node(y) :- E(x, y);"
      "Unreach(x) :- Node(x), not Reach(x)",
      pool_);
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->IsStratified());
  EXPECT_FALSE(program->IsPositive());

  Schema schema{{"E", 2}, {"S", 1}};
  Instance d = Db("S(a), E(a, b), E(c, d)", schema);
  auto answer = program->Query(d, "Unreach");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->size(), 2u);
  EXPECT_TRUE(answer->Contains(Tuple{pool_.Intern("c")}));
  EXPECT_TRUE(answer->Contains(Tuple{pool_.Intern("d")}));
}

TEST_F(SoDatalogFixture, DatalogRejectsUnstratified) {
  auto program = ParseDatalog("P(x) :- E(x, y), not P(y)", pool_);
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(program->IsStratified());
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, b)", schema);
  EXPECT_FALSE(program->Evaluate(d).ok());
}

TEST_F(SoDatalogFixture, DatalogRejectsUnsafeRule) {
  auto program = ParseDatalog("P(x, w) :- E(x, y)", pool_);
  ASSERT_TRUE(program.ok());
  Schema schema{{"E", 2}};
  EXPECT_FALSE(program->Evaluate(Instance(schema)).ok());
}

TEST_F(SoDatalogFixture, DatalogArityConflictInProgramIsAnError) {
  // A predicate used with two arities is an error from both entry points,
  // naming the predicate and both arities; it must not abort.
  auto parsed = ParseDatalog("T(x) :- E(x, y); S(x) :- E(x)", pool_);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("E used with arity 2 and arity 1"),
            std::string::npos)
      << parsed.status().message();

  DatalogProgram program;
  DatalogRule binary;
  binary.head = Atom("T", {Term::Var("x")});
  binary.positive = {Atom("E", {Term::Var("x"), Term::Var("y")})};
  DatalogRule unary;
  unary.head = Atom("S", {Term::Var("x")});
  unary.positive = {Atom("E", {Term::Var("x")})};
  program.AddRule(binary);
  program.AddRule(unary);
  auto result = program.Evaluate(Instance(Schema{{"F", 1}}));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("E used with arity 2 and arity 1"),
            std::string::npos)
      << result.status().message();
}

TEST_F(SoDatalogFixture, DatalogArityConflictWithEdbIsAnError) {
  auto program = ParseDatalog("T(x) :- E(x)", pool_);
  ASSERT_TRUE(program.ok());
  Instance d = Db("E(a, b)", Schema{{"E", 2}});
  auto result = program->Evaluate(d);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("E used with arity 2 and arity 1"),
            std::string::npos)
      << result.status().message();
  EXPECT_FALSE(program->Query(d, "T").ok());

  // An IDB predicate the instance declares with another arity, too.
  auto head = ParseDatalog("E(x) :- F(x)", pool_);
  ASSERT_TRUE(head.ok());
  EXPECT_FALSE(head->Evaluate(d).ok());
}

TEST_F(SoDatalogFixture, DatalogDeepNegationChainEvaluates) {
  // P0 :- not P1, P1 :- not P2, ..., listed so that each pass of the
  // stratum computation settles one more level: 1,002 strata take 1,002
  // passes, more than a fixed cap of 1,000 would allow.
  constexpr int kLevels = 1001;
  std::string text;
  for (int i = 0; i < kLevels; ++i) {
    text += "P" + std::to_string(i) + "(x) :- E(x, x), not P" +
            std::to_string(i + 1) + "(x);";
  }
  text += "P" + std::to_string(kLevels) + "(x) :- E(x, x)";
  auto program = ParseDatalog(text, pool_);
  ASSERT_TRUE(program.ok()) << program.status().message();
  Instance d = Db("E(a, a)", Schema{{"E", 2}});
  auto result = program->Evaluate(d);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // P_kLevels holds a; the levels below alternate.
  for (int i = kLevels; i >= kLevels - 3; --i) {
    bool holds = (kLevels - i) % 2 == 0;
    EXPECT_EQ(result->Get("P" + std::to_string(i)).size(), holds ? 1u : 0u);
  }
  EXPECT_EQ(result->Get("P0").size(), kLevels % 2 == 0 ? 1u : 0u);
}

TEST_F(SoDatalogFixture, DatalogWorkCountersOnPathClosure) {
  // TC of the path a -> b -> c -> d. Round 1 (naive) derives the 3 edges;
  // the delta rounds then derive ac and bd, then ad, then nothing, each
  // derivation joining a new T fact with the edge into its source.
  auto program = ParseDatalog(
      "T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)", pool_);
  ASSERT_TRUE(program.ok());
  Instance d = Db("E(a, b), E(b, c), E(c, d)", Schema{{"E", 2}});
  obs::Counter& calls = obs::GetCounter("datalog.eval.calls");
  obs::Counter& rounds = obs::GetCounter("datalog.eval.rounds");
  obs::Counter& derivations = obs::GetCounter("datalog.eval.derivations");
  std::uint64_t calls0 = calls.value(), rounds0 = rounds.value(),
                derivations0 = derivations.value();
  auto t = program->Query(d, "T");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 6u);
  EXPECT_EQ(calls.value() - calls0, 1u);
  EXPECT_EQ(rounds.value() - rounds0, 4u);
  EXPECT_EQ(derivations.value() - derivations0, 6u);
}

TEST_F(SoDatalogFixture, DatalogSameGenerationProgram) {
  // Same-generation: a classic nonlinear Datalog workload.
  auto program = ParseDatalog(
      "SG(x, y) :- Par(x, p), Par(y, p);"
      "SG(x, y) :- Par(x, u), Par(y, v), SG(u, v)",
      pool_);
  ASSERT_TRUE(program.ok());
  Schema schema{{"Par", 2}};
  // A small tree: r has children a, b; a has child c; b has child d.
  Instance d = Db("Par(a, r), Par(b, r), Par(c, a), Par(d, b)", schema);
  auto sg = program->Query(d, "SG");
  ASSERT_TRUE(sg.ok());
  EXPECT_TRUE(sg->Contains(Tuple{pool_.Intern("a"), pool_.Intern("b")}));
  EXPECT_TRUE(sg->Contains(Tuple{pool_.Intern("c"), pool_.Intern("d")}));
  EXPECT_FALSE(sg->Contains(Tuple{pool_.Intern("a"), pool_.Intern("d")}));
}

TEST_F(SoDatalogFixture, QueryWrapperDatalogEval) {
  auto program = ParseDatalog(
      "T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)", pool_);
  ASSERT_TRUE(program.ok());
  Query q = Query::FromDatalog(program.value(), "T");
  EXPECT_EQ(q.language(), Query::Language::kDatalog);
  EXPECT_EQ(q.arity(), 2);
  EXPECT_TRUE(q.IsSyntacticallyMonotone());
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, b), E(b, c)", schema);
  EXPECT_EQ(q.Eval(d).size(), 3u);
}

}  // namespace
}  // namespace vqdr
