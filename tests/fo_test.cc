// Tests for the FO module: parsing, active-domain evaluation,
// classification, normalization, order-invariance.

#include <gtest/gtest.h>

#include "cq/parser.h"
#include "fo/evaluator.h"
#include "fo/from_cq.h"
#include "fo/library.h"
#include "fo/normalize.h"
#include "fo/order_invariance.h"
#include "cq/matcher.h"
#include "fo/parser.h"
#include "gen/workloads.h"
#include "obs/metrics.h"

namespace vqdr {
namespace {

class FoFixture : public ::testing::Test {
 protected:
  FoPtr Fo(const std::string& text) {
    auto f = ParseFo(text, pool_);
    EXPECT_TRUE(f.ok()) << f.status().message() << " in: " << text;
    return f.value();
  }

  FoQuery FoQ(const std::string& text) {
    auto q = ParseFoQuery(text, pool_);
    EXPECT_TRUE(q.ok()) << q.status().message() << " in: " << text;
    return q.value();
  }

  Instance Db(const std::string& text, const Schema& schema) {
    auto d = ParseInstance(text, schema, pool_);
    EXPECT_TRUE(d.ok()) << d.status().message();
    return d.value();
  }

  NamePool pool_;
};

TEST_F(FoFixture, ParsePrecedence) {
  // & binds tighter than |, which binds tighter than ->.
  FoPtr f = Fo("A() & B() | C() -> D()");
  EXPECT_EQ(f->kind(), FoFormula::Kind::kImplies);
  EXPECT_EQ(f->children()[0]->kind(), FoFormula::Kind::kOr);
}

TEST_F(FoFixture, ParseQuantifierScopesRight) {
  FoPtr f = Fo("forall x . R(x) -> S(x)");
  // Scope extends right: ∀x.(R(x) → S(x)).
  EXPECT_EQ(f->kind(), FoFormula::Kind::kForall);
}

TEST_F(FoFixture, ParseErrors) {
  EXPECT_FALSE(ParseFo("forall . R(x)", pool_).ok());
  EXPECT_FALSE(ParseFo("R(x", pool_).ok());
  EXPECT_FALSE(ParseFo("R(x) &", pool_).ok());
  EXPECT_FALSE(ParseFo("R(x) R(y)", pool_).ok());
  EXPECT_FALSE(ParseFoQuery("Q(x) := R(x, y)", pool_).ok());  // y free
}

TEST_F(FoFixture, FreeVariables) {
  FoPtr f = Fo("exists y . R(x, y) & S(z)");
  auto free = f->FreeVariables();
  EXPECT_EQ(free.size(), 2u);
  EXPECT_TRUE(free.count("x"));
  EXPECT_TRUE(free.count("z"));
}

TEST_F(FoFixture, EvaluateQuantifiers) {
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, b), E(b, c)", schema);
  EXPECT_TRUE(FoSentenceHolds(Fo("exists x, y . E(x, y)"), d));
  EXPECT_FALSE(FoSentenceHolds(Fo("forall x . exists y . E(x, y)"), d));
  // Every node has an in- or out-edge here.
  EXPECT_TRUE(FoSentenceHolds(
      Fo("forall x . (exists y . E(x, y)) | (exists y . E(y, x))"), d));
}

TEST_F(FoFixture, EvaluateNegationAndEquality) {
  Schema schema{{"P", 1}};
  Instance d = Db("P(a), P(b)", schema);
  EXPECT_TRUE(FoSentenceHolds(Fo("exists x, y . P(x) & P(y) & x != y"), d));
  EXPECT_FALSE(
      FoSentenceHolds(Fo("forall x, y . (P(x) & P(y) -> x = y)"), d));
}

TEST_F(FoFixture, EvaluateConstants) {
  Schema schema{{"P", 1}};
  Instance d = Db("P(a)", schema);
  EXPECT_TRUE(FoSentenceHolds(Fo("P('a')"), d));
  EXPECT_FALSE(FoSentenceHolds(Fo("P('zzz')"), d));
  // Constants extend the quantification range even if absent from adom.
  EXPECT_TRUE(FoSentenceHolds(Fo("exists x . !P(x) & x = 'zzz'"), d));
}

TEST_F(FoFixture, EvaluateOnEmptyInstance) {
  Schema schema{{"P", 1}};
  Instance d(schema);
  EXPECT_FALSE(FoSentenceHolds(Fo("exists x . P(x)"), d));
  EXPECT_TRUE(FoSentenceHolds(Fo("forall x . P(x)"), d));  // vacuous
}

TEST_F(FoFixture, EvaluateQueryWithFreeVariables) {
  Schema schema{{"E", 2}};
  Instance d = Db("E(a, b), E(b, c)", schema);
  FoQuery q = FoQ("Q(x) := exists y . E(x, y) & !(exists z . E(z, x))");
  Relation answer = EvaluateFo(q, d);
  // Sources: nodes with out-edges but no in-edges: a.
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_TRUE(answer.Contains(Tuple{pool_.Intern("a")}));
}

TEST_F(FoFixture, GuardedPath2TakesNoRangeBindings) {
  // Path-2 as an FO query (h1 = x ∧ h2 = z ∧ E(x, y) ∧ E(y, z) under ∃):
  // every variable is guarded by an atom or an equality, so none ranges
  // over the active domain. The assignment-at-a-time evaluator made
  // 16^2 * 16^3 = 1,048,576 leaf evaluations on this graph.
  FoQuery q = CqToFoQuery(ChainQuery(2));
  Instance g = RandomGraph(16, 48, 1);
  obs::Counter& calls = obs::GetCounter("fo.eval.calls");
  obs::Counter& bindings = obs::GetCounter("fo.eval.bindings");
  obs::Counter& range = obs::GetCounter("fo.eval.range_bindings");
  std::uint64_t calls0 = calls.value(), bindings0 = bindings.value(),
                range0 = range.value();
  Relation answer = EvaluateFo(q, g);
  EXPECT_EQ(answer, EvaluateCq(ChainQuery(2), g));
  EXPECT_EQ(range.value() - range0, 0u);
  EXPECT_EQ(calls.value() - calls0, 1u);
  EXPECT_GT(bindings.value() - bindings0, 0u);
}

TEST_F(FoFixture, ExistentialClassification) {
  EXPECT_TRUE(Fo("exists x . R(x)")->IsExistential());
  EXPECT_FALSE(Fo("forall x . R(x)")->IsExistential());
  // ¬∀x.¬R(x) ≡ ∃x.R(x) is existential by polarity.
  EXPECT_TRUE(Fo("!(forall x . !R(x))")->IsExistential());
  // Universal inside a negated implication-left is fine too.
  EXPECT_FALSE(Fo("exists x . R(x) & forall y . S(y)")->IsExistential());
}

TEST_F(FoFixture, RenameRelations) {
  FoPtr f = Fo("forall x . R(x) -> S(x)");
  FoPtr renamed = f->RenameRelations(
      [](const std::string& r) { return "one_" + r; });
  Schema used = renamed->UsedSchema();
  EXPECT_TRUE(used.Contains("one_R"));
  EXPECT_TRUE(used.Contains("one_S"));
  EXPECT_FALSE(used.Contains("R"));
}

TEST_F(FoFixture, NormalizeToAndNotExistsPreservesSemantics) {
  Schema schema{{"E", 2}, {"P", 1}};
  std::vector<std::string> sentences = {
      "forall x . exists y . E(x, y) | P(x)",
      "forall x, y . (E(x, y) -> E(y, x))",
      "(exists x . P(x)) <-> (forall y . E(y, y))",
      "forall x . (P(x) & !(exists y . E(x, y)))",
  };
  std::vector<std::string> dbs = {"", "E(a, b), P(a)", "E(a, a), E(b, b)",
                                  "P(a), P(b), E(b, a)"};
  for (const std::string& text : sentences) {
    FoPtr original = Fo(text);
    FoPtr normalized = ToAndNotExists(original);
    // Normal form uses only ∧, ¬, ∃ (checked via IsExistential-style walk
    // below by rendering: no 'forall', '|', '->' appear).
    std::string rendered = normalized->ToString();
    EXPECT_EQ(rendered.find("forall"), std::string::npos) << rendered;
    EXPECT_EQ(rendered.find("->"), std::string::npos) << rendered;
    EXPECT_EQ(rendered.find(" | "), std::string::npos) << rendered;
    for (const std::string& db_text : dbs) {
      Instance d = Db(db_text, schema);
      EXPECT_EQ(FoSentenceHolds(original, d), FoSentenceHolds(normalized, d))
          << text << " on " << db_text;
    }
  }
}

TEST_F(FoFixture, CqToFoQueryAgreesWithCqEvaluation) {
  Schema schema{{"E", 2}, {"T", 1}};
  Instance d = Db("E(a, b), E(b, c), E(c, c), T(b)", schema);
  auto cq = ParseCq("Q(x, y) :- E(x, z), E(z, y), not T(x), x != y", pool_);
  ASSERT_TRUE(cq.ok());
  FoQuery fo = CqToFoQuery(cq.value());
  EXPECT_EQ(EvaluateFo(fo, d), EvaluateCq(cq.value(), d));
}

TEST_F(FoFixture, UcqToFoQueryAgreesWithUcqEvaluation) {
  Schema schema{{"A", 1}, {"B", 1}};
  Instance d = Db("A(a), B(b), B(c)", schema);
  auto ucq = ParseUcq("Q(x) :- A(x) | Q(x) :- B(x)", pool_);
  ASSERT_TRUE(ucq.ok());
  FoQuery fo = UcqToFoQuery(ucq.value());
  EXPECT_EQ(EvaluateFo(fo, d), EvaluateUcq(ucq.value(), d));
}

TEST_F(FoFixture, StrictTotalOrderSentenceRecognizesOrders) {
  Schema schema{{"Lt", 2}};
  FoPtr psi = StrictTotalOrderSentence("Lt");
  EXPECT_TRUE(FoSentenceHolds(psi, Db("Lt(a, b), Lt(b, c), Lt(a, c)",
                                      schema)));
  EXPECT_FALSE(FoSentenceHolds(psi, Db("Lt(a, b), Lt(b, c)", schema)));
  EXPECT_FALSE(FoSentenceHolds(psi, Db("Lt(a, b), Lt(b, a)", schema)));
  EXPECT_FALSE(FoSentenceHolds(psi, Db("Lt(a, a)", schema)));
}

TEST_F(FoFixture, LinearOrderSentenceRecognizesOrders) {
  Schema schema{{"Le", 2}};
  FoPtr psi = LinearOrderSentence("Le");
  EXPECT_TRUE(FoSentenceHolds(
      psi, Db("Le(a, a), Le(b, b), Le(a, b)", schema)));
  EXPECT_FALSE(FoSentenceHolds(psi, Db("Le(a, b), Le(b, b)", schema)));
}

TEST_F(FoFixture, OrderInvarianceDetectsInvariantQuery) {
  // "at least two elements" phrased with the order: invariant.
  Schema schema{{"P", 1}};
  Instance d = Db("P(a), P(b), P(c)", schema);
  FoQuery q = FoQ("Q() := exists x, y . Lt(x, y)");
  OrderInvarianceResult result = CheckOrderInvariance(q, d, "Lt");
  EXPECT_TRUE(result.invariant);
  EXPECT_EQ(result.orders_checked, 6u);  // 3! orders
  EXPECT_TRUE(result.answer.AsBool());
}

TEST_F(FoFixture, OrderInvarianceDetectsNonInvariantQuery) {
  // "the minimum is in P": depends on the order.
  Schema schema{{"P", 1}, {"M", 1}};
  Instance d = Db("P(a), M(b)", schema);
  FoQuery q = FoQ("Q() := exists x . P(x) & !(exists y . Lt(y, x))");
  OrderInvarianceResult result = CheckOrderInvariance(q, d, "Lt");
  EXPECT_FALSE(result.invariant);
}

TEST_F(FoFixture, DeeplyNestedNegationIsRejectedNotOverflowed) {
  // 10k-deep "!" chain: without the parser's depth limit this would
  // overflow the thread stack in the recursive descent.
  std::string text(10'000, '!');
  text += "P(x)";
  auto f = ParseFo(text, pool_);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FoFixture, DeeplyNestedParensAreRejectedNotOverflowed) {
  std::string text(10'000, '(');
  text += "P(x)";
  text += std::string(10'000, ')');
  auto f = ParseFo(text, pool_);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FoFixture, DeeplyNestedQuantifiersAreRejectedNotOverflowed) {
  std::string text;
  for (int i = 0; i < 5'000; ++i) text += "exists x . ";
  text += "P(x)";
  auto f = ParseFo(text, pool_);
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FoFixture, ModerateNestingStillParses) {
  // The limit must not reject reasonable formulas.
  std::string text(100, '!');
  text += "P(x)";
  EXPECT_TRUE(ParseFo(text, pool_).ok());
}

TEST_F(FoFixture, MalformedFormulaCorpusErrorsCleanly) {
  const char* corpus[] = {
      "",
      "P(",
      "P(x",
      "P(x,",
      "forall . P(x)",
      "exists x P(x)",
      "P(x) &",
      "| P(x)",
      "P(x) ->",
      "x =",
      "!= y",
      "'unterminated",
      "P(x) @ Q(y)",
      "((P(x))",
      "P(x))",
  };
  for (const char* text : corpus) {
    auto f = ParseFo(text, pool_);
    EXPECT_FALSE(f.ok()) << "accepted malformed: " << text;
  }
}

TEST_F(FoFixture, WithStrictOrderBuildsAllPairs) {
  Schema schema{{"P", 1}};
  Instance d = Db("P(a), P(b), P(c)", schema);
  std::vector<Value> ranked{pool_.Intern("c"), pool_.Intern("a"),
                            pool_.Intern("b")};
  Instance ordered = WithStrictOrder(d, "Lt", ranked);
  EXPECT_EQ(ordered.Get("Lt").size(), 3u);  // 3 choose 2
  EXPECT_TRUE(ordered.HasFact("Lt", Tuple{pool_.Intern("c"),
                                          pool_.Intern("b")}));
  EXPECT_FALSE(ordered.HasFact("Lt", Tuple{pool_.Intern("b"),
                                           pool_.Intern("c")}));
}

}  // namespace
}  // namespace vqdr
