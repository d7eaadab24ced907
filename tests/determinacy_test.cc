// Tests for the paper's core decision procedures: unrestricted CQ
// determinacy (Theorem 3.7), rewriting synthesis (Theorem 3.3 /
// Proposition 3.5, LMSS [22]), and their agreement with brute-force
// finite searches.

#include <gtest/gtest.h>

#include "core/determinacy.h"
#include "core/finite_search.h"
#include "core/genericity.h"
#include "core/rewriting.h"
#include "cq/containment.h"
#include "cq/matcher.h"
#include "cq/parser.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "gen/workloads.h"

namespace vqdr {
namespace {

class DeterminacyFixture : public ::testing::Test {
 protected:
  ConjunctiveQuery Cq(const std::string& text) {
    auto q = ParseCq(text, pool_);
    EXPECT_TRUE(q.ok()) << q.status().message();
    return q.value();
  }

  ViewSet CqViews(const std::vector<std::string>& defs) {
    ViewSet views;
    for (const std::string& def : defs) {
      ConjunctiveQuery q = Cq(def);
      views.Add(q.head_name(), Query::FromCq(q));
    }
    return views;
  }

  NamePool pool_;
};

TEST_F(DeterminacyFixture, IdentityViewDeterminesEverything) {
  ViewSet views = CqViews({"V(x, y) :- E(x, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, z), E(z, y)");
  auto result = DecideUnrestrictedDeterminacy(views, q);
  EXPECT_TRUE(result.determined);
  ASSERT_TRUE(result.canonical_rewriting.has_value());
  // The rewriting evaluates correctly on concrete instances.
  Instance d = PathInstance(5);
  Relation direct = EvaluateCq(q, d);
  Relation via = EvaluateCq(*result.canonical_rewriting, views.Apply(d));
  EXPECT_EQ(direct, via);
}

TEST_F(DeterminacyFixture, Path2ViewAloneDoesNotDeterminePath3) {
  // V = paths of length 2; Q = paths of length 3: the classical
  // non-determined example (the view loses the parity anchoring).
  ViewSet views = CqViews({"P2(x, y) :- E(x, z), E(z, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, y)");
  EXPECT_FALSE(DecideUnrestrictedDeterminacy(views, q).determined);
}

TEST_F(DeterminacyFixture, Path1AndPath2DeterminePath3) {
  // With P1 = E exposed, Q = E∘E∘E rewrites as P1 ∘ P2 (or P2 ∘ P1).
  ViewSet views = CqViews({"P1(x, y) :- E(x, y)",
                           "P2(x, y) :- E(x, z), E(z, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, y)");
  auto result = DecideUnrestrictedDeterminacy(views, q);
  EXPECT_TRUE(result.determined);

  CqRewritingResult rewriting = FindCqRewriting(views, q);
  ASSERT_TRUE(rewriting.exists);
  // Greedy minimisation reaches an irreducible rewriting: either the
  // 2-atom P1∘P2 join or the 3-atom P1 chain, depending on removal order.
  EXPECT_LE(rewriting.rewriting->atoms().size(), 3u);
  EXPECT_TRUE(
      CqEquivalent(ExpandRewriting(*rewriting.rewriting, views), q));
}

TEST_F(DeterminacyFixture, Path2AndPath3DoNotDeterminePath1InUnrestricted) {
  // The famous open-flavoured example: V = {P2, P3}. In the unrestricted
  // case the chase test settles it: not determined... but actually P2 and
  // P3 DO determine P4 = P1∘P3; here we ask for Q = P1 itself, which the
  // chase test refutes.
  ViewSet views = CqViews({"P2(x, y) :- E(x, z), E(z, y)",
                           "P3(x, y) :- E(x, a), E(a, b), E(b, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, y)");
  EXPECT_FALSE(DecideUnrestrictedDeterminacy(views, q).determined);
}

TEST_F(DeterminacyFixture, Path2AndPath3DeterminePath4ViaRewriting) {
  // P4 = P2 ∘ P2 — an easy rewriting, so determinacy must hold and the
  // synthesiser must find a 2-atom rewriting.
  ViewSet views = CqViews({"P2(x, y) :- E(x, z), E(z, y)",
                           "P3(x, y) :- E(x, a), E(a, b), E(b, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, c), E(c, y)");
  auto result = DecideUnrestrictedDeterminacy(views, q);
  EXPECT_TRUE(result.determined);
  CqRewritingResult rewriting = FindCqRewriting(views, q);
  ASSERT_TRUE(rewriting.exists);
  EXPECT_EQ(rewriting.rewriting->atoms().size(), 2u);
  for (const Atom& a : rewriting.rewriting->atoms()) {
    EXPECT_EQ(a.predicate, "P2");
  }
}

TEST_F(DeterminacyFixture, Path2AndPath3DeterminePath5) {
  // P5 = P2 ∘ P3.
  ViewSet views = CqViews({"P2(x, y) :- E(x, z), E(z, y)",
                           "P3(x, y) :- E(x, a), E(a, b), E(b, y)"});
  ConjunctiveQuery q = ChainQuery(5);
  auto result = DecideUnrestrictedDeterminacy(views, q);
  EXPECT_TRUE(result.determined);
}

TEST_F(DeterminacyFixture, BooleanQueryDeterminedByItsOwnView) {
  ViewSet views = CqViews({"V() :- E(x, x)"});
  ConjunctiveQuery q = Cq("Q() :- E(y, y)");
  auto result = DecideUnrestrictedDeterminacy(views, q);
  EXPECT_TRUE(result.determined);
}

TEST_F(DeterminacyFixture, ConstantsInQueryAndViews) {
  ViewSet views = CqViews({"V(x) :- E('a', x)"});
  ConjunctiveQuery q = Cq("Q(x) :- E('a', x)");
  EXPECT_TRUE(DecideUnrestrictedDeterminacy(views, q).determined);
  ConjunctiveQuery q2 = Cq("Q(x) :- E('b', x)");
  EXPECT_FALSE(DecideUnrestrictedDeterminacy(views, q2).determined);
}

TEST_F(DeterminacyFixture, ProjectionViewLosesInformation) {
  ViewSet views = CqViews({"V(x) :- E(x, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, y)");
  EXPECT_FALSE(DecideUnrestrictedDeterminacy(views, q).determined);
}

TEST_F(DeterminacyFixture, UnrestrictedDeterminacyImpliesNoFiniteCounterexample) {
  // Soundness cross-check: whenever the chase test says "determined", the
  // exhaustive finite search over small instances must find no refutation.
  std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"V(x, y) :- E(x, y)"}, "Q(x, y) :- E(x, z), E(z, y)"},
      {{"P1(x, y) :- E(x, y)", "P2(x, y) :- E(x, z), E(z, y)"},
       "Q(x, y) :- E(x, a), E(a, b), E(b, y)"},
      {{"V() :- E(x, x)"}, "Q() :- E(y, y)"},
  };
  for (const auto& [defs, qtext] : cases) {
    ViewSet views = CqViews(defs);
    ConjunctiveQuery q = Cq(qtext);
    ASSERT_TRUE(DecideUnrestrictedDeterminacy(views, q).determined);
    EnumerationOptions options;
    options.domain_size = 2;
    auto search = SearchDeterminacyCounterexample(
        views, Query::FromCq(q), Schema{{"E", 2}}, options);
    EXPECT_EQ(search.verdict, SearchVerdict::kNoneWithinBound) << qtext;
  }
}

TEST_F(DeterminacyFixture, FiniteSearchRefutesNonDeterminedCase) {
  ViewSet views = CqViews({"V(x) :- E(x, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, y)");
  EnumerationOptions options;
  options.domain_size = 2;
  auto search = SearchDeterminacyCounterexample(views, Query::FromCq(q),
                                                Schema{{"E", 2}}, options);
  ASSERT_EQ(search.verdict, SearchVerdict::kCounterexampleFound);
  const auto& ce = *search.counterexample;
  EXPECT_EQ(views.Apply(ce.d1), views.Apply(ce.d2));
  EXPECT_NE(EvaluateCq(q, ce.d1), EvaluateCq(q, ce.d2));
}

TEST_F(DeterminacyFixture, RewritingExistenceMatchesDeterminacy) {
  // Theorem 3.3: in the unrestricted case determinacy and CQ-rewriting
  // existence coincide; sweep a family of view/query combinations.
  for (int view_len = 1; view_len <= 3; ++view_len) {
    for (int query_len = 1; query_len <= 4; ++query_len) {
      ViewSet views = PathViews(view_len);
      ConjunctiveQuery q = ChainQuery(query_len);
      bool determined = DecideUnrestrictedDeterminacy(views, q).determined;
      bool rewritable = FindCqRewriting(views, q).exists;
      EXPECT_EQ(determined, rewritable)
          << "views=P1..P" << view_len << " query=chain" << query_len;
      // With P1 present, every chain query is determined.
      EXPECT_TRUE(determined);
    }
  }
}

TEST_F(DeterminacyFixture, ExpandRewritingUnfoldsViews) {
  ViewSet views = CqViews({"P2(x, y) :- E(x, z), E(z, y)"});
  ConjunctiveQuery r = Cq("Q(x, y) :- P2(x, u), P2(u, y)");
  ConjunctiveQuery expansion = ExpandRewriting(r, views);
  EXPECT_EQ(expansion.atoms().size(), 4u);
  EXPECT_TRUE(CqEquivalent(expansion, ChainQuery(4)));
}

TEST_F(DeterminacyFixture, ExpandRewritingHandlesRepeatedHeadVars) {
  ViewSet views = CqViews({"V(x, x) :- E(x, x)"});
  ConjunctiveQuery r = Cq("Q(a, b) :- V(a, b)");
  ConjunctiveQuery expansion = ExpandRewriting(r, views);
  // The repeated head variable forces a = b in the expansion.
  Instance d(Schema{{"E", 2}});
  d.AddFact("E", MakeTuple({1, 1}));
  d.AddFact("E", MakeTuple({1, 2}));
  Relation answer = EvaluateCq(expansion, d);
  EXPECT_EQ(answer.size(), 1u);
  EXPECT_TRUE(answer.Contains(MakeTuple({1, 1})));
}

TEST_F(DeterminacyFixture, ValidateRewritingAcceptsAndRejects) {
  ViewSet views = CqViews({"P1(x, y) :- E(x, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, z), E(z, y)");
  ConjunctiveQuery good = Cq("Q(x, y) :- P1(x, z), P1(z, y)");
  ConjunctiveQuery bad = Cq("Q(x, y) :- P1(x, y)");
  EnumerationOptions options;
  options.domain_size = 2;
  Schema base{{"E", 2}};
  EXPECT_TRUE(ValidateRewriting(views, Query::FromCq(q), Query::FromCq(good),
                                base, options)
                  .valid);
  auto rejected = ValidateRewriting(views, Query::FromCq(q),
                                    Query::FromCq(bad), base, options);
  EXPECT_FALSE(rejected.valid);
  EXPECT_TRUE(rejected.counterexample.has_value());
}

TEST_F(DeterminacyFixture, UcqRewritingOfUcqQuery) {
  ViewSet views = CqViews({"VA(x) :- A(x)", "VB(x) :- B(x)"});
  auto q = ParseUcq("Q(x) :- A(x) | Q(x) :- B(x)", pool_);
  ASSERT_TRUE(q.ok());
  UcqRewritingResult result = FindUcqRewriting(views, q.value());
  ASSERT_TRUE(result.exists);
  UnionQuery expansion = ExpandUcqRewriting(*result.rewriting, views);
  EXPECT_TRUE(UcqEquivalent(expansion, q.value()));
}

TEST_F(DeterminacyFixture, UcqRewritingFailsWhenViewsTooWeak) {
  ViewSet views = CqViews({"VA(x) :- A(x)"});
  auto q = ParseUcq("Q(x) :- A(x) | Q(x) :- B(x)", pool_);
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(FindUcqRewriting(views, q.value()).exists);
}

TEST_F(DeterminacyFixture, GenericityChecksOnDeterminedPair) {
  // Proposition 4.3 necessary conditions hold on concrete instances for a
  // determined pair.
  ViewSet views = CqViews({"P1(x, y) :- E(x, y)"});
  Query q = Query::FromCq(Cq("Q(x, y) :- E(x, z), E(z, y)"));
  for (int n = 2; n <= 4; ++n) {
    Instance d = PathInstance(n);
    EXPECT_TRUE(CheckAnswerDomainContained(views, q, d));
    EXPECT_TRUE(CheckAutomorphismsPreserved(views, q, d));
  }
}

TEST_F(DeterminacyFixture, GenericityViolationRefutesDeterminacy) {
  // A projection view hides the second column; the answer-domain condition
  // fails on instances where Q exports hidden values.
  ViewSet views = CqViews({"V(x) :- E(x, y)"});
  Query q = Query::FromCq(Cq("Q(x, y) :- E(x, y)"));
  Instance d = PathInstance(3);  // E(1,2), E(2,3): 3 hidden from V
  EXPECT_FALSE(CheckAnswerDomainContained(views, q, d));
}

TEST_F(DeterminacyFixture, MinimizedRewritingStillRewrites) {
  ViewSet views = PathViews(3);
  for (int len = 1; len <= 5; ++len) {
    ConjunctiveQuery q = ChainQuery(len);
    CqRewritingResult result = FindCqRewriting(views, q);
    ASSERT_TRUE(result.exists) << "chain " << len;
    EXPECT_TRUE(CqEquivalent(ExpandRewriting(*result.rewriting, views), q));
    // And semantically on instances.
    EnumerationOptions options;
    options.domain_size = 2;
    EXPECT_TRUE(ValidateRewriting(views, Query::FromCq(q),
                                  Query::FromCq(*result.rewriting),
                                  Schema{{"E", 2}}, options)
                    .valid);
  }
}

// --- Determined without a CQ rewriting ---
//
// V3 = path of length 3 and V4 = path of length 4 determine Q = path of
// length 5 on every instance, through the FO rewriting
//   Q(x, y) <-> exists z [V4(x, z) & forall u (V3(u, z) -> V4(u, y))]:
// (=>) take z as the 4th node of the 5-path; (<=) take u as the 2nd node
// of the 4-path from x to z. No CQ rewriting exists, so the chase test
// rejects the pair; its verdict is deliberately not pinned here.

class PathThreeFourFixture : public DeterminacyFixture {
 protected:
  ViewSet Views() {
    return CqViews({"V3(x, y) :- E(x, a), E(a, b), E(b, y)",
                    "V4(x, y) :- E(x, a), E(a, b), E(b, c), E(c, y)"});
  }
  ConjunctiveQuery Path5() {
    return Cq("Q(x, y) :- E(x, a), E(a, b), E(b, c), E(c, d), E(d, y)");
  }
  FoQuery FoRewriting() {
    auto r = ParseFoQuery(
        "Q(x, y) := exists z. (V4(x, z) & forall u. (V3(u, z) -> V4(u, y)))",
        pool_);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return r.value();
  }
};

TEST_F(PathThreeFourFixture, FoRewritingValidOnEveryInstanceUpToDomainFour) {
  EnumerationOptions options;
  options.domain_size = 4;
  RewritingValidation validation =
      ValidateRewriting(Views(), Query::FromCq(Path5()),
                        Query::FromFo(FoRewriting()), Schema{{"E", 2}},
                        options);
  EXPECT_TRUE(validation.exhaustive);
  EXPECT_TRUE(validation.valid)
      << (validation.counterexample ? validation.counterexample->ToString()
                                    : "");
}

TEST_F(PathThreeFourFixture, FoRewritingAnswersQueryOnRandomGraphImages) {
  ViewSet views = Views();
  ConjunctiveQuery q = Path5();
  FoQuery r = FoRewriting();
  int nonempty = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    int nodes = 6 + static_cast<int>(seed % 7);
    Instance g = RandomGraph(nodes, nodes + static_cast<int>(seed % 11), seed);
    Relation want = EvaluateCq(q, g);
    EXPECT_EQ(EvaluateFo(r, views.Apply(g)), want) << "seed " << seed;
    if (!want.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 10);
}

// --- Golden verdict+witness fixtures (DESIGN.md §12) ---
//
// Recorded from the seed matcher. The canonical rewriting and the
// containment witness below are byte-products of the matcher's enumeration
// order (the chase picks the FIRST hom it finds), so any engine change that
// shifts the order — even to an equally valid hom — breaks these fixtures.

TEST_F(DeterminacyFixture, GoldenCanonicalRewritingBytes) {
  ViewSet views = CqViews({"P1(x, y) :- E(x, y)",
                           "P2(x, y) :- E(x, z), E(z, y)"});
  ConjunctiveQuery q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, y)");
  auto result = DecideUnrestrictedDeterminacy(views, q);
  ASSERT_TRUE(result.determined);
  ASSERT_TRUE(result.canonical_rewriting.has_value());
  EXPECT_EQ(result.canonical_rewriting->ToString(), "Q(v1, v4) :- P1(v1, v2), P1(v2, v3), P1(v3, v4), "
            "P2(v1, v3), P2(v2, v4)");
}

TEST_F(DeterminacyFixture, GoldenDeterminacyVerdictBattery) {
  // Verdicts recorded from the seed: byte-stable regardless of engine.
  ViewSet p2 = CqViews({"P2(x, y) :- E(x, z), E(z, y)"});
  ViewSet p1p2 = CqViews({"P1(x, y) :- E(x, y)",
                          "P2(x, y) :- E(x, z), E(z, y)"});
  ViewSet p2p3 = CqViews({"P2(x, y) :- E(x, z), E(z, y)",
                          "P3(x, y) :- E(x, a), E(a, b), E(b, y)"});
  ConjunctiveQuery p3q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, y)");
  ConjunctiveQuery p4q = Cq("Q(x, y) :- E(x, a), E(a, b), E(b, c), E(c, y)");
  ConjunctiveQuery p1q = Cq("Q(x, y) :- E(x, y)");
  EXPECT_FALSE(DecideUnrestrictedDeterminacy(p2, p3q).determined);
  EXPECT_TRUE(DecideUnrestrictedDeterminacy(p1p2, p3q).determined);
  EXPECT_TRUE(DecideUnrestrictedDeterminacy(p2p3, p4q).determined);
  EXPECT_FALSE(DecideUnrestrictedDeterminacy(p2p3, p1q).determined);
}

}  // namespace
}  // namespace vqdr
