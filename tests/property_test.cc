// Property-based sweeps (parameterized over deterministic seeds): the
// cross-cutting invariants the paper's definitions rest on — genericity,
// the determinacy/rewriting equivalence on *constructed* rewritable pairs,
// evaluator agreement across languages, and containment laws.

#include <gtest/gtest.h>

#include "core/determinacy.h"
#include "core/finite_search.h"
#include "core/genericity.h"
#include "core/rewriting.h"
#include "cq/containment.h"
#include "cq/matcher.h"
#include "cq/minimize.h"
#include "data/isomorphism.h"
#include "fo/evaluator.h"
#include "fo/from_cq.h"
#include "gen/random_instance.h"
#include "gen/random_query.h"
#include "gen/workloads.h"

namespace vqdr {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// A value permutation for genericity checks: shift non-colliding values.
Instance Permuted(const Instance& d, std::int64_t shift) {
  return d.Apply([shift](Value v) { return Value(v.id + shift); });
}

Relation PermutedRelation(const Relation& r, std::int64_t shift) {
  return r.Apply([shift](Value v) { return Value(v.id + shift); });
}

// --- Genericity: Q(π(D)) = π(Q(D)) for every language wrapper ---

TEST_P(SeededProperty, CqEvaluationIsGeneric) {
  Rng rng(GetParam());
  RandomCqOptions options;
  ConjunctiveQuery q = RandomCq(rng, options);
  RandomInstanceOptions iopts;
  iopts.domain_size = 5;
  Instance d = RandomInstance(options.schema, rng, iopts);
  Relation direct = EvaluateCq(q, Permuted(d, 100));
  Relation mapped = PermutedRelation(EvaluateCq(q, d), 100);
  EXPECT_EQ(direct, mapped);
}

TEST_P(SeededProperty, FoEvaluationIsGeneric) {
  Rng rng(GetParam());
  RandomCqOptions options;
  ConjunctiveQuery cq = RandomCq(rng, options);
  FoQuery q = CqToFoQuery(cq);
  RandomInstanceOptions iopts;
  iopts.domain_size = 4;
  Instance d = RandomInstance(options.schema, rng, iopts);
  EXPECT_EQ(EvaluateFo(q, Permuted(d, 100)),
            PermutedRelation(EvaluateFo(q, d), 100));
}

// --- Language agreement: the CQ matcher and the FO evaluator coincide ---

TEST_P(SeededProperty, CqAndFoEvaluatorsAgree) {
  Rng rng(GetParam());
  RandomCqOptions options;
  options.max_atoms = 3;
  ConjunctiveQuery q = RandomCq(rng, options);
  FoQuery fo = CqToFoQuery(q);
  RandomInstanceOptions iopts;
  iopts.domain_size = 4;
  iopts.tuples_per_relation = 8;
  for (int i = 0; i < 3; ++i) {
    Instance d = RandomInstance(options.schema, rng, iopts);
    EXPECT_EQ(EvaluateCq(q, d), EvaluateFo(fo, d)) << q.ToString();
  }
}

// --- Containment laws over random query pools ---

TEST_P(SeededProperty, ContainmentIsReflexiveAndRespectsEvaluation) {
  Rng rng(GetParam());
  RandomCqOptions options;
  ConjunctiveQuery q1 = RandomCq(rng, options);
  ConjunctiveQuery q2 = RandomCq(rng, options);
  EXPECT_TRUE(CqContainedIn(q1, q1));
  EXPECT_TRUE(CqContainedIn(q2, q2));

  // Soundness of the decision against actual evaluation: if q1 ⊆ q2 then
  // q1(D) ⊆ q2(D) on sampled instances.
  bool contained = CqContainedIn(q1, q2);
  RandomInstanceOptions iopts;
  iopts.domain_size = 4;
  for (int i = 0; i < 3; ++i) {
    Instance d = RandomInstance(options.schema, rng, iopts);
    if (contained) {
      EXPECT_TRUE(EvaluateCq(q1, d).IsSubsetOf(EvaluateCq(q2, d)))
          << q1.ToString() << "  vs  " << q2.ToString();
    }
  }
}

TEST_P(SeededProperty, ContainmentIsTransitiveOnSamples) {
  Rng rng(GetParam());
  RandomCqOptions options;
  ConjunctiveQuery a = RandomCq(rng, options);
  ConjunctiveQuery b = RandomCq(rng, options);
  ConjunctiveQuery c = RandomCq(rng, options);
  if (CqContainedIn(a, b) && CqContainedIn(b, c)) {
    EXPECT_TRUE(CqContainedIn(a, c));
  }
}

TEST_P(SeededProperty, MinimizationPreservesSemantics) {
  Rng rng(GetParam());
  RandomCqOptions options;
  options.max_atoms = 4;
  ConjunctiveQuery q = RandomCq(rng, options);
  ConjunctiveQuery core = MinimizeCq(q);
  EXPECT_LE(core.atoms().size(), q.atoms().size());
  EXPECT_TRUE(CqEquivalent(q, core));
  RandomInstanceOptions iopts;
  iopts.domain_size = 4;
  Instance d = RandomInstance(options.schema, rng, iopts);
  EXPECT_EQ(EvaluateCq(q, d), EvaluateCq(core, d));
}

// --- The headline property: constructed rewritable pairs are recognised ---

TEST_P(SeededProperty, ConstructedRewritingsAreAlwaysRecognised) {
  // Build random views V, a random rewriting R over σ_V, and set
  // Q := expansion(R). Then Q = R ∘ V by construction, so the chase test
  // must say "determined" and the synthesiser must produce a working
  // rewriting.
  Rng rng(GetParam());
  RandomCqOptions options;
  options.max_atoms = 2;
  ViewSet views = RandomCqViews(rng, options, /*count=*/2);
  ConjunctiveQuery r = RandomRewriting(rng, views, /*max_atoms=*/2,
                                       /*head_arity=*/1);
  ConjunctiveQuery q = ExpandRewriting(r, views);
  if (!q.IsPureCq() || !q.IsSafe() || q.atoms().empty()) {
    GTEST_SKIP() << "degenerate expansion";
  }

  UnrestrictedDeterminacyResult det = DecideUnrestrictedDeterminacy(views, q);
  EXPECT_TRUE(det.determined)
      << "views:\n" << views.ToString() << "rewriting: " << r.ToString()
      << "\nexpansion: " << q.ToString();

  CqRewritingResult synthesized = FindCqRewriting(views, q);
  ASSERT_TRUE(synthesized.exists);
  EXPECT_TRUE(CqEquivalent(ExpandRewriting(*synthesized.rewriting, views), q));
}

TEST_P(SeededProperty, DeterminedPairsPassGenericityChecks) {
  Rng rng(GetParam());
  RandomCqOptions options;
  options.max_atoms = 2;
  ViewSet views = RandomCqViews(rng, options, 2);
  ConjunctiveQuery r = RandomRewriting(rng, views, 2, 1);
  ConjunctiveQuery q = ExpandRewriting(r, views);
  if (!q.IsPureCq() || !q.IsSafe() || q.atoms().empty()) {
    GTEST_SKIP() << "degenerate expansion";
  }
  RandomInstanceOptions iopts;
  iopts.domain_size = 4;
  Instance d = RandomInstance(options.schema, rng, iopts);
  // Proposition 4.3's necessary conditions on a determined pair.
  EXPECT_TRUE(CheckAnswerDomainContained(views, Query::FromCq(q), d));
  EXPECT_TRUE(CheckAutomorphismsPreserved(views, Query::FromCq(q), d));
}

TEST_P(SeededProperty, ChaseDecisionSoundAgainstFiniteSearch) {
  // "Determined" must never coexist with a finite counterexample. The pair
  // is determined by construction: Q is the expansion of a random CQ
  // rewriting over random views, so the chase test must accept it and the
  // bounded search must come back empty.
  Rng rng(GetParam());
  RandomCqOptions options;
  options.max_atoms = 2;
  options.variable_pool = 3;
  ViewSet views = RandomCqViews(rng, options, 2);
  ConjunctiveQuery r = RandomRewriting(rng, views, /*max_atoms=*/2,
                                       /*head_arity=*/1);
  ConjunctiveQuery q = ExpandRewriting(r, views);
  ASSERT_TRUE(q.IsPureCq() && q.IsSafe() && !q.atoms().empty())
      << "degenerate expansion " << q.ToString();

  UnrestrictedDeterminacyResult det = DecideUnrestrictedDeterminacy(views, q);
  ASSERT_TRUE(det.determined)
      << "views:\n" << views.ToString() << "rewriting: " << r.ToString()
      << "\nexpansion: " << q.ToString();

  EnumerationOptions eopts;
  eopts.domain_size = 2;
  auto search = SearchDeterminacyCounterexample(views, Query::FromCq(q),
                                                options.schema, eopts);
  EXPECT_EQ(search.verdict, SearchVerdict::kNoneWithinBound)
      << "UNSOUND: chase said determined but counterexample exists\n"
      << views.ToString() << q.ToString();
}

// --- View application commutes with isomorphism ---

TEST_P(SeededProperty, ViewImagesRespectIsomorphism) {
  Rng rng(GetParam());
  RandomCqOptions options;
  ViewSet views = RandomCqViews(rng, options, 2);
  RandomInstanceOptions iopts;
  iopts.domain_size = 4;
  Instance d = RandomInstance(options.schema, rng, iopts);
  Instance image_of_permuted = views.Apply(Permuted(d, 50));
  Instance permuted_image = Permuted(views.Apply(d), 50);
  EXPECT_EQ(image_of_permuted, permuted_image);
}

// --- Relation algebra laws on random data ---

TEST_P(SeededProperty, RelationSetAlgebraLaws) {
  Rng rng(GetParam());
  Schema schema{{"R", 2}};
  RandomInstanceOptions iopts;
  iopts.domain_size = 4;
  Relation a = RandomInstance(schema, rng, iopts).Get("R");
  Relation b = RandomInstance(schema, rng, iopts).Get("R");
  EXPECT_EQ(a.Union(b), b.Union(a));
  EXPECT_EQ(a.Intersect(b), b.Intersect(a));
  EXPECT_EQ(a.Difference(b).Union(a.Intersect(b)), a);
  EXPECT_TRUE(a.Intersect(b).IsSubsetOf(a.Union(b)));
  EXPECT_EQ(a.Union(a), a);
  EXPECT_EQ(a.Intersect(a), a);
}

// --- Canonical key is an isomorphism invariant on random instances ---

TEST_P(SeededProperty, CanonicalKeyInvariantUnderPermutation) {
  Rng rng(GetParam());
  Schema schema{{"E", 2}};
  RandomInstanceOptions iopts;
  iopts.domain_size = 4;
  iopts.tuples_per_relation = 5;
  Instance d = RandomInstance(schema, rng, iopts);
  EXPECT_EQ(CanonicalKey(d), CanonicalKey(Permuted(d, 77)));
}

}  // namespace
}  // namespace vqdr
