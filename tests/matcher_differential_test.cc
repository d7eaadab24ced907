// Differential battery: the indexed homomorphism engine (ForEachMatch) vs
// the naive backtracking matcher kept in tests/matcher_legacy.cc as the
// oracle (DESIGN.md §12). The contract under test is strict: both must
// deliver the SAME homomorphisms in the SAME order — not merely agree on
// match/no-match — because witnesses, first-found enumeration prefixes, and
// every downstream verdict are byte-derived from that sequence.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "cq/canonical.h"
#include "cq/containment.h"
#include "cq/explain_bridge.h"
#include "cq/matcher.h"
#include "data/instance.h"
#include "gen/random_instance.h"
#include "gen/random_query.h"
#include "gen/workloads.h"
#include "matcher_legacy.h"
#include "obs/explain.h"

namespace vqdr {
namespace {

Term V(const std::string& name) { return Term::Var(name); }
Term C(std::int64_t id) { return Term::Const(Value(id)); }

ConjunctiveQuery MakeCq(std::vector<Term> head, std::vector<Atom> atoms) {
  ConjunctiveQuery q("Q", std::move(head));
  for (Atom& a : atoms) q.AddAtom(std::move(a));
  return q;
}

ConjunctiveQuery Normalize(const ConjunctiveQuery& q) {
  bool satisfiable = true;
  ConjunctiveQuery normalized = q.PropagateEqualities(&satisfiable);
  EXPECT_TRUE(satisfiable);
  return normalized;
}

// The two engines under comparison.
enum class Engine { kLegacy, kIndexed };

// Full enumeration through one engine: the exact on_match sequence.
std::vector<Binding> Enumerate(const std::vector<Atom>& atoms,
                               const Instance& db, const Binding& initial,
                               Engine engine,
                               const MatcherOptions& options = {}) {
  std::vector<Binding> out;
  auto collect = [&](const Binding& b) {
    out.push_back(b);
    return true;
  };
  bool completed =
      engine == Engine::kLegacy
          ? LegacyMatch(atoms, db, initial, collect)
          : ForEachMatch(atoms, db, initial, collect, nullptr, options);
  EXPECT_TRUE(completed);
  return out;
}

std::optional<Binding> FirstMatch(const std::vector<Atom>& atoms,
                                  const Instance& db, const Binding& initial,
                                  Engine engine) {
  std::optional<Binding> out;
  auto first = [&](const Binding& b) {
    out = b;
    return false;
  };
  if (engine == Engine::kLegacy) {
    LegacyMatch(atoms, db, initial, first);
  } else {
    ForEachMatch(atoms, db, initial, first);
  }
  return out;
}

Value Resolve(const Term& t, const Binding& binding) {
  return t.is_const() ? t.constant() : binding.at(t.var());
}

// EvaluateCq through the oracle, for the pure CQs this battery generates:
// the head image of every legacy match.
Relation LegacyEvaluate(const ConjunctiveQuery& q, const Instance& db) {
  EXPECT_TRUE(q.IsPureCq());
  Relation result(q.head_arity());
  for (const Binding& b :
       Enumerate(q.atoms(), db, Binding{}, Engine::kLegacy)) {
    Tuple answer;
    for (const Term& t : q.head_terms()) answer.push_back(Resolve(t, b));
    result.Insert(answer);
  }
  return result;
}

// CqAnswerContains's witness through the oracle: the first legacy match
// extending the head binding to `tuple`, for pure CQs.
std::optional<Binding> LegacyWitness(const ConjunctiveQuery& q,
                                     const Instance& db, const Tuple& tuple) {
  EXPECT_TRUE(q.IsPureCq());
  Binding initial;
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    const Term& t = q.head_terms()[i];
    if (t.is_const()) {
      if (t.constant() != tuple[i]) return std::nullopt;
      continue;
    }
    auto [it, inserted] = initial.emplace(t.var(), tuple[i]);
    if (!inserted && it->second != tuple[i]) return std::nullopt;
  }
  return FirstMatch(q.atoms(), db, initial, Engine::kLegacy);
}

// Chandra–Merlin through the oracle, for pure CQs: q1 ⊆ q2 iff q2 maps
// into [q1] with its head onto q1's frozen head.
bool LegacyContained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  ValueFactory factory;
  FrozenQuery frozen = Freeze(Normalize(q1), factory);
  for (const Atom& atom : q2.atoms()) {
    if (!frozen.instance.schema().Contains(atom.predicate)) return false;
  }
  return LegacyWitness(Normalize(q2), frozen.instance, frozen.frozen_head)
      .has_value();
}

// Asserts the two engines produce identical enumeration sequences for the
// atoms of `q` over `db`, and identical EvaluateCq answers.
void ExpectEngineAgreement(const ConjunctiveQuery& q, const Instance& db,
                           const std::string& context) {
  ConjunctiveQuery normalized = Normalize(q);
  std::vector<Binding> legacy =
      Enumerate(normalized.atoms(), db, Binding{}, Engine::kLegacy);
  std::vector<Binding> indexed =
      Enumerate(normalized.atoms(), db, Binding{}, Engine::kIndexed);
  ASSERT_EQ(legacy.size(), indexed.size()) << context;
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    ASSERT_EQ(legacy[i], indexed[i]) << context << " at match #" << i;
  }
  EXPECT_EQ(LegacyEvaluate(normalized, db), EvaluateCq(q, db)) << context;
}

Schema DiffSchema() { return Schema{{"E", 2}, {"P", 1}, {"T", 3}}; }

// ---------------------------------------------------------------------------
// Seeded random battery: >= 500 (query, instance) pairs across a grid of
// query shapes and instance densities. Full-sequence equality each time.
// ---------------------------------------------------------------------------

TEST(MatcherDifferential, SeededRandomPairsAgree) {
  int pairs = 0;
  for (std::uint64_t seed = 1; seed <= 520; ++seed) {
    Rng rng(seed * 7919);
    RandomCqOptions qopt;
    qopt.schema = DiffSchema();
    qopt.min_atoms = 1;
    qopt.max_atoms = 2 + static_cast<int>(seed % 4);  // up to 5 atoms
    qopt.variable_pool = 2 + static_cast<int>(seed % 5);
    qopt.head_arity = static_cast<int>(seed % 3);  // includes boolean CQs
    ConjunctiveQuery q = RandomCq(rng, qopt);

    RandomInstanceOptions iopt;
    iopt.domain_size = 3 + static_cast<int>(seed % 7);
    iopt.tuples_per_relation = 4 + static_cast<int>(seed % 24);
    Instance db = RandomInstance(qopt.schema, rng, iopt);

    ExpectEngineAgreement(q, db, "seed " + std::to_string(seed));
    ++pairs;
  }
  EXPECT_GE(pairs, 500);
}

TEST(MatcherDifferential, FirstFoundHomomorphismOrderPreserved) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 104729);
    RandomCqOptions qopt;
    qopt.schema = DiffSchema();
    qopt.max_atoms = 4;
    qopt.variable_pool = 5;
    ConjunctiveQuery q = RandomCq(rng, qopt);
    RandomInstanceOptions iopt;
    iopt.domain_size = 6;
    iopt.tuples_per_relation = 18;
    Instance db = RandomInstance(qopt.schema, rng, iopt);

    ConjunctiveQuery normalized = Normalize(q);
    std::optional<Binding> legacy = FirstMatch(normalized.atoms(), db,
                                               Binding{},
                                               Engine::kLegacy);
    std::optional<Binding> indexed = FirstMatch(normalized.atoms(), db,
                                                Binding{},
                                                Engine::kIndexed);
    ASSERT_EQ(legacy.has_value(), indexed.has_value()) << "seed " << seed;
    if (legacy.has_value()) {
      EXPECT_EQ(*legacy, *indexed) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial shapes.
// ---------------------------------------------------------------------------

TEST(MatcherDifferential, SelfJoinsAndRepeatedVariables) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    Schema schema{{"E", 2}};
    RandomInstanceOptions iopt;
    iopt.domain_size = 5;
    iopt.tuples_per_relation = 12;
    Instance db = RandomInstance(schema, rng, iopt);

    // Diagonal self-join, 2-cycle, duplicated atom, and a mix.
    ConjunctiveQuery diag = MakeCq({V("x")}, {{"E", {V("x"), V("x")}}});
    ConjunctiveQuery cyc = MakeCq({V("x"), V("y")},
                                  {{"E", {V("x"), V("y")}},
                                   {"E", {V("y"), V("x")}}});
    ConjunctiveQuery dup = MakeCq({V("x"), V("y")},
                                  {{"E", {V("x"), V("y")}},
                                   {"E", {V("x"), V("y")}}});
    ConjunctiveQuery mix = MakeCq({V("x"), V("y")},
                                  {{"E", {V("x"), V("x")}},
                                   {"E", {V("x"), V("y")}}});
    for (const ConjunctiveQuery& q : {diag, cyc, dup, mix}) {
      ExpectEngineAgreement(q, db,
                            q.ToString() + " seed " + std::to_string(seed));
    }
  }
}

TEST(MatcherDifferential, ConstantsInAtoms) {
  Schema schema{{"E", 2}, {"P", 1}};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 31);
    RandomInstanceOptions iopt;
    iopt.domain_size = 4;  // small domain so the constants actually hit
    iopt.tuples_per_relation = 10;
    Instance db = RandomInstance(schema, rng, iopt);
    ConjunctiveQuery from1 = MakeCq({V("x")}, {{"E", {C(1), V("x")}}});
    ConjunctiveQuery to2 = MakeCq({V("x")}, {{"E", {V("x"), C(2)}},
                                             {"P", {V("x")}}});
    ConjunctiveQuery ground = MakeCq({}, {{"E", {C(1), C(2)}}});
    ConjunctiveQuery loop3 = MakeCq({V("x")}, {{"E", {V("x"), V("x")}},
                                               {"E", {V("x"), C(3)}}});
    // A constant outside the instance domain: zero matches both ways.
    ConjunctiveQuery absent = MakeCq({V("x")}, {{"E", {C(99), V("x")}}});
    for (const ConjunctiveQuery& q : {from1, to2, ground, loop3, absent}) {
      ExpectEngineAgreement(q, db,
                            q.ToString() + " seed " + std::to_string(seed));
    }
  }
}

TEST(MatcherDifferential, BooleanAndDisconnectedBodies) {
  Schema schema{{"E", 2}, {"P", 1}};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 131);
    RandomInstanceOptions iopt;
    iopt.domain_size = 5;
    iopt.tuples_per_relation = 8;
    Instance db = RandomInstance(schema, rng, iopt);
    ConjunctiveQuery bool_edge = MakeCq({}, {{"E", {V("x"), V("y")}}});
    ConjunctiveQuery bool_disc = MakeCq({}, {{"E", {V("x"), V("y")}},
                                             {"P", {V("z")}}});
    ConjunctiveQuery cross = MakeCq({V("x"), V("z")},
                                    {{"E", {V("x"), V("y")}},
                                     {"P", {V("z")}}});  // cross product
    ConjunctiveQuery three = MakeCq({}, {{"E", {V("x"), V("y")}},
                                         {"E", {V("u"), V("v")}},
                                         {"P", {V("w")}}});
    for (const ConjunctiveQuery& q : {bool_edge, bool_disc, cross, three}) {
      ExpectEngineAgreement(q, db,
                            q.ToString() + " seed " + std::to_string(seed));
    }
  }
}

TEST(MatcherDifferential, DegenerateInputs) {
  Schema schema{{"E", 2}};
  Instance empty_db(schema);
  Instance db(schema);
  db.AddFact("E", {Value(1), Value(2)});

  // Empty atom list: exactly one match, the initial binding, both engines.
  for (Engine e : {Engine::kLegacy, Engine::kIndexed}) {
    std::vector<Binding> ms = Enumerate({}, db, Binding{}, e);
    ASSERT_EQ(ms.size(), 1u);
    EXPECT_TRUE(ms[0].empty());
  }

  std::vector<Atom> edge{{"E", {V("x"), V("y")}}};

  // Atom over an empty relation: no matches, enumeration completes.
  EXPECT_TRUE(
      Enumerate(edge, empty_db, Binding{}, Engine::kLegacy).empty());
  EXPECT_TRUE(
      Enumerate(edge, empty_db, Binding{}, Engine::kIndexed).empty());

  // Predicate missing from the schema entirely: ForEachMatch treats it as
  // an empty relation (the oracle requires every predicate declared).
  Instance narrow{Schema{{"P", 1}}};
  EXPECT_TRUE(
      Enumerate(edge, narrow, Binding{}, Engine::kIndexed).empty());

  // Pre-bound initial binding, satisfiable and not.
  Binding hit{{"x", Value(1)}};
  Binding miss{{"x", Value(7)}};
  EXPECT_EQ(Enumerate(edge, db, hit, Engine::kLegacy),
            Enumerate(edge, db, hit, Engine::kIndexed));
  EXPECT_EQ(Enumerate(edge, db, miss, Engine::kLegacy),
            Enumerate(edge, db, miss, Engine::kIndexed));
}

// ---------------------------------------------------------------------------
// Every pruning rule is individually order-preserving: any combination of
// forward checking / backjumping / symmetry breaking yields the legacy
// sequence.
// ---------------------------------------------------------------------------

TEST(MatcherDifferential, PruningTogglesPreserveSequence) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 271);
    RandomCqOptions qopt;
    qopt.schema = DiffSchema();
    qopt.max_atoms = 5;
    qopt.variable_pool = 4;
    ConjunctiveQuery q = Normalize(RandomCq(rng, qopt));
    RandomInstanceOptions iopt;
    iopt.domain_size = 5;
    iopt.tuples_per_relation = 14;
    Instance db = RandomInstance(qopt.schema, rng, iopt);

    std::vector<Binding> oracle =
        Enumerate(q.atoms(), db, Binding{}, Engine::kLegacy);
    for (int mask = 0; mask < 8; ++mask) {
      MatcherOptions options;
      options.forward_checking = (mask & 1) != 0;
      options.conflict_backjumping = (mask & 2) != 0;
      options.symmetry_breaking = (mask & 4) != 0;
      ASSERT_EQ(oracle,
                Enumerate(q.atoms(), db, Binding{}, Engine::kIndexed, options))
          << "seed " << seed << " mask " << mask;
    }
  }
}

// ---------------------------------------------------------------------------
// Witness extraction: verdicts equal, witnesses byte-identical, and the
// extracted witness replays through the engine-independent explain bridge.
// ---------------------------------------------------------------------------

TEST(MatcherDifferential, WitnessesIdenticalAndReplayable) {
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed * 613);
    RandomCqOptions qopt;
    qopt.schema = DiffSchema();
    qopt.max_atoms = 3;
    qopt.variable_pool = 4;
    qopt.head_arity = 1;
    ConjunctiveQuery q = RandomCq(rng, qopt);
    RandomInstanceOptions iopt;
    iopt.domain_size = 5;
    iopt.tuples_per_relation = 10;
    Instance db = RandomInstance(qopt.schema, rng, iopt);

    Relation answers = EvaluateCq(q, db);
    ConjunctiveQuery normalized = Normalize(q);
    for (const Tuple& t : answers.tuples()) {
      std::optional<Binding> legacy_witness = LegacyWitness(normalized, db, t);
      Binding indexed_witness;
      bool indexed_found = CqAnswerContains(q, db, t, nullptr,
                                            &indexed_witness);
      ASSERT_TRUE(legacy_witness.has_value()) << "seed " << seed;
      ASSERT_TRUE(indexed_found) << "seed " << seed;
      ASSERT_EQ(*legacy_witness, indexed_witness) << "seed " << seed;

      obs::ExplainWitness witness =
          MakeContainmentWitness(q, db, t, indexed_witness);
      std::string error;
      EXPECT_TRUE(witness.Verify(&error)) << "seed " << seed << ": " << error;
      ++verified;
    }
    // Negative side: a tuple outside the answer must be rejected by both.
    Tuple absent{Value(997)};
    EXPECT_EQ(LegacyWitness(normalized, db, absent).has_value(),
              CqAnswerContains(q, db, absent));
  }
  EXPECT_GT(verified, 50);
}

// ---------------------------------------------------------------------------
// Instance-level homomorphism search and containment end to end, including
// the threaded sweep at 2 and 8 workers (the PAR label runs this under
// tsan).
// ---------------------------------------------------------------------------

TEST(MatcherDifferential, InstanceHomomorphismAgrees) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 37);
    Schema schema{{"E", 2}};
    RandomInstanceOptions small;
    small.domain_size = 4;
    small.tuples_per_relation = 5;
    RandomInstanceOptions big;
    big.domain_size = 6;
    big.tuples_per_relation = 16;
    Instance from = RandomInstance(schema, rng, small);
    Instance to = RandomInstance(schema, rng, big);

    // The atoms FindInstanceHomomorphism searches with: one per fact of
    // `from`, each value a variable named after it.
    auto var_name = [](Value v) { return "h" + std::to_string(v.id); };
    std::vector<Atom> atoms;
    for (const Tuple& fact : from.Get("E").tuples()) {
      atoms.push_back({"E", {V(var_name(fact[0])), V(var_name(fact[1]))}});
    }
    std::optional<Binding> legacy =
        FirstMatch(atoms, to, Binding{}, Engine::kLegacy);
    auto indexed = FindInstanceHomomorphism(from, to);
    ASSERT_EQ(legacy.has_value(), indexed.has_value()) << "seed " << seed;
    if (legacy.has_value()) {
      for (const auto& [value, image] : *indexed) {
        EXPECT_EQ(legacy->at(var_name(value)), image) << "seed " << seed;
      }
    }
  }
}

TEST(MatcherDifferential, ContainmentVerdictsAgreeAcrossThreads) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed * 911);
    RandomCqOptions qopt;
    qopt.schema = Schema{{"E", 2}, {"P", 1}};
    qopt.max_atoms = 3;
    qopt.variable_pool = 3;
    ConjunctiveQuery q1 = RandomCq(rng, qopt);
    ConjunctiveQuery q2 = RandomCq(rng, qopt);

    bool oracle = LegacyContained(q1, q2);
    for (int threads : {1, 2, 8}) {
      CqContainmentOptions indexed;
      indexed.threads = threads;
      EXPECT_EQ(oracle, CqContainedIn(q1, q2, indexed))
          << "seed " << seed << " threads " << threads;
    }
  }
}

// Chain/cycle workloads from the bench suite — the hom-dominated shapes the
// speedup claim is measured on must agree too, not just random soup.
TEST(MatcherDifferential, WorkloadShapesAgree) {
  // Chain length is capped at 8: legacy full enumeration over the random
  // graph grows fast with n, and this binary also runs under tsan.
  for (int n : {2, 4, 6, 8}) {
    Instance db = RandomGraph(10, 30, /*seed=*/static_cast<std::uint64_t>(n));
    ExpectEngineAgreement(ChainQuery(n), db, "chain " + std::to_string(n));
    ExpectEngineAgreement(CycleQuery(std::max(2, n / 2)), db,
                          "cycle " + std::to_string(n));
    ExpectEngineAgreement(StarQuery(std::max(2, n / 3)), db,
                          "star " + std::to_string(n));
  }
}

}  // namespace
}  // namespace vqdr
