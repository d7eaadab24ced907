// Differential battery for the guarded FO evaluator: seeded random formulas
// evaluated by fo/evaluator.h and by the assignment-at-a-time reference in
// fo_reference.h must agree on every instance, binding and query head.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "cq/parser.h"
#include "fo/evaluator.h"
#include "fo/normalize.h"
#include "fo/parser.h"
#include "fo_reference.h"
#include "so/so_query.h"

namespace vqdr {
namespace {

const std::vector<std::string> kVars = {"x", "y", "z"};
// 1..4 make up the instances' domain; 9 is a constant outside it.
const std::vector<std::int64_t> kConstants = {1, 2, 4, 9};
// Never a constant, so a binding to it lies outside every range.
constexpr std::int64_t kOutOfRange = 99;

// Random formulas over E/2 and P/1 plus R/1, which no instance declares.
// Variables come from a three-name pool so quantifiers often re-quantify
// (shadow) a bound name or bind a name the body never uses.
class FormulaGen {
 public:
  explicit FormulaGen(std::uint64_t seed) : rng_(seed) {}

  // `quantifiers` caps the variables quantified along any path, which
  // bounds the reference evaluator's range^k cost.
  FoPtr Formula(int depth, int quantifiers) {
    if (depth == 0) return Leaf();
    switch (rng_.Below(12)) {
      case 0:
        return FoFormula::Not(Formula(depth - 1, quantifiers));
      case 1:
      case 2:
        return FoFormula::And(Children(depth, quantifiers));
      case 3:
        return FoFormula::Or(Children(depth, quantifiers));
      case 4:
        return FoFormula::Implies(Formula(depth - 1, quantifiers),
                                  Formula(depth - 1, quantifiers));
      case 5:
        return FoFormula::Iff(Formula(depth - 1, quantifiers),
                              Formula(depth - 1, quantifiers));
      case 6:
      case 7: {
        std::vector<std::string> vars = Vars(quantifiers);
        int left = quantifiers - static_cast<int>(vars.size());
        FoPtr body = Formula(depth - 1, left);
        return rng_.Chance(1, 2) ? FoFormula::Exists(vars, body)
                                 : FoFormula::Forall(vars, body);
      }
      case 8:
      case 9:
      case 10:
        return Guarded(depth, quantifiers);
      default:
        return Leaf();
    }
  }

 private:
  Term RandomTerm() {
    if (rng_.Chance(4, 5)) return Term::Var(kVars[rng_.Below(kVars.size())]);
    return Term::Const(Value(kConstants[rng_.Below(kConstants.size())]));
  }

  FoPtr Leaf() {
    switch (rng_.Below(7)) {
      case 0:
      case 1:
        return FoFormula::MakeAtom(Atom("E", {RandomTerm(), RandomTerm()}));
      case 2:
        return FoFormula::MakeAtom(Atom("P", {RandomTerm()}));
      case 3:
        return FoFormula::MakeAtom(Atom("R", {RandomTerm()}));
      case 4:
        return FoFormula::Eq(RandomTerm(), RandomTerm());
      case 5:
        return FoFormula::Not(FoFormula::Eq(RandomTerm(), RandomTerm()));
      default:
        return rng_.Chance(1, 2) ? FoFormula::True() : FoFormula::False();
    }
  }

  std::vector<FoPtr> Children(int depth, int quantifiers) {
    std::vector<FoPtr> out;
    int n = 2 + static_cast<int>(rng_.Below(2));
    for (int i = 0; i < n; ++i) out.push_back(Formula(depth - 1, quantifiers));
    return out;
  }

  // Zero to two names, repeats allowed, within the budget.
  std::vector<std::string> Vars(int quantifiers) {
    std::vector<std::string> vars;
    int n = std::min<int>(quantifiers, static_cast<int>(rng_.Below(3)));
    for (int i = 0; i < n; ++i) vars.push_back(kVars[rng_.Below(kVars.size())]);
    return vars;
  }

  // An atom or equality that mentions `v`, the shape a guard takes.
  FoPtr GuardOn(const std::string& v) {
    Term x = Term::Var(v);
    switch (rng_.Below(5)) {
      case 0:
        return FoFormula::MakeAtom(Atom("E", {x, RandomTerm()}));
      case 1:
        return FoFormula::MakeAtom(Atom("E", {RandomTerm(), x}));
      case 2:
        return FoFormula::MakeAtom(Atom("P", {x}));
      case 3:
        return FoFormula::MakeAtom(Atom("R", {x}));
      default:
        return rng_.Chance(1, 2) ? FoFormula::Eq(x, RandomTerm())
                                 : FoFormula::Eq(RandomTerm(), x);
    }
  }

  // ∃v.(A ∧ φ), ∀v.(A → φ) or ∀v.(¬A ∨ φ) with A a guard on v.
  FoPtr Guarded(int depth, int quantifiers) {
    if (quantifiers == 0) return Leaf();
    std::string v = kVars[rng_.Below(kVars.size())];
    FoPtr guard = GuardOn(v);
    FoPtr rest = Formula(depth - 1, quantifiers - 1);
    switch (rng_.Below(3)) {
      case 0:
        return FoFormula::Exists({v}, FoFormula::And({guard, rest}));
      case 1:
        return FoFormula::Forall({v}, FoFormula::Implies(guard, rest));
      default:
        return FoFormula::Forall(
            {v}, FoFormula::Or({FoFormula::Not(guard), rest}));
    }
  }

  Rng rng_;
};

// Small random instances over {E/2, P/1} with values 1..4; seed 0 gives
// the empty instance.
Instance RandomInstance(std::uint64_t seed) {
  Instance db(Schema{{"E", 2}, {"P", 1}});
  if (seed == 0) return db;
  Rng rng(seed);
  int edges = static_cast<int>(rng.Below(7));
  for (int i = 0; i < edges; ++i) {
    db.AddFact("E", MakeTuple({rng.Range(1, 4), rng.Range(1, 4)}));
  }
  int marks = static_cast<int>(rng.Below(4));
  for (int i = 0; i < marks; ++i) db.AddFact("P", MakeTuple({rng.Range(1, 4)}));
  return db;
}

std::string Describe(const FoPtr& f, const Instance& db) {
  return f->ToString() + "\non\n" + db.ToString();
}

class FoDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FoDifferential, SentencesAgreeWithReference) {
  FormulaGen gen(1000 + GetParam());
  for (int i = 0; i < 40; ++i) {
    FoPtr f = gen.Formula(4, 3);
    std::set<std::string> free = f->FreeVariables();
    std::vector<std::string> closing(free.begin(), free.end());
    FoPtr sentence = i % 2 == 0 ? FoFormula::Forall(closing, f)
                                : FoFormula::Exists(closing, f);
    FoPtr normal = ToAndNotExists(sentence);
    for (std::uint64_t s = 0; s < 6; ++s) {
      Instance db = RandomInstance(s == 0 ? 0 : GetParam() * 31 + s);
      bool expected = fo_reference::FoSentenceHolds(sentence, db);
      EXPECT_EQ(FoSentenceHolds(sentence, db), expected)
          << Describe(sentence, db);
      EXPECT_EQ(FoSentenceHolds(normal, db), expected) << Describe(normal, db);
      EXPECT_EQ(fo_reference::FoSentenceHolds(normal, db), expected)
          << Describe(normal, db);
    }
  }
}

TEST_P(FoDifferential, BindingsAgreeWithReference) {
  // Bindings cover x, y and z, sometimes with a value outside the range,
  // plus an extra name no formula mentions.
  FormulaGen gen(2000 + GetParam());
  Rng rng(3000 + GetParam());
  const std::vector<std::int64_t> values = {1, 2, 3, 4, 9, kOutOfRange};
  for (int i = 0; i < 40; ++i) {
    FoPtr f = gen.Formula(4, 3);
    FoPtr normal = ToAndNotExists(f);
    for (std::uint64_t s = 0; s < 4; ++s) {
      Instance db = RandomInstance(s == 0 ? 0 : GetParam() * 17 + s);
      std::map<std::string, Value> binding;
      for (const std::string& v : kVars) {
        binding[v] = Value(values[rng.Below(values.size())]);
      }
      binding["w"] = Value(3);
      bool expected = fo_reference::EvalFo(f, db, binding);
      EXPECT_EQ(EvalFo(f, db, binding), expected) << Describe(f, db);
      EXPECT_EQ(EvalFo(normal, db, binding), expected) << Describe(normal, db);
    }
  }
}

TEST_P(FoDifferential, QueriesAgreeWithReference) {
  // Heads list the free variables in random order, sometimes with an
  // extra variable the formula ignores or a repeated column.
  FormulaGen gen(4000 + GetParam());
  Rng rng(5000 + GetParam());
  for (int i = 0; i < 40; ++i) {
    FoQuery q;
    q.formula = gen.Formula(4, 2);
    std::set<std::string> free = q.formula->FreeVariables();
    q.free_vars.assign(free.begin(), free.end());
    for (std::size_t k = q.free_vars.size(); k > 1; --k) {
      std::swap(q.free_vars[k - 1], q.free_vars[rng.Below(k)]);
    }
    if (rng.Chance(1, 3)) q.free_vars.push_back("w");
    if (!q.free_vars.empty() && rng.Chance(1, 4)) {
      q.free_vars.push_back(q.free_vars.front());
    }
    for (std::uint64_t s = 0; s < 4; ++s) {
      Instance db = RandomInstance(s == 0 ? 0 : GetParam() * 13 + s);
      EXPECT_EQ(EvaluateFo(q, db), fo_reference::EvaluateFo(q, db))
          << q.ToString() << "\non\n" << db.ToString();
    }
  }
}

TEST_P(FoDifferential, SoAgreesWithReference) {
  // ∃SO / ∀SO over one unary relation variable, against the reference
  // evaluator run on the matrix for every head tuple over adom ∪ constants
  // and every guess. The variable is R (absent from the instance) or P,
  // whose guesses replace the instance's own P.
  FormulaGen gen(6000 + GetParam());
  for (int i = 0; i < 12; ++i) {
    SoQuery q;
    q.existential = i % 2 == 0;
    const std::string guessed = i % 4 < 2 ? "P" : "R";
    q.relation_vars = {{guessed, 1}};
    q.matrix.formula = gen.Formula(3, 2);
    std::set<std::string> free = q.matrix.formula->FreeVariables();
    q.matrix.free_vars.assign(free.begin(), free.end());
    Instance db = RandomInstance(GetParam() * 7 + i);
    std::set<Value> universe = db.ActiveDomain();
    for (Value c : q.matrix.formula->Constants()) universe.insert(c);
    std::vector<Value> values(universe.begin(), universe.end());
    std::vector<Instance> guesses;
    for (std::uint64_t mask = 0; mask < (1ull << values.size()); ++mask) {
      Instance guess(Schema{{"E", 2}, {"P", 1}, {"R", 1}});
      guess.Set("E", db.Get("E"));
      if (guessed != "P") guess.Set("P", db.Get("P"));
      for (std::size_t k = 0; k < values.size(); ++k) {
        if (mask >> k & 1) guess.AddFact(guessed, Tuple{values[k]});
      }
      guesses.push_back(std::move(guess));
    }
    Relation expected(q.head_arity());
    std::size_t k = q.matrix.free_vars.size();
    std::vector<std::size_t> at(k, 0);
    bool more = k == 0 || !values.empty();
    while (more) {
      std::map<std::string, Value> binding;
      Tuple head;
      for (std::size_t c = 0; c < k; ++c) {
        binding[q.matrix.free_vars[c]] = values[at[c]];
        head.push_back(values[at[c]]);
      }
      bool decided = !q.existential;
      for (const Instance& guess : guesses) {
        if (fo_reference::EvalFo(q.matrix.formula, guess, binding) ==
            q.existential) {
          decided = q.existential;
          break;
        }
      }
      if (decided) expected.Insert(head);
      // Next head tuple, odometer style.
      std::size_t c = 0;
      while (c < k && ++at[c] == values.size()) at[c++] = 0;
      more = c < k;
    }
    StatusOr<Relation> got = EvaluateSo(q, db);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(*got, expected) << q.ToString() << "\non\n" << db.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoDifferential, ::testing::Range(0, 12));

TEST(FoDifferentialFixed, GuardedCornerCases) {
  NamePool pool;
  Schema schema{{"E", 2}, {"P", 1}};
  Instance db = ParseInstance("E(a, b), E(b, c), P(a)", schema, pool).value();
  Instance empty(schema);
  const char* texts[] = {
      "exists x . x = y",           // y bound outside the range below
      "exists x . x = 'zz' & !P(x)",  // constant outside adom
      "forall x . (E(x, y) -> exists y . E(y, x))",  // shadowed y
      "exists x . R(x)",            // R is in no schema
      "forall x . (R(x) -> P(x))",
      "forall x . (!E(x, x) | P(x))",
      "exists x, x . P(x)",         // repeated quantified name
      "exists x . P(y)",            // vacuous quantifier
      "forall x . P(y)",
      "exists x . E(x, x) & x = y",
      "forall x, z . (E(x, z) -> (exists w . E(z, w)) | P(x))",
  };
  const Value inside = pool.Intern("a");
  for (const char* text : texts) {
    FoPtr f = ParseFo(text, pool).value();
    for (const Instance* d : {&db, &empty}) {
      for (Value y : {inside, Value(kOutOfRange)}) {
        std::map<std::string, Value> binding{{"y", y}};
        EXPECT_EQ(EvalFo(f, *d, binding),
                  fo_reference::EvalFo(f, *d, binding))
            << text << " with y=" << y.id << "\non\n" << d->ToString();
      }
    }
  }
  // ∃x.(x = y) with y outside the range has no witness.
  FoPtr eq = ParseFo("exists x . x = y", pool).value();
  EXPECT_FALSE(EvalFo(eq, db, {{"y", Value(kOutOfRange)}}));
  EXPECT_TRUE(EvalFo(eq, db, {{"y", inside}}));
  // Empty range: ∃ is false, ∀ is true, a variable-free quantifier is its
  // body.
  EXPECT_FALSE(FoSentenceHolds(FoFormula::Exists({"x"}, FoFormula::True()),
                               empty));
  EXPECT_TRUE(FoSentenceHolds(FoFormula::Forall({"x"}, FoFormula::False()),
                              empty));
  EXPECT_TRUE(FoSentenceHolds(FoFormula::Exists({}, FoFormula::True()),
                              empty));
}

TEST(FoDifferentialFixed, TwoColouringUnderEveryAssignment) {
  // The ∃SO 2-colourability matrix, as an FO sentence over E and C, under
  // every colouring C of a 5-cycle (never proper) and of a 4-cycle (proper
  // for exactly the two alternating colourings).
  NamePool pool;
  FoPtr matrix =
      ParseFo("forall x, y . (E(x, y) -> (C(x) & !C(y)) | (!C(x) & C(y)))",
              pool)
          .value();
  for (int n : {5, 4}) {
    int proper = 0;
    for (int mask = 0; mask < (1 << n); ++mask) {
      Instance db(Schema{{"E", 2}, {"C", 1}});
      for (int i = 0; i < n; ++i) {
        db.AddFact("E", MakeTuple({i + 1, (i + 1) % n + 1}));
        if (mask & (1 << i)) db.AddFact("C", MakeTuple({i + 1}));
      }
      bool holds = FoSentenceHolds(matrix, db);
      EXPECT_EQ(holds, fo_reference::FoSentenceHolds(matrix, db))
          << "n=" << n << " mask=" << mask;
      proper += holds;
    }
    EXPECT_EQ(proper, n == 4 ? 2 : 0) << "n=" << n;
  }
}

TEST(FoDifferentialFixed, SoGuessReplacingABaseRelationNarrowsTheRange) {
  // The guesses for P replace the instance's P = {c}, and c occurs in no
  // other relation, so under a guess without c no quantifier reaches c and
  // "some element has no edge" fails. A guessed R leaves c in the range.
  NamePool pool;
  Instance db =
      ParseInstance("E(a, b), P(c)", Schema{{"E", 2}, {"P", 1}}, pool).value();
  SoQuery q;
  q.existential = false;
  q.matrix.formula =
      ParseFo("exists x . !(exists y . E(x, y) | E(y, x))", pool).value();
  q.relation_vars = {{"P", 1}};
  EXPECT_FALSE(SoSentenceHolds(q, db).value());
  q.relation_vars = {{"R", 1}};
  EXPECT_TRUE(SoSentenceHolds(q, db).value());
}

TEST(FoDifferentialFixed, UnboundVariableStillChecks) {
  Instance db(Schema{{"P", 1}});
  db.AddFact("P", MakeTuple({1}));
  FoPtr f = FoFormula::MakeAtom(Atom("P", {Term::Var("x")}));
  EXPECT_DEATH(EvalFo(f, db, {}), "unbound variable x");
}

}  // namespace
}  // namespace vqdr
