// Differential battery for the compiled Datalog engine: seeded random
// programs evaluated by DatalogProgram::Evaluate and by the tuple-at-a-time
// reference in datalog_reference.h must return the same instance (schema
// and declaration order included) or the same error.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "cq/parser.h"
#include "datalog/program.h"
#include "datalog_reference.h"
#include "gen/workloads.h"

namespace vqdr {
namespace {

// EDB symbols, and U/1, which no instance declares and no rule defines.
const std::vector<RelationDecl> kBase = {{"E", 2}, {"P", 1}, {"Z", 0},
                                         {"U", 1}};
// IDB symbols in stratification order: a rule may negate only an earlier
// one, unless the generator deliberately breaks stratification.
const std::vector<RelationDecl> kDerived = {{"A", 1}, {"B", 2}, {"C", 0},
                                            {"D", 2}};
const std::vector<std::string> kVars = {"x", "y", "z", "w"};
// 1..4 make up the instances' domain; 9 is a constant outside it.
const std::vector<std::int64_t> kConstants = {1, 2, 3, 9};

// Random programs over kBase and kDerived. About one rule in forty reads a
// variable no positive atom binds (unsafe), one negated IDB atom in eight
// may point up the stratification order (often unstratified), and one rule
// in ten has an empty positive body.
class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  DatalogProgram Program() {
    DatalogProgram program;
    int rules = 2 + static_cast<int>(rng_.Below(5));
    for (int i = 0; i < rules; ++i) program.AddRule(Rule());
    return program;
  }

 private:
  DatalogRule Rule() {
    std::size_t head = rng_.Below(kDerived.size());
    DatalogRule r;
    int positive = rng_.Chance(1, 10) ? 0 : 1 + static_cast<int>(rng_.Below(3));
    std::vector<std::string> bound;
    for (int i = 0; i < positive; ++i) {
      std::size_t k = rng_.Below(kBase.size() + kDerived.size());
      const RelationDecl& d =
          k < kBase.size() ? kBase[k] : kDerived[k - kBase.size()];
      Atom a(d.name, {});
      for (int j = 0; j < d.arity; ++j) {
        a.args.push_back(rng_.Chance(4, 5) ? Var() : Const());
        if (a.args.back().is_var()) bound.push_back(a.args.back().var());
      }
      r.positive.push_back(std::move(a));
    }
    r.head = Atom(kDerived[head].name, Args(kDerived[head].arity, bound));
    if (rng_.Chance(1, 3)) {
      const RelationDecl& d = NegatedDecl(head);
      r.negated.push_back(Atom(d.name, Args(d.arity, bound)));
    }
    if (rng_.Chance(1, 3)) {
      std::vector<Term> sides = Args(2, bound);
      r.disequalities.push_back(TermComparison{sides[0], sides[1]});
    }
    return r;
  }

  const RelationDecl& NegatedDecl(std::size_t head) {
    if (rng_.Chance(1, 2)) return kBase[rng_.Below(kBase.size())];
    if (head > 0 && !rng_.Chance(1, 8)) return kDerived[rng_.Below(head)];
    return kDerived[rng_.Below(kDerived.size())];
  }

  // Terms for a head, negated atom or disequality: mostly variables the
  // positive body binds, else constants, rarely an unbound "u".
  std::vector<Term> Args(int n, const std::vector<std::string>& bound) {
    std::vector<Term> out;
    for (int i = 0; i < n; ++i) {
      if (rng_.Chance(1, 40)) {
        out.push_back(Term::Var("u"));
      } else if (!bound.empty() && rng_.Chance(4, 5)) {
        out.push_back(Term::Var(bound[rng_.Below(bound.size())]));
      } else {
        out.push_back(Const());
      }
    }
    return out;
  }

  Term Var() { return Term::Var(kVars[rng_.Below(kVars.size())]); }
  Term Const() {
    return Term::Const(Value(kConstants[rng_.Below(kConstants.size())]));
  }

  Rng rng_;
};

// Random facts over E/2, P/1, Z/0 and the IDB symbols B/2 and C/0, values
// 1..4; seed 0 gives the empty instance over that schema.
Instance RandomInstance(std::uint64_t seed) {
  Instance db(Schema{{"E", 2}, {"P", 1}, {"Z", 0}, {"B", 2}, {"C", 0}});
  if (seed == 0) return db;
  Rng rng(seed);
  int edges = static_cast<int>(rng.Below(8));
  for (int i = 0; i < edges; ++i) {
    db.AddFact("E", MakeTuple({rng.Range(1, 4), rng.Range(1, 4)}));
  }
  int marks = static_cast<int>(rng.Below(4));
  for (int i = 0; i < marks; ++i) db.AddFact("P", MakeTuple({rng.Range(1, 4)}));
  if (rng.Chance(1, 2)) db.AddFact("Z", Tuple{});
  int preset = static_cast<int>(rng.Below(3));
  for (int i = 0; i < preset; ++i) {
    db.AddFact("B", MakeTuple({rng.Range(1, 4), rng.Range(1, 4)}));
  }
  if (rng.Chance(1, 4)) db.AddFact("C", Tuple{});
  return db;
}

// What a comparison saw, so the battery can check that it covered each
// kind of outcome rather than, say, only errors.
struct Coverage {
  int evaluated = 0;
  int derived = 0;  // evaluated with at least one derived IDB fact
  int with_negation = 0;
  int unsafe = 0;
  int unstratified = 0;
};

void ExpectSame(const DatalogProgram& program, const Instance& db,
                Coverage* coverage = nullptr) {
  StatusOr<Instance> got = program.Evaluate(db);
  StatusOr<Instance> want = datalog_reference::Evaluate(program, db);
  std::string context = program.ToString() + "on\n" + db.ToString();
  ASSERT_EQ(got.ok(), want.ok())
      << context << (got.ok() ? want : got).status().message();
  if (!want.ok()) {
    EXPECT_EQ(got.status().message(), want.status().message()) << context;
    EXPECT_EQ(got.status().code(), want.status().code()) << context;
    if (coverage != nullptr) {
      bool unsafe = want.status().message().find("unsafe") == 0;
      (unsafe ? coverage->unsafe : coverage->unstratified)++;
    }
    return;
  }
  EXPECT_EQ(got->schema(), want->schema()) << context;
  EXPECT_EQ(*got, *want) << context << "got\n"
                         << got->ToString() << "want\n"
                         << want->ToString();
  EXPECT_EQ(got->ToKey(), want->ToKey()) << context;
  if (coverage != nullptr) {
    coverage->evaluated++;
    if (want->TupleCount() > db.TupleCount()) coverage->derived++;
    if (!program.IsPositive()) coverage->with_negation++;
  }
}

class DatalogDifferential : public ::testing::TestWithParam<int> {};

TEST_P(DatalogDifferential, RandomProgramsAgreeWithReference) {
  ProgramGen gen(5000 + GetParam());
  Coverage coverage;
  for (int i = 0; i < 40; ++i) {
    DatalogProgram program = gen.Program();
    for (std::uint64_t s = 0; s < 4; ++s) {
      ExpectSame(program, RandomInstance(s == 0 ? 0 : GetParam() * 97 + s),
                 &coverage);
    }
  }
  // Each seed must exercise successful evaluations that derive something,
  // some with negation, and both error paths.
  EXPECT_GT(coverage.derived, 20);
  EXPECT_GT(coverage.with_negation, 10);
  EXPECT_GT(coverage.unsafe, 0);
  EXPECT_GT(coverage.unstratified, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatalogDifferential, ::testing::Range(0, 12));

class DatalogNamedPrograms : public ::testing::Test {
 protected:
  DatalogProgram Program(const std::string& text) {
    StatusOr<DatalogProgram> p = ParseDatalog(text, pool_);
    EXPECT_TRUE(p.ok()) << p.status().message() << " in: " << text;
    return p.value();
  }

  // Random graphs with a marked source S, plus the empty graph.
  std::vector<Instance> Graphs() {
    std::vector<Instance> out;
    out.push_back(Instance(Schema{{"E", 2}, {"S", 1}}));
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Instance g = RandomGraph(6 + static_cast<int>(seed), 12, seed);
      Instance with_source(Schema{{"E", 2}, {"S", 1}});
      with_source.Set("E", g.Get("E"));
      if (!g.Get("E").empty()) {
        with_source.AddFact("S", Tuple{g.Get("E").tuples()[0][0]});
      }
      out.push_back(with_source);
    }
    return out;
  }

  NamePool pool_;
};

TEST_F(DatalogNamedPrograms, ClassicProgramsAgreeWithReference) {
  const std::vector<std::string> programs = {
      // Linear and nonlinear transitive closure.
      "T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)",
      "T(x, y) :- E(x, y); T(x, y) :- T(x, z), T(z, y)",
      // Same generation.
      "SG(x, y) :- E(p, x), E(p, y);"
      "SG(x, y) :- E(u, x), E(v, y), SG(u, v)",
      // The non-reachability complement (stratified negation).
      "Reach(x) :- S(x); Reach(y) :- Reach(x), E(x, y);"
      "Node(x) :- E(x, y); Node(y) :- E(x, y);"
      "Unreach(x) :- Node(x), not Reach(x)",
      // Mutual recursion: walks of odd and even length.
      "Odd(x, y) :- E(x, y); Odd(x, y) :- E(x, z), Even(z, y);"
      "Even(x, y) :- E(x, z), Odd(z, y)",
      // Disequalities, repeated variables and an arity-0 head.
      "Loop(x) :- E(x, x); Step(x, y) :- E(x, y), x != y;"
      "Cyclic() :- T(x, x); T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y);"
      "Acyclic() :- S(x), not Cyclic()",
  };
  for (const std::string& text : programs) {
    DatalogProgram program = Program(text);
    for (const Instance& g : Graphs()) ExpectSame(program, g);
  }
}

TEST_F(DatalogNamedPrograms, ConstantsInHeadsAndBodiesAgree) {
  Value a = pool_.Intern("a");
  DatalogProgram program = Program(
      "From(y) :- E('a', y); From(y) :- From(x), E(x, y);"
      "Tag('a', x) :- From(x), x != 'a'; Tag('b', 'b') :- S(x)");
  Instance g(Schema{{"E", 2}, {"S", 1}});
  Value b = pool_.Intern("b"), c = pool_.Intern("c");
  g.AddFact("E", Tuple{a, b});
  g.AddFact("E", Tuple{b, c});
  g.AddFact("E", Tuple{c, a});
  g.AddFact("S", Tuple{c});
  ExpectSame(program, g);
  ExpectSame(program, Instance(Schema{{"E", 2}, {"S", 1}}));
}

TEST_F(DatalogNamedPrograms, QueryAgreesWithReferenceRelation) {
  DatalogProgram program =
      Program("T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)");
  for (const Instance& g : Graphs()) {
    StatusOr<Relation> got = program.Query(g, "T");
    StatusOr<Instance> want = datalog_reference::Evaluate(program, g);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(*got, want->Get("T"));
  }
}

}  // namespace
}  // namespace vqdr
