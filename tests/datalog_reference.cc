// Kept verbatim from the evaluator datalog/program.cc replaced; see the
// header.

#include "datalog_reference.h"

#include <algorithm>
#include <map>
#include <set>

#include "base/check.h"
#include "cq/matcher.h"

namespace vqdr::datalog_reference {

namespace {

Value ResolveGround(const Term& t, const Binding& binding) {
  if (t.is_const()) return t.constant();
  auto it = binding.find(t.var());
  VQDR_CHECK(it != binding.end()) << "unbound variable in datalog rule";
  return it->second;
}

// Applies one rule under semi-naïve restriction: `delta_atom` (an index into
// rule.positive, or -1 for no restriction) is matched against `delta`
// instead of the full database. New head facts are inserted into `out`.
void ApplyRule(const DatalogRule& rule, const Instance& db,
               const Instance& delta, int delta_atom, Relation& out) {
  // Build the database the matcher sees: for the delta-restricted atom we
  // swap in the delta relation under a reserved name.
  static const char kDeltaName[] = "__delta";
  std::vector<Atom> atoms = rule.positive;
  Instance view = db;
  if (delta_atom >= 0) {
    const std::string& pred = atoms[delta_atom].predicate;
    Schema schema = db.schema();
    schema.Add(kDeltaName, *schema.ArityOf(pred));
    Instance with_delta(schema);
    for (const RelationDecl& d : db.schema().decls()) {
      with_delta.Set(d.name, db.Get(d.name));
    }
    with_delta.Set(kDeltaName, delta.Get(pred));
    view = std::move(with_delta);
    atoms[delta_atom].predicate = kDeltaName;
  }

  ForEachMatch(atoms, view, Binding{}, [&](const Binding& binding) {
    for (const TermComparison& c : rule.disequalities) {
      if (ResolveGround(c.lhs, binding) == ResolveGround(c.rhs, binding)) {
        return true;
      }
    }
    for (const Atom& neg : rule.negated) {
      if (!db.schema().Contains(neg.predicate)) continue;
      Tuple ground;
      for (const Term& t : neg.args) ground.push_back(ResolveGround(t, binding));
      if (db.HasFact(neg.predicate, ground)) return true;
    }
    Tuple fact;
    fact.reserve(rule.head.args.size());
    for (const Term& t : rule.head.args) {
      fact.push_back(ResolveGround(t, binding));
    }
    out.Insert(fact);
    return true;
  });
}

}  // namespace

StatusOr<Instance> Evaluate(const DatalogProgram& program,
                            const Instance& edb) {
  const std::vector<DatalogRule>& rules_ = program.rules();
  for (const DatalogRule& r : rules_) {
    if (!r.IsSafe()) {
      return Status::Error("unsafe datalog rule: " + r.ToString());
    }
  }
  if (!program.IsStratified()) {
    return Status::Error("datalog program is not stratified");
  }

  std::set<std::string> idb = program.IdbPredicates();

  // Compute strata: stratum of an IDB predicate = 1 + max over negated IDB
  // deps, >= stratum of positive deps. Iterate to fixpoint (small programs).
  std::map<std::string, int> stratum;
  for (const std::string& p : idb) stratum[p] = 0;
  bool changed = true;
  int iterations = 0;
  while (changed) {
    changed = false;
    VQDR_CHECK_LT(++iterations, 1000) << "stratification did not converge";
    for (const DatalogRule& r : rules_) {
      int& s = stratum[r.head.predicate];
      for (const Atom& a : r.positive) {
        if (idb.count(a.predicate) && stratum[a.predicate] > s) {
          s = stratum[a.predicate];
          changed = true;
        }
      }
      for (const Atom& a : r.negated) {
        if (idb.count(a.predicate) && stratum[a.predicate] + 1 > s) {
          s = stratum[a.predicate] + 1;
          changed = true;
        }
      }
    }
  }
  int max_stratum = 0;
  for (const auto& [p, s] : stratum) max_stratum = std::max(max_stratum, s);

  // Database accumulating EDB and computed IDB facts.
  Schema schema = edb.schema();
  for (const DatalogRule& r : rules_) {
    schema.Add(r.head.predicate, r.head.arity());
    for (const Atom& a : r.positive) schema.Add(a.predicate, a.arity());
    for (const Atom& a : r.negated) schema.Add(a.predicate, a.arity());
  }
  Instance db(schema);
  for (const RelationDecl& d : edb.schema().decls()) {
    db.Set(d.name, edb.Get(d.name));
  }

  for (int s = 0; s <= max_stratum; ++s) {
    // Rules of this stratum.
    std::vector<const DatalogRule*> stratum_rules;
    for (const DatalogRule& r : rules_) {
      if (stratum[r.head.predicate] == s) stratum_rules.push_back(&r);
    }
    if (stratum_rules.empty()) continue;

    std::set<std::string> stratum_preds;
    for (const DatalogRule* r : stratum_rules) {
      stratum_preds.insert(r->head.predicate);
    }

    // Initial round: full naive application.
    Instance delta(schema);
    for (const DatalogRule* r : stratum_rules) {
      Relation derived(r->head.arity());
      ApplyRule(*r, db, /*delta=*/db, /*delta_atom=*/-1, derived);
      for (const Tuple& t : derived.tuples()) {
        if (db.AddFact(r->head.predicate, t)) {
          delta.AddFact(r->head.predicate, t);
        }
      }
    }

    // Semi-naïve rounds: each rule fires once per positive atom over a
    // same-stratum IDB predicate, with that atom restricted to the delta.
    while (!delta.Empty()) {
      Instance next_delta(schema);
      for (const DatalogRule* r : stratum_rules) {
        for (std::size_t i = 0; i < r->positive.size(); ++i) {
          const std::string& pred = r->positive[i].predicate;
          if (stratum_preds.count(pred) == 0) continue;
          if (delta.Get(pred).empty()) continue;
          Relation derived(r->head.arity());
          ApplyRule(*r, db, delta, static_cast<int>(i), derived);
          for (const Tuple& t : derived.tuples()) {
            if (db.AddFact(r->head.predicate, t)) {
              next_delta.AddFact(r->head.predicate, t);
            }
          }
        }
      }
      delta = std::move(next_delta);
    }
  }
  return db;
}

}  // namespace vqdr::datalog_reference
