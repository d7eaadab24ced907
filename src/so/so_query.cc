#include "so/so_query.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "base/check.h"
#include "fo/evaluator.h"

namespace vqdr {

namespace {

// All tuples of the given arity over `universe`, in lexicographic order.
std::vector<Tuple> AllTuples(const std::vector<Value>& universe, int arity) {
  std::vector<Tuple> result;
  if (arity == 0) {
    result.push_back(Tuple{});
    return result;
  }
  Tuple current(arity);
  std::function<void(int)> rec = [&](int pos) {
    if (pos == arity) {
      result.push_back(current);
      return;
    }
    for (Value v : universe) {
      current[pos] = v;
      rec(pos + 1);
    }
  };
  rec(0);
  return result;
}

std::vector<std::string> DistinctNames(const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (const std::string& v : names) {
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

}  // namespace

std::string SoQuery::ToString() const {
  std::ostringstream out;
  out << (existential ? "exists-SO " : "forall-SO ");
  for (std::size_t i = 0; i < relation_vars.size(); ++i) {
    if (i > 0) out << ", ";
    out << relation_vars[i].name << "/" << relation_vars[i].arity;
  }
  out << " . " << matrix.ToString();
  return out.str();
}

StatusOr<Relation> EvaluateSo(const SoQuery& q, const Instance& db,
                              const SoBudget& budget) {
  VQDR_CHECK(q.matrix.formula != nullptr);

  // Universe: active domain plus the matrix's constants.
  std::set<Value> universe_set = db.ActiveDomain();
  for (Value c : q.matrix.formula->Constants()) universe_set.insert(c);
  std::vector<Value> universe(universe_set.begin(), universe_set.end());

  // Candidate tuple pools per quantified relation, with budget checks.
  std::vector<std::vector<Tuple>> pools;
  std::uint64_t total_assignments = 1;
  for (const RelationDecl& decl : q.relation_vars) {
    std::vector<Tuple> pool = AllTuples(universe, decl.arity);
    if (pool.size() > budget.max_tuples_per_relation) {
      return Status::Error("SO budget exceeded: relation " + decl.name +
                           " has " + std::to_string(pool.size()) +
                           " candidate tuples (max " +
                           std::to_string(budget.max_tuples_per_relation) +
                           ")");
    }
    // 2^(pool size) assignments for this relation.
    if (pool.size() >= 63) return Status::Error("SO budget overflow");
    std::uint64_t count = 1ull << pool.size();
    if (total_assignments > budget.max_assignments / count) {
      return Status::Error("SO budget exceeded: too many assignments");
    }
    total_assignments *= count;
    pools.push_back(std::move(pool));
  }

  // The matrix reads the base relations of `db` and, for each quantified
  // symbol, the current member of `assignment`.
  const std::vector<std::string> names = DistinctNames(q.matrix.free_vars);
  CompiledFo matrix(q.matrix.formula, names);
  std::vector<const Relation*> relations = matrix.Resolve(db);
  std::vector<Relation> assignment;
  for (const RelationDecl& decl : q.relation_vars) {
    assignment.emplace_back(decl.arity);
  }
  for (std::size_t k = 0; k < relations.size(); ++k) {
    const RelationDecl& symbol = matrix.symbols()[k];
    for (std::size_t i = 0; i < q.relation_vars.size(); ++i) {
      if (q.relation_vars[i].name != symbol.name) continue;
      relations[k] = q.relation_vars[i].arity == symbol.arity ? &assignment[i]
                                                              : nullptr;
    }
  }
  FoWork work;

  // The matrix's quantifiers range over the adom of `db` with the guessed
  // relations in place, plus the matrix's constants. That is the universe
  // unless a quantified symbol shadows a base relation holding values no
  // other relation has; only then does the range follow the assignment.
  auto shadowed = [&](const std::string& name, std::size_t after) {
    for (std::size_t j = after; j < q.relation_vars.size(); ++j) {
      if (q.relation_vars[j].name == name) return true;
    }
    return false;
  };
  std::set<Value> base = q.matrix.formula->Constants();
  for (const RelationDecl& d : db.schema().decls()) {
    if (!shadowed(d.name, 0)) db.Get(d.name).CollectActiveDomain(base);
  }
  std::vector<Value> range = universe;
  auto assignment_range = [&] {
    std::set<Value> values = base;
    for (std::size_t i = 0; i < assignment.size(); ++i) {
      if (!shadowed(q.relation_vars[i].name, i + 1)) {
        assignment[i].CollectActiveDomain(values);
      }
    }
    range.assign(values.begin(), values.end());
  };

  // Checks the matrix truth over all relation assignments: some (∃) or
  // every (∀) assignment must satisfy it.
  auto decide = [&](const std::vector<Value>& args) -> bool {
    std::function<bool(std::size_t)> rec = [&](std::size_t i) -> bool {
      if (i == pools.size()) {
        if (base.size() < universe.size()) assignment_range();
        return matrix.Holds(relations, range, args, work);
      }
      const std::vector<Tuple>& pool = pools[i];
      std::uint64_t subsets = 1ull << pool.size();
      for (std::uint64_t mask = 0; mask < subsets; ++mask) {
        std::vector<Tuple> chosen;
        for (std::size_t t = 0; t < pool.size(); ++t) {
          if (mask & (1ull << t)) chosen.push_back(pool[t]);
        }
        assignment[i] = Relation(q.relation_vars[i].arity, std::move(chosen));
        bool sub = rec(i + 1);
        if (q.existential && sub) return true;
        if (!q.existential && !sub) return false;
      }
      return !q.existential;
    };
    return rec(0);
  };

  // Enumerate assignments of the distinct free variables over the universe;
  // a repeated head variable fills every column it names.
  Relation result(q.head_arity());
  if (q.head_arity() == 0) {
    if (decide({})) result.Insert(Tuple{});
  } else if (!universe.empty()) {
    std::vector<Value> args(names.size());
    std::function<void(std::size_t)> loop = [&](std::size_t i) {
      if (i == names.size()) {
        if (!decide(args)) return;
        Tuple answer;
        for (const std::string& v : q.matrix.free_vars) {
          auto at = std::find(names.begin(), names.end(), v) - names.begin();
          answer.push_back(args[at]);
        }
        result.Insert(answer);
        return;
      }
      for (Value v : universe) {
        args[i] = v;
        loop(i + 1);
      }
    };
    loop(0);
  }
  work.Publish();
  return result;
}

StatusOr<bool> SoSentenceHolds(const SoQuery& q, const Instance& db,
                               const SoBudget& budget) {
  VQDR_CHECK_EQ(q.head_arity(), 0) << "SoSentenceHolds on non-Boolean query";
  StatusOr<Relation> result = EvaluateSo(q, db, budget);
  if (!result.ok()) return result.status();
  return !result->empty();
}

}  // namespace vqdr
