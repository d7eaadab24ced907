#include "datalog/program.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>

#include "base/check.h"
#include "base/string_util.h"
#include "cq/parser.h"
#include "obs/metrics.h"

namespace vqdr {

namespace {

// Work done by one successful Evaluate call, published to the obs counters
// datalog.eval.calls / .rounds / .derivations once per call.
struct DatalogWork {
  /// Rule-application rounds over all strata, each stratum's naive first
  /// round included.
  std::uint64_t rounds = 0;
  /// Head tuples produced by rule bodies, duplicates included.
  std::uint64_t derivations = 0;

  void Publish() const {
    VQDR_COUNTER_INC("datalog.eval.calls");
    VQDR_COUNTER_ADD("datalog.eval.rounds", rounds);
    VQDR_COUNTER_ADD("datalog.eval.derivations", derivations);
  }
};

// Records the arity of every predicate the rules use in `arities` (which
// may already hold an EDB schema's) and fails on the first predicate used
// with a second arity.
Status CheckArities(const std::vector<DatalogRule>& rules,
                    std::map<std::string, int>& arities) {
  std::vector<const Atom*> atoms;
  for (const DatalogRule& r : rules) {
    atoms.push_back(&r.head);
    for (const Atom& a : r.positive) atoms.push_back(&a);
    for (const Atom& a : r.negated) atoms.push_back(&a);
  }
  for (const Atom* a : atoms) {
    auto [it, inserted] = arities.emplace(a->predicate, a->arity());
    if (!inserted && it->second != a->arity()) {
      return Status::InvalidArgument(
          "datalog predicate " + a->predicate + " used with arity " +
          std::to_string(it->second) + " and arity " +
          std::to_string(a->arity()));
    }
  }
  return Status::Ok();
}

constexpr std::uint32_t kEmptyBucket = UINT32_MAX;

std::uint64_t HashRow(const Value* row, int arity) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < arity; ++i) {
    h = (h ^ static_cast<std::uint64_t>(row[i].id)) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  return h;
}

// The facts of one predicate: rows appended in derivation order and never
// removed, with an open-addressing hash set of row ids for deduplication.
// Rows [0, full) are the ones this round's joins and indexes see; the rows
// the previous round added are [delta, full).
struct Store {
  int arity = 0;
  std::vector<Value> values;  // row r is values[r * arity, (r + 1) * arity)
  std::size_t rows = 0;
  std::size_t delta = 0;
  std::size_t full = 0;
  std::vector<std::uint32_t> buckets;  // row ids or kEmptyBucket

  const Value* Row(std::size_t r) const { return values.data() + r * arity; }

  // The bucket holding a row equal to `row`, or the empty one it belongs in.
  std::size_t Probe(const Value* row) const {
    std::size_t mask = buckets.size() - 1;
    for (std::size_t b = HashRow(row, arity) & mask;; b = (b + 1) & mask) {
      if (buckets[b] == kEmptyBucket ||
          std::equal(row, row + arity, Row(buckets[b]))) {
        return b;
      }
    }
  }

  // Appends `row` (which must not point into `values`) unless an equal row
  // is already stored; returns true if it was new.
  bool Add(const Value* row) {
    if (2 * (rows + 1) > buckets.size()) {
      buckets.assign(std::max<std::size_t>(16, 2 * buckets.size()),
                     kEmptyBucket);
      for (std::size_t r = 0; r < rows; ++r) {
        buckets[Probe(Row(r))] = static_cast<std::uint32_t>(r);
      }
    }
    std::size_t b = Probe(row);
    if (buckets[b] != kEmptyBucket) return false;
    VQDR_CHECK_LT(rows, std::size_t{kEmptyBucket}) << "datalog store full";
    buckets[b] = static_cast<std::uint32_t>(rows++);
    values.insert(values.end(), row, row + arity);
    return true;
  }
};

// A store's row ids [0, full) sorted by the values in `cols`, ties by id:
// the lookup structure for atoms whose `cols` are bound when joined.
struct Index {
  int store;
  std::vector<int> cols;
  std::vector<std::uint32_t> ids;

  // Takes in the rows the store made visible since the last call: sorts
  // them, then merges them behind the rows indexed before.
  void Extend(const Store& s) {
    std::size_t old = ids.size();
    if (old == s.full) return;
    for (std::size_t r = old; r < s.full; ++r) {
      ids.push_back(static_cast<std::uint32_t>(r));
    }
    auto less = [&](std::uint32_t a, std::uint32_t b) {
      const Value* ra = s.Row(a);
      const Value* rb = s.Row(b);
      for (int c : cols) {
        if (ra[c] != rb[c]) return ra[c] < rb[c];
      }
      return a < b;
    };
    std::sort(ids.begin() + old, ids.end(), less);
    std::inplace_merge(ids.begin(), ids.begin() + old, ids.end(), less);
  }
};

// A rule argument after compilation: a constant, or a variable's slot.
struct Operand {
  int slot = -1;  // -1 for a constant
  Value constant;
};

// A column of an atom that the atom itself binds: the first occurrence of
// a variable assigns its slot, a repeat within the atom checks it.
struct FreeColumn {
  int col;
  int slot;
  bool repeat;
};

// One positive atom of a join plan. `bound` holds the columns whose value
// is known when the atom is reached (a constant or a slot bound earlier),
// in column order; they are looked up through `index` or, for a scan,
// checked row by row.
struct Step {
  int store;
  bool delta = false;  // scan the previous round's rows only
  int index = -1;      // used when `bound` is non-empty and !delta
  std::vector<std::pair<int, Operand>> bound;
  std::vector<FreeColumn> free;
};

using Plan = std::vector<Step>;

struct NegatedAtom {
  int index;  // over every column of the negated predicate
  std::vector<std::pair<int, Operand>> key;
};

// A rule compiled for one Evaluate call: variables are dense slots,
// predicates store ids. `naive` joins the body over the full stores; each
// delta plan starts from one positive atom over a predicate of the rule's
// own stratum, restricted to the previous round's rows.
struct CompiledRule {
  int head;
  std::vector<Operand> head_args;
  std::vector<std::pair<Operand, Operand>> disequalities;
  std::vector<NegatedAtom> negated;
  int slots = 0;
  Plan naive;
  std::vector<Plan> deltas;
};

class Engine {
 public:
  // Arities must agree with `edb`'s schema (see CheckArities).
  explicit Engine(const Instance& edb) : edb_(edb) {}

  int StoreOf(const std::string& predicate) const {
    return ids_.at(predicate);
  }

  std::uint64_t derivations() const { return derivations_; }

  bool HasDelta(int store) const {
    return stores_[store].delta < stores_[store].full;
  }

  // Compiles `r`, with a delta plan for each positive atom whose predicate
  // is in `recursive`.
  CompiledRule Compile(const DatalogRule& r,
                       const std::set<std::string>& recursive) {
    CompiledRule c;
    std::map<std::string, int> slots;
    for (const Atom& a : r.positive) {
      for (const Term& t : a.args) {
        if (t.is_var()) slots.emplace(t.var(), static_cast<int>(slots.size()));
      }
    }
    c.slots = static_cast<int>(slots.size());
    auto operand = [&](const Term& t) {
      Operand o;
      if (t.is_const()) {
        o.constant = t.constant();
      } else {
        o.slot = slots.at(t.var());
      }
      return o;
    };
    c.head = Intern(r.head);
    for (const Term& t : r.head.args) c.head_args.push_back(operand(t));
    for (const TermComparison& d : r.disequalities) {
      c.disequalities.push_back({operand(d.lhs), operand(d.rhs)});
    }
    for (const Atom& a : r.negated) {
      NegatedAtom n;
      std::vector<int> cols;
      for (int i = 0; i < a.arity(); ++i) {
        cols.push_back(i);
        n.key.push_back({i, operand(a.args[i])});
      }
      n.index = IndexOf(Intern(a), std::move(cols));
      c.negated.push_back(std::move(n));
    }
    c.naive = PlanJoin(r, slots, -1);
    for (std::size_t i = 0; i < r.positive.size(); ++i) {
      if (recursive.count(r.positive[i].predicate)) {
        c.deltas.push_back(PlanJoin(r, slots, static_cast<int>(i)));
      }
    }
    return c;
  }

  // Makes every store's rows so far visible to the next round, the rows
  // added since the previous call becoming its delta.
  void StartRound() {
    for (Store& s : stores_) {
      s.delta = s.full;
      s.full = s.rows;
    }
  }

  void Run(const CompiledRule& rule, const Plan& plan) {
    rule_ = &rule;
    plan_ = &plan;
    slot_values_.resize(rule.slots);
    head_.resize(rule.head_args.size());
    Join(0);
  }

  // The store's rows as a Relation.
  Relation ToRelation(int id) const {
    const Store& s = stores_[id];
    std::vector<Tuple> tuples;
    tuples.reserve(s.rows);
    for (std::size_t r = 0; r < s.rows; ++r) {
      tuples.emplace_back(s.Row(r), s.Row(r) + s.arity);
    }
    return Relation(s.arity, std::move(tuples));
  }

 private:
  // The store of `a`'s predicate, created on first use with the facts
  // `edb` holds for it.
  int Intern(const Atom& a) {
    auto [it, inserted] =
        ids_.try_emplace(a.predicate, static_cast<int>(stores_.size()));
    if (inserted) {
      Store& s = stores_.emplace_back();
      s.arity = a.arity();
      if (edb_.schema().Contains(a.predicate)) {
        for (const Tuple& t : edb_.Get(a.predicate).tuples()) s.Add(t.data());
      }
    }
    return it->second;
  }

  int IndexOf(int store, std::vector<int> cols) {
    auto [it, inserted] = index_ids_.try_emplace(
        {store, cols}, static_cast<int>(indexes_.size()));
    if (inserted) indexes_.push_back(Index{store, std::move(cols), {}});
    return it->second;
  }

  // Orders the positive atoms: the delta atom `first` (or, for the naive
  // plan, -1), then repeatedly the atom with most bound columns, earliest
  // first on ties.
  Plan PlanJoin(const DatalogRule& r, const std::map<std::string, int>& slots,
                int first) {
    std::vector<bool> placed(r.positive.size(), false);
    std::vector<bool> bound(slots.size(), false);
    auto bound_count = [&](const Atom& a) {
      int n = 0;
      for (const Term& t : a.args) {
        n += t.is_const() || bound[slots.at(t.var())];
      }
      return n;
    };
    Plan plan;
    for (std::size_t k = 0; k < r.positive.size(); ++k) {
      int pick = first;
      if (k > 0 || first < 0) {
        pick = -1;
        for (std::size_t j = 0; j < placed.size(); ++j) {
          if (!placed[j] && (pick < 0 || bound_count(r.positive[j]) >
                                             bound_count(r.positive[pick]))) {
            pick = static_cast<int>(j);
          }
        }
      }
      placed[pick] = true;
      const Atom& a = r.positive[pick];
      Step step;
      step.store = Intern(a);
      step.delta = k == 0 && first >= 0;
      std::vector<bool> bound_here = bound;
      for (int c = 0; c < a.arity(); ++c) {
        const Term& t = a.args[c];
        if (t.is_const()) {
          step.bound.push_back({c, Operand{-1, t.constant()}});
        } else if (int slot = slots.at(t.var()); bound[slot]) {
          step.bound.push_back({c, Operand{slot, Value()}});
        } else {
          step.free.push_back({c, slot, bound_here[slot]});
          bound_here[slot] = true;
        }
      }
      bound = std::move(bound_here);
      if (!step.delta && !step.bound.empty()) {
        std::vector<int> cols;
        for (const auto& [col, op] : step.bound) cols.push_back(col);
        step.index = IndexOf(step.store, std::move(cols));
      }
      plan.push_back(std::move(step));
    }
    return plan;
  }

  Value Get(const Operand& o) const {
    return o.slot < 0 ? o.constant : slot_values_[o.slot];
  }

  // Binds the step's free columns from `row`; false if a repeated
  // variable disagrees.
  bool BindFree(const Step& s, const Value* row) {
    for (const FreeColumn& f : s.free) {
      if (!f.repeat) {
        slot_values_[f.slot] = row[f.col];
      } else if (slot_values_[f.slot] != row[f.col]) {
        return false;
      }
    }
    return true;
  }

  // Compares `row` on the columns of `bound` with their known values.
  int Compare(const std::vector<std::pair<int, Operand>>& bound,
              const Value* row) const {
    for (const auto& [col, op] : bound) {
      Value v = Get(op);
      if (row[col] != v) return row[col] < v ? -1 : 1;
    }
    return 0;
  }

  // The entries of `ix` from the first whose row is not below the known
  // values of `bound` (given in the index's column order); the rows that
  // agree with them come first. The index first takes in the rows made
  // visible this round, so an index no plan reads in a round costs nothing.
  std::pair<const std::uint32_t*, const std::uint32_t*> Seek(
      Index& ix, const std::vector<std::pair<int, Operand>>& bound) {
    const Store& s = stores_[ix.store];
    ix.Extend(s);
    const std::uint32_t* begin = ix.ids.data();
    const std::uint32_t* end = begin + ix.ids.size();
    return {std::partition_point(begin, end,
                                 [&](std::uint32_t id) {
                                   return Compare(bound, s.Row(id)) < 0;
                                 }),
            end};
  }

  // Joins plan steps k, k+1, ... under the slots bound so far. A row's
  // pointer is re-read after every emission, which may grow its store.
  void Join(std::size_t k) {
    if (k == plan_->size()) {
      Emit();
      return;
    }
    const Step& s = (*plan_)[k];
    const Store& st = stores_[s.store];
    if (s.index >= 0) {
      auto [it, end] = Seek(indexes_[s.index], s.bound);
      for (; it != end && Compare(s.bound, st.Row(*it)) == 0; ++it) {
        if (BindFree(s, st.Row(*it))) Join(k + 1);
      }
      return;
    }
    for (std::size_t r = s.delta ? st.delta : 0; r < st.full; ++r) {
      const Value* row = st.Row(r);
      if (Compare(s.bound, row) == 0 && BindFree(s, row)) Join(k + 1);
    }
  }

  // Every slot is bound: filters by the disequalities and negated atoms,
  // then adds the head fact.
  void Emit() {
    for (const auto& [lhs, rhs] : rule_->disequalities) {
      if (Get(lhs) == Get(rhs)) return;
    }
    for (const NegatedAtom& n : rule_->negated) {
      Index& ix = indexes_[n.index];
      auto [it, end] = Seek(ix, n.key);
      if (it != end && Compare(n.key, stores_[ix.store].Row(*it)) == 0) return;
    }
    for (std::size_t i = 0; i < head_.size(); ++i) {
      head_[i] = Get(rule_->head_args[i]);
    }
    ++derivations_;
    stores_[rule_->head].Add(head_.data());
  }

  const Instance& edb_;
  std::map<std::string, int> ids_;
  std::vector<Store> stores_;
  std::map<std::pair<int, std::vector<int>>, int> index_ids_;
  std::vector<Index> indexes_;
  std::uint64_t derivations_ = 0;

  const CompiledRule* rule_ = nullptr;
  const Plan* plan_ = nullptr;
  std::vector<Value> slot_values_;
  std::vector<Value> head_;
};

}  // namespace

bool DatalogRule::IsSafe() const {
  std::set<std::string> positive_vars;
  for (const Atom& a : positive) {
    for (const Term& t : a.args) {
      if (t.is_var()) positive_vars.insert(t.var());
    }
  }
  auto covered = [&](const Term& t) {
    return t.is_const() || positive_vars.count(t.var()) > 0;
  };
  for (const Term& t : head.args) {
    if (!covered(t)) return false;
  }
  for (const Atom& a : negated) {
    for (const Term& t : a.args) {
      if (!covered(t)) return false;
    }
  }
  for (const TermComparison& c : disequalities) {
    if (!covered(c.lhs) || !covered(c.rhs)) return false;
  }
  return true;
}

std::string DatalogRule::ToString() const {
  std::ostringstream out;
  out << head.ToString() << " :- ";
  bool first = true;
  auto sep = [&]() {
    if (!first) out << ", ";
    first = false;
  };
  for (const Atom& a : positive) {
    sep();
    out << a.ToString();
  }
  for (const Atom& a : negated) {
    sep();
    out << "not " << a.ToString();
  }
  for (const TermComparison& c : disequalities) {
    sep();
    out << c.lhs.ToString() << " != " << c.rhs.ToString();
  }
  if (first) out << "true";
  return out.str();
}

std::set<std::string> DatalogProgram::IdbPredicates() const {
  std::set<std::string> idb;
  for (const DatalogRule& r : rules_) idb.insert(r.head.predicate);
  return idb;
}

bool DatalogProgram::IsPositive() const {
  return std::all_of(rules_.begin(), rules_.end(),
                     [](const DatalogRule& r) { return r.negated.empty(); });
}

bool DatalogProgram::IsStratified() const {
  // Build the dependency graph over IDB predicates; an edge p -> q when q
  // occurs in the body of a rule for p, marked negative if negated. The
  // program is stratified iff no cycle contains a negative edge.
  std::set<std::string> idb = IdbPredicates();
  std::map<std::string, std::set<std::string>> pos_edges, neg_edges;
  for (const DatalogRule& r : rules_) {
    for (const Atom& a : r.positive) {
      if (idb.count(a.predicate)) pos_edges[r.head.predicate].insert(a.predicate);
    }
    for (const Atom& a : r.negated) {
      if (idb.count(a.predicate)) neg_edges[r.head.predicate].insert(a.predicate);
    }
  }
  // For each negative edge p -¬-> q, require that q cannot reach p.
  auto reaches = [&](const std::string& from, const std::string& to) {
    std::set<std::string> seen{from};
    std::vector<std::string> stack{from};
    while (!stack.empty()) {
      std::string cur = stack.back();
      stack.pop_back();
      if (cur == to) return true;
      for (const auto* edges : {&pos_edges, &neg_edges}) {
        auto it = edges->find(cur);
        if (it == edges->end()) continue;
        for (const std::string& next : it->second) {
          if (seen.insert(next).second) stack.push_back(next);
        }
      }
    }
    return false;
  };
  for (const auto& [p, targets] : neg_edges) {
    for (const std::string& q : targets) {
      if (q == p || reaches(q, p)) return false;
    }
  }
  return true;
}

StatusOr<Instance> DatalogProgram::Evaluate(const Instance& edb) const {
  for (const DatalogRule& r : rules_) {
    if (!r.IsSafe()) {
      return Status::Error("unsafe datalog rule: " + r.ToString());
    }
  }
  if (!IsStratified()) {
    return Status::Error("datalog program is not stratified");
  }
  std::map<std::string, int> arities;
  for (const RelationDecl& d : edb.schema().decls()) arities[d.name] = d.arity;
  if (Status s = CheckArities(rules_, arities); !s.ok()) return s;

  std::set<std::string> idb = IdbPredicates();

  // Compute strata: stratum of an IDB predicate = 1 + max over negated IDB
  // deps, >= stratum of positive deps. Iterate to fixpoint: on a stratified
  // program each pass fixes at least one more predicate's stratum.
  std::map<std::string, int> stratum;
  for (const std::string& p : idb) stratum[p] = 0;
  bool changed = true;
  std::size_t passes = 0;
  while (changed) {
    changed = false;
    VQDR_CHECK_LE(++passes, idb.size() + 1)
        << "stratification did not converge";
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

  // Each rule is compiled once; its delta plans start from the atoms over
  // predicates of its own stratum.
  std::vector<std::set<std::string>> stratum_preds(max_stratum + 1);
  for (const auto& [p, s] : stratum) stratum_preds[s].insert(p);
  Engine engine(edb);
  std::vector<std::vector<CompiledRule>> stratum_rules(max_stratum + 1);
  for (const DatalogRule& r : rules_) {
    int s = stratum[r.head.predicate];
    stratum_rules[s].push_back(engine.Compile(r, stratum_preds[s]));
  }

  // Per stratum: one naive round over everything known, then semi-naïve
  // rounds, each rule once per delta plan whose delta atom has new rows,
  // until a round adds nothing.
  DatalogWork work;
  for (const std::vector<CompiledRule>& rules : stratum_rules) {
    if (rules.empty()) continue;
    for (bool naive = true;; naive = false) {
      engine.StartRound();
      std::vector<std::pair<const CompiledRule*, const Plan*>> runs;
      for (const CompiledRule& r : rules) {
        if (naive) {
          runs.push_back({&r, &r.naive});
          continue;
        }
        for (const Plan& p : r.deltas) {
          if (engine.HasDelta(p.front().store)) runs.push_back({&r, &p});
        }
      }
      if (runs.empty()) break;
      ++work.rounds;
      for (const auto& [r, p] : runs) engine.Run(*r, *p);
    }
  }
  work.derivations = engine.derivations();
  work.Publish();

  // The result keeps the EDB's relations and declarations first, then
  // declares the rules' predicates in order of use.
  Schema schema = edb.schema();
  for (const DatalogRule& r : rules_) {
    schema.Add(r.head.predicate, r.head.arity());
    for (const Atom& a : r.positive) schema.Add(a.predicate, a.arity());
    for (const Atom& a : r.negated) schema.Add(a.predicate, a.arity());
  }
  Instance db(schema);
  for (const RelationDecl& d : edb.schema().decls()) {
    if (!idb.count(d.name)) db.Set(d.name, edb.Get(d.name));
  }
  for (const std::string& p : idb) {
    db.Set(p, engine.ToRelation(engine.StoreOf(p)));
  }
  return db;
}

StatusOr<Relation> DatalogProgram::Query(const Instance& edb,
                                         const std::string& predicate) const {
  StatusOr<Instance> result = Evaluate(edb);
  if (!result.ok()) return result.status();
  if (!result->schema().Contains(predicate)) {
    return Status::Error("unknown predicate " + predicate);
  }
  return std::move(result->GetMutable(predicate));
}

std::string DatalogProgram::ToString() const {
  std::ostringstream out;
  for (const DatalogRule& r : rules_) out << r.ToString() << ";\n";
  return out.str();
}

StatusOr<DatalogProgram> ParseDatalog(std::string_view text, NamePool& pool) {
  DatalogProgram program;
  for (const std::string& piece : Split(text, ';')) {
    std::string_view line = StripWhitespace(piece);
    if (line.empty()) continue;
    StatusOr<ConjunctiveQuery> rule_q = ParseCq(line, pool);
    if (!rule_q.ok()) return rule_q.status();
    const ConjunctiveQuery& q = rule_q.value();
    if (q.UsesEquality()) {
      return Status::Error("equalities not supported in datalog rules");
    }
    DatalogRule rule;
    rule.head = Atom(q.head_name(), q.head_terms());
    rule.positive = q.atoms();
    rule.negated = q.negated_atoms();
    rule.disequalities = q.disequalities();
    program.AddRule(std::move(rule));
  }
  if (program.rules().empty()) {
    return Status::Error("empty datalog program");
  }
  std::map<std::string, int> arities;
  if (Status s = CheckArities(program.rules(), arities); !s.ok()) return s;
  return program;
}

}  // namespace vqdr
