#include "fo/evaluator.h"

#include <algorithm>
#include <set>
#include <utility>

#include "base/check.h"
#include "obs/metrics.h"

namespace vqdr {

namespace {

using Kind = FoFormula::Kind;

constexpr int kConstant = -1;
constexpr int kUnbound = -2;

// A compiled term: a slot of the assignment array, a constant, or a
// variable that no quantifier or parameter binds (reading it is an error).
struct Slotted {
  int slot = kConstant;
  Value constant;
  std::string unbound_name;
};

// A literal of a quantifier block: `node` must evaluate to `positive`.
struct Literal {
  int node = 0;
  bool positive = true;
};

// One step of a block's join: it binds one or more of the block's slots and
// then checks the literals that have become fully bound.
struct Step {
  enum class Kind { kAtom, kEquals, kRange };
  Kind kind = Kind::kRange;
  // kEquals / kRange: the slot bound. kEquals takes the value of `source`,
  // which is in the range unless it is a caller's parameter.
  int slot = 0;
  Slotted source;
  bool source_is_param = false;
  // kAtom: the guard atom. binds[k] is the slot position k binds, or -1 if
  // position k must match args[k]. The first `prefix` positions all match,
  // so they narrow the sorted tuples by binary search.
  int symbol = 0;
  std::vector<Slotted> args;
  std::vector<int> binds;
  std::size_t prefix = 0;
  std::vector<Literal> filters;
};

// A quantifier block: ∃x̄ searches for an assignment satisfying the
// conjunction of its literals, ∀x̄ for one satisfying the conjunction of its
// body's negation (a counterexample). Directly nested ∃ (under ∃) and ∀
// (under ∀) join the same block.
struct Block {
  // The block quantifies variables but no literal reads them, so it has
  // an assignment exactly when the range is non-empty. (A block with steps
  // needs no such test: on an empty range every relation is empty too.)
  bool vacuous_vars = false;
  std::vector<Literal> pre;  // literals reading none of the block's slots
  std::vector<Step> steps;
  // For a query block: the steps after which every output slot is bound.
  std::size_t output_steps = 0;
};

struct Node {
  Kind kind = Kind::kTrue;
  int symbol = 0;              // kAtom
  std::vector<Slotted> args;   // kAtom arguments; kEquals lhs, rhs
  std::vector<int> children;   // connectives
  int block = 0;               // kExists / kForall
};

// Lexicographic t[0..n) < key(0..n), for lower_bound over sorted tuples.
template <typename Key>
bool PrefixLess(const Tuple& t, std::size_t n, const Key& key) {
  for (std::size_t k = 0; k < n; ++k) {
    Value v = key(k);
    if (t[k] != v) return t[k] < v;
  }
  return false;
}

template <typename Key>
bool PrefixEquals(const Tuple& t, std::size_t n, const Key& key) {
  for (std::size_t k = 0; k < n; ++k) {
    if (t[k] != key(k)) return false;
  }
  return true;
}

}  // namespace

struct CompiledFo::Program {
  std::vector<RelationDecl> symbols;
  std::vector<Node> nodes;
  std::vector<Block> blocks;
  int num_slots = 0;
  int num_params = 0;              // slots [0, num_params) are parameters
  std::vector<std::string> unbound;  // free variables outside the params
  int root = 0;                    // the root node
};

namespace {

using Program = CompiledFo::Program;

// Compiles formulas into a Program: slots for variables under lexical
// scoping, symbol indices for atoms, and a guard plan for each quantifier.
class Compiler {
 public:
  explicit Compiler(Program& p) : p_(p) {}

  int DeclareSlot(const std::string& name) {
    scope_.push_back({name, p_.num_slots});
    return p_.num_slots++;
  }

  int Compile(const FoFormula& f) {
    Node n;
    n.kind = f.kind();
    switch (f.kind()) {
      case Kind::kTrue:
      case Kind::kFalse:
        break;
      case Kind::kAtom:
        n.symbol = Symbol(f.atom());
        for (const Term& t : f.atom().args) n.args.push_back(CompileTerm(t));
        break;
      case Kind::kEquals:
        n.args = {CompileTerm(f.lhs()), CompileTerm(f.rhs())};
        break;
      case Kind::kNot:
      case Kind::kAnd:
      case Kind::kOr:
      case Kind::kImplies:
      case Kind::kIff:
        for (const FoPtr& c : f.children()) n.children.push_back(Compile(*c));
        break;
      case Kind::kExists:
      case Kind::kForall:
        n.block = CompileBlock(f.quantified_vars(), *f.children()[0],
                               f.kind() == Kind::kExists, {});
        break;
    }
    p_.nodes.push_back(std::move(n));
    return static_cast<int>(p_.nodes.size()) - 1;
  }

  // The block of a quantifier over `vars` with body `body`; `positive` is
  // true for ∃. `outputs` (query mode) are already-declared slots that the
  // block binds and that must be enumerated even where the body ignores
  // them.
  int CompileBlock(const std::vector<std::string>& vars, const FoFormula& body,
                   bool positive, const std::vector<int>& outputs) {
    std::size_t mark = scope_.size();
    std::vector<int> saved_slots = std::move(block_slots_);
    std::vector<Literal> saved_literals = std::move(literals_);
    std::vector<std::vector<int>> saved_reads = std::move(literal_reads_);
    block_slots_ = outputs;
    literals_.clear();
    literal_reads_.clear();
    for (const std::string& v : vars) block_slots_.push_back(DeclareSlot(v));
    Collect(body, positive);
    scope_.resize(mark);

    Block b;
    Plan(b, outputs);
    b.vacuous_vars = !block_slots_.empty() && b.steps.empty();
    block_slots_ = std::move(saved_slots);
    literals_ = std::move(saved_literals);
    literal_reads_ = std::move(saved_reads);
    p_.blocks.push_back(std::move(b));
    return static_cast<int>(p_.blocks.size()) - 1;
  }

 private:
  int Symbol(const Atom& atom) {
    RelationDecl decl{atom.predicate, static_cast<int>(atom.args.size())};
    auto it = std::find(p_.symbols.begin(), p_.symbols.end(), decl);
    if (it != p_.symbols.end()) {
      return static_cast<int>(it - p_.symbols.begin());
    }
    p_.symbols.push_back(decl);
    return static_cast<int>(p_.symbols.size()) - 1;
  }

  Slotted CompileTerm(const Term& t) {
    Slotted s;
    if (t.is_const()) {
      s.constant = t.constant();
      return s;
    }
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      if (it->first == t.var()) {
        s.slot = it->second;
        reads_.push_back(s.slot);
        return s;
      }
    }
    s.slot = kUnbound;
    s.unbound_name = t.var();
    p_.unbound.push_back(t.var());
    return s;
  }

  // Adds the conjuncts of `f` (positive) or of ¬f (negative) to the current
  // block's literals. A nested ∃ in positive position, or ∀ in negative
  // position, contributes its variables to the block: ∃x.(A ∧ ∃y.B) is
  // ∃x,y.(A ∧ B) once y has a slot of its own.
  void Collect(const FoFormula& f, bool positive) {
    switch (f.kind()) {
      case Kind::kAnd:
      case Kind::kOr:
        if ((f.kind() == Kind::kAnd) == positive) {
          for (const FoPtr& c : f.children()) Collect(*c, positive);
          return;
        }
        break;
      case Kind::kNot:
        Collect(*f.children()[0], !positive);
        return;
      case Kind::kImplies:
        if (!positive) {
          Collect(*f.children()[0], true);
          Collect(*f.children()[1], false);
          return;
        }
        break;
      case Kind::kExists:
      case Kind::kForall:
        if ((f.kind() == Kind::kExists) == positive) {
          std::size_t mark = scope_.size();
          for (const std::string& v : f.quantified_vars()) {
            block_slots_.push_back(DeclareSlot(v));
          }
          Collect(*f.children()[0], positive);
          scope_.resize(mark);
          return;
        }
        break;
      default:
        break;
    }
    // The slots the literal reads, nested quantifiers included.
    std::size_t mark = reads_.size();
    literals_.push_back({Compile(f), positive});
    literal_reads_.emplace_back(reads_.begin() + mark, reads_.end());
  }

  // Orders the block's variables greedily: an equality guard with its other
  // side known first (one candidate), then the guard atom with the most
  // known positions, and a range scan only for a variable with no guard.
  // Each literal is checked right after the step that binds its last slot.
  void Plan(Block& b, const std::vector<int>& outputs) {
    std::vector<char> own(p_.num_slots, 0);
    for (int s : block_slots_) own[s] = 1;
    // unbound[s]: s is a slot of this block that some literal reads (or an
    // output) and that no step has bound yet.
    std::vector<char> unbound(p_.num_slots, 0);
    std::size_t left = 0;
    auto mark_unbound = [&](int s) {
      if (!unbound[s]) ++left;
      unbound[s] = 1;
    };
    for (int s : outputs) mark_unbound(s);
    // deps[i]: the slots of this block literal i reads.
    std::vector<std::vector<int>>& deps = literal_reads_;
    for (std::vector<int>& d : deps) {
      std::erase_if(d, [&](int s) { return !own[s]; });
      for (int s : d) mark_unbound(s);
    }
    std::vector<char> is_output(p_.num_slots, 0);
    for (int s : outputs) is_output[s] = 1;
    std::vector<char> placed(literals_.size(), 0);
    auto known = [&](const Slotted& s) { return s.slot < 0 || !unbound[s.slot]; };
    auto attach = [&](std::vector<Literal>& to) {
      for (std::size_t i = 0; i < literals_.size(); ++i) {
        if (placed[i]) continue;
        bool ready = true;
        for (int s : deps[i]) ready = ready && !unbound[s];
        if (!ready) continue;
        to.push_back(literals_[i]);
        placed[i] = 1;
      }
    };
    auto bind = [&](int s) {
      if (unbound[s]) --left;
      unbound[s] = 0;
      // The query's answers are fixed once the last output is bound.
      if (is_output[s]) b.output_steps = b.steps.size() + 1;
    };
    attach(b.pre);
    while (left > 0) {
      Step step = NextStep(known, unbound, placed);
      if (step.kind == Step::Kind::kAtom) {
        for (int s : step.binds) {
          if (s >= 0) bind(s);
        }
      } else {
        bind(step.slot);
      }
      attach(step.filters);
      b.steps.push_back(std::move(step));
    }
  }

  template <typename Known>
  Step NextStep(const Known& known, const std::vector<char>& unbound,
                std::vector<char>& placed) {
    Step step;
    for (std::size_t i = 0; i < literals_.size(); ++i) {
      const Node& n = p_.nodes[literals_[i].node];
      if (placed[i] || !literals_[i].positive || n.kind != Kind::kEquals) {
        continue;
      }
      for (int side = 0; side < 2; ++side) {
        const Slotted& x = n.args[side];
        const Slotted& t = n.args[1 - side];
        if (x.slot >= 0 && unbound[x.slot] && known(t)) {
          step.kind = Step::Kind::kEquals;
          step.slot = x.slot;
          step.source = t;
          step.source_is_param = t.slot >= 0 && t.slot < p_.num_params;
          placed[i] = 1;
          return step;
        }
      }
    }
    int best = -1;
    std::size_t best_known = 0;
    for (std::size_t i = 0; i < literals_.size(); ++i) {
      const Node& n = p_.nodes[literals_[i].node];
      if (placed[i] || !literals_[i].positive || n.kind != Kind::kAtom) {
        continue;
      }
      std::size_t k = 0;
      for (const Slotted& s : n.args) k += known(s);
      if (k < n.args.size() && (best < 0 || k > best_known)) {
        best = static_cast<int>(i);
        best_known = k;
      }
    }
    if (best >= 0) {
      const Node& n = p_.nodes[literals_[best].node];
      step.kind = Step::Kind::kAtom;
      step.symbol = n.symbol;
      step.args = n.args;
      bool in_prefix = true;
      for (const Slotted& s : n.args) {
        bool match = known(s) || std::find(step.binds.begin(), step.binds.end(),
                                           s.slot) != step.binds.end();
        step.binds.push_back(match ? -1 : s.slot);
        in_prefix = in_prefix && match;
        if (in_prefix) ++step.prefix;
      }
      placed[best] = 1;
      return step;
    }
    // No guard: the first unbound slot in declaration order ranges over
    // the whole range.
    for (int s : block_slots_) {
      if (unbound[s]) {
        step.slot = s;
        break;
      }
    }
    return step;
  }

  Program& p_;
  std::vector<std::pair<std::string, int>> scope_;
  std::vector<int> block_slots_;   // of the block being compiled
  std::vector<Literal> literals_;  // of the block being compiled
  std::vector<std::vector<int>> literal_reads_;  // one per literal
  std::vector<int> reads_;  // every slot a compiled term has read
};

// The quantification range: active domain plus the formula's constants.
std::vector<Value> QuantificationRange(const FoFormula& formula,
                                       const Instance& db) {
  std::set<Value> range = db.ActiveDomain();
  for (Value c : formula.Constants()) range.insert(c);
  return std::vector<Value>(range.begin(), range.end());
}

// One evaluation of a compiled program. Every value a relation holds and
// every constant of the formula is in the range.
class Evaluator {
 public:
  // With a range the caller computed.
  Evaluator(const Program& p, const std::vector<const Relation*>& relations,
            const std::vector<Value>& range, FoWork& work)
      : p_(p), relations_(relations), range_(&range), work_(work),
        slots_(p.num_slots) {}

  // With the range of `formula` over `db`, computed only if a step needs
  // it: a formula whose variables are all guarded never does.
  Evaluator(const Program& p, const std::vector<const Relation*>& relations,
            const FoFormula& formula, const Instance& db, FoWork& work)
      : p_(p), relations_(relations), formula_(&formula), db_(&db),
        work_(work), slots_(p.num_slots) {}

  std::vector<Value>& slots() { return slots_; }

  bool Eval(int id) {
    const Node& n = p_.nodes[id];
    switch (n.kind) {
      case Kind::kTrue:
        return true;
      case Kind::kFalse:
        return false;
      case Kind::kAtom:
        return AtomHolds(n);
      case Kind::kEquals:
        return Get(n.args[0]) == Get(n.args[1]);
      case Kind::kNot:
        return !Eval(n.children[0]);
      case Kind::kAnd:
        for (int c : n.children) {
          if (!Eval(c)) return false;
        }
        return true;
      case Kind::kOr:
        for (int c : n.children) {
          if (Eval(c)) return true;
        }
        return false;
      case Kind::kImplies:
        return !Eval(n.children[0]) || Eval(n.children[1]);
      case Kind::kIff:
        return Eval(n.children[0]) == Eval(n.children[1]);
      case Kind::kExists:
      case Kind::kForall: {
        const Block& b = p_.blocks[n.block];
        auto found = [] { return true; };
        bool any = Enter(b) && Run(b, 0, b.steps.size(), found);
        return (n.kind == Kind::kExists) == any;
      }
    }
    VQDR_CHECK(false) << "unreachable";
    return false;
  }

  // Calls `emit` once per assignment of the query block's output slots that
  // has a witness for the rest of the block.
  template <typename Emit>
  void Answers(const Block& b, Emit&& emit) {
    if (!Enter(b)) return;
    auto witnessed = [&] {
      auto found = [] { return true; };
      if (Run(b, b.output_steps, b.steps.size(), found)) emit();
      return false;
    };
    Run(b, 0, b.output_steps, witnessed);
  }

 private:
  Value Get(const Slotted& s) const {
    if (s.slot >= 0) return slots_[s.slot];
    VQDR_CHECK(s.slot == kConstant)
        << "unbound variable " << s.unbound_name << " in FO evaluation";
    return s.constant;
  }

  const std::vector<Value>& Range() {
    if (range_ == nullptr) {
      owned_range_ = QuantificationRange(*formula_, *db_);
      range_ = &owned_range_;
    }
    return *range_;
  }

  bool AtomHolds(const Node& n) {
    const Relation* rel = relations_[n.symbol];
    if (rel == nullptr) return false;
    const std::vector<Tuple>& tuples = rel->tuples();
    auto key = [&](std::size_t k) { return Get(n.args[k]); };
    std::size_t arity = n.args.size();
    auto it = std::lower_bound(
        tuples.begin(), tuples.end(), 0,
        [&](const Tuple& t, int) { return PrefixLess(t, arity, key); });
    return it != tuples.end() && PrefixEquals(*it, arity, key);
  }

  bool Check(const std::vector<Literal>& literals) {
    for (const Literal& l : literals) {
      if (Eval(l.node) != l.positive) return false;
    }
    return true;
  }

  bool Enter(const Block& b) {
    return !(b.vacuous_vars && Range().empty()) && Check(b.pre);
  }

  // Runs steps [i, end) and then `emit`, stopping at the first true return.
  template <typename Emit>
  bool Run(const Block& b, std::size_t i, std::size_t end, Emit& emit) {
    if (i == end) return emit();
    const Step& step = b.steps[i];
    auto next = [&] { return Check(step.filters) && Run(b, i + 1, end, emit); };
    switch (step.kind) {
      case Step::Kind::kEquals: {
        Value v = Get(step.source);
        ++work_.bindings;
        if (step.source_is_param &&
            !std::binary_search(Range().begin(), Range().end(), v)) {
          return false;
        }
        slots_[step.slot] = v;
        return next();
      }
      case Step::Kind::kRange:
        for (Value v : Range()) {
          ++work_.bindings;
          ++work_.range_bindings;
          slots_[step.slot] = v;
          if (next()) return true;
        }
        return false;
      case Step::Kind::kAtom:
        break;
    }
    const Relation* rel = relations_[step.symbol];
    if (rel == nullptr) return false;
    const std::vector<Tuple>& tuples = rel->tuples();
    auto key = [&](std::size_t k) { return Get(step.args[k]); };
    auto it = tuples.begin();
    if (step.prefix > 0) {
      it = std::lower_bound(tuples.begin(), tuples.end(), 0,
                            [&](const Tuple& t, int) {
                              return PrefixLess(t, step.prefix, key);
                            });
    }
    for (; it != tuples.end(); ++it) {
      const Tuple& t = *it;
      if (!PrefixEquals(t, step.prefix, key)) break;
      ++work_.bindings;
      bool match = true;
      for (std::size_t k = step.prefix; k < t.size() && match; ++k) {
        if (step.binds[k] >= 0) {
          slots_[step.binds[k]] = t[k];
        } else {
          match = t[k] == Get(step.args[k]);
        }
      }
      if (match && next()) return true;
    }
    return false;
  }

  const Program& p_;
  const std::vector<const Relation*>& relations_;
  const std::vector<Value>* range_ = nullptr;
  const FoFormula* formula_ = nullptr;
  const Instance* db_ = nullptr;
  std::vector<Value> owned_range_;
  FoWork& work_;
  std::vector<Value> slots_;
};

std::vector<const Relation*> ResolveSymbols(
    const std::vector<RelationDecl>& symbols, const Instance& db) {
  std::vector<const Relation*> out;
  out.reserve(symbols.size());
  for (const RelationDecl& s : symbols) {
    std::optional<int> arity = db.schema().ArityOf(s.name);
    out.push_back(arity == s.arity ? &db.Get(s.name) : nullptr);
  }
  return out;
}

std::unique_ptr<Program> CompileFormula(
    const FoFormula& formula, const std::vector<std::string>& params) {
  auto program = std::make_unique<Program>();
  Compiler compiler(*program);
  for (const std::string& name : params) compiler.DeclareSlot(name);
  program->num_params = static_cast<int>(params.size());
  program->root = compiler.Compile(formula);
  return program;
}

// EvalFo on a compiled formula, publishing its work.
bool Holds(const Program& program, const FoFormula& formula,
           const Instance& db, const std::vector<Value>& args) {
  FoWork work;
  work.calls = 1;
  std::vector<const Relation*> relations = ResolveSymbols(program.symbols, db);
  Evaluator eval(program, relations, formula, db, work);
  std::copy(args.begin(), args.end(), eval.slots().begin());
  bool holds = eval.Eval(program.root);
  work.Publish();
  return holds;
}

}  // namespace

void FoWork::Publish() const {
  VQDR_COUNTER_ADD("fo.eval.calls", calls);
  VQDR_COUNTER_ADD("fo.eval.bindings", bindings);
  VQDR_COUNTER_ADD("fo.eval.range_bindings", range_bindings);
}

CompiledFo::CompiledFo(const FoPtr& formula,
                       const std::vector<std::string>& params) {
  VQDR_CHECK(formula != nullptr);
  program_ = CompileFormula(*formula, params);
}

CompiledFo::~CompiledFo() = default;

const std::vector<RelationDecl>& CompiledFo::symbols() const {
  return program_->symbols;
}

std::vector<const Relation*> CompiledFo::Resolve(const Instance& db) const {
  return ResolveSymbols(program_->symbols, db);
}

bool CompiledFo::Holds(const std::vector<const Relation*>& relations,
                       const std::vector<Value>& range,
                       const std::vector<Value>& args, FoWork& work) const {
  VQDR_CHECK_EQ(relations.size(), program_->symbols.size());
  VQDR_CHECK_EQ(args.size(), static_cast<std::size_t>(program_->num_params));
  ++work.calls;
  Evaluator eval(*program_, relations, range, work);
  std::copy(args.begin(), args.end(), eval.slots().begin());
  return eval.Eval(program_->root);
}

bool EvalFo(const FoPtr& formula, const Instance& db,
            const std::map<std::string, Value>& binding) {
  VQDR_CHECK(formula != nullptr);
  std::vector<std::string> names;
  std::vector<Value> args;
  for (const auto& [name, value] : binding) {
    names.push_back(name);
    args.push_back(value);
  }
  return Holds(*CompileFormula(*formula, names), *formula, db, args);
}

bool FoSentenceHolds(const FoPtr& sentence, const Instance& db) {
  VQDR_CHECK(sentence != nullptr);
  std::unique_ptr<Program> program = CompileFormula(*sentence, {});
  VQDR_CHECK(program->unbound.empty())
      << "FoSentenceHolds on open formula " << sentence->ToString();
  return Holds(*program, *sentence, db, {});
}

Relation EvaluateFo(const FoQuery& q, const Instance& db) {
  VQDR_CHECK(q.formula != nullptr);
  // The free variables are the outputs of one block, joined with the ∃
  // block directly below them; a repeated head variable is one slot.
  Program program;
  Compiler compiler(program);
  std::vector<std::string> names;
  std::vector<int> distinct, outputs;
  for (const std::string& v : q.free_vars) {
    auto it = std::find(names.begin(), names.end(), v);
    if (it == names.end()) {
      names.push_back(v);
      distinct.push_back(compiler.DeclareSlot(v));
      it = names.end() - 1;
    }
    outputs.push_back(distinct[it - names.begin()]);
  }
  int block = compiler.CompileBlock({}, *q.formula, /*positive=*/true,
                                    distinct);
  // Every free variable of the formula must be an output variable.
  VQDR_CHECK(program.unbound.empty())
      << "free variable " << program.unbound.front() << " not in query head";

  FoWork work;
  work.calls = 1;
  std::vector<const Relation*> relations = ResolveSymbols(program.symbols, db);
  Evaluator eval(program, relations, *q.formula, db, work);
  std::vector<Tuple> answers;
  eval.Answers(program.blocks[block], [&] {
    Tuple answer;
    answer.reserve(outputs.size());
    for (int s : outputs) answer.push_back(eval.slots()[s]);
    answers.push_back(std::move(answer));
  });
  work.Publish();
  return Relation(q.head_arity(), std::move(answers));
}

}  // namespace vqdr
