#ifndef VQDR_FO_EVALUATOR_H_
#define VQDR_FO_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/instance.h"
#include "fo/formula.h"

namespace vqdr {

/// Active-domain FO semantics: quantifiers range over adom(D) together with
/// the constants mentioned in the formula. This is the standard finite-model
/// evaluation for generic queries (Abiteboul–Hull–Vianu, ch. 5); all of the
/// paper's FO constructions are domain-independent over this range.
///
/// The evaluator is guarded: a quantified variable that a positive atom or
/// an equality pins down takes only the values that atom's tuples (or that
/// equality) allow, and only an unguarded variable runs over the whole range
/// (DESIGN.md, "FO evaluation").

/// Truth of `formula` in `db` under `binding` (must cover the free
/// variables).
bool EvalFo(const FoPtr& formula, const Instance& db,
            const std::map<std::string, Value>& binding);

/// Truth of a sentence (no free variables).
bool FoSentenceHolds(const FoPtr& sentence, const Instance& db);

/// Q(D): the assignments of the query's free variables over
/// adom(D) ∪ constants(Q) that satisfy its formula.
Relation EvaluateFo(const FoQuery& q, const Instance& db);

/// Work done by FO evaluation, accumulated by the caller and published to
/// the obs counters fo.eval.calls / .bindings / .range_bindings once.
struct FoWork {
  std::uint64_t calls = 0;
  /// Candidate values (or guard tuples) tried for quantified variables.
  std::uint64_t bindings = 0;
  /// Of those, values taken from the whole range for an unguarded variable.
  std::uint64_t range_bindings = 0;

  void Publish() const;
};

/// A formula compiled once for many evaluations over instances that differ
/// only in their relations, as the ∃SO/∀SO evaluator needs for its matrix.
class CompiledFo {
 public:
  /// `params` names the variables every call binds, in order; a later
  /// duplicate name shadows an earlier one.
  CompiledFo(const FoPtr& formula, const std::vector<std::string>& params);
  ~CompiledFo();
  CompiledFo(const CompiledFo&) = delete;
  CompiledFo& operator=(const CompiledFo&) = delete;

  /// The relation symbols the formula reads, one per name and arity.
  const std::vector<RelationDecl>& symbols() const;

  /// One relation of `db` per symbol: nullptr where `db`'s schema lacks the
  /// name or gives it another arity, which makes the symbol's atoms false.
  std::vector<const Relation*> Resolve(const Instance& db) const;

  /// Truth with `relations` (one per symbol, as Resolve returns), the
  /// quantification range `range` (sorted, no duplicates, holding every
  /// value of `relations` and every constant of the formula) and `args`
  /// (one value per param). Adds its work to `work`.
  bool Holds(const std::vector<const Relation*>& relations,
             const std::vector<Value>& range, const std::vector<Value>& args,
             FoWork& work) const;

  /// The compiled form; opaque outside evaluator.cc.
  struct Program;

 private:
  std::unique_ptr<const Program> program_;
};

}  // namespace vqdr

#endif  // VQDR_FO_EVALUATOR_H_
