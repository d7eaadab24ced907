#ifndef VQDR_DATALOG_PROGRAM_H_
#define VQDR_DATALOG_PROGRAM_H_

#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "cq/conjunctive_query.h"
#include "data/instance.h"

namespace vqdr {

/// A Datalog rule: head :- positive atoms, negated atoms, disequalities.
/// Negation must be stratified (checked at program level). `Datalog≠` of
/// Corollaries 5.6/5.9 is the fragment without negated atoms.
struct DatalogRule {
  Atom head;
  std::vector<Atom> positive;
  std::vector<Atom> negated;
  std::vector<TermComparison> disequalities;

  /// Safety: head, negated and disequality variables occur positively.
  bool IsSafe() const;

  std::string ToString() const;
};

/// A Datalog(≠, stratified ¬) program. Predicates occurring in rule heads
/// are intensional (IDB); the rest are extensional (EDB).
class DatalogProgram {
 public:
  DatalogProgram() = default;

  void AddRule(DatalogRule rule) { rules_.push_back(std::move(rule)); }

  const std::vector<DatalogRule>& rules() const { return rules_; }

  /// IDB predicate names.
  std::set<std::string> IdbPredicates() const;

  /// True if the program has no negated IDB dependency cycle. Programs with
  /// negation only on EDB predicates are trivially stratified.
  bool IsStratified() const;

  /// True if no rule uses negation (Datalog≠ / plain Datalog).
  bool IsPositive() const;

  /// Evaluates the program on `edb` by stratified semi-naïve fixpoint and
  /// returns the instance extended with all IDB relations. Fails if the
  /// program is unsafe or not stratified, or if a predicate is used with
  /// two arities (within the program or against `edb`'s schema).
  StatusOr<Instance> Evaluate(const Instance& edb) const;

  /// Convenience: evaluates and returns a single IDB relation.
  StatusOr<Relation> Query(const Instance& edb,
                           const std::string& predicate) const;

  std::string ToString() const;

 private:
  std::vector<DatalogRule> rules_;
};

/// Parses a Datalog program: rules in CQ syntax separated by ';' or
/// newlines, e.g.
///
///   T(x, y) :- E(x, y);
///   T(x, y) :- E(x, z), T(z, y)
///
/// Fails if a predicate is used with two arities.
StatusOr<DatalogProgram> ParseDatalog(std::string_view text, NamePool& pool);

}  // namespace vqdr

#endif  // VQDR_DATALOG_PROGRAM_H_
