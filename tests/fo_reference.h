#ifndef VQDR_TESTS_FO_REFERENCE_H_
#define VQDR_TESTS_FO_REFERENCE_H_

#include <map>
#include <string>

#include "data/instance.h"
#include "fo/formula.h"

// The assignment-at-a-time FO evaluator that fo/evaluator.cc replaced,
// kept as a test-only differential oracle: every quantified variable ranges
// over the whole of adom(D) ∪ constants, one value at a time. Same contract
// as the functions of the same names in fo/evaluator.h.
namespace vqdr::fo_reference {

bool EvalFo(const FoPtr& formula, const Instance& db,
            const std::map<std::string, Value>& binding);

bool FoSentenceHolds(const FoPtr& sentence, const Instance& db);

Relation EvaluateFo(const FoQuery& q, const Instance& db);

}  // namespace vqdr::fo_reference

#endif  // VQDR_TESTS_FO_REFERENCE_H_
