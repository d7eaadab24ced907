#ifndef VQDR_TESTS_MATCHER_LEGACY_H_
#define VQDR_TESTS_MATCHER_LEGACY_H_

#include <functional>
#include <vector>

#include "cq/atom.h"
#include "cq/matcher.h"
#include "data/instance.h"

// The naive backtracking matcher that cq/matcher_indexed.cc replaced, kept
// as a test-only differential oracle (DESIGN.md §12): at every node it picks
// the most-constrained atom and scans every tuple of its relation. Contract
// under test: ForEachMatch delivers exactly this function's on_match
// sequence, in the same order. Same signature as ForEachMatch without the
// budget; returns false iff on_match stopped the enumeration.
namespace vqdr {

bool LegacyMatch(const std::vector<Atom>& atoms, const Instance& db,
                 const Binding& initial,
                 const std::function<bool(const Binding&)>& on_match);

}  // namespace vqdr

#endif  // VQDR_TESTS_MATCHER_LEGACY_H_
