#ifndef VQDR_TESTS_DATALOG_REFERENCE_H_
#define VQDR_TESTS_DATALOG_REFERENCE_H_

#include "data/instance.h"
#include "datalog/program.h"

// The semi-naive Datalog evaluator that datalog/program.cc replaced, kept as
// a test-only differential oracle: every rule application copies the
// database and enumerates matches through ForEachMatch. Same contract as
// DatalogProgram::Evaluate, except that two inputs abort instead of being
// answered: a predicate used with two arities (in the program, or against
// `edb`'s schema), and a program whose strata take more than 1,000 passes
// to compute.
namespace vqdr::datalog_reference {

StatusOr<Instance> Evaluate(const DatalogProgram& program,
                            const Instance& edb);

}  // namespace vqdr::datalog_reference

#endif  // VQDR_TESTS_DATALOG_REFERENCE_H_
