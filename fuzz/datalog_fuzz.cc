// libFuzzer harness for Datalog evaluation (datalog/program.h): the input
// is a program in ParseDatalog syntax, optionally followed by '@' and a
// fact list over E/2, P/1, Z/0 and B/2 (B may also be derived by the
// program):
//
//   T(x, y) :- E(x, y); T(x, y) :- E(x, z), T(z, y)
//   @ E(a, b), E(b, c), P(a)
//
// The compiled engine must return exactly what the former tuple-at-a-time
// evaluator (tests/datalog_reference.h) returns — the same instance, or
// the same error — and must never abort. A predicate used with two
// arities is the one input the reference aborts on, so there the harness
// checks the engine's error on its own. Any divergence traps.
//
// Built two ways by fuzz/CMakeLists.txt:
//   * fuzz_datalog (Clang + -fsanitize=fuzzer): coverage-guided run;
//   * fuzz_datalog_replay (any compiler): deterministic corpus replay for
//     CI, `fuzz_datalog_replay fuzz/corpus/datalog`.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "cq/parser.h"
#include "data/instance.h"
#include "datalog/program.h"
#include "datalog_reference.h"

namespace {

using vqdr::Atom;
using vqdr::DatalogProgram;
using vqdr::DatalogRule;
using vqdr::Instance;
using vqdr::NamePool;
using vqdr::Schema;
using vqdr::StatusOr;

// Datalog is polynomial for a fixed program, but the degree is the widest
// atom's arity and the join width; these caps keep the reference's
// instance-copying rounds quick on fuzzer-grown inputs.
constexpr std::size_t kMaxInput = 1 << 11;
constexpr std::size_t kMaxRules = 8;
constexpr std::size_t kMaxBodyAtoms = 4;
constexpr int kMaxArity = 3;
constexpr std::size_t kMaxFacts = 48;

const Schema& FuzzSchema() {
  static const Schema* schema =
      new Schema{{"E", 2}, {"P", 1}, {"Z", 0}, {"B", 2}};
  return *schema;
}

bool WithinCaps(const DatalogProgram& program) {
  if (program.rules().size() > kMaxRules) return false;
  for (const DatalogRule& r : program.rules()) {
    if (r.positive.size() + r.negated.size() > kMaxBodyAtoms) return false;
    if (r.head.arity() > kMaxArity) return false;
    for (const Atom& a : r.positive) {
      if (a.arity() > kMaxArity) return false;
    }
    for (const Atom& a : r.negated) {
      if (a.arity() > kMaxArity) return false;
    }
  }
  return true;
}

// True if some predicate of `program` disagrees in arity with the schema.
// ParseDatalog already rejects conflicts inside the program.
bool ConflictsWithSchema(const DatalogProgram& program, const Schema& schema) {
  auto conflicts = [&](const Atom& a) {
    auto arity = schema.ArityOf(a.predicate);
    return arity.has_value() && *arity != a.arity();
  };
  for (const DatalogRule& r : program.rules()) {
    if (conflicts(r.head)) return true;
    for (const Atom& a : r.positive) {
      if (conflicts(a)) return true;
    }
    for (const Atom& a : r.negated) {
      if (conflicts(a)) return true;
    }
  }
  return false;
}

void FuzzDatalog(std::string_view text) {
  std::string_view program_text = text;
  std::string_view facts_text;
  std::size_t at = text.find('@');
  if (at != std::string_view::npos) {
    program_text = text.substr(0, at);
    facts_text = text.substr(at + 1);
  }
  NamePool pool;
  StatusOr<DatalogProgram> program = vqdr::ParseDatalog(program_text, pool);
  if (!program.ok() || !WithinCaps(*program)) return;
  StatusOr<Instance> edb = vqdr::ParseInstance(facts_text, FuzzSchema(), pool);
  if (!edb.ok() || edb->TupleCount() > kMaxFacts) return;

  StatusOr<Instance> got = program->Evaluate(*edb);
  // Safety and stratification are checked before arities, by both.
  bool rejected_first = !program->IsStratified();
  for (const DatalogRule& r : program->rules()) rejected_first |= !r.IsSafe();
  if (!rejected_first && ConflictsWithSchema(*program, edb->schema())) {
    if (got.ok() ||
        got.status().code() != vqdr::StatusCode::kInvalidArgument ||
        got.status().message().find("arity") == std::string::npos) {
      __builtin_trap();
    }
    return;
  }
  StatusOr<Instance> want = vqdr::datalog_reference::Evaluate(*program, *edb);
  if (got.ok() != want.ok()) __builtin_trap();
  if (!want.ok()) {
    if (got.status().message() != want.status().message()) __builtin_trap();
    return;
  }
  if (!(got->schema() == want->schema())) __builtin_trap();
  if (*got != *want) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0 || size > kMaxInput) return 0;
  FuzzDatalog(std::string_view(reinterpret_cast<const char*>(data), size));
  return 0;
}
