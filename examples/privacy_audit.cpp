// Privacy auditing (the paper's third motivating scenario, "in reverse"):
// access to a database is provided through public views; secret queries
// must NOT be determined by them. The auditor checks each secret and, when
// information leaks, produces the rewriting an adversary would use — or,
// when it is safe, a pair of indistinguishable worlds as evidence.
//
// Build & run:  ./build/examples/privacy_audit

#include <iostream>
#include <vector>

#include "core/determinacy.h"
#include "core/finite_search.h"
#include "core/rewriting.h"
#include "cq/parser.h"

using namespace vqdr;

int main() {
  NamePool pool;

  // Hospital data: Visit(patient, doctor), Specialty(doctor, field).
  Schema base{{"Visit", 2}, {"Specialty", 2}};

  // Published views: per-doctor visit counts are hidden; the hospital
  // exposes which doctors were visited at all and the specialty table.
  ViewSet published;
  published.Add(
      "VisitedDoctor",
      Query::FromCq(ParseCq("VisitedDoctor(d) :- Visit(p, d)", pool).value()));
  published.Add(
      "Specialties",
      Query::FromCq(
          ParseCq("Specialties(d, f) :- Specialty(d, f)", pool).value()));
  published.Add(
      "PatientsOf",
      Query::FromCq(ParseCq("PatientsOf(p, f) :- Visit(p, d), "
                            "Specialty(d, f)",
                            pool)
                        .value()));

  std::cout << "Published views:\n" << published.ToString() << "\n";

  struct Secret {
    std::string description;
    std::string query;
  };
  std::vector<Secret> secrets = {
      {"which patient visited which doctor", "S(p, d) :- Visit(p, d)"},
      {"patients who visited an oncologist",
       "S(p) :- Visit(p, d), Specialty(d, 'oncology')"},
      {"whether any doctor at all was visited", "S() :- Visit(p, d)"},
  };

  for (const Secret& secret : secrets) {
    ConjunctiveQuery q = ParseCq(secret.query, pool).value();
    std::cout << "Secret (" << secret.description
              << "): " << CqToString(q, pool) << "\n";

    UnrestrictedDeterminacyResult det =
        DecideUnrestrictedDeterminacy(published, q);
    if (det.determined) {
      CqRewritingResult rewriting = FindCqRewriting(published, q);
      std::cout << "  LEAK: the views determine this secret.\n"
                << "  An adversary computes it as: "
                << CqToString(*rewriting.rewriting, pool) << "\n";
    } else {
      std::cout << "  No CQ rewriting exists (the chase test fails); "
                   "determinacy is unknown.\n";
      // Produce evidence: two worlds with equal published views but
      // different secret answers (bounded search; finite determinacy is
      // undecidable in general, Theorem 4.5).
      EnumerationOptions options;
      options.domain_size = 2;
      auto search = SearchDeterminacyCounterexample(
          published, Query::FromCq(q), base, options);
      if (search.verdict == SearchVerdict::kCounterexampleFound) {
        std::cout << "  SAFE, with evidence. Two indistinguishable worlds:\n"
                  << "  world A:\n"
                  << InstanceToString(search.counterexample->d1, pool)
                  << "  world B:\n"
                  << InstanceToString(search.counterexample->d2, pool)
                  << "  (equal view images, different secret answers)\n";
      } else {
        std::cout << "  No finite counterexample up to "
                  << options.domain_size
                  << " elements — treat as POSSIBLY LEAKING and audit "
                     "with larger bounds.\n";
      }
    }
    std::cout << "\n";
  }
  return 0;
}
