// Instance reads from many threads at once: Get on a symbol nobody
// populated returns a shared empty relation, which must be safe to fetch
// concurrently for arities no thread has asked for before.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "data/instance.h"

namespace vqdr {
namespace {

TEST(InstanceConcurrency, GetOnUnpopulatedSymbolsFromEightThreads) {
  // Arities 1..95 span the lock-free table and the wider, locked ones.
  constexpr int kArities = 95;
  constexpr int kThreads = 8;
  Schema schema;
  for (int a = 1; a <= kArities; ++a) schema.Add("R" + std::to_string(a), a);
  const Instance db(schema);
  std::vector<int> bad(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the arities from a different starting point, so
      // first requests for an arity race with one another.
      for (int i = 0; i < kArities; ++i) {
        int a = (i * 7 + t * 13) % kArities + 1;
        const Relation& r = db.Get("R" + std::to_string(a));
        if (r.arity() != a || !r.empty()) ++bad[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace vqdr
