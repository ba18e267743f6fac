// Concurrency hammer for the serving layer: many reader threads Query
// while a writer thread Asserts. Run under -DGEREL_SANITIZE=thread to
// verify the locking discipline (shared lock for Query, exclusive for
// Assert, internally locked cache and stats).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/parser.h"
#include "service/prepared_kb.h"
#include "transform/pipeline.h"

namespace gerel {
namespace {

constexpr int kReaders = 4;
constexpr int kQueriesPerReader = 200;
constexpr int kAsserts = 24;

TEST(ServiceConcurrencyTest, ConcurrentQueriesAndAsserts) {
  SymbolTable syms;
  Theory theory = ParseTheory(R"(
    e(X, Y) -> t(X, Y).
    e(X, Y), t(Y, Z) -> t(X, Z).
  )",
                              &syms)
                      .value();
  Database initial = ParseDatabase("e(n0, n1). e(n1, n2).", &syms).value();

  // Everything the threads touch is built up front: the symbol table is
  // not thread-safe, so no parsing or interning happens once they start.
  std::vector<Atom> facts;
  for (int i = 2; i < 2 + kAsserts; ++i) {
    Term from = syms.Constant(IndexedName("n", i));
    Term to = syms.Constant(IndexedName("n", i + 1));
    facts.push_back(Atom(syms.Relation("e", 2), {from, to}));
  }
  Rule cq = ParseRule("t(U, V) -> q(U, V)", &syms).value();
  Rule cq_edge = ParseRule("e(U, V) -> q2(U, V)", &syms).value();

  auto kb = PreparedKb::Prepare(theory, initial, &syms);
  ASSERT_TRUE(kb.ok()) << kb.status().message();
  PreparedKb* raw = kb.value().get();
  std::set<std::vector<Term>> at_start = raw->Query(cq).value().answers;

  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      size_t last_size = 0;
      for (int i = 0; i < kQueriesPerReader; ++i) {
        const Rule& query = (r + i) % 3 == 0 ? cq_edge : cq;
        Result<PreparedQueryResult> got = raw->Query(query);
        if (!got.ok()) {
          ++violations;
          continue;
        }
        if (&query == &cq) {
          // The KB only grows, so answer sets are monotone per query.
          if (got.value().answers.size() < last_size) ++violations;
          last_size = got.value().answers.size();
          for (const std::vector<Term>& tuple : at_start) {
            if (!got.value().answers.count(tuple)) ++violations;
          }
        }
      }
    });
  }
  std::thread writer([&] {
    for (const Atom& fact : facts) {
      Result<AssertResult> out = raw->Assert({fact});
      if (!out.ok()) ++violations;
      std::this_thread::yield();
    }
  });
  for (std::thread& t : readers) t.join();
  writer.join();
  EXPECT_EQ(violations.load(), 0);

  // Steady state: the hammered KB agrees with a fresh prepare over the
  // final database.
  Database full = initial;
  for (const Atom& fact : facts) full.Insert(fact);
  auto fresh = PreparedKb::Prepare(theory, full, &syms);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(raw->Query(cq).value().answers,
            fresh.value()->Query(cq).value().answers);
  ServiceStats stats = raw->stats();
  EXPECT_EQ(stats.asserts, static_cast<uint64_t>(kAsserts));
  EXPECT_GE(stats.queries,
            static_cast<uint64_t>(kReaders * kQueriesPerReader));
}

}  // namespace
}  // namespace gerel
