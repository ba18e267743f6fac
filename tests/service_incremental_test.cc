// Property tests for incremental assertion: a PreparedKb that has been
// extended by Asserts must agree with a PreparedKb prepared fresh on the
// final database, and (when complete) with the one-shot pipeline.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/parser.h"
#include "service/prepared_kb.h"
#include "testing/random_theories.h"
#include "transform/pipeline.h"

namespace gerel {
namespace {

using testing::RandomParams;
using testing::RandomTheoryGen;

// One atomic CQ per theory relation: p(X1..Xk) -> out_p(X1..Xk).
std::vector<Rule> RelationQueries(const Theory& theory, SymbolTable* syms) {
  std::vector<Rule> queries;
  std::vector<bool> seen;
  for (const Rule& r : theory.rules()) {
    for (const Atom& a : r.head) {
      if (a.pred >= seen.size()) seen.resize(a.pred + 1, false);
      if (seen[a.pred]) continue;
      seen[a.pred] = true;
      std::vector<Term> args;
      for (int i = 0; i < syms->RelationArity(a.pred); ++i) {
        args.push_back(syms->Variable(IndexedName("Q", i)));
      }
      RelationId out =
          syms->Relation("out_" + syms->RelationName(a.pred),
                         static_cast<int>(args.size()));
      queries.push_back(
          Rule::Positive({Atom(a.pred, args)}, {Atom(out, args)}));
    }
  }
  return queries;
}

// Splits db into an initial prefix and the remaining atoms.
void Split(const Database& db, Database* initial, std::vector<Atom>* rest) {
  size_t half = db.size() / 2;
  for (size_t i = 0; i < db.size(); ++i) {
    if (i < half) {
      initial->Insert(db.atom(i));
    } else {
      rest->push_back(db.atom(i));
    }
  }
}

class ServiceIncrementalTest : public ::testing::TestWithParam<unsigned> {};

// Datalog theories (no existentials): the prepared route is complete, so
// the incrementally extended KB, a fresh KB over the final database, and
// the one-shot pipeline must agree exactly.
TEST_P(ServiceIncrementalTest, DatalogThreeWayEquivalence) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.existential_prob = 0.0;
  Theory theory = gen.Theory_(params);
  Database db = gen.Database_(/*num_atoms=*/12, /*num_constants=*/4);
  Database initial;
  std::vector<Atom> rest;
  Split(db, &initial, &rest);

  Result<std::unique_ptr<PreparedKb>> kb =
      PreparedKb::Prepare(theory, initial, &syms);
  ASSERT_TRUE(kb.ok()) << kb.status().message();
  EXPECT_EQ(kb.value()->mode(), PreparedKb::Mode::kDatalog);
  // Assert the remainder one batch at a time (two batches).
  size_t mid = rest.size() / 2;
  std::vector<Atom> batch1(rest.begin(), rest.begin() + mid);
  std::vector<Atom> batch2(rest.begin() + mid, rest.end());
  if (!batch1.empty()) {
    ASSERT_TRUE(kb.value()->Assert(batch1).ok());
  }
  if (!batch2.empty()) {
    ASSERT_TRUE(kb.value()->Assert(batch2).ok());
  }

  Result<std::unique_ptr<PreparedKb>> fresh =
      PreparedKb::Prepare(theory, db, &syms);
  ASSERT_TRUE(fresh.ok()) << fresh.status().message();

  for (const Rule& cq : RelationQueries(theory, &syms)) {
    Result<PreparedQueryResult> incr = kb.value()->Query(cq);
    ASSERT_TRUE(incr.ok()) << incr.status().message();
    Result<PreparedQueryResult> full = fresh.value()->Query(cq);
    ASSERT_TRUE(full.ok()) << full.status().message();
    EXPECT_TRUE(incr.value().complete);
    EXPECT_EQ(incr.value().answers, full.value().answers);
    Result<KbQueryResult> oneshot = AnswerKbQuery(theory, cq, db, &syms);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status().message();
    EXPECT_EQ(incr.value().answers, oneshot.value().answers);
  }
}

// Guarded existential theories: the incrementally extended KB must agree
// with a fresh prepare, and its answers must be a sound subset of the
// one-shot pipeline's (equal when certified complete).
TEST_P(ServiceIncrementalTest, GuardedIncrementalMatchesFresh) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam() + 1000, &syms);
  RandomParams params;
  params.num_relations = 3;
  params.num_rules = 3;
  params.max_body_atoms = 2;
  params.num_vars = 3;
  params.existential_prob = 0.4;
  params.force_guarded = true;
  Theory theory = gen.Theory_(params);
  Database db = gen.Database_(/*num_atoms=*/8, /*num_constants=*/3);
  Database initial;
  std::vector<Atom> rest;
  Split(db, &initial, &rest);

  // Keep the saturation tractable on adversarial seeds; completeness is
  // tracked per query, and the fresh KB runs under the same caps.
  PreparedKbOptions options;
  options.pipeline.saturation.max_rules = 20000;
  Result<std::unique_ptr<PreparedKb>> kb =
      PreparedKb::Prepare(theory, initial, &syms, options);
  ASSERT_TRUE(kb.ok()) << kb.status().message();
  for (const Atom& fact : rest) {
    ASSERT_TRUE(kb.value()->Assert({fact}).ok());
  }
  Result<std::unique_ptr<PreparedKb>> fresh =
      PreparedKb::Prepare(theory, db, &syms, options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().message();

  for (const Rule& cq : RelationQueries(theory, &syms)) {
    Result<PreparedQueryResult> incr = kb.value()->Query(cq);
    ASSERT_TRUE(incr.ok()) << incr.status().message();
    Result<PreparedQueryResult> full = fresh.value()->Query(cq);
    ASSERT_TRUE(full.ok()) << full.status().message();
    EXPECT_EQ(incr.value().answers, full.value().answers);
    EXPECT_EQ(incr.value().complete, full.value().complete);
    Result<KbQueryResult> oneshot =
        AnswerKbQuery(theory, cq, db, &syms, options.pipeline);
    if (!oneshot.ok()) continue;  // e.g. ungroundable under caps
    for (const std::vector<Term>& tuple : incr.value().answers) {
      EXPECT_TRUE(oneshot.value().answers.count(tuple))
          << "unsound answer for seed " << GetParam();
    }
    if (incr.value().complete && oneshot.value().complete) {
      EXPECT_EQ(incr.value().answers, oneshot.value().answers);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceIncrementalTest,
                         ::testing::Range(0u, 12u));

}  // namespace
}  // namespace gerel
