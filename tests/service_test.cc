// Tests for the serving layer (DESIGN.md §7 "Serving layer"): PreparedKb
// prepare/query/assert semantics, the answer cache, and the session
// interpreter.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "analyze/termination.h"
#include "core/parser.h"
#include "service/answer_cache.h"
#include "service/prepared_kb.h"
#include "server/session.h"
#include "transform/pipeline.h"

namespace gerel {
namespace {

Theory MustParseTheory(const char* text, SymbolTable* syms) {
  Result<Theory> t = ParseTheory(text, syms);
  EXPECT_TRUE(t.ok()) << t.status().message();
  return std::move(t).value();
}

Rule MustParseRule(const char* text, SymbolTable* syms) {
  Result<Rule> r = ParseRule(text, syms);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

std::unique_ptr<PreparedKb> MustPrepare(
    const Theory& t, const Database& db, SymbolTable* syms,
    const PreparedKbOptions& options = PreparedKbOptions()) {
  Result<std::unique_ptr<PreparedKb>> kb =
      PreparedKb::Prepare(t, db, syms, options);
  EXPECT_TRUE(kb.ok()) << kb.status().message();
  return std::move(kb).value();
}

const char* kDatalogTc = R"(
  e(X, Y) -> t(X, Y).
  e(X, Y), t(Y, Z) -> t(X, Z).
)";

// Weakly guarded transitive closure over a null-generating relation.
const char* kWgTransitiveClosure = R"(
  gen(X) -> exists Y. e(X, Y).
  e(X, Y), e(Y, Z) -> e(X, Z).
)";

// Guarded (existential but not weakly-guarded-only): every a-node gets an
// r-successor, and r-sources are b.
const char* kGuardedTheory = R"(
  a(X) -> exists Y. r(X, Y).
  r(X, Y) -> b(X).
)";

TEST(PreparedKbTest, DatalogQueryMatchesOneShot) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b). e(b, c). e(c, d).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  EXPECT_EQ(kb->mode(), PreparedKb::Mode::kDatalog);
  Rule cq = MustParseRule("t(U, V) -> q(U, V)", &syms);
  Result<PreparedQueryResult> got = kb->Query(cq);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_TRUE(got.value().complete);
  Result<KbQueryResult> want = AnswerKbQuery(t, cq, db, &syms);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got.value().answers, want.value().answers);
  EXPECT_EQ(got.value().answers.size(), 6u);
}

TEST(PreparedKbTest, NullWitnessAnswersAreSoundButIncomplete) {
  SymbolTable syms;
  Theory t = MustParseTheory(kWgTransitiveClosure, &syms);
  Database db = ParseDatabase("gen(a).", &syms).value();
  // This test pins the translation pipeline's affected-position
  // incompleteness flag; the planner would certify the theory and serve
  // complete answers from the chase instead.
  PreparedKbOptions po;
  po.planner = false;
  auto kb = MustPrepare(t, db, &syms, po);
  // The one-shot pipeline sees a's invented successor: answer {a}. The
  // materialized model holds no ground e-atom, so the prepared route
  // answers {} — and must say so via complete=false.
  Rule cq = MustParseRule("e(U, V) -> q(U)", &syms);
  Result<PreparedQueryResult> got = kb->Query(cq);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_FALSE(got.value().complete);
  Result<KbQueryResult> oneshot = AnswerKbQuery(t, cq, db, &syms);
  ASSERT_TRUE(oneshot.ok());
  for (const std::vector<Term>& tuple : got.value().answers) {
    EXPECT_TRUE(oneshot.value().answers.count(tuple));
  }
  EXPECT_EQ(oneshot.value().answers.size(), 1u);
}

TEST(PreparedKbTest, CompleteWhenQueryAvoidsAffectedPositions) {
  SymbolTable syms;
  // gen feeds existentials into e, but gen itself has no affected
  // position: queries over gen alone are certified complete.
  Theory t = MustParseTheory(kWgTransitiveClosure, &syms);
  Database db = ParseDatabase("gen(a). gen(b).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  Rule cq = MustParseRule("gen(U) -> q(U)", &syms);
  Result<PreparedQueryResult> got = kb->Query(cq);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_TRUE(got.value().complete);
  EXPECT_EQ(got.value().answers.size(), 2u);
}

TEST(PreparedKbTest, CacheHitsAndAssertInvalidation) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  Rule cq = MustParseRule("t(U, V) -> q(U, V)", &syms);
  EXPECT_FALSE(kb->Query(cq).value().cache_hit);
  EXPECT_TRUE(kb->Query(cq).value().cache_hit);
  // A renamed variant of the same query canonicalizes to the same key.
  Rule renamed = MustParseRule("t(A, B) -> q(A, B)", &syms);
  EXPECT_TRUE(kb->Query(renamed).value().cache_hit);
  Atom fact = ParseAtom("e(b, c)", &syms).value();
  ASSERT_TRUE(kb->Assert({fact}).ok());
  Result<PreparedQueryResult> after = kb->Query(cq);
  EXPECT_FALSE(after.value().cache_hit);
  EXPECT_EQ(after.value().answers.size(), 3u);
  ServiceStats stats = kb->stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(PreparedKbTest, CacheCanBeDisabled) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b).", &syms).value();
  PreparedKbOptions options;
  options.answer_cache_capacity = 0;
  auto kb = MustPrepare(t, db, &syms, options);
  Rule cq = MustParseRule("t(U, V) -> q(U, V)", &syms);
  EXPECT_FALSE(kb->Query(cq).value().cache_hit);
  EXPECT_FALSE(kb->Query(cq).value().cache_hit);
}

TEST(PreparedKbTest, AssertDeltaMatchesFreshPrepare) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database initial = ParseDatabase("e(a, b). e(b, c).", &syms).value();
  Database full =
      ParseDatabase("e(a, b). e(b, c). e(c, d). e(d, a).", &syms).value();
  auto kb = MustPrepare(t, initial, &syms);
  std::vector<Atom> delta = {ParseAtom("e(c, d)", &syms).value(),
                             ParseAtom("e(d, a)", &syms).value()};
  Result<AssertResult> assert_result = kb->Assert(delta);
  ASSERT_TRUE(assert_result.ok()) << assert_result.status().message();
  EXPECT_TRUE(assert_result.value().delta);
  EXPECT_EQ(assert_result.value().new_atoms, 2u);
  EXPECT_GT(assert_result.value().derived_atoms, 0u);
  auto fresh = MustPrepare(t, full, &syms);
  Rule cq = MustParseRule("t(U, V) -> q(U, V)", &syms);
  EXPECT_EQ(kb->Query(cq).value().answers, fresh->Query(cq).value().answers);
  EXPECT_EQ(kb->model_size(), fresh->model_size());
  ServiceStats stats = kb->stats();
  EXPECT_EQ(stats.delta_asserts, 1u);
  EXPECT_EQ(stats.rematerializations, 0u);
}

TEST(PreparedKbTest, GuardedModeStaysIncrementalOnNewConstants) {
  SymbolTable syms;
  Theory t = MustParseTheory(kGuardedTheory, &syms);
  Database db = ParseDatabase("a(c1).", &syms).value();
  // Pipeline-mode behavior under test: bypass the planner, which would
  // otherwise certify this theory and materialize by chase.
  PreparedKbOptions po;
  po.planner = false;
  auto kb = MustPrepare(t, db, &syms, po);
  EXPECT_EQ(kb->mode(), PreparedKb::Mode::kGuarded);
  // dat(Σ) is database-independent: a brand-new constant still takes the
  // delta path.
  Atom fact = ParseAtom("a(c2)", &syms).value();
  Result<AssertResult> out = kb->Assert({fact});
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_TRUE(out.value().delta);
  Rule cq = MustParseRule("b(U) -> q(U)", &syms);
  Result<PreparedQueryResult> got = kb->Query(cq);
  ASSERT_TRUE(got.ok());
  std::set<std::vector<Term>> want = {{syms.Constant("c1")},
                                      {syms.Constant("c2")}};
  EXPECT_EQ(got.value().answers, want);
}

TEST(PreparedKbTest, PlannerCertifiesAndChasesTerminatingTheory) {
  SymbolTable syms;
  Theory t = MustParseTheory(kWgTransitiveClosure, &syms);
  Database db = ParseDatabase("gen(a).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  // The ladder certifies the theory at its first rung (no special edge
  // of the position graph lies on a cycle); the planner skips the dat(·)
  // translation and materializes the Skolem chase directly.
  EXPECT_EQ(kb->mode(), PreparedKb::Mode::kChaseMaterialized);
  ServiceStats stats = kb->stats();
  EXPECT_EQ(stats.materialization_strategy, "chase");
  EXPECT_EQ(stats.termination_certificate,
            CertificateKindName(CertificateKind::kWeaklyAcyclic));
  EXPECT_EQ(stats.chase_materializations, 1u);
  // Writes run on the theory itself, compiled as a Skolem program.
  EXPECT_EQ(stats.datalog_rules, 2u);
  // The chase model is universal, so the e-query the pipeline flags as
  // possibly incomplete is decided exactly here: q(a) is certain (its
  // witness V may be a null; the answer tuple itself is ground).
  Rule cq = MustParseRule("e(U, V) -> q(U)", &syms);
  Result<PreparedQueryResult> got = kb->Query(cq);
  ASSERT_TRUE(got.ok()) << got.status().message();
  EXPECT_TRUE(got.value().complete);
  std::set<std::vector<Term>> want = {{syms.Constant("a")}};
  EXPECT_EQ(got.value().answers, want);
}

TEST(PreparedKbTest, ChaseModeAssertIsADeltaAndSkipsNoOps) {
  SymbolTable syms;
  Theory t = MustParseTheory(kWgTransitiveClosure, &syms);
  Database db = ParseDatabase("gen(a).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  ASSERT_EQ(kb->mode(), PreparedKb::Mode::kChaseMaterialized);
  // A genuinely new fact runs a semi-naive delta pass over the Skolem
  // program: gen(b) derives e(b, n) for one fresh null n.
  const uint32_t nulls = syms.NumNulls();
  Result<AssertResult> grow = kb->Assert({ParseAtom("gen(b)", &syms).value()});
  ASSERT_TRUE(grow.ok()) << grow.status().message();
  EXPECT_TRUE(grow.value().delta);
  EXPECT_EQ(grow.value().new_atoms, 1u);
  EXPECT_EQ(grow.value().derived_atoms, 1u);
  EXPECT_EQ(syms.NumNulls(), nulls + 1);
  // Re-asserting an EDB fact runs no pass: a delta reply, nothing new.
  Result<AssertResult> dup = kb->Assert({ParseAtom("gen(b)", &syms).value()});
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup.value().delta);
  EXPECT_EQ(dup.value().new_atoms, 0u);
  EXPECT_EQ(dup.value().derived_atoms, 0u);
  ServiceStats stats = kb->stats();
  EXPECT_EQ(stats.delta_asserts, 2u);
  EXPECT_EQ(stats.rematerializations, 0u);
  EXPECT_EQ(stats.chase_materializations, 1u);  // Prepare's only.
  Rule cq = MustParseRule("e(X, Y) -> q(X)", &syms);
  Result<PreparedQueryResult> got = kb->Query(cq);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().complete);
  std::set<std::vector<Term>> want = {{syms.Constant("a")},
                                      {syms.Constant("b")}};
  EXPECT_EQ(got.value().answers, want);
}

// The atoms of `atoms` that hold no labeled null.
std::unordered_set<Atom, AtomHash> GroundFacts(const std::vector<Atom>& atoms) {
  std::unordered_set<Atom, AtomHash> out;
  for (const Atom& a : atoms) {
    if (a.IsGroundOverConstants()) out.insert(a);
  }
  return out;
}

TEST(PreparedKbTest, ChaseModeWritesReuseSkolemNulls) {
  SymbolTable syms;
  Theory t = MustParseTheory(kWgTransitiveClosure, &syms);
  Database db = ParseDatabase("gen(a). gen(b). gen(c). e(a, b).", &syms)
                    .value();
  auto kb = MustPrepare(t, db, &syms);
  ASSERT_EQ(kb->mode(), PreparedKb::Mode::kChaseMaterialized);
  // e(b, c) joins c's null successor onto the a→b chain: asserting it
  // derives e(b, n_c), e(a, c) and e(a, n_c); retracting it deletes them.
  const Atom edge = ParseAtom("e(b, c)", &syms).value();
  Database with_edge = db;
  with_edge.Insert(edge);
  const uint32_t nulls = syms.NumNulls();
  // A fresh Prepare of the same EDB, on a copy of the table so that its
  // chase mints no null in the live one.
  auto expect_fresh = [&](const Database& edb, int round) {
    SymbolTable fresh_syms = syms;
    auto fresh = MustPrepare(t, edb, &fresh_syms);
    EXPECT_EQ(kb->model_size(), fresh->model_size()) << "round " << round;
    EXPECT_EQ(GroundFacts(kb->ModelAtoms()), GroundFacts(fresh->ModelAtoms()))
        << "round " << round;
  };
  for (int round = 0; round < 50; ++round) {
    Result<AssertResult> a = kb->Assert({edge});
    ASSERT_TRUE(a.ok()) << a.status().message();
    EXPECT_TRUE(a.value().delta);
    expect_fresh(with_edge, round);
    Result<RetractResult> r = kb->Retract({edge});
    ASSERT_TRUE(r.ok()) << r.status().message();
    expect_fresh(db, round);
  }
  // Every re-derived atom got its null back from the Skolem table.
  EXPECT_EQ(syms.NumNulls(), nulls);
  ServiceStats stats = kb->stats();
  EXPECT_EQ(stats.delta_asserts, 50u);
  // The chase records no supports, so the first retract re-materializes
  // through the program (which records them); every later one is DRed.
  EXPECT_EQ(stats.retracts_rematerialized, 1u);
  EXPECT_EQ(stats.retracts_dred, 49u);
  EXPECT_EQ(stats.chase_materializations, 1u);
}

TEST(PreparedKbTest, DuplicateAssertKeepsCachedAnswers) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b). e(b, c).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  Rule cq = MustParseRule("t(U, V) -> q(U, V)", &syms);
  EXPECT_FALSE(kb->Query(cq).value().cache_hit);
  Result<AssertResult> dup = kb->Assert({ParseAtom("e(a, b)", &syms).value()});
  ASSERT_TRUE(dup.ok());
  EXPECT_TRUE(dup.value().delta);
  EXPECT_EQ(dup.value().new_atoms, 0u);
  Result<PreparedQueryResult> after = kb->Query(cq);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().cache_hit);
  EXPECT_EQ(after.value().answers.size(), 3u);
  EXPECT_EQ(kb->stats().cache_evicted_entries, 0u);
}

TEST(PreparedKbTest, WeaklyGuardedRecompilesOnNewConstant) {
  SymbolTable syms;
  Theory t = MustParseTheory(kWgTransitiveClosure, &syms);
  Database db = ParseDatabase("gen(b). e(a, b).", &syms).value();
  // Pipeline-mode behavior under test: bypass the planner, which would
  // otherwise certify this theory and materialize by chase.
  PreparedKbOptions po;
  po.planner = false;
  auto kb = MustPrepare(t, db, &syms, po);
  EXPECT_EQ(kb->mode(), PreparedKb::Mode::kWeaklyGuarded);
  // A known constant extends the model incrementally...
  Result<AssertResult> known =
      kb->Assert({ParseAtom("gen(a)", &syms).value()});
  ASSERT_TRUE(known.ok());
  EXPECT_TRUE(known.value().delta);
  // ...but a constant outside the grounded domain forces pg(Σ, D) to be
  // re-run and the model rebuilt.
  Result<AssertResult> fresh_const =
      kb->Assert({ParseAtom("e(b, z)", &syms).value()});
  ASSERT_TRUE(fresh_const.ok());
  EXPECT_FALSE(fresh_const.value().delta);
  ServiceStats stats = kb->stats();
  EXPECT_EQ(stats.delta_asserts, 1u);
  EXPECT_EQ(stats.rematerializations, 1u);
  // The rebuilt KB answers like a fresh prepare over the final database.
  Database full = ParseDatabase("gen(b). e(a, b). gen(a). e(b, z).", &syms)
                      .value();
  auto fresh = MustPrepare(t, full, &syms);
  Rule cq = MustParseRule("e(U, V) -> q(U, V)", &syms);
  EXPECT_EQ(kb->Query(cq).value().answers, fresh->Query(cq).value().answers);
}

TEST(PreparedKbTest, AnswerVarOutsideBodyRangesOverActiveDomain) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  Rule cq = MustParseRule("e(U, V) -> q(U, W)", &syms);
  Result<PreparedQueryResult> got = kb->Query(cq);
  ASSERT_TRUE(got.ok()) << got.status().message();
  Result<KbQueryResult> want = AnswerKbQuery(t, cq, db, &syms);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(got.value().answers, want.value().answers);
  // W ranges over the active domain {a, b}.
  EXPECT_EQ(got.value().answers.size(), 2u);
}

TEST(PreparedKbTest, RejectsMalformedQueries) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  EXPECT_FALSE(kb->Query(MustParseRule("e(U, V) -> q(U), p(V)", &syms)).ok());
  EXPECT_FALSE(kb->Query(MustParseRule("-> q(a)", &syms)).ok());
  EXPECT_FALSE(kb->Query(MustParseRule("not e(U, V) -> q(U)", &syms)).ok());
  EXPECT_FALSE(kb->Assert({ParseAtom("e(X, b)", &syms).value()}).ok());
}

TEST(PreparedKbTest, RejectsNonWfgTheory) {
  SymbolTable syms;
  // Adding e(X, Y) -> gen(Y) makes every e-position affected; the
  // transitivity rule then has no weak frontier guard.
  Theory t = MustParseTheory(R"(
    gen(X) -> exists Y. e(X, Y).
    e(X, Y) -> gen(Y).
    e(X, Y), e(Y, Z) -> e(X, Z).
  )",
                             &syms);
  Database db = ParseDatabase("gen(a).", &syms).value();
  Result<std::unique_ptr<PreparedKb>> kb = PreparedKb::Prepare(t, db, &syms);
  EXPECT_FALSE(kb.ok());
}

TEST(AnswerCacheTest, LruEvictionAndPromotion) {
  AnswerCache cache(2);
  AnswerCache::Entry e;
  cache.Insert("q1", e);
  cache.Insert("q2", e);
  AnswerCache::Entry out;
  // Touch q1 so q2 becomes the eviction victim.
  EXPECT_TRUE(cache.Lookup("q1", &out));
  cache.Insert("q3", e);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup("q1", &out));
  EXPECT_FALSE(cache.Lookup("q2", &out));
  EXPECT_TRUE(cache.Lookup("q3", &out));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("q1", &out));
}

TEST(AnswerCacheTest, ZeroCapacityDisables) {
  AnswerCache cache(0);
  AnswerCache::Entry e;
  cache.Insert("q", e);
  AnswerCache::Entry out;
  EXPECT_FALSE(cache.Lookup("q", &out));
}

TEST(ServiceSessionTest, ScriptedSession) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  ServiceSession session(kb.get(), &syms);
  EXPECT_EQ(session.HandleLine("").text, "");
  EXPECT_EQ(session.HandleLine("% comment").text, "");
  ServiceSession::Response q = session.HandleLine("query t(X, Y) -> q(X, Y)");
  EXPECT_FALSE(q.error);
  EXPECT_NE(q.text.find("q(a, b)"), std::string::npos);
  EXPECT_NE(q.text.find("1 answers (complete)"), std::string::npos);
  ServiceSession::Response a = session.HandleLine("assert e(b, c). e(c, d)");
  EXPECT_FALSE(a.error);
  EXPECT_NE(a.text.find("asserted 2 new"), std::string::npos);
  ServiceSession::Response q2 = session.HandleLine("query t(X, Y) -> q(X, Y)");
  EXPECT_NE(q2.text.find("6 answers"), std::string::npos);
  ServiceSession::Response bad = session.HandleLine("frobnicate");
  EXPECT_TRUE(bad.error);
  EXPECT_TRUE(session.saw_error());
  EXPECT_FALSE(session.saw_incomplete());
  ServiceSession::Response stats = session.HandleLine("stats");
  EXPECT_NE(stats.text.find("queries:"), std::string::npos);
  EXPECT_TRUE(session.HandleLine("quit").quit);
}

TEST(ServiceSessionTest, IncompleteQueryIsFlagged) {
  SymbolTable syms;
  Theory t = MustParseTheory(kWgTransitiveClosure, &syms);
  Database db = ParseDatabase("gen(a).", &syms).value();
  // The incompleteness flag only fires on the translation pipeline;
  // the planner would certify this theory and answer completely.
  PreparedKbOptions po;
  po.planner = false;
  auto kb = MustPrepare(t, db, &syms, po);
  ServiceSession session(kb.get(), &syms);
  ServiceSession::Response q = session.HandleLine("query e(U, V) -> q(U)");
  EXPECT_FALSE(q.error);
  EXPECT_NE(q.text.find("possibly incomplete"), std::string::npos);
  EXPECT_TRUE(session.saw_incomplete());
}

TEST(ServiceStatsTest, JsonHasAllCounters) {
  ServiceStats stats;
  stats.queries = 7;
  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"queries\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"prepare_wall_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"delta_asserts\""), std::string::npos);
}

}  // namespace
}  // namespace gerel
