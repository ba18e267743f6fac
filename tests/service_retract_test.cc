// Property tests for incremental retraction (DESIGN.md §7): the DRed
// delete/re-derive path must be an exact inverse of Assert on the
// model, clean-error on non-EDB facts, degrade soundly under a tripped
// budget, and drive dependency-aware (not wholesale) answer-cache
// invalidation. The dispatcher-level tests pin the replication-cursor
// contract: DRed retracts advance seq, re-materializing retracts bump
// the epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/fault.h"
#include "core/parser.h"
#include "core/printer.h"
#include "server/dispatch.h"
#include "server/registry.h"
#include "server/wire.h"
#include "service/prepared_kb.h"

namespace gerel {
namespace {

using server::Dispatcher;
using server::DispatchOutcome;
using server::Op;
using server::TenantRegistry;
using server::WireRequest;

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

std::set<std::string> ModelSet(const PreparedKb& kb, SymbolTable* syms) {
  std::set<std::string> out;
  for (const Atom& a : kb.ModelAtoms()) out.insert(ToString(a, *syms));
  return out;
}

const char* kDatalogTc = R"(
  e(X, Y) -> t(X, Y).
  e(X, Y), t(Y, Z) -> t(X, Z).
)";

// Two independent rule families over disjoint predicates: writes to one
// must not evict cached answers reading only the other.
const char* kTwoFamilies = R"(
  e(X, Y) -> t(X, Y).
  e(X, Y), t(Y, Z) -> t(X, Z).
  u(X) -> w(X).
)";

// --- Retract ∘ Assert identity ---

TEST(ServiceRetractTest, RetractUndoesAssertOnTheModel) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b). e(b, c).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  std::set<std::string> before = ModelSet(*kb, &syms);

  std::vector<Atom> facts =
      ParseDatabase("e(c, d).", &syms).value().AtomsVector();
  Result<AssertResult> a = kb->Assert(facts);
  ASSERT_TRUE(a.ok()) << a.status().message();
  EXPECT_NE(ModelSet(*kb, &syms), before);

  Result<RetractResult> r = kb->Retract(facts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().removed_atoms, 1u);
  EXPECT_TRUE(r.value().delta);  // DRed, not a rebuild.
  // t(a,d), t(b,d), t(c,d) lose their only support; nothing rederives.
  EXPECT_EQ(r.value().overdeleted_atoms, 3u);
  EXPECT_EQ(r.value().rederived_atoms, 0u);
  EXPECT_EQ(ModelSet(*kb, &syms), before);

  ServiceStats stats = kb->stats();
  EXPECT_EQ(stats.retracts, 1u);
  EXPECT_EQ(stats.retracts_dred, 1u);
  EXPECT_EQ(stats.retracts_rematerialized, 0u);
}

// DRed erases in place: the survivors keep their order, so undoing an
// assert restores the model vector itself, not just the set.
TEST(ServiceRetractTest, RetractRestoresTheModelInOrder) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b). e(b, c). e(c, d).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  const std::vector<Atom> model = kb->ModelAtoms();
  const std::vector<Atom> edb = kb->EdbAtoms();

  std::vector<Atom> facts =
      ParseDatabase("e(d, e5).", &syms).value().AtomsVector();
  ASSERT_TRUE(kb->Assert(facts).ok());
  Result<RetractResult> r = kb->Retract(facts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(r.value().delta);
  EXPECT_EQ(kb->ModelAtoms(), model);
  EXPECT_EQ(kb->EdbAtoms(), edb);
}

// A chord a→c beside the path a→b→c: retracting the chord overdeletes
// t(a, c) and rederives it through the path, recording its new witness
// in the compacted support log. The chord is the first atom, so the
// erase moves every survivor and the log must remap every witness. The
// second retract must overdelete through those witnesses, still by DRed.
TEST(ServiceRetractTest, RetractAfterRederiveReadsTheCompactedLog) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase(
      "e(a, c). e(a, b). e(b, c). e(c, d). e(b, d). e(d, f).", &syms)
                    .value();
  auto kb = MustPrepare(t, db, &syms);

  Result<RetractResult> first = kb->Retract(
      ParseDatabase("e(a, c).", &syms).value().AtomsVector());
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_TRUE(first.value().delta);
  EXPECT_GT(first.value().rederived_atoms, 0u);
  Result<RetractResult> second = kb->Retract(
      ParseDatabase("e(b, c).", &syms).value().AtomsVector());
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_TRUE(second.value().delta);
  EXPECT_EQ(kb->stats().retracts_dred, 2u);

  SymbolTable fresh_syms;
  Theory ft = MustParseTheory(kDatalogTc, &fresh_syms);
  Database fdb = ParseDatabase("e(a, b). e(c, d). e(b, d). e(d, f).",
                               &fresh_syms)
                     .value();
  auto fresh = MustPrepare(ft, fdb, &fresh_syms);
  EXPECT_EQ(ModelSet(*kb, &syms), ModelSet(*fresh, &fresh_syms));
}

TEST(ServiceRetractTest, RetractedFactSurvivesWhenStillEntailed) {
  // t(a,b) is both an EDB fact and rule-derivable from e(a,b).
  // Retracting the EDB copy removes it from the base but rederivation
  // must keep it in the model — retraction is "remove from EDB and
  // recompute the least model", not "force the atom out".
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b). t(a, b).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);

  std::vector<Atom> facts =
      ParseDatabase("t(a, b).", &syms).value().AtomsVector();
  Result<RetractResult> r = kb->Retract(facts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().removed_atoms, 1u);

  // Still entailed by e(a,b) -> t(a,b): either it was never overdeleted
  // (it had a live rule support) or rederivation restored it.
  Rule cq = MustParseRule("t(U, V) -> q(U, V)", &syms);
  Result<PreparedQueryResult> got = kb->Query(cq);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().answers.size(), 1u);
}

// --- Non-EDB retract: clean no-op error ---

TEST(ServiceRetractTest, UnknownAndDerivedFactsAreCleanErrors) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b). e(b, c).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);
  std::set<std::string> before = ModelSet(*kb, &syms);

  // Never asserted.
  std::vector<Atom> unknown =
      ParseDatabase("e(x1, x2).", &syms).value().AtomsVector();
  EXPECT_FALSE(kb->Retract(unknown).ok());

  // Derived-only: t(a,c) is in the model but not the EDB.
  std::vector<Atom> derived =
      ParseDatabase("t(a, c).", &syms).value().AtomsVector();
  EXPECT_FALSE(kb->Retract(derived).ok());

  // A batch mixing one valid and one invalid fact must not partially
  // apply.
  std::vector<Atom> mixed =
      ParseDatabase("e(a, b). e(x1, x2).", &syms).value().AtomsVector();
  EXPECT_FALSE(kb->Retract(mixed).ok());

  EXPECT_EQ(ModelSet(*kb, &syms), before);
  ServiceStats stats = kb->stats();
  EXPECT_EQ(stats.retracts, 0u);
  EXPECT_EQ(stats.retracted_atoms, 0u);
}

// --- Budget-tripped retract: degraded, never unsound ---

// Trips the Datalog-stage budget at `exhaust_round` of a DRed retract
// and checks that the fallback, running under the exhausted budget,
// leaves a sound model over the surviving EDB.
void CheckCappedRetract(uint64_t exhaust_round) {
  SymbolTable syms;
  Theory t = MustParseTheory(kDatalogTc, &syms);
  Database db = ParseDatabase("e(a, b). e(b, c). e(c, d). e(d, e5).",
                              &syms).value();
  auto kb = MustPrepare(t, db, &syms);

  FaultPlan plan;
  plan.exhaust_stage = GovernedStage::kDatalog;
  plan.exhaust_round = exhaust_round;
  SetFaultPlanForTest(&plan);
  std::vector<Atom> facts =
      ParseDatabase("e(d, e5).", &syms).value().AtomsVector();
  Result<RetractResult> r = kb->Retract(facts);
  SetFaultPlanForTest(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_FALSE(r.value().delta);  // Fallback, not DRed.

  ServiceStats stats = kb->stats();
  EXPECT_EQ(stats.retracts, 1u);
  EXPECT_EQ(stats.retracts_dred, 0u);
  EXPECT_EQ(stats.retracts_rematerialized, 1u);
  EXPECT_EQ(stats.last_degradation.round, exhaust_round);

  // The degraded model must be a subset of a clean fresh Prepare over
  // the surviving EDB, and must still contain that EDB.
  SymbolTable fresh_syms;
  Theory ft = MustParseTheory(kDatalogTc, &fresh_syms);
  Database fdb =
      ParseDatabase("e(a, b). e(b, c). e(c, d).", &fresh_syms).value();
  auto fresh = MustPrepare(ft, fdb, &fresh_syms);
  std::set<std::string> clean = ModelSet(*fresh, &fresh_syms);
  for (const Atom& atom : kb->ModelAtoms()) {
    EXPECT_TRUE(clean.count(ToString(atom, syms)))
        << "unsound survivor: " << ToString(atom, syms);
  }
  std::set<std::string> model = ModelSet(*kb, &syms);
  std::vector<std::string> edb;
  for (const Atom& atom : kb->EdbAtoms()) {
    EXPECT_TRUE(std::count(facts.begin(), facts.end(), atom) == 0)
        << "retracted fact still in EDB";
    EXPECT_TRUE(model.count(ToString(atom, syms)))
        << "EDB fact missing from the model: " << ToString(atom, syms);
    edb.push_back(ToString(atom, syms));
  }
  EXPECT_EQ(edb, (std::vector<std::string>{"e(a, b)", "e(b, c)", "e(c, d)"}));

  // Queries still serve (sound answers; completeness may be forfeit).
  Rule cq = MustParseRule("t(U, V) -> q(U, V)", &syms);
  Result<PreparedQueryResult> got = kb->Query(cq);
  ASSERT_TRUE(got.ok());
  for (const std::vector<Term>& row : got.value().answers) {
    Atom witness(syms.Relation("t", 2), row);
    EXPECT_TRUE(clean.count(ToString(witness, syms)));
  }
}

// Round 1 is DRed's overdelete check: the trip comes before anything is
// pruned, and the re-materialization fallback runs under the exhausted
// budget.
TEST(ServiceRetractTest, CappedRetractFallsBackAndStaysSound) {
  CheckCappedRetract(1);
}

// Round 2 is DRed's first rederive round: the trip leaves the model and
// the support log partly pruned, and the fallback rebuilds both.
TEST(ServiceRetractTest, CappedRetractAfterThePruneFallsBackAndStaysSound) {
  CheckCappedRetract(2);
}

// --- Dependency-aware cache invalidation ---

TEST(ServiceRetractTest, UnrelatedCachedAnswersSurviveRetract) {
  SymbolTable syms;
  Theory t = MustParseTheory(kTwoFamilies, &syms);
  Database db = ParseDatabase("e(a, b). e(b, c). u(m). u(n).",
                              &syms).value();
  auto kb = MustPrepare(t, db, &syms);

  Rule tq = MustParseRule("t(U, V) -> q(U, V)", &syms);
  Rule wq = MustParseRule("w(U) -> q2(U)", &syms);
  EXPECT_FALSE(kb->Query(tq).value().cache_hit);
  EXPECT_TRUE(kb->Query(tq).value().cache_hit);
  EXPECT_FALSE(kb->Query(wq).value().cache_hit);
  EXPECT_TRUE(kb->Query(wq).value().cache_hit);

  // Retracting u(n) touches the {u, w} family only: the cached t-answer
  // must survive, the cached w-answer must be evicted.
  std::vector<Atom> facts =
      ParseDatabase("u(n).", &syms).value().AtomsVector();
  ASSERT_TRUE(kb->Retract(facts).ok());

  ServiceStats stats = kb->stats();
  EXPECT_EQ(stats.cache_evicted_entries, 1u);
  EXPECT_EQ(stats.cache_retained_entries, 1u);

  Result<PreparedQueryResult> tr = kb->Query(tq);
  ASSERT_TRUE(tr.ok());
  EXPECT_TRUE(tr.value().cache_hit);  // Survived the unrelated write.
  Result<PreparedQueryResult> wr = kb->Query(wq);
  ASSERT_TRUE(wr.ok());
  EXPECT_FALSE(wr.value().cache_hit);  // Evicted by the covering write.
  EXPECT_EQ(wr.value().answers.size(), 1u);  // w(m) only now.
}

TEST(ServiceRetractTest, AssertEvictsByDependencyClosureToo) {
  SymbolTable syms;
  Theory t = MustParseTheory(kTwoFamilies, &syms);
  Database db = ParseDatabase("e(a, b). u(m).", &syms).value();
  auto kb = MustPrepare(t, db, &syms);

  Rule tq = MustParseRule("t(U, V) -> q(U, V)", &syms);
  Rule wq = MustParseRule("w(U) -> q2(U)", &syms);
  kb->Query(tq);
  kb->Query(wq);

  // Asserting an e-fact over existing constants writes {e, t}: the
  // cached w-answer is unrelated and survives.
  std::vector<Atom> facts =
      ParseDatabase("e(b, a).", &syms).value().AtomsVector();
  ASSERT_TRUE(kb->Assert(facts).ok());
  EXPECT_FALSE(kb->Query(tq).value().cache_hit);
  EXPECT_TRUE(kb->Query(wq).value().cache_hit);
}

// --- Replication cursor (dispatcher level) ---

struct Backend {
  TenantRegistry registry;
  Dispatcher dispatcher;

  explicit Backend() : registry({}), dispatcher(&registry) {}

  DispatchOutcome Prepare(const std::string& name, const std::string& text) {
    WireRequest req;
    req.op = Op::kPrepare;
    req.kb = name;
    req.program = text;
    return dispatcher.Dispatch(req);
  }
  DispatchOutcome Query(const std::string& kb, const std::string& cq) {
    WireRequest req;
    req.op = Op::kQuery;
    req.kb = kb;
    req.cq = cq;
    return dispatcher.Dispatch(req);
  }
  DispatchOutcome Assert(const std::string& kb, const std::string& facts) {
    WireRequest req;
    req.op = Op::kAssert;
    req.kb = kb;
    req.facts = facts;
    return dispatcher.Dispatch(req);
  }
  DispatchOutcome Retract(const std::string& kb, const std::string& facts) {
    WireRequest req;
    req.op = Op::kRetract;
    req.kb = kb;
    req.facts = facts;
    return dispatcher.Dispatch(req);
  }
};

constexpr char kTcProgram[] =
    "e(X, Y) -> t(X, Y).\n"
    "e(X, Y), t(Y, Z) -> t(X, Z).\n"
    "e(a, b). e(b, c). e(c, d).\n";

constexpr char kWgProgram[] =
    "gen(X) -> exists Y. e(X, Y).\n"
    "e(X, Y), e(Y, Z) -> e(X, Z).\n"
    "gen(a). gen(b).\n";

TEST(ServiceRetractTest, DredRetractAdvancesSeqWithinEpoch) {
  Backend b;
  ASSERT_TRUE(b.Prepare("tc", kTcProgram).ok);
  size_t baseline = b.Query("tc", "t(X, Y) -> q(X, Y)").query.answers.size();
  EXPECT_EQ(baseline, 6u);

  DispatchOutcome a = b.Assert("tc", "e(d, e5)");
  ASSERT_TRUE(a.ok) << a.error_message;
  EXPECT_EQ(a.epoch, 1u);
  EXPECT_EQ(a.seq, 1u);

  DispatchOutcome r = b.Retract("tc", "e(d, e5)");
  ASSERT_TRUE(r.ok) << r.error_message;
  EXPECT_TRUE(r.retract.delta);
  EXPECT_EQ(r.retract.removed, 1u);
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(r.seq, 2u);  // DRed retract is a seq step, not an epoch bump.

  // Retract ∘ assert is the identity on answers.
  EXPECT_EQ(b.Query("tc", "t(X, Y) -> q(X, Y)").query.answers.size(),
            baseline);

  // A failed retract must not move the cursor: the next success is 3.
  EXPECT_EQ(b.Retract("tc", "e(d, e5)").error_code, server::kErrFailed);
  DispatchOutcome again = b.Retract("tc", "e(c, d)");
  ASSERT_TRUE(again.ok) << again.error_message;
  EXPECT_EQ(again.seq, 3u);
  EXPECT_EQ(again.epoch, 1u);
}

TEST(ServiceRetractTest, RematerializingRetractBumpsEpoch) {
  Backend b;
  DispatchOutcome prep = b.Prepare("wg", kWgProgram);
  ASSERT_TRUE(prep.ok) << prep.error_message;
  // The planner certifies kWgProgram (MFA) and serves it by chase.
  EXPECT_EQ(prep.prepare.mode, "chase");

  // The prepare-time chase records no derivation supports, so the first
  // retract re-materializes through the Skolem program: the dispatcher
  // must see delta=false and bump the epoch (replicas resync).
  DispatchOutcome r = b.Retract("wg", "gen(b)");
  ASSERT_TRUE(r.ok) << r.error_message;
  EXPECT_FALSE(r.retract.delta);
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_EQ(r.seq, 0u);

  DispatchOutcome q = b.Query("wg", "gen(X) -> q(X)");
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(q.query.answers.size(), 1u);  // gen(a) only.
}

}  // namespace
}  // namespace gerel
