// Tests for resource governance (core/budget.h, core/fault.h): budget
// arming and tripping, fault-plan parsing, and the cap-soundness
// property — a budget-capped chase/saturation derives a subset of the
// uncapped run, at every worker-lane count.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "chase/chase.h"
#include "core/budget.h"
#include "core/fault.h"
#include "core/parser.h"
#include "core/printer.h"
#include "testing/random_theories.h"
#include "transform/canonical.h"
#include "transform/saturation.h"

namespace gerel {
namespace {

using gerel::testing::RandomParams;
using gerel::testing::RandomTheoryGen;

TEST(DegradationReasonTest, DefaultIsNotDegraded) {
  DegradationReason r;
  EXPECT_FALSE(r.degraded());
  EXPECT_EQ(r.ToString(), "none");
  EXPECT_EQ(r.ToJson(), "null");
}

TEST(DegradationReasonTest, RendersStageLimitAndRound) {
  DegradationReason r;
  r.stage = GovernedStage::kChase;
  r.limit = BudgetLimit::kDeadline;
  r.round = 7;
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.ToString(), "chase: deadline at round 7");
  EXPECT_EQ(r.ToJson(), "{\"stage\":\"chase\",\"limit\":\"deadline\",\"round\":7}");
}

TEST(BudgetLimitsTest, UnlimitedByDefault) {
  BudgetLimits limits;
  EXPECT_TRUE(limits.unlimited());
  limits.timeout_ms = 5;
  EXPECT_FALSE(limits.unlimited());
  limits.timeout_ms = 0;
  limits.max_atoms = 10;
  EXPECT_FALSE(limits.unlimited());
}

TEST(ExecutionBudgetTest, UnlimitedBudgetNeverTrips) {
  ExecutionBudget budget;
  for (uint64_t round = 1; round <= 100; ++round) {
    EXPECT_TRUE(budget.CheckRound(GovernedStage::kChase, round, round * 100));
  }
  EXPECT_FALSE(budget.exhausted());
  EXPECT_FALSE(budget.ExhaustedFast());
  EXPECT_FALSE(budget.reason().degraded());
}

TEST(ExecutionBudgetTest, AtomCeilingTripsAtRoundBoundary) {
  BudgetLimits limits;
  limits.max_atoms = 50;
  ExecutionBudget budget(limits);
  // The ceiling is an allowed maximum: exactly max_atoms may stand,
  // one more trips.
  EXPECT_TRUE(budget.CheckRound(GovernedStage::kChase, 1, 50));
  EXPECT_FALSE(budget.CheckRound(GovernedStage::kChase, 2, 51));
  EXPECT_TRUE(budget.exhausted());
  EXPECT_TRUE(budget.ExhaustedFast());
  DegradationReason r = budget.reason();
  EXPECT_EQ(r.stage, GovernedStage::kChase);
  EXPECT_EQ(r.limit, BudgetLimit::kAtoms);
  EXPECT_EQ(r.round, 2u);
}

TEST(ExecutionBudgetTest, ExpiredDeadlineTripsImmediately) {
  BudgetLimits limits;
  limits.timeout_ms = 0.000001;  // Effectively already expired.
  ExecutionBudget budget(limits);
  EXPECT_FALSE(budget.CheckRound(GovernedStage::kDatalog, 3));
  EXPECT_EQ(budget.reason().limit, BudgetLimit::kDeadline);
  EXPECT_EQ(budget.reason().stage, GovernedStage::kDatalog);
}

TEST(ExecutionBudgetTest, FirstTripWins) {
  BudgetLimits limits;
  limits.max_atoms = 10;
  ExecutionBudget budget(limits);
  EXPECT_FALSE(budget.CheckRound(GovernedStage::kSaturation, 4, 11));
  EXPECT_FALSE(budget.CheckRound(GovernedStage::kDatalog, 9, 999));
  EXPECT_EQ(budget.reason().stage, GovernedStage::kSaturation);
  EXPECT_EQ(budget.reason().round, 4u);
}

TEST(ExecutionBudgetTest, CancelReportsCancelled) {
  ExecutionBudget budget;
  budget.Cancel();
  EXPECT_TRUE(budget.ExhaustedFast());
  EXPECT_EQ(budget.reason().limit, BudgetLimit::kCancelled);
  EXPECT_FALSE(budget.CheckRound(GovernedStage::kQuery, 1));
}

TEST(ExecutionBudgetTest, ArmClearsPreviousExhaustion) {
  BudgetLimits limits;
  limits.max_atoms = 5;
  ExecutionBudget budget(limits);
  EXPECT_FALSE(budget.CheckRound(GovernedStage::kChase, 1, 6));
  EXPECT_TRUE(budget.exhausted());
  budget.Arm(BudgetLimits{});
  EXPECT_FALSE(budget.exhausted());
  EXPECT_FALSE(budget.reason().degraded());
  EXPECT_TRUE(budget.CheckRound(GovernedStage::kChase, 1, 1000));
}

TEST(ExecutionBudgetTest, CheckPointObservesExpiredDeadline) {
  BudgetLimits limits;
  limits.timeout_ms = 0.000001;
  ExecutionBudget budget(limits);
  // CheckPoint samples the clock once every 1024 ticks; within a few
  // thousand calls it must observe the expired deadline.
  bool tripped = false;
  for (int i = 0; i < 4096 && !tripped; ++i) {
    tripped = !budget.CheckPoint(GovernedStage::kQuery);
  }
  EXPECT_TRUE(tripped);
  EXPECT_EQ(budget.reason().limit, BudgetLimit::kDeadline);
}

TEST(ExecutionBudgetTest, FaultPlanForcesExhaustionAtSeededRound) {
  FaultPlan plan;
  plan.exhaust_stage = GovernedStage::kChase;
  plan.exhaust_round = 3;
  ExecutionBudget budget(BudgetLimits{}, &plan);
  EXPECT_TRUE(budget.CheckRound(GovernedStage::kChase, 1));
  EXPECT_TRUE(budget.CheckRound(GovernedStage::kChase, 2));
  // Other stages never trip on a chase fault.
  EXPECT_TRUE(budget.CheckRound(GovernedStage::kSaturation, 3));
  EXPECT_FALSE(budget.CheckRound(GovernedStage::kChase, 3));
  EXPECT_EQ(budget.reason().limit, BudgetLimit::kFault);
  EXPECT_EQ(budget.reason().round, 3u);
}

TEST(FaultPlanTest, ParsesFullSpecAndRoundTrips) {
  Result<FaultPlan> plan = FaultPlan::Parse(
      "exhaust=chase@3,delay-us=200,delay-every=2,snap-truncate=100,"
      "snap-flip=57");
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan.value().exhaust_stage, GovernedStage::kChase);
  EXPECT_EQ(plan.value().exhaust_round, 3u);
  EXPECT_EQ(plan.value().worker_delay_us, 200u);
  EXPECT_EQ(plan.value().worker_delay_every, 2u);
  EXPECT_EQ(plan.value().snapshot_truncate_at, 100);
  EXPECT_EQ(plan.value().snapshot_flip_byte, 57);
  EXPECT_TRUE(plan.value().enabled());
  Result<FaultPlan> again = FaultPlan::Parse(plan.value().ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().ToString(), plan.value().ToString());
}

TEST(FaultPlanTest, ExhaustWithoutRoundDefaultsToRoundOne) {
  Result<FaultPlan> plan = FaultPlan::Parse("exhaust=saturation");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().exhaust_stage, GovernedStage::kSaturation);
  EXPECT_EQ(plan.value().exhaust_round, 1u);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("exhaust=warp@3").ok());
  EXPECT_FALSE(FaultPlan::Parse("exhaust=chase@x").ok());
  EXPECT_FALSE(FaultPlan::Parse("delay-every=0").ok());
  EXPECT_FALSE(FaultPlan::Parse("snap-truncate=abc").ok());
  EXPECT_FALSE(FaultPlan::Parse("bogus=1").ok());
  EXPECT_FALSE(FaultPlan::Parse("no-equals").ok());
}

TEST(FaultPlanTest, EmptySpecIsDisabled) {
  Result<FaultPlan> plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().enabled());
}

TEST(FaultPlanTest, WorkerDelayIsSafeWithNullPlanAndYieldMode) {
  MaybeInjectWorkerDelay(nullptr, 0);  // Must be a no-op.
  FaultPlan plan;
  plan.worker_delay_us = 0;  // Yield mode.
  plan.worker_delay_every = 2;
  for (uint64_t unit = 0; unit < 8; ++unit) {
    MaybeInjectWorkerDelay(&plan, unit);
  }
}

TEST(GovernedStageTest, NamesRoundTrip) {
  const GovernedStage stages[] = {
      GovernedStage::kNone,      GovernedStage::kChase,
      GovernedStage::kRewrite,   GovernedStage::kGrounding,
      GovernedStage::kSaturation, GovernedStage::kDatalog,
      GovernedStage::kQuery,     GovernedStage::kSnapshot,
  };
  for (GovernedStage s : stages) {
    GovernedStage parsed = GovernedStage::kNone;
    ASSERT_TRUE(ParseGovernedStage(GovernedStageName(s), &parsed));
    EXPECT_EQ(parsed, s);
  }
  GovernedStage parsed = GovernedStage::kNone;
  EXPECT_FALSE(ParseGovernedStage("warp", &parsed));
}

// --- Cap-soundness properties -------------------------------------------
//
// A budget-capped run never invents anything: every atom (or rule) it
// derives also appears in the uncapped run (saturation is checked at
// every worker-lane count).

class CapSoundnessTest : public ::testing::TestWithParam<unsigned> {};

std::set<std::string> AtomStrings(const Database& db, const SymbolTable& syms) {
  std::set<std::string> out;
  for (const Atom& a : db.atoms()) out.insert(ToString(a, syms));
  return out;
}

TEST_P(CapSoundnessTest, CappedChaseIsSubsetOfUncapped) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.num_rules = 6;
  params.existential_prob = 0.4;
  Theory t = gen.Theory_(params);
  Database db = gen.Database_(8, 4);
  ChaseOptions uncapped;
  uncapped.max_steps = 20000;
  uncapped.max_atoms = 20000;
  SymbolTable clean_syms = syms;
  ChaseResult clean = Chase(t, db, &clean_syms, uncapped);
  if (!clean.saturated) GTEST_SKIP() << "uncapped chase did not saturate";
  std::set<std::string> clean_atoms = AtomStrings(clean.database, clean_syms);

  BudgetLimits limits;
  limits.max_atoms = 1 + GetParam() % 16;
  ExecutionBudget budget(limits);
  SymbolTable capped_syms = syms;
  ChaseOptions capped = uncapped;
  capped.budget = &budget;
  ChaseResult r = Chase(t, db, &capped_syms, capped);
  std::set<std::string> capped_atoms = AtomStrings(r.database, capped_syms);
  EXPECT_TRUE(std::includes(clean_atoms.begin(), clean_atoms.end(),
                            capped_atoms.begin(), capped_atoms.end()))
      << "capped chase derived atoms outside the uncapped chase";
  if (!r.saturated) {
    EXPECT_TRUE(r.degradation.degraded())
        << "capped unsaturated chase reported no DegradationReason";
  }
}

TEST_P(CapSoundnessTest, CappedSaturationIsSubsetOfUncapped) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.num_rules = 5;
  params.existential_prob = 0.5;
  params.force_guarded = true;
  Theory t = gen.Theory_(params);
  SaturationOptions uncapped;
  uncapped.max_rules = 4000;
  SymbolTable clean_syms = syms;
  Result<SaturationResult> clean = Saturate(t, &clean_syms, uncapped);
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  if (!clean.value().complete) GTEST_SKIP() << "uncapped closure incomplete";
  std::set<std::string> clean_rules;
  for (const Rule& r : clean.value().closure.rules()) {
    clean_rules.insert(CanonicalRuleString(r, clean_syms));
  }

  for (size_t threads : {size_t{2}, size_t{4}}) {
    SaturationOptions capped = uncapped;
    capped.num_threads = threads;
    capped.max_rules = 1 + GetParam() % 12;
    SymbolTable capped_syms = syms;
    Result<SaturationResult> r = Saturate(t, &capped_syms, capped);
    ASSERT_TRUE(r.ok()) << r.status().message();
    for (const Rule& rule : r.value().datalog.rules()) {
      EXPECT_TRUE(clean_rules.count(CanonicalRuleString(rule, capped_syms)))
          << "capped saturation derived a rule outside the uncapped "
          << "closure at " << threads << " threads: "
          << ToString(rule, capped_syms);
    }
    if (!r.value().complete) {
      EXPECT_TRUE(r.value().degradation.degraded())
          << "capped incomplete saturation reported no DegradationReason";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapSoundnessTest,
                         ::testing::Range(1u, 13u));

}  // namespace
}  // namespace gerel
