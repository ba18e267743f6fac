// Property-based tests: invariants of the paper's constructions swept
// over randomly generated theories and databases (parameterized gtest;
// one instantiation per seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "chase/chase.h"
#include "chase/chase_tree.h"
#include "core/acyclicity.h"
#include "core/classify.h"
#include "core/homomorphism.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/printer.h"
#include "datalog/evaluator.h"
#include "stratified/stratified_chase.h"
#include "testing/random_theories.h"
#include "transform/canonical.h"
#include "transform/fg_to_ng.h"
#include "transform/saturation.h"

namespace gerel {
namespace {

using gerel::testing::RandomParams;
using gerel::testing::RandomTheoryGen;

class PropertyTest : public ::testing::TestWithParam<unsigned> {};

// Collect the ground constant-only atoms over the relations of `theory`.
std::set<std::string> GroundFacts(const Database& db, const Theory& theory,
                                  const SymbolTable& syms) {
  std::set<std::string> out;
  for (RelationId rel : theory.Relations()) {
    for (uint32_t i : db.AtomsOf(rel)) {
      const Atom& a = db.atom(i);
      if (a.IsGroundOverConstants()) out.insert(ToString(a, syms));
    }
  }
  return out;
}

// P1: the Figure 1 syntactic inclusions hold for every random rule.
TEST_P(PropertyTest, ClassificationImplications) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.num_rules = 8;
  params.existential_prob = 0.5;
  Theory t = gen.Theory_(params);
  PositionSet ap = AffectedPositions(t);
  for (const Rule& r : t.rules()) {
    if (IsGuardedRule(r)) {
      EXPECT_TRUE(IsFrontierGuardedRule(r)) << ToString(r, syms);
      EXPECT_TRUE(IsWeaklyGuardedRule(r, ap)) << ToString(r, syms);
      EXPECT_TRUE(IsNearlyGuardedRule(r, ap)) << ToString(r, syms);
    }
    if (IsFrontierGuardedRule(r)) {
      EXPECT_TRUE(IsWeaklyFrontierGuardedRule(r, ap)) << ToString(r, syms);
      EXPECT_TRUE(IsNearlyFrontierGuardedRule(r, ap)) << ToString(r, syms);
    }
    if (IsWeaklyGuardedRule(r, ap)) {
      EXPECT_TRUE(IsWeaklyFrontierGuardedRule(r, ap)) << ToString(r, syms);
    }
    if (IsNearlyGuardedRule(r, ap)) {
      EXPECT_TRUE(IsNearlyFrontierGuardedRule(r, ap)) << ToString(r, syms);
    }
  }
}

// P2: normalization preserves ground consequences over the original
// signature (Prop 1(b)).
TEST_P(PropertyTest, NormalizePreservesGroundConsequences) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.force_frontier_guarded = true;
  params.existential_prob = 0.4;
  Theory t = gen.Theory_(params);
  Database db = gen.Database_(8, 4);
  ChaseOptions opts;
  opts.max_steps = 20000;
  opts.max_atoms = 20000;
  ChaseResult before = Chase(t, db, &syms, opts);
  if (!before.saturated) GTEST_SKIP() << "chase did not saturate";
  Theory normal = Normalize(t, &syms);
  SymbolTable syms2 = syms;
  ChaseResult after = Chase(normal, db, &syms2, opts);
  if (!after.saturated) GTEST_SKIP() << "normalized chase did not saturate";
  EXPECT_EQ(GroundFacts(before.database, t, syms),
            GroundFacts(after.database, t, syms));
}

// P3: the canonical string is invariant under variable renaming and body
// reordering.
TEST_P(PropertyTest, CanonicalStringInvariance) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.num_rules = 6;
  Theory t = gen.Theory_(params);
  std::mt19937& rng = gen.rng();
  for (const Rule& rule : t.rules()) {
    std::string base = CanonicalRuleString(rule, syms);
    // Rename variables with a random injective map.
    std::vector<Term> vars = rule.Vars();
    std::vector<Term> fresh;
    for (size_t i = 0; i < vars.size(); ++i) {
      fresh.push_back(syms.Variable("Zp" + std::to_string(i + rng() % 7)));
    }
    // Ensure injectivity by index offsetting.
    for (size_t i = 0; i < fresh.size(); ++i) {
      fresh[i] = syms.Variable("Zq" + std::to_string(i));
    }
    Substitution rename;
    for (size_t i = 0; i < vars.size(); ++i) rename.Bind(vars[i], fresh[i]);
    Rule renamed = rename.Apply(rule);
    std::shuffle(renamed.body.begin(), renamed.body.end(), rng);
    EXPECT_EQ(base, CanonicalRuleString(renamed, syms))
        << ToString(rule, syms) << "  vs  " << ToString(renamed, syms);
  }
}

// P4: the homomorphism matcher agrees with brute-force enumeration.
TEST_P(PropertyTest, MatcherAgreesWithBruteForce) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.num_rules = 3;
  params.max_body_atoms = 2;
  Theory t = gen.Theory_(params);
  Database db = gen.Database_(10, 3);
  std::vector<Term> domain = db.ActiveTerms();
  for (const Rule& rule : t.rules()) {
    std::vector<Atom> pattern = rule.PositiveBody();
    size_t fast = 0;
    ForEachHomomorphism(pattern, db, Substitution(),
                        [&fast](const Substitution&) {
                          ++fast;
                          return true;
                        });
    // Brute force: all assignments of the pattern variables into the
    // active domain.
    std::vector<Term> vars;
    for (const Atom& a : pattern) {
      for (Term v : a.AllVars()) {
        if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
          vars.push_back(v);
        }
      }
    }
    size_t slow = 0;
    std::vector<size_t> pick(vars.size(), 0);
    while (true) {
      Substitution s;
      for (size_t i = 0; i < vars.size(); ++i) s.Bind(vars[i], domain[pick[i]]);
      bool all = true;
      for (const Atom& a : pattern) {
        if (!db.Contains(s.Apply(a))) {
          all = false;
          break;
        }
      }
      if (all) ++slow;
      size_t i = 0;
      for (; i < pick.size(); ++i) {
        if (++pick[i] < domain.size()) break;
        pick[i] = 0;
      }
      if (i == pick.size()) break;
      if (pick.empty()) break;
    }
    EXPECT_EQ(fast, slow) << ToString(rule, syms);
  }
}

// P5: dat(Σ) of a random guarded theory has the chase's ground
// consequences (Thm 3).
TEST_P(PropertyTest, SaturationMatchesChaseOnGuardedTheories) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.force_guarded = true;
  params.num_rules = 3;
  params.existential_prob = 0.5;
  Theory t = gen.Theory_(params);
  if (!Classify(t).guarded) GTEST_SKIP() << "generator failed to guard";
  Database db = gen.Database_(6, 3);
  ChaseOptions opts;
  opts.max_steps = 20000;
  opts.max_atoms = 20000;
  ChaseResult chase = Chase(t, db, &syms, opts);
  if (!chase.saturated) GTEST_SKIP() << "chase did not saturate";
  SaturationOptions sopts;
  sopts.max_rules = 20000;
  auto sat = Saturate(t, &syms, sopts);
  ASSERT_TRUE(sat.ok()) << sat.status().message();
  if (!sat.value().complete) GTEST_SKIP() << "saturation capped";
  auto eval = EvaluateDatalog(sat.value().datalog, db, &syms);
  ASSERT_TRUE(eval.ok()) << eval.status().message();
  EXPECT_EQ(GroundFacts(chase.database, t, syms),
            GroundFacts(eval.value().database, t, syms));
}

// P6: chase trees of random frontier-guarded theories satisfy Prop 2.
TEST_P(PropertyTest, ChaseTreePropertiesOnRandomFgTheories) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.force_frontier_guarded = true;
  params.existential_prob = 0.4;
  Theory t = gen.Theory_(params);
  Theory normal = Normalize(t, &syms);
  if (!Classify(normal).frontier_guarded) {
    GTEST_SKIP() << "generator failed to frontier-guard";
  }
  Database db = gen.Database_(6, 3);
  ChaseOptions opts;
  opts.max_steps = 20000;
  opts.max_atoms = 20000;
  auto tree = BuildChaseTree(normal, db, &syms, opts);
  if (!tree.ok()) GTEST_SKIP() << tree.status().message();
  Status props = CheckChaseTreeProperties(tree.value(), normal, db);
  EXPECT_TRUE(props.ok()) << props.message();
}

// P7: Theorem 1 on random frontier-guarded theories — rew preserves the
// ground consequences over the original signature.
TEST_P(PropertyTest, RewriteFgPreservesGroundConsequences) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.force_frontier_guarded = true;
  params.num_rules = 3;
  params.max_body_atoms = 2;
  params.num_vars = 3;
  params.existential_prob = 0.4;
  Theory t = gen.Theory_(params);
  Theory normal = Normalize(t, &syms);
  if (!Classify(normal).frontier_guarded) {
    GTEST_SKIP() << "generator failed to frontier-guard";
  }
  Database db = gen.Database_(5, 3);
  ChaseOptions opts;
  opts.max_steps = 50000;
  opts.max_atoms = 50000;
  ChaseResult oracle = Chase(t, db, &syms, opts);
  if (!oracle.saturated) GTEST_SKIP() << "chase did not saturate";
  ExpansionOptions eopts;
  eopts.max_rules = 100000;
  auto rew = RewriteFgToNearlyGuarded(normal, &syms, eopts);
  ASSERT_TRUE(rew.ok()) << rew.status().message();
  SymbolTable syms2 = syms;
  ChaseOptions big;
  big.max_steps = 2000000;
  big.max_atoms = 2000000;
  ChaseResult rewritten = Chase(rew.value().theory, db, &syms2, big);
  if (!rewritten.saturated) GTEST_SKIP() << "rewritten chase unsaturated";
  EXPECT_EQ(GroundFacts(oracle.database, t, syms),
            GroundFacts(rewritten.database, t, syms))
      << "theory:\n"
      << ToString(t, syms);
}

// P8: stratified chase agrees with the Datalog evaluator on semipositive
// Datalog programs.
TEST_P(PropertyTest, StratifiedChaseMatchesDatalogOnSemipositive) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.existential_prob = 0.0;
  params.num_rules = 4;
  Theory t = gen.Theory_(params);
  // Add one semipositive rule over a fresh relation.
  RelationId r0 = t.Relations().front();
  int arity = 0;
  for (const Rule& rule : t.rules()) {
    for (const Literal& l : rule.body) {
      if (l.atom.pred == r0) arity = static_cast<int>(l.atom.args.size());
    }
    for (const Atom& a : rule.head) {
      if (a.pred == r0) arity = static_cast<int>(a.args.size());
    }
  }
  if (arity == 0) GTEST_SKIP() << "no usable relation";
  RelationId comp = syms.Relation("complement_out", arity);
  RelationId acdom = AcdomRelation(&syms);
  Rule neg;
  std::vector<Term> xs;
  for (int i = 0; i < arity; ++i) {
    xs.push_back(syms.Variable("Nx" + std::to_string(i)));
    neg.body.emplace_back(Atom(acdom, {xs.back()}), false);
  }
  neg.body.emplace_back(Atom(r0, xs), /*negated=*/true);
  neg.head.push_back(Atom(comp, xs));
  t.AddRule(std::move(neg));
  Database db = gen.Database_(8, 3);
  auto stratified = StratifiedChase(t, db, &syms);
  ASSERT_TRUE(stratified.ok()) << stratified.status().message();
  if (!stratified.value().saturated) GTEST_SKIP();
  auto datalog = EvaluateDatalog(t, db, &syms);
  ASSERT_TRUE(datalog.ok()) << datalog.status().message();
  EXPECT_EQ(GroundFacts(stratified.value().database, t, syms),
            GroundFacts(datalog.value().database, t, syms));
}

// P11: positive existential-rule queries are monotonic (§8: this is why
// weakly guarded rules cannot express parity without negation): adding
// facts never removes ground consequences.
TEST_P(PropertyTest, PositiveTheoriesAreMonotonic) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.existential_prob = 0.3;
  Theory t = gen.Theory_(params);
  Database small = gen.Database_(5, 3);
  Database extra = gen.Database_(4, 3);
  Database large = small;
  for (const Atom& a : extra.atoms()) large.Insert(a);
  ChaseOptions opts;
  opts.max_steps = 20000;
  opts.max_atoms = 20000;
  ChaseResult r_small = Chase(t, small, &syms, opts);
  SymbolTable syms2 = syms;
  ChaseResult r_large = Chase(t, large, &syms2, opts);
  if (!r_small.saturated || !r_large.saturated) GTEST_SKIP();
  std::set<std::string> before = GroundFacts(r_small.database, t, syms);
  std::set<std::string> after = GroundFacts(r_large.database, t, syms);
  for (const std::string& fact : before) {
    EXPECT_TRUE(after.count(fact)) << "monotonicity violated: " << fact;
  }
}

// P9: MakeProper round-trips databases.
TEST_P(PropertyTest, ProperReorderingRoundTrip) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.existential_prob = 0.5;
  Theory t = gen.Theory_(params);
  Database db = gen.Database_(10, 4);
  ProperReordering pr = MakeProper(t);
  EXPECT_TRUE(IsProper(pr.theory));
  Database mapped = pr.Apply(db);
  Database back = pr.Invert(mapped);
  EXPECT_TRUE(back == db);
}

// P10: the chase result is a solution — it satisfies every rule (§2).
TEST_P(PropertyTest, ChaseResultSatisfiesTheTheory) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.existential_prob = 0.3;
  Theory t = gen.Theory_(params);
  Database db = gen.Database_(6, 3);
  ChaseOptions opts;
  opts.max_steps = 20000;
  opts.max_atoms = 20000;
  ChaseResult r = Chase(t, db, &syms, opts);
  if (!r.saturated) GTEST_SKIP();
  for (const Rule& rule : t.rules()) {
    std::vector<Atom> body = rule.PositiveBody();
    bool satisfied = true;
    ForEachHomomorphism(
        body, r.database, Substitution(), [&](const Substitution& h) {
          // Some extension of h must place the whole head in the chase.
          bool found = !ForEachHomomorphism(
              rule.head, r.database, h,
              [](const Substitution&) { return false; });
          if (!found) satisfied = false;
          return satisfied;
        });
    EXPECT_TRUE(satisfied) << "unsatisfied rule: " << ToString(rule, syms);
  }
}

// P13: weak acyclicity implies joint acyclicity, and jointly acyclic
// theories have terminating semi-oblivious (Skolem) chases.
TEST_P(PropertyTest, AcyclicityImplications) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.existential_prob = 0.5;
  params.num_rules = 5;
  Theory t = gen.Theory_(params);
  bool wa = IsWeaklyAcyclic(t);
  bool ja = ExistentialTopoOrder(BuildExistentialDependencyGraph(t), nullptr,
                                 nullptr);
  if (wa) {
    EXPECT_TRUE(ja) << "weakly acyclic but not jointly acyclic";
  }
  Database db = gen.Database_(5, 3);
  ChaseOptions opts;
  opts.max_steps = 200000;
  opts.max_atoms = 200000;
  // Both notions certify termination of the semi-oblivious (Skolem)
  // chase; the fully oblivious chase keys triggers on all body variables
  // and may diverge even on weakly acyclic theories (e.g.
  // p(x) → ∃y p(y), which has no frontier and hence no position edges).
  if (ja) {
    SymbolTable s2 = syms;
    ChaseOptions so = opts;
    so.semi_oblivious = true;
    ChaseResult r = Chase(t, db, &s2, so);
    EXPECT_TRUE(r.saturated)
        << "jointly acyclic theory with diverging semi-oblivious chase:\n"
        << ToString(t, syms);
  }
}

// P-par2: parallel saturation is byte-identical to sequential
// saturation — same closure rules in the same order, same inference
// count — for any worker-lane count.
TEST_P(PropertyTest, ParallelSaturationIsByteIdenticalToSequential) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.force_guarded = true;
  params.num_rules = 4;
  params.existential_prob = 0.5;
  Theory t = gen.Theory_(params);
  if (!Classify(t).guarded) GTEST_SKIP() << "generator failed to guard";
  SaturationOptions sopts;
  sopts.max_rules = 4000;
  SymbolTable seq_syms = syms;
  auto seq = Saturate(t, &seq_syms, sopts);
  ASSERT_TRUE(seq.ok()) << seq.status().message();
  std::string seq_closure = ToString(seq.value().closure, seq_syms);
  std::string seq_datalog = ToString(seq.value().datalog, seq_syms);
  for (size_t threads : {size_t{2}, size_t{4}}) {
    SymbolTable par_syms = syms;
    SaturationOptions popts = sopts;
    popts.num_threads = threads;
    auto par = Saturate(t, &par_syms, popts);
    ASSERT_TRUE(par.ok()) << par.status().message();
    EXPECT_EQ(par.value().complete, seq.value().complete)
        << "threads=" << threads;
    EXPECT_EQ(par.value().inferences, seq.value().inferences)
        << "threads=" << threads;
    EXPECT_EQ(ToString(par.value().closure, par_syms), seq_closure)
        << "threads=" << threads;
    EXPECT_EQ(ToString(par.value().datalog, par_syms), seq_datalog)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range(0u, 24u));

}  // namespace
}  // namespace gerel
