// Tests for the §5.1 translation machinery: canonicalization, selections,
// rc-/rnc-rewritings, expansion, and rew(Σ) (Thm 1, Prop 3, Prop 4,
// Prop 5).
#include <gtest/gtest.h>

#include "chase/chase.h"
#include "core/classify.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/printer.h"
#include "transform/acdom.h"
#include "transform/canonical.h"
#include "transform/fg_to_ng.h"
#include "transform/rewriting.h"

namespace gerel {
namespace {

Rule MustParseRule(const char* text, SymbolTable* syms) {
  Result<Rule> r = ParseRule(text, syms);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

Theory MustParseTheory(const char* text, SymbolTable* syms) {
  Result<Theory> t = ParseTheory(text, syms);
  EXPECT_TRUE(t.ok()) << t.status().message();
  return std::move(t).value();
}

TEST(CanonicalTest, RenamedRulesShareCanonicalString) {
  SymbolTable syms;
  Rule a = MustParseRule("e(X, Y), e(Y, Z) -> t(X, Z)", &syms);
  Rule b = MustParseRule("e(U, V), e(V, W) -> t(U, W)", &syms);
  EXPECT_EQ(CanonicalRuleString(a, syms), CanonicalRuleString(b, syms));
}

TEST(CanonicalTest, BodyOrderDoesNotMatter) {
  SymbolTable syms;
  Rule a = MustParseRule("e(X, Y), f(Y) -> t(X)", &syms);
  Rule b = MustParseRule("f(Y), e(X, Y) -> t(X)", &syms);
  EXPECT_EQ(CanonicalRuleString(a, syms), CanonicalRuleString(b, syms));
}

TEST(CanonicalTest, DifferentRulesDiffer) {
  SymbolTable syms;
  Rule a = MustParseRule("e(X, Y) -> t(X, Y)", &syms);
  Rule b = MustParseRule("e(X, Y) -> t(Y, X)", &syms);
  Rule c = MustParseRule("e(X, X) -> t(X, X)", &syms);
  EXPECT_NE(CanonicalRuleString(a, syms), CanonicalRuleString(b, syms));
  EXPECT_NE(CanonicalRuleString(a, syms), CanonicalRuleString(c, syms));
}

TEST(CanonicalTest, RelationRenamesApply) {
  SymbolTable syms;
  Rule a = MustParseRule("h1(X) -> t(X)", &syms);
  Rule b = MustParseRule("h2(X) -> t(X)", &syms);
  RelationRenames ren;
  ren[syms.Relation("h1")] = "?H";
  RelationRenames ren2;
  ren2[syms.Relation("h2")] = "?H";
  EXPECT_EQ(CanonicalRuleString(a, syms, &ren),
            CanonicalRuleString(b, syms, &ren2));
}

TEST(SelectionTest, CountsForSmallRule) {
  SymbolTable syms;
  Rule r = MustParseRule("e(X, Y) -> t(X)", &syms);
  size_t idem = 0, full = 0;
  ForEachSelection(r, 2, /*idempotent_only=*/true, 100000,
                   [&](const SelectionParts&) {
                     ++idem;
                     return true;
                   });
  ForEachSelection(r, 2, /*idempotent_only=*/false, 100000,
                   [&](const SelectionParts&) {
                     ++full;
                     return true;
                   });
  // Only selections whose domain variables occur in covered atoms
  // survive: the sole coverable atom is e(X, Y), so dom ∈ {∅, {X, Y}}.
  // Full: empty + the 4 maps {X, Y} → {X, Y}. Idempotent: empty, id,
  // Y→X, X→Y.
  EXPECT_EQ(full, 5u);
  EXPECT_EQ(idem, 4u);
  EXPECT_LT(idem, full);
}

TEST(SelectionTest, RangeBoundIsRespected) {
  SymbolTable syms;
  Rule r = MustParseRule("e(X, Y), e(Y, Z) -> t(X)", &syms);
  ForEachSelection(r, 1, false, 100000, [&](const SelectionParts& sel) {
    EXPECT_LE(sel.mu.Range().size(), 3u);  // Multiset; distinct ≤ 1.
    std::vector<Term> distinct;
    for (Term t : sel.mu.Range()) {
      if (std::find(distinct.begin(), distinct.end(), t) == distinct.end())
        distinct.push_back(t);
    }
    EXPECT_LE(distinct.size(), 1u);
    return true;
  });
}

TEST(SelectionTest, CoverageAndKeep) {
  SymbolTable syms;
  // Example 4: σ4 with µ = {x→x, z→z}.
  Rule r = MustParseRule(
      "hasauthor(X, Y), hastopic(X, Z), scientific(Z) -> q(Y)", &syms);
  bool found = false;
  ForEachSelection(r, 3, true, 1000000, [&](const SelectionParts& sel) {
    std::vector<Term> dom = sel.mu.Domain();
    if (dom.size() == 2 &&
        std::find(dom.begin(), dom.end(), syms.Variable("X")) != dom.end() &&
        std::find(dom.begin(), dom.end(), syms.Variable("Z")) != dom.end()) {
      found = true;
      // cov = {hastopic(x,z), scientific(z)}; keep = {x}.
      EXPECT_EQ(sel.covered.size(), 2u);
      EXPECT_EQ(sel.non_covered.size(), 1u);
      EXPECT_EQ(sel.keep_rc, std::vector<Term>{syms.Variable("X")});
      EXPECT_EQ(sel.keep_rnc, std::vector<Term>{syms.Variable("X")});
      return false;
    }
    return true;
  });
  EXPECT_TRUE(found);
}

TEST(RewritingTest, RcOnExample4) {
  SymbolTable syms;
  Theory sigma = MustParseTheory(R"(
    hasauthor(X, Y), hastopic(X, Z), scientific(Z) -> q(Y).
    publication(X) -> exists K1, K2. keywords(X, K1, K2).
  )",
                                 &syms);
  const Rule& r = sigma.rules()[0];
  SignatureInfo sig = SignatureInfo::FromTheory(sigma);
  // Find the selection µ = {X→X, Z→Z}.
  SelectionParts target;
  ForEachSelection(r, sig.max_arity, true, 1000000,
                   [&](const SelectionParts& sel) {
                     std::vector<Term> dom = sel.mu.Domain();
                     Term x = syms.Variable("X");
                     Term z = syms.Variable("Z");
                     if (dom.size() == 2 &&
                         std::find(dom.begin(), dom.end(), x) != dom.end() &&
                         std::find(dom.begin(), dom.end(), z) != dom.end() &&
                         sel.mu.Apply(x) == x && sel.mu.Apply(z) == z) {
                       target = sel;
                       return false;
                     }
                     return true;
                   });
  ASSERT_EQ(target.keep_rc.size(), 1u);
  ASSERT_TRUE(RcApplicable(r, target));
  RelationId h = syms.Relation("auxh", 1);
  Atom fresh = MakeFreshHead(h, target.keep_rc, target, r);
  RewriteSet set = RcRewritings(r, target, sig, fresh, &syms);
  ASSERT_FALSE(set.primes.empty());
  ASSERT_EQ(set.seconds.size(), 1u);
  // Every σ′ is guarded; σ″ = h(X) ∧ hasauthor(X, Y) → q(Y) is guarded.
  for (const Rule& p : set.primes) {
    EXPECT_TRUE(IsGuardedRule(p)) << ToString(p, syms);
    EXPECT_EQ(p.head[0].pred, h);
  }
  EXPECT_TRUE(IsGuardedRule(set.seconds[0]));
  EXPECT_EQ(set.seconds[0].body.size(), 2u);
}

TEST(RewritingTest, RncOnExample6) {
  SymbolTable syms;
  Theory sigma = MustParseTheory(R"(
    hastopic(X, Z), hasauthor(X, U), hasauthor(Y, U), hastopic(Y, Z2),
      scientific(Z2), citedin(Y, X) -> scientific(Z).
    publication(X) -> exists K1, K2. keywords(X, K1, K2).
  )",
                                 &syms);
  const Rule& r = sigma.rules()[0];
  SignatureInfo sig = SignatureInfo::FromTheory(sigma);
  SelectionParts target;
  bool found = false;
  ForEachSelection(r, sig.max_arity, true, 10000000,
                   [&](const SelectionParts& sel) {
                     std::vector<Term> dom = sel.mu.Domain();
                     if (dom.size() == 2 &&
                         std::find(dom.begin(), dom.end(),
                                   syms.Variable("X")) != dom.end() &&
                         std::find(dom.begin(), dom.end(),
                                   syms.Variable("Z")) != dom.end() &&
                         sel.mu.Apply(syms.Variable("X")) ==
                             syms.Variable("X") &&
                         sel.mu.Apply(syms.Variable("Z")) ==
                             syms.Variable("Z")) {
                       target = sel;
                       found = true;
                       return false;
                     }
                     return true;
                   });
  ASSERT_TRUE(found);
  ASSERT_TRUE(RncApplicable(r, target));
  ASSERT_EQ(target.keep_rnc.size(), 1u);  // Example 6: keep = {x}.
  RelationId h = syms.Relation("auxh2", 1);
  Atom fresh = MakeFreshHead(h, target.keep_rnc, target, r);
  RewriteSet set = RncRewritings(r, target, sig, fresh, &syms);
  ASSERT_FALSE(set.primes.empty());
  ASSERT_FALSE(set.seconds.empty());
  for (const Rule& p : set.primes) {
    EXPECT_TRUE(IsFrontierGuardedRule(p)) << ToString(p, syms);
  }
  for (const Rule& s : set.seconds) {
    EXPECT_TRUE(IsGuardedRule(s)) << ToString(s, syms);
  }
}

TEST(RewritingTest, RncRequiresHeadVarsInDomain) {
  SymbolTable syms;
  Rule r = MustParseRule("e(X, Y), f(Y, Z) -> t(X)", &syms);
  // µ = {Y→Y}: head var X not in dom → rnc must refuse (σ″ would derive
  // t(X) for arbitrary X).
  ForEachSelection(r, 2, true, 100000, [&](const SelectionParts& sel) {
    std::vector<Term> dom = sel.mu.Domain();
    if (dom.size() == 1 && dom[0] == syms.Variable("Y")) {
      EXPECT_FALSE(RncApplicable(r, sel));
      return false;
    }
    return true;
  });
}

// The three-cycle theory: frontier-guarded, with a cycle that only closes
// through labeled nulls, so answering requires the expansion rules (the
// acdom-guarded original rule cannot fire on nulls).
const char* kNullCycleTheory = R"(
  a(X) -> exists Y1, Y2. r(X, Y1), r(Y1, Y2), r(Y2, X).
  r(X0, X1), r(X1, X2), r(X2, X0) -> p(X0).
)";

TEST(ExpandTest, ClosesAndStaysFinite) {
  SymbolTable syms;
  Theory raw = MustParseTheory(kNullCycleTheory, &syms);
  Theory normal = Normalize(raw, &syms);
  Result<ExpansionResult> ex = Expand(normal, &syms);
  ASSERT_TRUE(ex.ok()) << ex.status().message();
  EXPECT_TRUE(ex.value().complete);
  EXPECT_GT(ex.value().theory.size(), normal.size());
  // Closure: every rule is either guarded or Datalog (no new existential
  // rules are created).
  size_t existential = 0;
  for (const Rule& r : ex.value().theory.rules()) {
    if (!r.EVars().empty()) {
      ++existential;
      EXPECT_TRUE(IsGuardedRule(r));
    }
  }
  EXPECT_EQ(existential, 1u);
}

TEST(ExpandTest, RejectsNonNormalInput) {
  SymbolTable syms;
  Theory raw = MustParseTheory(kNullCycleTheory, &syms);
  EXPECT_FALSE(Expand(raw, &syms).ok());  // Multi-atom head.
}

TEST(RewriteFgTest, OutputIsNearlyGuarded) {
  SymbolTable syms;
  Theory normal = Normalize(MustParseTheory(kNullCycleTheory, &syms), &syms);
  Result<RewriteResult> rew = RewriteFgToNearlyGuarded(normal, &syms);
  ASSERT_TRUE(rew.ok()) << rew.status().message();
  EXPECT_TRUE(rew.value().complete);
  EXPECT_TRUE(Classify(rew.value().theory).nearly_guarded);
}

TEST(RewriteFgTest, Theorem1NullCycleAnswersPreserved) {
  SymbolTable syms;
  Theory raw = MustParseTheory(kNullCycleTheory, &syms);
  Theory normal = Normalize(raw, &syms);
  Result<RewriteResult> rew = RewriteFgToNearlyGuarded(normal, &syms);
  ASSERT_TRUE(rew.ok()) << rew.status().message();
  Database db = ParseDatabase("a(c). a(d).", &syms).value();
  RelationId p = syms.Relation("p");
  std::set<std::vector<Term>> original = ChaseAnswers(raw, db, p, &syms);
  std::set<std::vector<Term>> normalized = ChaseAnswers(normal, db, p, &syms);
  std::set<std::vector<Term>> rewritten =
      ChaseAnswers(rew.value().theory, db, p, &syms);
  // The cycle closes only through nulls: p(c) and p(d) hold.
  std::set<std::vector<Term>> expected = {{syms.Constant("c")},
                                          {syms.Constant("d")}};
  EXPECT_EQ(original, expected);
  EXPECT_EQ(normalized, expected);
  EXPECT_EQ(rewritten, expected);
}

TEST(RewriteFgTest, Theorem1RunningExample) {
  SymbolTable syms;
  Theory raw = MustParseTheory(R"(
    publication(X) -> exists K1, K2. keywords(X, K1, K2).
    keywords(X, K1, K2) -> hastopic(X, K1).
    hastopic(X, Z), hasauthor(X, U), hasauthor(Y, U), hastopic(Y, Z2),
      scientific(Z2), citedin(Y, X) -> scientific(Z).
    hasauthor(X, Y), hastopic(X, Z), scientific(Z) -> q(Y).
  )",
                               &syms);
  Theory normal = Normalize(raw, &syms);
  ExpansionOptions opts;
  opts.max_rules = 200000;
  Result<RewriteResult> rew = RewriteFgToNearlyGuarded(normal, &syms, opts);
  ASSERT_TRUE(rew.ok()) << rew.status().message();
  EXPECT_TRUE(rew.value().complete);
  Database db = ParseDatabase(R"(
    publication(p1). publication(p2). citedin(p1, p2).
    hasauthor(p1, a1). hasauthor(p2, a1). hasauthor(p2, a2).
    hastopic(p1, t1). scientific(t1).
  )",
                              &syms)
                    .value();
  RelationId q = syms.Relation("q");
  std::set<std::vector<Term>> original = ChaseAnswers(raw, db, q, &syms);
  ChaseOptions big;
  big.max_steps = 5000000;
  big.max_atoms = 5000000;
  std::set<std::vector<Term>> rewritten =
      ChaseAnswers(rew.value().theory, db, q, &syms, big);
  EXPECT_EQ(original, rewritten);
  EXPECT_EQ(original.size(), 2u);
}

TEST(RewriteFgTest, NoFalsePositivesOnCycleFreeDatabase) {
  SymbolTable syms;
  Theory normal = Normalize(MustParseTheory(kNullCycleTheory, &syms), &syms);
  Result<RewriteResult> rew = RewriteFgToNearlyGuarded(normal, &syms);
  ASSERT_TRUE(rew.ok());
  // r-chain with no cycle, no a-facts: no p answers.
  Database db = ParseDatabase("r(u, v). r(v, w).", &syms).value();
  RelationId p = syms.Relation("p");
  EXPECT_TRUE(ChaseAnswers(rew.value().theory, db, p, &syms).empty());
}

TEST(RewriteFgTest, ConstantCyclesStillWork) {
  SymbolTable syms;
  Theory normal = Normalize(MustParseTheory(kNullCycleTheory, &syms), &syms);
  Result<RewriteResult> rew = RewriteFgToNearlyGuarded(normal, &syms);
  ASSERT_TRUE(rew.ok());
  // A cycle over constants: handled by the acdom-guarded original rule.
  Database db = ParseDatabase("r(u, v). r(v, w). r(w, u).", &syms).value();
  RelationId p = syms.Relation("p");
  std::set<std::vector<Term>> expected = {
      {syms.Constant("u")}, {syms.Constant("v")}, {syms.Constant("w")}};
  EXPECT_EQ(ChaseAnswers(rew.value().theory, db, p, &syms), expected);
}

TEST(RewriteNfgTest, Proposition4TransitiveClosureMix) {
  // Nearly frontier-guarded: a frontier-guarded existential part plus a
  // safe transitive-closure part (not frontier-guarded).
  SymbolTable syms2;
  Theory theory = MustParseTheory(R"(
    e(X, Y) -> t(X, Y).
    e(X, Y), t(Y, Z) -> t(X, Z).
    t(X, Y) -> exists W. w(Y, W).
  )",
                                  &syms2);
  Classification c = Classify(theory);
  ASSERT_TRUE(c.nearly_frontier_guarded);
  ASSERT_FALSE(c.frontier_guarded);
  Result<RewriteResult> rew = RewriteNfgToNearlyGuarded(theory, &syms2);
  ASSERT_TRUE(rew.ok()) << rew.status().message();
  EXPECT_TRUE(Classify(rew.value().theory).nearly_guarded);
  Database db = ParseDatabase("e(a, b). e(b, c).", &syms2).value();
  RelationId t = syms2.Relation("t");
  EXPECT_EQ(ChaseAnswers(theory, db, t, &syms2),
            ChaseAnswers(rew.value().theory, db, t, &syms2));
}

TEST(AcdomTest, Proposition5EliminatesBuiltin) {
  SymbolTable syms;
  // A nearly guarded theory using acdom.
  Theory theory = MustParseTheory(R"(
    e(X, Y), acdom(X), acdom(Y) -> t(X, Y).
    t(X, Y), t(Y, Z), acdom(X), acdom(Y), acdom(Z) -> t(X, Z).
  )",
                                  &syms);
  AcdomAxiomatization star = AxiomatizeAcdom(theory, &syms);
  // The starred theory mentions acdom only through acdom*.
  RelationId acdom = AcdomRelation(&syms);
  for (const Rule& r : star.theory.rules()) {
    for (const Literal& l : r.body) EXPECT_NE(l.atom.pred, acdom);
  }
  Database db = ParseDatabase("e(a, b). e(b, c).", &syms).value();
  RelationId t = syms.Relation("t");
  std::set<std::vector<Term>> with_builtin =
      ChaseAnswers(theory, db, t, &syms);
  ChaseOptions no_builtin;
  no_builtin.populate_acdom = false;
  std::set<std::vector<Term>> with_axioms = ChaseAnswers(
      star.theory, db, star.Starred(t), &syms, no_builtin);
  EXPECT_EQ(with_builtin, with_axioms);
  EXPECT_EQ(with_builtin.size(), 3u);
}

TEST(AcdomTest, TheoryConstantsGetAcdomStarFacts) {
  SymbolTable syms;
  Theory theory = MustParseTheory("-> r(c).\nacdom(X) -> s(X).", &syms);
  AcdomAxiomatization star = AxiomatizeAcdom(theory, &syms);
  bool has_const_fact = false;
  for (const Rule& r : star.theory.rules()) {
    if (r.IsFact() &&
        r.head[0].pred == syms.Relation(std::string(kAcdomName) + "*")) {
      has_const_fact = true;
    }
  }
  EXPECT_TRUE(has_const_fact);
}

}  // namespace
}  // namespace gerel
