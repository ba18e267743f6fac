// Unit tests for affected positions, unsafe variables, and the seven
// guardedness classes of paper §3 (Figure 1 syntactic memberships).
#include <gtest/gtest.h>

#include "core/classify.h"
#include "core/parser.h"

namespace gerel {
namespace {

// The running example Σp of paper Example 1 (σ1–σ4).
const char* kRunningExample = R"(
  publication(X) -> exists K1, K2. keywords(X, K1, K2).
  keywords(X, K1, K2) -> hastopic(X, K1).
  hastopic(X, Z), hasauthor(X, U), hasauthor(Y, U), hastopic(Y, Z2),
    scientific(Z2), citedin(Y, X) -> scientific(Z).
  hasauthor(X, Y), hastopic(X, Z), scientific(Z) -> q(Y).
)";

// Transitive closure: the paper's classic "not frontier-guarded" query.
const char* kTransitiveClosure = R"(
  e(X, Y) -> t(X, Y).
  e(X, Y), t(Y, Z) -> t(X, Z).
)";

Theory Parse(const char* text, SymbolTable* syms) {
  Result<Theory> t = ParseTheory(text, syms);
  EXPECT_TRUE(t.ok()) << t.status().message();
  return std::move(t).value();
}

TEST(AffectedPositionsTest, ExistentialHeadPositionsAreAffected) {
  SymbolTable syms;
  Theory t = Parse("publication(X) -> exists K1, K2. keywords(X, K1, K2).",
                   &syms);
  PositionSet ap = AffectedPositions(t);
  RelationId kw = syms.Relation("keywords");
  EXPECT_FALSE(ap.Contains(kw, 0));
  EXPECT_TRUE(ap.Contains(kw, 1));
  EXPECT_TRUE(ap.Contains(kw, 2));
  EXPECT_EQ(ap.size(), 2u);
}

TEST(AffectedPositionsTest, PropagationThroughRules) {
  SymbolTable syms;
  Theory t = Parse(kRunningExample, &syms);
  PositionSet ap = AffectedPositions(t);
  // keywords positions 2, 3 (indices 1, 2) are affected; σ2 propagates the
  // second keyword position into hastopic's 2nd position; σ3 propagates
  // hastopic's 2nd into scientific's 1st.
  EXPECT_TRUE(ap.Contains(syms.Relation("hastopic"), 1));
  EXPECT_FALSE(ap.Contains(syms.Relation("hastopic"), 0));
  EXPECT_TRUE(ap.Contains(syms.Relation("scientific"), 0));
  EXPECT_FALSE(ap.Contains(syms.Relation("hasauthor"), 0));
  EXPECT_FALSE(ap.Contains(syms.Relation("hasauthor"), 1));
}

TEST(AffectedPositionsTest, DatalogTheoryHasNoAffectedPositions) {
  SymbolTable syms;
  Theory t = Parse(kTransitiveClosure, &syms);
  EXPECT_EQ(AffectedPositions(t).size(), 0u);
}

TEST(UnsafeVarsTest, RunningExampleSigma3) {
  SymbolTable syms;
  Theory t = Parse(kRunningExample, &syms);
  PositionSet ap = AffectedPositions(t);
  const Rule& sigma3 = t.rules()[2];
  std::vector<Term> unsafe = UnsafeVars(sigma3, ap);
  // Z occurs only at hastopic[2] (affected); Z2 occurs at hastopic[2] and
  // scientific[1] (both affected). X, Y, U are safe.
  EXPECT_EQ(unsafe.size(), 2u);
  EXPECT_NE(std::find(unsafe.begin(), unsafe.end(), syms.Variable("Z")),
            unsafe.end());
  EXPECT_NE(std::find(unsafe.begin(), unsafe.end(), syms.Variable("Z2")),
            unsafe.end());
}

TEST(ClassifyTest, RunningExampleIsFrontierGuardedNotWeaklyGuarded) {
  SymbolTable syms;
  Theory t = Parse(kRunningExample, &syms);
  Classification c = Classify(t);
  EXPECT_FALSE(c.datalog);
  EXPECT_FALSE(c.guarded);
  EXPECT_TRUE(c.frontier_guarded);
  // σ3 has unsafe vars Z, Z2 in no single atom: not weakly guarded. This
  // witnesses that frontier-guarded ⊄ weakly guarded syntactically
  // (Figure 1 has no '*' edge between them).
  EXPECT_FALSE(c.weakly_guarded);
  EXPECT_TRUE(c.weakly_frontier_guarded);
  EXPECT_FALSE(c.nearly_guarded);
  EXPECT_TRUE(c.nearly_frontier_guarded);
}

TEST(ClassifyTest, TransitiveClosureIsDatalogAndNearlyGuarded) {
  SymbolTable syms;
  Theory t = Parse(kTransitiveClosure, &syms);
  Classification c = Classify(t);
  EXPECT_TRUE(c.datalog);
  EXPECT_FALSE(c.guarded);
  EXPECT_FALSE(c.frontier_guarded);  // fvars {X, Z} in no single atom.
  EXPECT_TRUE(c.weakly_guarded);
  EXPECT_TRUE(c.weakly_frontier_guarded);
  EXPECT_TRUE(c.nearly_guarded);
  EXPECT_TRUE(c.nearly_frontier_guarded);
}

TEST(ClassifyTest, WeaklyGuardedButNotGuarded) {
  SymbolTable syms;
  Theory t = Parse(R"(
    r(X) -> exists Y. e(X, Y).
    e(X, Y), e(Y, Z) -> e(X, Z).
  )",
                   &syms);
  Classification c = Classify(t);
  EXPECT_FALSE(c.guarded);
  EXPECT_FALSE(c.frontier_guarded);
  EXPECT_TRUE(c.weakly_guarded);
  EXPECT_TRUE(c.weakly_frontier_guarded);
  EXPECT_FALSE(c.nearly_guarded);
  EXPECT_FALSE(c.nearly_frontier_guarded);
}

TEST(ClassifyTest, GuardedTheory) {
  SymbolTable syms;
  Theory t = Parse(R"(
    a(X) -> exists Y. r(X, Y).
    r(X, Y) -> s(Y, Y).
    s(X, Y) -> exists Z. t(X, Y, Z).
    t(X, X, Y) -> b(X).
  )",
                   &syms);
  Classification c = Classify(t);
  EXPECT_TRUE(c.guarded);
  EXPECT_TRUE(c.frontier_guarded);
  EXPECT_TRUE(c.weakly_guarded);
  EXPECT_TRUE(c.weakly_frontier_guarded);
  EXPECT_TRUE(c.nearly_guarded);
  EXPECT_TRUE(c.nearly_frontier_guarded);
}

TEST(ClassifyTest, SyntacticInclusionsOfFigure1) {
  // Every guarded theory is frontier-guarded, weakly guarded, nearly
  // guarded; every frontier-guarded theory is weakly frontier-guarded and
  // nearly frontier-guarded; Datalog is nearly guarded iff safe vars only.
  SymbolTable syms;
  Theory guarded = Parse("r(X, Y), s(X, Y) -> t(X, Y).", &syms);
  // (r or s alone guards both variables... make the guard explicit)
  Classification c = Classify(guarded);
  EXPECT_TRUE(c.guarded);
  EXPECT_TRUE(c.frontier_guarded);
  EXPECT_TRUE(c.weakly_guarded);
  EXPECT_TRUE(c.weakly_frontier_guarded);
  EXPECT_TRUE(c.nearly_guarded);
  EXPECT_TRUE(c.nearly_frontier_guarded);
}

TEST(ClassifyTest, EmptyBodyRulesAreGuarded) {
  SymbolTable syms;
  Theory t = Parse("-> r(c).", &syms);
  Classification c = Classify(t);
  EXPECT_TRUE(c.guarded);
  EXPECT_TRUE(c.nearly_guarded);
}

TEST(ClassifyTest, NegationIsIgnoredForGuardChecks) {
  SymbolTable syms;
  // The negative literal's variables need no guard (weak guardedness is
  // defined on the negation-free part, paper §8).
  Theory t = Parse(R"(
    r(X) -> exists Y. e(X, Y).
    e(X, Y), not bad(Y) -> good(Y).
  )",
                   &syms);
  Classification c = Classify(t);
  EXPECT_TRUE(c.weakly_guarded);
  EXPECT_FALSE(c.datalog);
}

TEST(FrontierGuardTest, PicksFirstCoveringAtom) {
  SymbolTable syms;
  Result<Rule> r =
      ParseRule("hasauthor(X, Y), hastopic(X, Z), scientific(Z) -> q(Y)",
                &syms);
  ASSERT_TRUE(r.ok());
  const Atom* g = FrontierGuardOrNull(r.value());
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->pred, syms.Relation("hasauthor"));
}

TEST(FrontierGuardTest, NullWhenNoGuardExists) {
  SymbolTable syms;
  Result<Rule> r = ParseRule("e(X, Y), t(Y, Z) -> t(X, Z)", &syms);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(FrontierGuardOrNull(r.value()), nullptr);
}

TEST(ProperTest, ReorderingMakesAffectedPositionsAPrefix) {
  SymbolTable syms;
  // keywords has affected positions 2, 3 and non-affected 1: not proper.
  Theory t = Parse(R"(
    publication(X) -> exists K1, K2. keywords(X, K1, K2).
    keywords(X, K1, K2) -> hastopic(X, K1).
  )",
                   &syms);
  EXPECT_FALSE(IsProper(t));
  ProperReordering pr = MakeProper(t);
  EXPECT_TRUE(IsProper(pr.theory));
  // The database transform must be consistent with the rule transform.
  Database db = ParseDatabase("keywords(p, k1, k2).", &syms).value();
  Database mapped = pr.Apply(db);
  EXPECT_EQ(mapped.size(), 1u);
  Database back = pr.Invert(mapped);
  EXPECT_TRUE(back == db);
}

TEST(ProperTest, ProperTheoryIsUnchangedUpToIdentityPermutation) {
  SymbolTable syms;
  Theory t = Parse("r(X) -> exists Y. e(Y, X).", &syms);
  // (e, 1) is affected, (e, 2) is not: prefix, already proper.
  EXPECT_TRUE(IsProper(t));
  ProperReordering pr = MakeProper(t);
  EXPECT_EQ(pr.theory.rules()[0], t.rules()[0]);
}

}  // namespace
}  // namespace gerel
