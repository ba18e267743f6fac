// Tests for weak and joint acyclicity, including their relationship to
// chase termination.
#include <gtest/gtest.h>

#include "chase/chase.h"
#include "core/acyclicity.h"
#include "core/parser.h"

namespace gerel {
namespace {

Theory Parse(const char* text, SymbolTable* syms) {
  Result<Theory> t = ParseTheory(text, syms);
  EXPECT_TRUE(t.ok()) << t.status().message();
  return std::move(t).value();
}

// Joint acyclicity, decided as the termination ladder decides it.
bool JointlyAcyclic(const Theory& t) {
  return ExistentialTopoOrder(BuildExistentialDependencyGraph(t), nullptr,
                              nullptr);
}

TEST(AcyclicityTest, DatalogIsTriviallyAcyclic) {
  SymbolTable syms;
  Theory t = Parse("e(X, Y) -> t(X, Y).\ne(X, Y), t(Y, Z) -> t(X, Z).",
                   &syms);
  EXPECT_TRUE(IsWeaklyAcyclic(t));
  EXPECT_TRUE(JointlyAcyclic(t));
}

TEST(AcyclicityTest, SelfFeedingExistentialIsNeither) {
  SymbolTable syms;
  Theory t = Parse("r(X, Y) -> exists Z. r(Y, Z).", &syms);
  EXPECT_FALSE(IsWeaklyAcyclic(t));
  EXPECT_FALSE(JointlyAcyclic(t));
  // And indeed the chase diverges.
  Database db = ParseDatabase("r(a, b).", &syms).value();
  ChaseOptions opts;
  opts.max_steps = 100;
  EXPECT_FALSE(Chase(t, db, &syms, opts).saturated);
}

TEST(AcyclicityTest, RunningExampleIsWeaklyAcyclic) {
  SymbolTable syms;
  Theory t = Parse(R"(
    publication(X) -> exists K1, K2. keywords(X, K1, K2).
    keywords(X, K1, K2) -> hastopic(X, K1).
    hastopic(X, Z), hasauthor(X, U), hasauthor(Y, U), hastopic(Y, Z2),
      scientific(Z2), citedin(Y, X) -> scientific(Z).
    hasauthor(X, Y), hastopic(X, Z), scientific(Z) -> q(Y).
  )",
                   &syms);
  EXPECT_TRUE(IsWeaklyAcyclic(t));
  EXPECT_TRUE(JointlyAcyclic(t));
}

TEST(AcyclicityTest, JointlyButNotWeaklyAcyclic) {
  // The invented null reaches P's position (special cycle in the
  // position graph), but it can never be joined with a Q fact, so the
  // existential never re-fires: jointly acyclic, terminating chase.
  SymbolTable syms;
  Theory t = Parse(R"(
    p(X), q0(X) -> exists Y. r(X, Y).
    r(X, Y) -> p(Y).
  )",
                   &syms);
  EXPECT_FALSE(IsWeaklyAcyclic(t));
  EXPECT_TRUE(JointlyAcyclic(t));
  Database db = ParseDatabase("p(a). q0(a).", &syms).value();
  ChaseResult r = Chase(t, db, &syms);
  EXPECT_TRUE(r.saturated);
}

TEST(AcyclicityTest, WeaklyAcyclicChaseTerminates) {
  SymbolTable syms;
  Theory t = Parse(R"(
    a(X) -> exists Y. r(X, Y).
    r(X, Y) -> s(Y, Y).
    s(X, Y) -> exists Z. t(X, Y, Z).
  )",
                   &syms);
  ASSERT_TRUE(IsWeaklyAcyclic(t));
  Database db = ParseDatabase("a(c). a(d).", &syms).value();
  EXPECT_TRUE(Chase(t, db, &syms).saturated);
}

TEST(AcyclicityTest, TwoRuleFeedbackLoop) {
  SymbolTable syms;
  Theory t = Parse(R"(
    r(X, Y) -> exists Z. s(Z, X).
    s(X, Y) -> r(X, Y).
  )",
                   &syms);
  EXPECT_FALSE(IsWeaklyAcyclic(t));
  EXPECT_FALSE(JointlyAcyclic(t));
}

TEST(AcyclicityTest, EmptyTheory) {
  Theory t;
  EXPECT_TRUE(IsWeaklyAcyclic(t));
  EXPECT_TRUE(JointlyAcyclic(t));
}

TEST(AcyclicityTest, FactRulesAreAcyclic) {
  SymbolTable syms;
  Theory t = Parse("-> r(c).", &syms);
  EXPECT_TRUE(IsWeaklyAcyclic(t));
  EXPECT_TRUE(JointlyAcyclic(t));
}

}  // namespace
}  // namespace gerel
