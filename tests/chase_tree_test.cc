// Tests for chase trees (paper §4, Defs 5–6, Prop 2).
#include <gtest/gtest.h>

#include "chase/chase_tree.h"
#include "core/normalize.h"
#include "core/parser.h"

namespace gerel {
namespace {

const char* kRunningExample = R"(
  publication(X) -> exists K1, K2. keywords(X, K1, K2).
  keywords(X, K1, K2) -> hastopic(X, K1).
  hastopic(X, Z), hasauthor(X, U), hasauthor(Y, U), hastopic(Y, Z2),
    scientific(Z2), citedin(Y, X) -> scientific(Z).
  hasauthor(X, Y), hastopic(X, Z), scientific(Z) -> q(Y).
)";

const char* kRunningDatabase = R"(
  publication(p1). publication(p2). citedin(p1, p2).
  hasauthor(p1, a1). hasauthor(p2, a1). hasauthor(p2, a2).
  hastopic(p1, t1). scientific(t1).
)";

TEST(ChaseTreeTest, RunningExampleTreeShape) {
  SymbolTable syms;
  Theory t = ParseTheory(kRunningExample, &syms).value();
  Database db = ParseDatabase(kRunningDatabase, &syms).value();
  Result<ChaseTree> tree = BuildChaseTree(t, db, &syms);
  ASSERT_TRUE(tree.ok()) << tree.status().message();
  // Root plus one child per keywords inference (p1 and p2).
  EXPECT_EQ(tree.value().nodes.size(), 3u);
  EXPECT_EQ(tree.value().nodes[0].children.size(), 2u);
  // The derived hastopic/scientific atoms land inside the null nodes; the
  // q answers land in the root.
  RelationId q = syms.Relation("q");
  size_t root_q = 0;
  for (const Atom& a : tree.value().nodes[0].atoms) {
    if (a.pred == q) ++root_q;
  }
  EXPECT_EQ(root_q, 2u);
}

TEST(ChaseTreeTest, Prop2PropertiesHold) {
  SymbolTable syms;
  Theory t = ParseTheory(kRunningExample, &syms).value();
  Database db = ParseDatabase(kRunningDatabase, &syms).value();
  Result<ChaseTree> tree = BuildChaseTree(t, db, &syms);
  ASSERT_TRUE(tree.ok());
  Status s = CheckChaseTreeProperties(tree.value(), t, db);
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST(ChaseTreeTest, NonRootNodesHaveAtMostMaxArityTerms) {
  SymbolTable syms;
  Theory t = ParseTheory(kRunningExample, &syms).value();
  Database db = ParseDatabase(kRunningDatabase, &syms).value();
  ChaseTree tree = BuildChaseTree(t, db, &syms).value();
  for (size_t i = 1; i < tree.nodes.size(); ++i) {
    EXPECT_LE(tree.NodeTerms(i).size(), t.MaxArity()) << "node " << i;
  }
}

TEST(ChaseTreeTest, DeepTreeFromChainedExistentials) {
  SymbolTable syms;
  // Guarded chain: each null spawns the next; tree is a path.
  Theory t = ParseTheory(R"(
    a(X) -> exists Y. r1(X, Y).
    r1(X, Y) -> exists Z. r2(Y, Z).
    r2(X, Y) -> exists Z. r3(Y, Z).
  )",
                         &syms)
                 .value();
  Database db = ParseDatabase("a(c).", &syms).value();
  ChaseTree tree = BuildChaseTree(t, db, &syms).value();
  ASSERT_EQ(tree.nodes.size(), 4u);
  EXPECT_EQ(tree.Depth(3), 3u);
  Status s = CheckChaseTreeProperties(tree, t, db);
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST(ChaseTreeTest, DatalogAtomsOverRootTermsStayInRoot) {
  SymbolTable syms;
  Theory t = ParseTheory("e(X, Y) -> f(Y, X).", &syms).value();
  Database db = ParseDatabase("e(a, b).", &syms).value();
  ChaseTree tree = BuildChaseTree(t, db, &syms).value();
  ASSERT_EQ(tree.nodes.size(), 1u);
  EXPECT_EQ(tree.nodes[0].atoms.size(),
            db.size() + /*acdom*/ 2 + /*derived*/ 1);
}

TEST(ChaseTreeTest, FactRuleHeadsGoToRoot) {
  SymbolTable syms;
  Theory raw = ParseTheory("-> start(c).\nstart(X) -> exists Y. e(X, Y).",
                           &syms)
                   .value();
  Database db = ParseDatabase("other(d).", &syms).value();
  ChaseTree tree = BuildChaseTree(raw, db, &syms).value();
  // Root holds other(d), start(c), acdom facts; one child for e(c, _).
  ASSERT_EQ(tree.nodes.size(), 2u);
  bool root_has_start = false;
  for (const Atom& a : tree.nodes[0].atoms) {
    if (a.pred == syms.Relation("start")) root_has_start = true;
  }
  EXPECT_TRUE(root_has_start);
  Status s = CheckChaseTreeProperties(tree, raw, db);
  EXPECT_TRUE(s.ok()) << s.message();
}

TEST(ChaseTreeTest, RejectsNonNormalTheory) {
  SymbolTable syms;
  Theory t = ParseTheory("a(X) -> b(X), c(X).", &syms).value();
  Database db = ParseDatabase("a(x1).", &syms).value();
  EXPECT_FALSE(BuildChaseTree(t, db, &syms).ok());
}

TEST(ChaseTreeTest, RejectsNonFrontierGuardedTheory) {
  SymbolTable syms;
  Theory t = ParseTheory("e(X, Y), e(Y, Z) -> t(X, Z).", &syms).value();
  Database db = ParseDatabase("e(a, b).", &syms).value();
  EXPECT_FALSE(BuildChaseTree(t, db, &syms).ok());
}

TEST(ChaseTreeTest, RejectsNonTerminatingChase) {
  SymbolTable syms;
  Theory t =
      ParseTheory("r(X) -> exists Y. e(X, Y).\ne(X, Y) -> r(Y).", &syms)
          .value();
  Database db = ParseDatabase("r(c).", &syms).value();
  ChaseOptions opts;
  opts.max_steps = 20;
  EXPECT_FALSE(BuildChaseTree(t, db, &syms, opts).ok());
}

TEST(ChaseTreeTest, NormalizedRunningExampleAlsoHasTreeChase) {
  SymbolTable syms;
  Theory t = ParseTheory(kRunningExample, &syms).value();
  Theory normal = Normalize(t, &syms);
  Database db = ParseDatabase(kRunningDatabase, &syms).value();
  Result<ChaseTree> tree = BuildChaseTree(normal, db, &syms);
  ASSERT_TRUE(tree.ok()) << tree.status().message();
  Status s = CheckChaseTreeProperties(tree.value(), normal, db);
  EXPECT_TRUE(s.ok()) << s.message();
}

}  // namespace
}  // namespace gerel
