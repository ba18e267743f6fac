// Cross-module edge cases: behaviours at the boundaries of each
// component that the main suites do not reach.
#include <gtest/gtest.h>

#include "capture/string_database.h"
#include "chase/chase.h"
#include "core/classify.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/printer.h"
#include "datalog/evaluator.h"
#include "transform/saturation.h"

namespace gerel {
namespace {

// --- Chase ---------------------------------------------------------------

TEST(ChaseEdgeTest, AnnotatedAtomsFlowThroughTheChase) {
  SymbolTable syms;
  Theory t = ParseTheory("r[U](X) -> s[U](X).", &syms).value();
  Database db;
  RelationId r = syms.Relation("r");
  db.Insert(Atom(r, {syms.Constant("a")}, {syms.Constant("b")}));
  ChaseResult result = Chase(t, db, &syms);
  ASSERT_TRUE(result.saturated);
  RelationId s = syms.Relation("s");
  ASSERT_EQ(result.database.AtomsOf(s).size(), 1u);
  const Atom& derived = result.database.atom(result.database.AtomsOf(s)[0]);
  EXPECT_EQ(derived.annotation[0], syms.Constant("b"));
}

TEST(ChaseEdgeTest, TheoryConstantsEnterAcdom) {
  SymbolTable syms;
  Theory t = ParseTheory("-> start(c).\nacdom(X) -> seen(X).", &syms).value();
  Database db = ParseDatabase("other(d).", &syms).value();
  ChaseResult r = Chase(t, db, &syms);
  ASSERT_TRUE(r.saturated);
  RelationId seen = syms.Relation("seen");
  // Both the database constant d and the theory constant c are active.
  EXPECT_EQ(r.database.AtomsOf(seen).size(), 2u);
}

TEST(ChaseEdgeTest, MultiHeadProvenanceRecordsEveryAtom) {
  SymbolTable syms;
  Theory t =
      ParseTheory("a(X) -> exists Y. r(X, Y), s(Y, X).", &syms).value();
  Database db = ParseDatabase("a(c).", &syms).value();
  ChaseResult r = Chase(t, db, &syms);
  ASSERT_TRUE(r.saturated);
  EXPECT_EQ(r.derivation.size(), 2u);
  EXPECT_EQ(r.derivation[0].rule_index, 0u);
  EXPECT_EQ(r.derivation[1].rule_index, 0u);
}

// --- Normalization --------------------------------------------------------

TEST(NormalizeEdgeTest, ConstantInHeadOnly) {
  SymbolTable syms;
  Theory t = ParseTheory("r(X) -> tagged(X, special).", &syms).value();
  Theory n = Normalize(t, &syms);
  EXPECT_TRUE(IsNormal(n));
  // Semantics preserved.
  Database db = ParseDatabase("r(a).", &syms).value();
  ChaseResult out = Chase(n, db, &syms);
  ASSERT_TRUE(out.saturated);
  EXPECT_TRUE(out.database.Contains(
      Atom(syms.Relation("tagged"),
           {syms.Constant("a"), syms.Constant("special")})));
}

TEST(NormalizeEdgeTest, SameConstantTwiceInOneRule) {
  SymbolTable syms;
  Theory t = ParseTheory("r(X, c) -> s(c, X).", &syms).value();
  Theory n = Normalize(t, &syms);
  EXPECT_TRUE(IsNormal(n));
  Database db = ParseDatabase("r(a, c).", &syms).value();
  ChaseResult out = Chase(n, db, &syms);
  ASSERT_TRUE(out.saturated);
  EXPECT_TRUE(out.database.Contains(
      Atom(syms.Relation("s"), {syms.Constant("c"), syms.Constant("a")})));
}

TEST(NormalizeEdgeTest, HeadWithOnlyExistentials) {
  SymbolTable syms;
  Theory t = ParseTheory("trigger -> exists Y, Z. pairn(Y, Z).", &syms)
                 .value();
  EXPECT_TRUE(IsNormal(t));  // 0-ary body atom guards trivially.
  Database db = ParseDatabase("trigger.", &syms).value();
  ChaseResult out = Chase(t, db, &syms);
  ASSERT_TRUE(out.saturated);
  EXPECT_EQ(out.database.AtomsOf(syms.Relation("pairn")).size(), 1u);
}

// --- Datalog engine --------------------------------------------------------

TEST(DatalogEdgeTest, NegationOnDerivedRelationAcrossStrata) {
  SymbolTable syms;
  Theory t = ParseTheory(R"(
    e(X, Y) -> reach(Y).
    reach(X), e(X, Y) -> reach(Y).
    acdom(X), not reach(X) -> root(X).
  )",
                         &syms)
                 .value();
  Database db = ParseDatabase("e(a, b). e(b, c).", &syms).value();
  auto r = EvaluateDatalog(t, db, &syms);
  ASSERT_TRUE(r.ok());
  RelationId root = syms.Relation("root");
  ASSERT_EQ(r.value().database.AtomsOf(root).size(), 1u);
  EXPECT_TRUE(r.value().database.Contains(
      Atom(root, {syms.Constant("a")})));
}

TEST(DatalogEdgeTest, RulesWithConstantsEvaluate) {
  SymbolTable syms;
  Theory t = ParseTheory("e(a, X) -> froma(X).", &syms).value();
  Database db = ParseDatabase("e(a, b). e(c, d).", &syms).value();
  auto r = EvaluateDatalog(t, db, &syms);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().database.AtomsOf(syms.Relation("froma")).size(), 1u);
}

// --- Saturation ------------------------------------------------------------

TEST(SaturationEdgeTest, CapsMarkIncomplete) {
  SymbolTable syms;
  Theory t = ParseTheory(R"(
    a(X) -> exists Y. r(X, Y).
    r(X, Y) -> s(Y, Y).
    s(X, Y) -> exists Z. t(X, Y, Z).
    t(X, X, Y) -> b(X).
    c0(X), r(X, Y), b(Y) -> d(X).
  )",
                         &syms)
                 .value();
  SaturationOptions opts;
  opts.max_rules = 5;
  auto sat = Saturate(t, &syms, opts);
  ASSERT_TRUE(sat.ok());
  EXPECT_FALSE(sat.value().complete);
}

TEST(SaturationEdgeTest, GuardedRulesWithConstants) {
  SymbolTable syms;
  Theory t = ParseTheory(R"(
    a(X) -> exists Y. r(X, Y).
    r(c, Y) -> special(Y).
  )",
                         &syms)
                 .value();
  auto sat = Saturate(t, &syms);
  ASSERT_TRUE(sat.ok()) << sat.status().message();
  // From a(c): the composition must specialize to the constant c and let
  // dat derive special-ness for c's invented witness... which is a null,
  // so no *Datalog* consequence over constants exists; the chase check:
  Database db = ParseDatabase("a(c).", &syms).value();
  auto eval = EvaluateDatalog(sat.value().datalog, db, &syms);
  ASSERT_TRUE(eval.ok());
  ChaseResult chase = Chase(t, db, &syms);
  ASSERT_TRUE(chase.saturated);
  for (const Atom& atom : eval.value().database.atoms()) {
    if (atom.IsGroundOverConstants()) {
      EXPECT_TRUE(chase.database.Contains(atom)) << ToString(atom, syms);
    }
  }
}

// --- String databases -------------------------------------------------------

TEST(StringDbEdgeTest, CycleInNextChainIsRejected) {
  SymbolTable syms;
  StringSignature sig;
  sig.degree = 1;
  sig.alphabet = {"sym0", "sym1"};
  StringDatabase sdb =
      MakeStringDatabase({1, 0, 1}, sig, &syms).value();
  // Corrupt: make next1 loop back.
  Database broken = sdb.db;
  RelationId next1 = syms.Relation("next1");
  broken.Insert(Atom(next1, {syms.Constant("d2"), syms.Constant("d0")}));
  // d2 now has two successors... the duplicate-from check or the cycle
  // check must fire.
  EXPECT_FALSE(ExtractWord(broken, sig, &syms).ok());
}

TEST(StringDbEdgeTest, TupleWithTwoSymbolsIsRejected) {
  SymbolTable syms;
  StringSignature sig;
  sig.degree = 1;
  sig.alphabet = {"sym0", "sym1"};
  StringDatabase sdb = MakeStringDatabase({1, 0}, sig, &syms).value();
  Database broken = sdb.db;
  broken.Insert(Atom(syms.Relation("sym0"), {syms.Constant("d0")}));
  EXPECT_FALSE(ExtractWord(broken, sig, &syms).ok());
}

// --- Printer ----------------------------------------------------------------

TEST(PrinterEdgeTest, AnnotatedTheoryRoundTrip) {
  SymbolTable syms;
  Theory t = ParseTheory("e[U, V](X), f[U](Y) -> g[U, V](X).", &syms).value();
  std::string printed = ToString(t, syms);
  Result<Theory> again = ParseTheory(printed, &syms);
  ASSERT_TRUE(again.ok()) << printed;
  EXPECT_EQ(t.rules()[0], again.value().rules()[0]);
}

TEST(PrinterEdgeTest, NullsPrintStably) {
  SymbolTable syms;
  Database db;
  RelationId r = syms.Relation("r", 2);
  Term n = syms.FreshNull();
  db.Insert(Atom(r, {n, syms.Constant("a")}));
  EXPECT_EQ(ToString(db, syms), "r(_n0, a).\n");
}

}  // namespace
}  // namespace gerel
