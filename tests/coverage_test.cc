// Additional coverage for thinner corners: multi-rule canonicalization,
// capture-compiler rejection paths, order-program internals, stratified
// complements over nulls, and symbol-table copy semantics.
#include <gtest/gtest.h>

#include "capture/capture_compiler.h"
#include "capture/order_program.h"
#include "capture/string_database.h"
#include "core/classify.h"
#include "core/parser.h"
#include "core/printer.h"
#include "datalog/orderings.h"
#include "stratified/stratified_chase.h"
#include "transform/canonical.h"

namespace gerel {
namespace {

TEST(SymbolTableCopyTest, CopiesAreIndependent) {
  SymbolTable a;
  a.Relation("r", 2);
  SymbolTable b = a;
  RelationId in_b = b.Relation("only_in_b", 1);
  EXPECT_NE(b.FindRelation("only_in_b"), kUnknownRelation);
  EXPECT_EQ(a.FindRelation("only_in_b"), kUnknownRelation);
  EXPECT_EQ(b.RelationName(in_b), "only_in_b");
}

TEST(CanonicalMultiRuleTest, SharedVariablesRenameConsistently) {
  SymbolTable syms;
  Rule r1 = ParseRule("cov(X, Y) -> h(X)", &syms).value();
  Rule r2 = ParseRule("h(X), rest(X, Z) -> out(Z)", &syms).value();
  Rule s1 = ParseRule("cov(A, B) -> h(A)", &syms).value();
  Rule s2 = ParseRule("h(A), rest(A, C) -> out(C)", &syms).value();
  EXPECT_EQ(CanonicalRulesString({r1, r2}, syms),
            CanonicalRulesString({s1, s2}, syms));
  // Breaking the sharing changes the pair's canonical form.
  Rule t2 = ParseRule("h(Q), rest(A, C) -> out(C)", &syms).value();
  EXPECT_NE(CanonicalRulesString({r1, r2}, syms),
            CanonicalRulesString({s1, t2}, syms));
}

TEST(CaptureCompilerRejectionTest, AlphabetMismatch) {
  SymbolTable syms;
  StringSignature sig;
  sig.degree = 1;
  sig.alphabet = {"only_one_symbol"};
  EXPECT_FALSE(
      CompileAtmToWeaklyGuarded(EvenParityMachine(), sig, &syms).ok());
}

TEST(CaptureCompilerRejectionTest, InvalidMachine) {
  SymbolTable syms;
  StringSignature sig;
  sig.degree = 1;
  sig.alphabet = {"sym0", "sym1"};
  Atm broken = EvenParityMachine();
  broken.modes.pop_back();  // Modes no longer cover every state.
  EXPECT_FALSE(CompileAtmToWeaklyGuarded(broken, sig, &syms).ok());
}

TEST(AtmSimulatorRejectionTest, BadInputs) {
  Atm m = EvenParityMachine();
  EXPECT_FALSE(SimulateAtm(m, {}).ok());        // Empty tape.
  EXPECT_FALSE(SimulateAtm(m, {0, 7}).ok());    // Symbol out of range.
}

TEST(OrderProgramInternalsTest, NoGoodOrderingWithoutConstants) {
  SymbolTable syms;
  OrderProgram prog = BuildOrderProgram(&syms);
  Database empty;
  auto result = RunOrderProgram(prog, Theory(), empty, &syms);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result.value().database.AtomsOf(prog.good).empty());
}

TEST(OrderProgramInternalsTest, SingleConstantHasOneTrivialOrder) {
  SymbolTable syms;
  OrderProgram prog = BuildOrderProgram(&syms);
  Database db = ParseDatabase("r(only, only).", &syms).value();
  auto result = RunOrderProgram(prog, Theory(), db, &syms);
  ASSERT_TRUE(result.ok());
  const Database& out = result.value().database;
  ASSERT_EQ(out.AtomsOf(prog.good).size(), 1u);
  // min = max = the single constant for that ordering.
  Term u = out.atom(out.AtomsOf(prog.good)[0]).args[0];
  bool min_ok = false, max_ok = false;
  for (uint32_t i : out.AtomsOf(prog.min)) {
    const Atom& a = out.atom(i);
    if (a.args[1] == u && a.args[0] == syms.Constant("only")) min_ok = true;
  }
  for (uint32_t i : out.AtomsOf(prog.max)) {
    const Atom& a = out.atom(i);
    if (a.args[1] == u && a.args[0] == syms.Constant("only")) max_ok = true;
  }
  EXPECT_TRUE(min_ok);
  EXPECT_TRUE(max_ok);
}

TEST(StratifiedNullTest, ComplementsRangeOverNulls) {
  // The negated relation is checked on ordering nulls: silentpair must
  // hold for the invented null (it has no loud fact).
  SymbolTable syms;
  Theory t = ParseTheory(R"(
    gen(X) -> exists Y. holds(Y).
    holds(Y), not loud(Y) -> quiet(Y).
  )",
                         &syms)
                 .value();
  Database db = ParseDatabase("gen(a).", &syms).value();
  auto result = StratifiedChase(t, db, &syms);
  ASSERT_TRUE(result.ok()) << result.status().message();
  RelationId quiet = syms.Relation("quiet");
  ASSERT_EQ(result.value().database.AtomsOf(quiet).size(), 1u);
  EXPECT_TRUE(result.value()
                  .database.atom(result.value().database.AtomsOf(quiet)[0])
                  .args[0]
                  .IsNull());
}

TEST(OrderingsEmitterTest, ProgramsAreSafeDatalog) {
  SymbolTable syms;
  for (int k = 1; k <= 3; ++k) {
    Theory program = LexTupleOrderProgram(k, &syms);
    for (const Rule& r : program.rules()) {
      EXPECT_TRUE(r.EVars().empty());
      EXPECT_TRUE(r.Validate(syms).ok()) << ToString(r, syms);
    }
  }
}

TEST(StringDatabaseDegree3Test, RoundTrip) {
  SymbolTable syms;
  StringSignature sig;
  sig.degree = 3;
  sig.alphabet = {"sym0", "sym1"};
  std::vector<int> word(8, 0);  // 2³ cells over 2 constants.
  word[3] = 1;
  word[7] = 1;
  auto sdb = MakeStringDatabase(word, sig, &syms);
  ASSERT_TRUE(sdb.ok()) << sdb.status().message();
  auto extracted = ExtractWord(sdb.value().db, sig, &syms);
  ASSERT_TRUE(extracted.ok()) << extracted.status().message();
  EXPECT_EQ(extracted.value(), word);
}

TEST(ClassifyDiagnosticsTest, AffectedPositionsRespectAnnotations) {
  // Annotation positions are flattened after the argument positions.
  SymbolTable syms;
  Theory t =
      ParseTheory("b(X) -> exists Y. r[X](Y).", &syms).value();
  PositionSet ap = AffectedPositions(t);
  RelationId r = syms.Relation("r");
  EXPECT_TRUE(ap.Contains(r, 0));   // Argument position of Y.
  EXPECT_FALSE(ap.Contains(r, 1));  // Annotation position of X.
}

}  // namespace
}  // namespace gerel
