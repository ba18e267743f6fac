// Tests for the §8 capturing machinery: string databases (Def 20), the
// alternating TM substrate, the Thm 4 compilation into weakly guarded
// rules, Σsucc (Thm 5), and Σcode.
#include <gtest/gtest.h>

#include "capture/capture_compiler.h"
#include "capture/code_program.h"
#include "capture/order_program.h"
#include "capture/string_database.h"
#include "capture/turing_machine.h"
#include "core/classify.h"
#include "core/parser.h"
#include "core/printer.h"
#include "datalog/evaluator.h"

namespace gerel {
namespace {

StringSignature BinarySignature(int degree = 1) {
  StringSignature sig;
  sig.degree = degree;
  sig.alphabet = {"sym0", "sym1"};
  return sig;
}

TEST(StringDatabaseTest, RoundTripDegree1) {
  SymbolTable syms;
  std::vector<int> word = {1, 0, 1};
  Result<StringDatabase> sdb =
      MakeStringDatabase(word, BinarySignature(), &syms);
  ASSERT_TRUE(sdb.ok()) << sdb.status().message();
  EXPECT_EQ(sdb.value().domain.size(), 3u);
  Result<std::vector<int>> extracted =
      ExtractWord(sdb.value().db, BinarySignature(), &syms);
  ASSERT_TRUE(extracted.ok()) << extracted.status().message();
  EXPECT_EQ(extracted.value(), word);
}

TEST(StringDatabaseTest, RoundTripDegree2) {
  SymbolTable syms;
  std::vector<int> word = {1, 0, 0, 1};  // 2² cells over 2 constants.
  Result<StringDatabase> sdb =
      MakeStringDatabase(word, BinarySignature(2), &syms);
  ASSERT_TRUE(sdb.ok()) << sdb.status().message();
  EXPECT_EQ(sdb.value().domain.size(), 2u);
  Result<std::vector<int>> extracted =
      ExtractWord(sdb.value().db, BinarySignature(2), &syms);
  ASSERT_TRUE(extracted.ok());
  EXPECT_EQ(extracted.value(), word);
}

TEST(StringDatabaseTest, RejectsNonPowerLengthsForDegree2) {
  SymbolTable syms;
  EXPECT_FALSE(MakeStringDatabase({1, 0, 1}, BinarySignature(2), &syms).ok());
}

TEST(StringDatabaseTest, DetectsMissingSymbols) {
  SymbolTable syms;
  StringDatabase sdb =
      MakeStringDatabase({1, 0, 1}, BinarySignature(), &syms).value();
  // Build a copy without one symbol fact.
  Database broken;
  RelationId sym1 = syms.Relation("sym1");
  bool skipped = false;
  for (const Atom& a : sdb.db.atoms()) {
    if (!skipped && a.pred == sym1) {
      skipped = true;
      continue;
    }
    broken.Insert(a);
  }
  EXPECT_FALSE(ExtractWord(broken, BinarySignature(), &syms).ok());
}

TEST(AtmSimulatorTest, CannedMachinesMatchTheirSpecifications) {
  struct Case {
    Atm machine;
    std::function<bool(const std::vector<int>&)> spec;
  };
  std::vector<Case> cases;
  cases.push_back({FirstSymbolIsOneMachine(),
                   [](const std::vector<int>& w) { return w[0] == 1; }});
  cases.push_back({EvenParityMachine(), [](const std::vector<int>& w) {
                     int ones = 0;
                     for (int s : w) ones += s;
                     return ones % 2 == 0;
                   }});
  cases.push_back({AllOnesUniversalMachine(),
                   [](const std::vector<int>& w) {
                     for (int s : w) {
                       if (s != 1) return false;
                     }
                     return true;
                   }});
  cases.push_back({SomeOneExistentialMachine(),
                   [](const std::vector<int>& w) {
                     for (int s : w) {
                       if (s == 1) return true;
                     }
                     return false;
                   }});
  cases.push_back({FirstEqualsLastMachine(), [](const std::vector<int>& w) {
                     return w.front() == w.back();
                   }});
  cases.push_back({OnesDivisibleByThreeMachine(),
                   [](const std::vector<int>& w) {
                     int ones = 0;
                     for (int s : w) ones += s;
                     return ones % 3 == 0;
                   }});
  for (const Case& c : cases) {
    for (int len = 1; len <= 5; ++len) {
      for (int bits = 0; bits < (1 << len); ++bits) {
        std::vector<int> word(len);
        for (int i = 0; i < len; ++i) word[i] = (bits >> i) & 1;
        Result<AtmSimResult> sim = SimulateAtm(c.machine, word);
        ASSERT_TRUE(sim.ok()) << c.machine.name;
        EXPECT_EQ(sim.value().accepted, c.spec(word))
            << c.machine.name << " on " << bits << " len " << len;
      }
    }
  }
}

TEST(AtmSimulatorTest, BinaryCounterRunsExponentiallyLong) {
  Atm m = BinaryCounterMachine();
  // Canonical input: marked zero followed by zeros.
  for (int n = 1; n <= 6; ++n) {
    std::vector<int> word(n, 0);
    word[0] = 2;
    Result<AtmSimResult> sim = SimulateAtm(m, word);
    ASSERT_TRUE(sim.ok());
    EXPECT_TRUE(sim.value().accepted) << n;
    // The configuration count grows like 2^n (the counter values).
    if (n >= 3) {
      std::vector<int> prev(n - 1, 0);
      prev[0] = 2;
      size_t prev_configs = SimulateAtm(m, prev).value().configurations;
      EXPECT_GT(sim.value().configurations, prev_configs * 3 / 2) << n;
    }
  }
}

TEST(AtmSimulatorTest, BinaryCounterSpec) {
  // Accepts iff the word uses only {0, m0} symbols and contains a mark.
  Atm m = BinaryCounterMachine();
  for (int len = 1; len <= 3; ++len) {
    int total = 1;
    for (int i = 0; i < len; ++i) total *= 4;
    for (int code = 0; code < total; ++code) {
      std::vector<int> word(len);
      int c = code;
      for (int i = 0; i < len; ++i) {
        word[i] = c % 4;
        c /= 4;
      }
      bool expected = true;
      bool has_mark = false;
      for (int s : word) {
        if (s == 1 || s == 3) expected = false;
        if (s == 2) has_mark = true;
      }
      expected = expected && has_mark;
      Result<AtmSimResult> sim = SimulateAtm(m, word);
      ASSERT_TRUE(sim.ok());
      EXPECT_EQ(sim.value().accepted, expected) << "word code " << code
                                                << " len " << len;
    }
  }
}

TEST(CaptureCompilerTest, BinaryCounterViaWeaklyGuardedRules) {
  SymbolTable syms;
  StringSignature sig;
  sig.degree = 1;
  sig.alphabet = {"c0", "c1", "cm0", "cm1"};
  Atm m = BinaryCounterMachine();
  auto compiled = CompileAtmToWeaklyGuarded(m, sig, &syms);
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  EXPECT_TRUE(Classify(compiled.value().theory).weakly_guarded);
  for (int n = 2; n <= 3; ++n) {
    std::vector<int> word(n, 0);
    word[0] = 2;
    StringDatabase sdb = MakeStringDatabase(word, sig, &syms).value();
    uint32_t hint = static_cast<uint32_t>((1 << n) * (2 * n + 2) + 8);
    Result<bool> accepted = DecideAcceptanceViaChase(
        compiled.value(), sdb.db, &syms, hint);
    ASSERT_TRUE(accepted.ok()) << accepted.status().message();
    EXPECT_TRUE(accepted.value()) << n;
  }
}

TEST(AtmValidateTest, RejectsOverlappingTransitions) {
  Atm m = FirstSymbolIsOneMachine();
  m.transitions.push_back({0, 1, AtEnd::kOnlyAtEnd, {{1, Dir::kStay, 1}}});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(AtmValidateTest, RejectsTransitionsFromHaltingStates) {
  Atm m = FirstSymbolIsOneMachine();
  m.transitions.push_back({1, 0, AtEnd::kAny, {{0, Dir::kStay, 1}}});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(CaptureCompilerTest, CompiledTheoryIsWeaklyGuarded) {
  for (const Atm& m :
       {FirstSymbolIsOneMachine(), EvenParityMachine(),
        AllOnesUniversalMachine(), SomeOneExistentialMachine()}) {
    SymbolTable syms;
    Result<CaptureCompilation> compiled =
        CompileAtmToWeaklyGuarded(m, BinarySignature(), &syms);
    ASSERT_TRUE(compiled.ok()) << m.name;
    Classification c = Classify(compiled.value().theory);
    EXPECT_TRUE(c.weakly_guarded) << m.name;
    EXPECT_FALSE(c.guarded) << m.name;  // Copy rules join across atoms.
  }
}

TEST(CaptureCompilerTest, Theorem4AgreementWithSimulator) {
  for (const Atm& m :
       {FirstSymbolIsOneMachine(), EvenParityMachine(),
        AllOnesUniversalMachine(), SomeOneExistentialMachine(),
        FirstEqualsLastMachine(), OnesDivisibleByThreeMachine()}) {
    SymbolTable syms;
    Result<CaptureCompilation> compiled =
        CompileAtmToWeaklyGuarded(m, BinarySignature(), &syms);
    ASSERT_TRUE(compiled.ok());
    for (int len = 2; len <= 3; ++len) {
      for (int bits = 0; bits < (1 << len); ++bits) {
        std::vector<int> word(len);
        for (int i = 0; i < len; ++i) word[i] = (bits >> i) & 1;
        StringDatabase sdb =
            MakeStringDatabase(word, BinarySignature(), &syms).value();
        bool expected = SimulateAtm(m, word).value().accepted;
        Result<bool> via_rules = DecideAcceptanceViaChase(
            compiled.value(), sdb.db, &syms, /*max_steps_hint=*/2 * len + 4);
        ASSERT_TRUE(via_rules.ok())
            << m.name << ": " << via_rules.status().message();
        EXPECT_EQ(via_rules.value(), expected)
            << m.name << " on word bits " << bits << " len " << len;
      }
    }
  }
}

TEST(CaptureCompilerTest, Theorem4Degree2) {
  SymbolTable syms;
  Atm m = EvenParityMachine();
  Result<CaptureCompilation> compiled =
      CompileAtmToWeaklyGuarded(m, BinarySignature(2), &syms);
  ASSERT_TRUE(compiled.ok());
  std::vector<int> word = {1, 0, 1, 0};  // Two ones: even.
  StringDatabase sdb =
      MakeStringDatabase(word, BinarySignature(2), &syms).value();
  Result<bool> accepted = DecideAcceptanceViaChase(compiled.value(), sdb.db,
                                                   &syms, 12);
  ASSERT_TRUE(accepted.ok()) << accepted.status().message();
  EXPECT_TRUE(accepted.value());
}

TEST(OrderProgramTest, IsStratifiedWeaklyGuarded) {
  SymbolTable syms;
  OrderProgram prog = BuildOrderProgram(&syms);
  EXPECT_TRUE(IsStratifiedWeaklyGuarded(prog.theory));
}

TEST(OrderProgramTest, GoodOrderingsAreExactlyThePermutations) {
  SymbolTable syms;
  OrderProgram prog = BuildOrderProgram(&syms);
  Database db = ParseDatabase("r(a, b). r(b, c).", &syms).value();
  Result<StratifiedChaseResult> result =
      RunOrderProgram(prog, Theory(), db, &syms);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // Domain {a, b, c}: 3! = 6 good orderings.
  EXPECT_EQ(result.value().database.AtomsOf(prog.good).size(), 6u);
}

TEST(OrderProgramTest, GoodOrderingsFormValidLinearOrders) {
  SymbolTable syms;
  OrderProgram prog = BuildOrderProgram(&syms);
  Database db = ParseDatabase("r(a, b).", &syms).value();
  Result<StratifiedChaseResult> result =
      RunOrderProgram(prog, Theory(), db, &syms);
  ASSERT_TRUE(result.ok());
  const Database& out = result.value().database;
  // Domain {a, b}: 2 good orderings, each with one succ fact, and the
  // min/max of a good ordering are distinct endpoints.
  ASSERT_EQ(out.AtomsOf(prog.good).size(), 2u);
  for (uint32_t gi : out.AtomsOf(prog.good)) {
    Term u = out.atom(gi).args[0];
    size_t succ_count = 0;
    for (uint32_t si : out.AtomsOf(prog.succ)) {
      if (out.atom(si).args[2] == u) ++succ_count;
    }
    EXPECT_EQ(succ_count, 1u);
    size_t max_count = 0;
    for (uint32_t mi : out.AtomsOf(prog.max)) {
      if (out.atom(mi).args[1] == u) ++max_count;
    }
    EXPECT_EQ(max_count, 1u);
  }
}

TEST(OrderProgramTest, Theorem5DomainParityQuery) {
  // The paper's flagship non-monotonic query: is |dom| even? Expressible
  // with Σsucc plus positive rules walking one good ordering.
  SymbolTable syms;
  OrderProgram prog = BuildOrderProgram(&syms);
  Result<Theory> parity = ParseTheory(R"(
    ord#min(X, U) -> oddp(X, U).
    oddp(X, U), ord#succ(X, Y, U) -> evenp(Y, U).
    evenp(X, U), ord#succ(X, Y, U) -> oddp(Y, U).
    evenp(X, U), ord#max(X, U), ord#good(U) -> domeven.
    oddp(X, U), ord#max(X, U), ord#good(U) -> domodd.
  )",
                                      &syms);
  ASSERT_TRUE(parity.ok()) << parity.status().message();
  for (int n = 2; n <= 3; ++n) {
    SCOPED_TRACE(n);
    Database db;
    RelationId d = syms.Relation("dom", 1);
    for (int i = 0; i < n; ++i) {
      db.Insert(Atom(d, {syms.Constant(IndexedName("c", i))}));
    }
    Result<StratifiedChaseResult> result =
        RunOrderProgram(prog, parity.value(), db, &syms);
    ASSERT_TRUE(result.ok()) << result.status().message();
    bool even = result.value().database.Contains(
        Atom(syms.Relation("domeven", 0), {}));
    bool odd = result.value().database.Contains(
        Atom(syms.Relation("domodd", 0), {}));
    EXPECT_EQ(even, n % 2 == 0);
    EXPECT_EQ(odd, n % 2 == 1);
  }
}

TEST(CodeProgramTest, EncodesCharacteristicFunction) {
  SymbolTable syms;
  CodeProgram code = BuildCodeProgram("r", 1, &syms);
  Database db = ParseDatabase("r(b). dom(a). dom(b). dom(c).", &syms).value();
  std::vector<Term> order = {syms.Constant("a"), syms.Constant("b"),
                             syms.Constant("c")};
  AppendLinearOrderFacts(order, &syms, &db);
  Result<DatalogResult> eval = EvaluateDatalog(code.theory, db, &syms);
  ASSERT_TRUE(eval.ok()) << eval.status().message();
  Result<std::vector<int>> word =
      ExtractWord(eval.value().database, code.signature, &syms);
  ASSERT_TRUE(word.ok()) << word.status().message();
  std::vector<int> expected = {0, 1, 0};  // Only b is in r.
  EXPECT_EQ(word.value(), expected);
}

TEST(CodeProgramTest, EndToEndParityOfRelationSize) {
  // Theorem 4 + Σcode integration: "does r have an even number of
  // facts?" decided by the parity machine over the encoded database.
  SymbolTable syms;
  CodeProgram code = BuildCodeProgram("r", 1, &syms);
  Database db =
      ParseDatabase("r(a). r(c). dom(b). succ0(z, z).", &syms).value();
  std::vector<Term> order = {syms.Constant("a"), syms.Constant("b"),
                             syms.Constant("c")};
  AppendLinearOrderFacts(order, &syms, &db);
  Result<DatalogResult> eval = EvaluateDatalog(code.theory, db, &syms);
  ASSERT_TRUE(eval.ok());
  // The encoded word is 1,0,1 over alphabet {zero#r, one#r}: run the
  // parity machine on it (ones = 2 → accept).
  Atm machine = EvenParityMachine();
  StringSignature sig = code.signature;
  Result<CaptureCompilation> compiled =
      CompileAtmToWeaklyGuarded(machine, sig, &syms);
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  Result<bool> accepted = DecideAcceptanceViaChase(
      compiled.value(), eval.value().database, &syms, 10);
  ASSERT_TRUE(accepted.ok()) << accepted.status().message();
  EXPECT_TRUE(accepted.value());
}

}  // namespace
}  // namespace gerel
