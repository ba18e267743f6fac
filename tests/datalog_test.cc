// Tests for the Datalog engine: stratification, semi-naive and naive
// evaluation, stratified negation, and the lexicographic order programs.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/parser.h"
#include "core/printer.h"
#include "datalog/evaluator.h"
#include "datalog/orderings.h"
#include "datalog/program.h"
#include "datalog/stratifier.h"

namespace gerel {
namespace {

struct Fixture {
  SymbolTable syms;
  Theory theory;
  Database db;

  Fixture(const char* rules, const char* facts) {
    theory = ParseTheory(rules, &syms).value();
    db = ParseDatabase(facts, &syms).value();
  }
};

TEST(StratifierTest, PositiveProgramIsOneStratum) {
  Fixture f("e(X, Y) -> t(X, Y).\ne(X, Y), t(Y, Z) -> t(X, Z).", "");
  Result<Stratification> s = Stratify(f.theory);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().NumStrata(), 1u);
}

TEST(StratifierTest, NegationForcesNewStratum) {
  Fixture f(R"(
    e(X, Y) -> t(X, Y).
    e(X, Y), t(Y, Z) -> t(X, Z).
    acdom(X), acdom(Y), not t(X, Y) -> unreach(X, Y).
  )",
            "");
  Result<Stratification> s = Stratify(f.theory);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().NumStrata(), 2u);
  EXPECT_EQ(s.value().strata[0].size(), 2u);
  EXPECT_EQ(s.value().strata[1].size(), 1u);
}

TEST(StratifierTest, RejectsNegativeCycle) {
  // The classic win-move program is not stratifiable.
  Fixture f("move(X, Y), not win(Y) -> win(X).", "");
  EXPECT_FALSE(Stratify(f.theory).ok());
}

TEST(StratifierTest, ThreeStrata) {
  Fixture f(R"(
    base(X) -> a(X).
    acdom(X), not a(X) -> b(X).
    acdom(X), not b(X) -> c(X).
  )",
            "");
  Result<Stratification> s = Stratify(f.theory);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().NumStrata(), 3u);
}

TEST(EvaluatorTest, TransitiveClosure) {
  Fixture f("e(X, Y) -> t(X, Y).\ne(X, Y), t(Y, Z) -> t(X, Z).",
            "e(a, b). e(b, c). e(c, d). e(d, a).");
  Result<DatalogResult> r = EvaluateDatalog(f.theory, f.db, &f.syms);
  ASSERT_TRUE(r.ok()) << r.status().message();
  // 4-cycle: every pair is connected.
  EXPECT_EQ(r.value().database.AtomsOf(f.syms.Relation("t")).size(), 16u);
}

TEST(EvaluatorTest, NaiveAndSeminaiveAgree) {
  Fixture f("e(X, Y) -> t(X, Y).\ne(X, Y), t(Y, Z) -> t(X, Z).",
            "e(a, b). e(b, c). e(c, d). e(d, e1). e(e1, f).");
  DatalogOptions naive;
  naive.seminaive = false;
  Result<DatalogResult> r1 = EvaluateDatalog(f.theory, f.db, &f.syms);
  Result<DatalogResult> r2 = EvaluateDatalog(f.theory, f.db, &f.syms, naive);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(r1.value().database == r2.value().database);
}

TEST(EvaluatorTest, StratifiedNegationComplement) {
  Fixture f(R"(
    e(X, Y) -> t(X, Y).
    e(X, Y), t(Y, Z) -> t(X, Z).
    acdom(X), acdom(Y), not t(X, Y) -> unreach(X, Y).
  )",
            "e(a, b). e(b, a). e(c, c).");
  Result<DatalogResult> r = EvaluateDatalog(f.theory, f.db, &f.syms);
  ASSERT_TRUE(r.ok()) << r.status().message();
  RelationId unreach = f.syms.Relation("unreach");
  // t = {a,b}² ∪ {(c,c)}; unreachable pairs: a→c, b→c, c→a, c→b.
  EXPECT_EQ(r.value().database.AtomsOf(unreach).size(), 4u);
  EXPECT_TRUE(r.value().database.Contains(
      Atom(unreach, {f.syms.Constant("a"), f.syms.Constant("c")})));
}

TEST(EvaluatorTest, SemipositiveInputNegation) {
  // Characteristic-function encoding of §8: one/zero per input tuple.
  Fixture f(R"(
    r(X) -> one(X).
    acdom(X), not r(X) -> zero(X).
  )",
            "r(a). s(b). s(c).");
  Result<DatalogResult> r = EvaluateDatalog(f.theory, f.db, &f.syms);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().database.AtomsOf(f.syms.Relation("one")).size(), 1u);
  EXPECT_EQ(r.value().database.AtomsOf(f.syms.Relation("zero")).size(), 2u);
}

TEST(EvaluatorTest, ZeroAryRelations) {
  Fixture f("e(X, Y) -> nonempty.\nnonempty -> alsotrue.", "e(a, b).");
  Result<DatalogResult> r = EvaluateDatalog(f.theory, f.db, &f.syms);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(
      r.value().database.Contains(Atom(f.syms.Relation("alsotrue"), {})));
}

TEST(EvaluatorTest, EmptyBodyNegationRule) {
  Fixture f("not flag -> deflt.", "");
  Result<DatalogResult> r = EvaluateDatalog(f.theory, f.db, &f.syms);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().database.Contains(Atom(f.syms.Relation("deflt"), {})));
}

TEST(EvaluatorTest, EmptyBodyNegationBlockedWhenFactPresent) {
  Fixture f("not flag -> deflt.", "flag.");
  Result<DatalogResult> r = EvaluateDatalog(f.theory, f.db, &f.syms);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(
      r.value().database.Contains(Atom(f.syms.Relation("deflt"), {})));
}

TEST(EvaluatorTest, RejectsExistentialRules) {
  Fixture f("a(X) -> exists Y. r(X, Y).", "a(c).");
  EXPECT_FALSE(EvaluateDatalog(f.theory, f.db, &f.syms).ok());
}

// The null r(x, ·) holds in `db`, or a constant when there is none.
Term SuccessorOf(const Database& db, RelationId r, Term x) {
  for (uint32_t ai : db.AtomsOf(r)) {
    if (db.atom(ai).args[0] == x) return db.atom(ai).args[1];
  }
  return Term();
}

TEST(SkolemProgramTest, FiringsReuseTheirNulls) {
  Fixture f("a(X) -> exists Y. r(X, Y).", "a(c).");
  Result<DatalogProgram> program = DatalogProgram::Compile(f.theory, &f.syms);
  ASSERT_TRUE(program.ok()) << program.status().message();
  const RelationId r = f.syms.Relation("r");
  const Term c = f.syms.Constant("c");
  Database first = f.db;
  ASSERT_TRUE(program.value().Materialize(&first).ok());
  const Term n = SuccessorOf(first, r, c);
  ASSERT_TRUE(n.IsNull());
  const uint32_t minted = f.syms.NumNulls();
  // A second materialization from scratch gets the same null back.
  Database second = f.db;
  ASSERT_TRUE(program.value().Materialize(&second).ok());
  EXPECT_EQ(SuccessorOf(second, r, c), n);
  EXPECT_EQ(f.syms.NumNulls(), minted);
  // A new frontier image mints a new null...
  const Term d = f.syms.Constant("d");
  size_t begin = second.size();
  second.Insert(Atom(f.syms.Relation("a"), {d}));
  ASSERT_TRUE(program.value().ExtendWithDelta(&second, begin).ok());
  const Term m = SuccessorOf(second, r, d);
  EXPECT_TRUE(m.IsNull());
  EXPECT_NE(m, n);
  EXPECT_EQ(f.syms.NumNulls(), minted + 1);
  // ...and the delta, unrelated to c, leaves c's null where it was.
  Database third = f.db;
  third.Insert(Atom(f.syms.Relation("a"), {d}));
  ASSERT_TRUE(program.value().Materialize(&third).ok());
  EXPECT_EQ(SuccessorOf(third, r, c), n);
  EXPECT_EQ(SuccessorOf(third, r, d), m);
  EXPECT_EQ(f.syms.NumNulls(), minted + 1);
}

TEST(SkolemProgramTest, SeededNullsAreAdopted) {
  Fixture f("a(X) -> exists Y. r(X, Y).\nb(X) -> s(X).", "a(c).");
  Result<DatalogProgram> program = DatalogProgram::Compile(f.theory, &f.syms);
  ASSERT_TRUE(program.ok());
  const Term c = f.syms.Constant("c");
  const Term n = f.syms.FreshNull();
  EXPECT_FALSE(program.value().SeedSkolem(1, {c}, {n}).ok());  // Datalog.
  EXPECT_FALSE(program.value().SeedSkolem(2, {c}, {n}).ok());  // No rule.
  EXPECT_FALSE(program.value().SeedSkolem(0, {c, c}, {n}).ok());
  EXPECT_FALSE(program.value().SeedSkolem(0, {c}, {}).ok());
  ASSERT_TRUE(program.value().SeedSkolem(0, {c}, {n}).ok());
  EXPECT_FALSE(program.value().SeedSkolem(0, {c}, {n}).ok());  // Repeated.
  Database db = f.db;
  ASSERT_TRUE(program.value().Materialize(&db).ok());
  EXPECT_EQ(SuccessorOf(db, f.syms.Relation("r"), c), n);
}

// Options that record supports into `log`, so the program can run DRed.
DatalogOptions LoggingOptions(SupportLog* log,
                              ExecutionBudget* budget = nullptr) {
  DatalogOptions options;
  options.support_log = log;
  options.budget = budget;
  return options;
}

// `db` without the atoms of `gone`, in order.
Database Without(const Database& db, const std::vector<Atom>& gone) {
  Database out;
  for (const Atom& a : db.atoms()) {
    if (std::find(gone.begin(), gone.end(), a) == gone.end()) out.Insert(a);
  }
  return out;
}

// The log's entries and pool, flattened for comparison.
std::vector<uint32_t> Flatten(const SupportLog& log) {
  std::vector<uint32_t> out;
  for (const SupportLog::Entry& e : log.entries) {
    out.insert(out.end(), {e.rule, e.begin, e.end});
  }
  out.insert(out.end(), log.pool.begin(), log.pool.end());
  return out;
}

constexpr char kClosure[] = "e(X, Y) -> t(X, Y).\ne(X, Y), t(Y, Z) -> t(X, Z).";
constexpr char kChain[] =
    "e(a0, a1). e(a1, a2). e(a2, a3). e(a3, a4). e(a4, a5). e(a5, a6).";

TEST(ProgramRetractTest, RetractLeavesTheFreshModelInOrder) {
  Fixture f(kClosure, kChain);
  SupportLog log;
  Result<DatalogProgram> program =
      DatalogProgram::Compile(f.theory, &f.syms, LoggingOptions(&log));
  ASSERT_TRUE(program.ok()) << program.status().message();
  Result<DatalogProgram> reference = DatalogProgram::Compile(f.theory, &f.syms);
  ASSERT_TRUE(reference.ok());
  Database model = f.db;
  ASSERT_TRUE(program.value().Materialize(&model).ok());
  RelationId e = f.syms.Relation("e");
  auto edge = [&](const char* from, const char* to) {
    return Atom(e, {f.syms.Constant(from), f.syms.Constant(to)});
  };
  // Mid-chain edges: every closure atom across the cut is overdeleted and
  // none has a second derivation. The second retract reads the log the
  // first one compacted.
  Database base = f.db;
  const std::pair<Atom, size_t> cuts[] = {{edge("a2", "a3"), 3 * 4},
                                          {edge("a4", "a5"), 2 * 2}};
  for (const auto& [cut, across] : cuts) {
    base = Without(base, {cut});
    RetractPassStats r = program.value().Retract(&model, base, {cut});
    EXPECT_TRUE(r.applied);
    EXPECT_EQ(r.overdeleted_atoms, across);
    EXPECT_EQ(r.rederived_atoms, 0u);
    Database fresh = base;
    ASSERT_TRUE(reference.value().Materialize(&fresh).ok());
    EXPECT_EQ(model.AtomsVector(), fresh.AtomsVector());
  }
}

TEST(ProgramRetractTest, SkolemHeadsRederiveOnlyTheirTablesNulls) {
  Fixture f("a(X) -> exists Y. r(X, Y).\nb(X) -> a(X).", "a(c). b(c).");
  const RelationId r = f.syms.Relation("r", 2);
  const Term c = f.syms.Constant("c");
  // A base r-atom whose null the table will never give c.
  const Term m = f.syms.FreshNull();
  f.db.Insert(Atom(r, {c, m}));
  SupportLog log;
  Result<DatalogProgram> program =
      DatalogProgram::Compile(f.theory, &f.syms, LoggingOptions(&log));
  ASSERT_TRUE(program.ok()) << program.status().message();
  Database model = f.db;
  ASSERT_TRUE(program.value().Materialize(&model).ok());
  const Term n = SuccessorOf(Without(model, {Atom(r, {c, m})}), r, c);
  ASSERT_TRUE(n.IsNull());
  const uint32_t minted = f.syms.NumNulls();
  // Retract a(c) (still derivable from b(c)) and r(c, m), with m's acdom
  // atom as the caller seeds a vanished term.
  const Atom ac(f.syms.Relation("a"), {c});
  const Atom rcm(r, {c, m});
  Database base = Without(f.db, {ac, rcm});
  RetractPassStats out = program.value().Retract(
      &model, base, {ac, rcm, Atom(AcdomRelation(&f.syms), {m})});
  EXPECT_TRUE(out.applied);
  EXPECT_EQ(out.overdeleted_atoms, 1u);  // r(c, n) lost its witness.
  // a(c) comes back through b(c), then r(c, n) through the table; r(c, m)
  // unifies with the head but holds the wrong null.
  EXPECT_EQ(out.rederived_atoms, 2u);
  EXPECT_TRUE(model.Contains(ac));
  EXPECT_TRUE(model.Contains(Atom(r, {c, n})));
  EXPECT_FALSE(model.Contains(rcm));
  EXPECT_EQ(f.syms.NumNulls(), minted);
  Database fresh = base;
  ASSERT_TRUE(program.value().Materialize(&fresh).ok());
  EXPECT_EQ(model.AtomsVector(), fresh.AtomsVector());
}

// Retract must decline, touching neither the model nor the log.
void ExpectDeclines(DatalogProgram* program, Database* model,
                    const SupportLog& log, const Atom& gone) {
  const std::vector<Atom> before = model->AtomsVector();
  const std::vector<uint32_t> recorded = Flatten(log);
  RetractPassStats r = program->Retract(model, Without(*model, {gone}), {gone});
  EXPECT_FALSE(r.applied);
  EXPECT_EQ(r.overdeleted_atoms + r.rederived_atoms, 0u);
  EXPECT_EQ(model->AtomsVector(), before);
  EXPECT_EQ(Flatten(log), recorded);
}

TEST(ProgramRetractTest, DeclinesWithoutALicensingLog) {
  {  // Negation: the log is recorded but licenses nothing.
    Fixture f("e(X, Y) -> t(X, Y).\n"
              "acdom(X), acdom(Y), not t(X, Y) -> u(X, Y).",
              "e(a, b). e(b, c).");
    SupportLog log;
    Result<DatalogProgram> program =
        DatalogProgram::Compile(f.theory, &f.syms, LoggingOptions(&log));
    ASSERT_TRUE(program.ok());
    Database model = f.db;
    ASSERT_TRUE(program.value().Materialize(&model).ok());
    ASSERT_FALSE(log.entries.empty());
    ExpectDeclines(&program.value(), &model, log, f.db.atom(0));
  }
  {  // A freshly compiled program does not trust a log it did not record.
    Fixture f(kClosure, kChain);
    SupportLog log;
    Result<DatalogProgram> first =
        DatalogProgram::Compile(f.theory, &f.syms, LoggingOptions(&log));
    Result<DatalogProgram> second =
        DatalogProgram::Compile(f.theory, &f.syms, LoggingOptions(&log));
    ASSERT_TRUE(first.ok() && second.ok());
    Database model = f.db;
    ASSERT_TRUE(first.value().Materialize(&model).ok());
    ExpectDeclines(&second.value(), &model, log, f.db.atom(2));
    EXPECT_TRUE(first.value()
                    .Retract(&model, Without(f.db, {f.db.atom(2)}),
                             {f.db.atom(2)})
                    .applied);
  }
  {  // A budget-truncated pass revokes the licence until a full pass.
    Fixture f(kClosure, kChain);
    SupportLog log;
    ExecutionBudget budget;
    Result<DatalogProgram> program = DatalogProgram::Compile(
        f.theory, &f.syms, LoggingOptions(&log, &budget));
    ASSERT_TRUE(program.ok());
    Database model = f.db;
    ASSERT_TRUE(program.value().Materialize(&model).ok());
    BudgetLimits tight;
    tight.max_atoms = 1;
    budget.Arm(tight);
    size_t begin = model.size();
    model.Insert(Atom(f.syms.Relation("e"),
                      {f.syms.Constant("a6"), f.syms.Constant("a7")}));
    Result<EvalPassStats> pass =
        program.value().ExtendWithDelta(&model, begin);
    ASSERT_TRUE(pass.ok());
    ASSERT_FALSE(pass.value().complete);
    budget.Arm(BudgetLimits());
    ExpectDeclines(&program.value(), &model, log, f.db.atom(2));
    model = f.db;
    ASSERT_TRUE(program.value().Materialize(&model).ok());
    EXPECT_TRUE(program.value()
                    .Retract(&model, Without(f.db, {f.db.atom(2)}),
                             {f.db.atom(2)})
                    .applied);
  }
}

TEST(SkolemProgramTest, CompileRejectsExistentialRulesUnderNegation) {
  Fixture f("a(X) -> exists Y. r(X, Y).\na(X), not b(X) -> s(X).", "a(c).");
  Result<DatalogProgram> program = DatalogProgram::Compile(f.theory, &f.syms);
  EXPECT_FALSE(program.ok());
}

TEST(EvaluatorTest, RejectsUnsafeNegation) {
  Fixture f("e(X, Y), not bad(Z) -> g(X).", "e(a, b).");
  EXPECT_FALSE(EvaluateDatalog(f.theory, f.db, &f.syms).ok());
}

TEST(EvaluatorTest, DatalogAnswers) {
  Fixture f("e(X, Y) -> t(X, Y).\ne(X, Y), t(Y, Z) -> t(X, Z).",
            "e(a, b). e(b, c).");
  Result<std::set<std::vector<Term>>> ans =
      DatalogAnswers(f.theory, f.db, f.syms.Relation("t"), &f.syms);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().size(), 3u);
}

TEST(EvaluatorTest, FactRulesMaterialize) {
  Fixture f("-> r(c).\nr(X) -> s(X).", "");
  Result<DatalogResult> r = EvaluateDatalog(f.theory, f.db, &f.syms);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().database.Contains(
      Atom(f.syms.Relation("s"), {f.syms.Constant("c")})));
}

TEST(OrderingsTest, LinearOrderFacts) {
  SymbolTable syms;
  Database db;
  std::vector<Term> dom = {syms.Constant("a"), syms.Constant("b"),
                           syms.Constant("c")};
  AppendLinearOrderFacts(dom, &syms, &db);
  EXPECT_EQ(db.AtomsOf(syms.Relation("succ")).size(), 2u);
  EXPECT_TRUE(db.Contains(Atom(syms.Relation("min"), {dom[0]})));
  EXPECT_TRUE(db.Contains(Atom(syms.Relation("max"), {dom[2]})));
}

TEST(OrderingsTest, LexProgramMatchesDirectFactsDegree2) {
  SymbolTable syms;
  Database db;
  std::vector<Term> dom = {syms.Constant("a"), syms.Constant("b"),
                           syms.Constant("c")};
  AppendLinearOrderFacts(dom, &syms, &db);
  // A dummy relation so acdom covers the domain.
  RelationId d = syms.Relation("dom", 1);
  for (Term t : dom) db.Insert(Atom(d, {t}));

  Theory program = LexTupleOrderProgram(2, &syms);
  Result<DatalogResult> r = EvaluateDatalog(program, db, &syms);
  ASSERT_TRUE(r.ok()) << r.status().message();

  Database expected;
  AppendLexTupleOrderFacts(dom, 2, &syms, &expected);
  for (const Atom& a : expected.atoms()) {
    EXPECT_TRUE(r.value().database.Contains(a)) << "missing expected fact";
  }
  // Exactly n^2 - 1 successor pairs.
  EXPECT_EQ(r.value().database.AtomsOf(syms.Relation("next2")).size(), 8u);
  EXPECT_EQ(r.value().database.AtomsOf(syms.Relation("first2")).size(), 1u);
  EXPECT_EQ(r.value().database.AtomsOf(syms.Relation("last2")).size(), 1u);
}

TEST(OrderingsTest, LexProgramDegree3Counts) {
  SymbolTable syms;
  Database db;
  std::vector<Term> dom = {syms.Constant("a"), syms.Constant("b")};
  AppendLinearOrderFacts(dom, &syms, &db);
  RelationId d = syms.Relation("dom", 1);
  for (Term t : dom) db.Insert(Atom(d, {t}));
  Theory program = LexTupleOrderProgram(3, &syms);
  Result<DatalogResult> r = EvaluateDatalog(program, db, &syms);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().database.AtomsOf(syms.Relation("next3")).size(), 7u);
}

TEST(OrderingsTest, DirectLexFactsChainIsTotal) {
  SymbolTable syms;
  Database db;
  std::vector<Term> dom = {syms.Constant("a"), syms.Constant("b"),
                           syms.Constant("c")};
  AppendLexTupleOrderFacts(dom, 2, &syms, &db);
  RelationId next2 = syms.Relation("next2");
  EXPECT_EQ(db.AtomsOf(next2).size(), 8u);
  // Walk the chain from first2 to last2 and count 9 tuples.
  RelationId first2 = syms.Relation("first2");
  const Atom& first = db.atom(db.AtomsOf(first2)[0]);
  std::vector<Term> cur = first.args;
  size_t count = 1;
  bool advanced = true;
  while (advanced) {
    advanced = false;
    for (uint32_t i : db.AtomsOf(next2)) {
      const Atom& a = db.atom(i);
      if (std::vector<Term>(a.args.begin(), a.args.begin() + 2) == cur) {
        cur = std::vector<Term>(a.args.begin() + 2, a.args.end());
        ++count;
        advanced = true;
        break;
      }
    }
  }
  EXPECT_EQ(count, 9u);
  EXPECT_TRUE(db.Contains(Atom(syms.Relation("last2"), cur)));
}

}  // namespace
}  // namespace gerel
