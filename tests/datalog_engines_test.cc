// Property test: naive and semi-naive evaluation are the same function.
// Random Datalog theories (the property-test generator with existentials
// disabled) are evaluated by both engines; the resulting databases must
// be equal as sets and every relation's answer set identical.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/parser.h"
#include "core/printer.h"
#include "datalog/evaluator.h"
#include "testing/random_theories.h"

namespace gerel {
namespace {

using gerel::testing::RandomParams;
using gerel::testing::RandomTheoryGen;

class EngineEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

DatalogOptions Engine(bool seminaive) {
  DatalogOptions o;
  o.seminaive = seminaive;
  return o;
}

void ExpectSameModel(const Theory& theory, const Database& input,
                     SymbolTable* syms) {
  Result<DatalogResult> reference =
      EvaluateDatalog(theory, input, syms, Engine(true));
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  const Database& expected = reference.value().database;

  Result<DatalogResult> naive =
      EvaluateDatalog(theory, input, syms, Engine(false));
  ASSERT_TRUE(naive.ok()) << naive.status().message();
  EXPECT_TRUE(naive.value().database == expected)
      << "naive disagrees with the semi-naive model ("
      << naive.value().database.size() << " vs " << expected.size()
      << " atoms)";
  EXPECT_EQ(naive.value().derived_atoms, reference.value().derived_atoms);
  // Per-rule derivation counters must account for every derived atom,
  // whatever the engine (the split across rules may differ: whichever
  // rule derives an atom first gets the credit).
  size_t credited = 0;
  for (const RuleStats& s : naive.value().rule_stats) credited += s.derived;
  EXPECT_EQ(credited, naive.value().derived_atoms);

  // Answer sets per relation, through the public query API.
  for (RelationId rel : theory.Relations()) {
    auto expected_answers =
        DatalogAnswers(theory, input, rel, syms, Engine(true));
    ASSERT_TRUE(expected_answers.ok());
    auto got = DatalogAnswers(theory, input, rel, syms, Engine(false));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), expected_answers.value());
  }
}

TEST_P(EngineEquivalenceTest, RandomDatalogTheories) {
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.num_rules = 6;
  params.max_body_atoms = 3;
  params.existential_prob = 0.0;  // Datalog only.
  Theory theory = gen.Theory_(params);
  Database input = gen.Database_(/*num_atoms=*/14, /*num_constants=*/5);
  ExpectSameModel(theory, input, &syms);
}

TEST_P(EngineEquivalenceTest, RandomStratifiedTheories) {
  // Layer a stratified-negation tail over the random positive program:
  // the derived relations of the random stratum feed a negated check.
  SymbolTable syms;
  RandomTheoryGen gen(GetParam(), &syms);
  RandomParams params;
  params.num_rules = 5;
  params.existential_prob = 0.0;
  Theory theory = gen.Theory_(params);
  Database input = gen.Database_(/*num_atoms=*/12, /*num_constants=*/4);

  Term x = syms.Variable("X");
  RelationId p0 = syms.Relation("p0");
  RelationId lonely = syms.Relation("lonely", 1);
  RelationId seen = syms.Relation("seen", 1);
  std::vector<Term> p0_args(syms.RelationArity(p0), x);
  // seen(x) <- p0(x, ..., x);  lonely(x) <- acdom(x), not seen(x).
  theory.AddRule(Rule::Positive({Atom(p0, p0_args)}, {Atom(seen, {x})}));
  Rule negated({Literal(Atom(AcdomRelation(&syms), {x}), /*negated=*/false),
                Literal(Atom(seen, {x}), /*negated=*/true)},
               {Atom(lonely, {x})});
  theory.AddRule(negated);
  ExpectSameModel(theory, input, &syms);
}

TEST(EngineEquivalenceTest, TransitiveClosureAcrossThreadCounts) {
  SymbolTable syms;
  Theory theory = ParseTheory(R"(
    e(X, Y) -> t(X, Y).
    e(X, Y), t(Y, Z) -> t(X, Z).
    acdom(X), acdom(Y), not t(X, Y) -> unreach(X, Y).
  )",
                              &syms)
                      .value();
  Database input =
      ParseDatabase("e(a, b). e(b, c). e(c, d). e(e, e).", &syms).value();
  ExpectSameModel(theory, input, &syms);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalenceTest,
                         ::testing::Range(0u, 16u));

}  // namespace
}  // namespace gerel
