// Unit tests for the static analyzer (analyze/analyze.h): at least one
// positive and one negative case per GR code, the explain witnesses,
// renderer determinism, and parser/analyzer edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/render.h"
#include "core/parser.h"

namespace gerel {
namespace {

struct Analyzed {
  SymbolTable syms;
  SourceMap map;
  AnalysisResult result;
  std::string error;
};

// Parses `text` with spans and runs every analyzer over it.
Analyzed AnalyzeText(const std::string& text, bool explain = false) {
  Analyzed out;
  Result<Program> p = ParseProgram(text, &out.syms, &out.map);
  if (!p.ok()) {
    out.error = p.status().message();
    return out;
  }
  AnalyzeOptions options;
  options.explain = explain;
  options.source = &out.map;
  out.result = Analyze(p.value().theory, p.value().database, out.syms,
                       options);
  return out;
}

size_t CountCode(const AnalysisResult& r, const std::string& code) {
  size_t n = 0;
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == code) ++n;
  }
  return n;
}

const Diagnostic* FindCode(const AnalysisResult& r, const std::string& code) {
  for (const Diagnostic& d : r.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// --- GR001 / GR010 -------------------------------------------------------

TEST(AnalyzeTest, Gr001UnsafeVariableWithoutGuardButFrontierGuarded) {
  Analyzed a = AnalyzeText(
      "t(X) -> exists Y. e(X, Y).\n"
      "e(X, Y) -> t(Y).\n"
      "e(X, Y), e(Y, Z) -> u(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR001"), 1u);
  const Diagnostic* d = FindCode(a.result, "GR001");
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("rule 2"), std::string::npos);
  EXPECT_NE(d->message.find("{X, Y, Z}"), std::string::npos);
  // The rule still serves: it is weakly frontier-guarded, so no GR010.
  EXPECT_EQ(CountCode(a.result, "GR010"), 0u);
  // The span covers the offending rule.
  EXPECT_EQ(a.map.Resolve(d->span).line, 3u);
}

TEST(AnalyzeTest, Gr001SilentWhenWeaklyGuarded) {
  Analyzed a = AnalyzeText(
      "t(X) -> exists Y. e(X, Y).\n"
      "e(X, Y) -> t(Y).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(CountCode(a.result, "GR001"), 0u);
  EXPECT_EQ(CountCode(a.result, "GR010"), 0u);
}

TEST(AnalyzeTest, Gr010UnsafeFrontierVariableUnguarded) {
  Analyzed a = AnalyzeText(
      "t(X) -> exists Y. e(X, Y).\n"
      "e(X, Y) -> t(Y).\n"
      "e(X, Y), e(Z, Y) -> t(X), t(Z).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR010"), 1u);
  const Diagnostic* d = FindCode(a.result, "GR010");
  EXPECT_NE(d->message.find("{X, Z}"), std::string::npos);
  // A note explains *why* the variables are unsafe (the Def 2 witness).
  ASSERT_FALSE(d->notes.empty());
  EXPECT_NE(d->notes[0].find("affected position"), std::string::npos);
  // GR001 must not double-fire on the same rule.
  EXPECT_EQ(CountCode(a.result, "GR001"), 0u);
}

TEST(AnalyzeTest, Gr010SilentOnSafeDatalog) {
  Analyzed a = AnalyzeText("e(X, Y), e(Z, Y) -> t(X), t(Z).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  // No existentials => nothing is unsafe, despite the missing guard.
  EXPECT_EQ(CountCode(a.result, "GR010"), 0u);
  EXPECT_EQ(CountCode(a.result, "GR001"), 0u);
}

// --- GR020 ---------------------------------------------------------------

TEST(AnalyzeTest, Gr020UnreachablePredicates) {
  Analyzed a = AnalyzeText(
      "p(a).\n"
      "p(X) -> q(X).\n"
      "dead(X) -> s(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR020"), 2u);  // dead and s; not p, q.
  const Diagnostic* d = FindCode(a.result, "GR020");
  EXPECT_NE(d->message.find("'dead'"), std::string::npos);
  EXPECT_EQ(a.map.Resolve(d->span).line, 3u);
}

TEST(AnalyzeTest, Gr020NegationNeverBlocksReachability) {
  Analyzed a = AnalyzeText(
      "node(a).\n"
      "node(X), not bad(X) -> good(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  // good is derivable (the negative literal holds vacuously); bad is a
  // body-only predicate with no facts.
  ASSERT_EQ(CountCode(a.result, "GR020"), 1u);
  EXPECT_NE(FindCode(a.result, "GR020")->message.find("'bad'"),
            std::string::npos);
}

TEST(AnalyzeTest, Gr020SilentOnBareTheory) {
  // No facts anywhere: there is no reachability structure to judge.
  Analyzed a = AnalyzeText("dead(X) -> s(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(CountCode(a.result, "GR020"), 0u);
}

TEST(AnalyzeTest, Gr020FactRulesPopulateTheirHeads) {
  Analyzed a = AnalyzeText(
      "-> seed(c).\n"
      "seed(X) -> grown(X).\n"
      "other(X) -> unused(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  // seed/grown reachable via the empty-body rule; other/unused are not.
  EXPECT_EQ(CountCode(a.result, "GR020"), 2u);
}

// --- GR021 ---------------------------------------------------------------

TEST(AnalyzeTest, Gr021AlphaVariantDuplicateReportedOnce) {
  Analyzed a = AnalyzeText(
      "e(X, Y) -> t(X).\n"
      "e(U, V) -> t(U).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR021"), 1u);
  const Diagnostic* d = FindCode(a.result, "GR021");
  // Mutual subsumption is reported on the later rule only.
  EXPECT_NE(d->message.find("rule 1 is subsumed by rule 0"),
            std::string::npos);
  ASSERT_FALSE(d->notes.empty());
  EXPECT_NE(d->notes[0].find("e(X, Y) -> t(X)"), std::string::npos);
}

TEST(AnalyzeTest, Gr021StrictSubsumptionReportsTheWeakerRule) {
  Analyzed a = AnalyzeText(
      "p(X), q(X) -> r(X).\n"
      "p(X) -> r(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR021"), 1u);
  // Rule 0 demands more and derives no more: it is the redundant one.
  EXPECT_NE(FindCode(a.result, "GR021")->message
                .find("rule 0 is subsumed by rule 1"),
            std::string::npos);
}

TEST(AnalyzeTest, Gr021NeedsMatchingNegationFlags) {
  Analyzed a = AnalyzeText(
      "p(X), not q(X) -> r(X).\n"
      "p(X), q(X) -> r(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  // Neither body embeds into the other with negation flags preserved.
  EXPECT_EQ(CountCode(a.result, "GR021"), 0u);
}

TEST(AnalyzeTest, Gr021HeadsMustMatchNotJustBodies) {
  // Identical bodies, different heads: neither rule subsumes the other.
  Analyzed a = AnalyzeText(
      "e(X, Y) -> p(X).\n"
      "e(X, Y) -> q(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(CountCode(a.result, "GR021"), 0u);
}

TEST(AnalyzeTest, Gr021CollapsingJoinVariablesCountsAsSubsumption) {
  // Rule 1's body embeds into rule 0's by collapsing Z onto X, and under
  // that match its head covers t(X) — rule 0 is genuinely redundant.
  Analyzed a = AnalyzeText(
      "e(X, Y) -> t(X).\n"
      "e(X, Y), e(Z, Y) -> t(X), t(Z).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR021"), 1u);
  EXPECT_NE(FindCode(a.result, "GR021")->message
                .find("rule 0 is subsumed by rule 1"),
            std::string::npos);
}

TEST(AnalyzeTest, Gr021DuplicateTwoHeadRulesAreFound) {
  // Regression: matching the duplicate needs backtracking past a body
  // assignment that collapses Z onto X (the head check then fails and
  // the search must resume, not give up).
  Analyzed a = AnalyzeText(
      "e(X, Y), e(Z, Y) -> t(X), t(Z).\n"
      "e(X, Y), e(Z, Y) -> t(X), t(Z).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR021"), 1u);
  EXPECT_NE(FindCode(a.result, "GR021")->message
                .find("rule 1 is subsumed by rule 0"),
            std::string::npos);
}

TEST(AnalyzeTest, Gr021SkipsExistentialRules) {
  Analyzed a = AnalyzeText(
      "p(X) -> exists Y. e(X, Y).\n"
      "p(U) -> exists V. e(U, V).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  // Fresh-null heads make set inclusion the wrong criterion; skipped.
  EXPECT_EQ(CountCode(a.result, "GR021"), 0u);
}

TEST(AnalyzeTest, Gr021RuleIsNeverItsOwnSubsumer) {
  // The body embeds into itself in two ways (the rule is symmetric),
  // but i == j is excluded.
  Analyzed a = AnalyzeText("e(X, Y), e(Y, X) -> t(X), t(Y).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(CountCode(a.result, "GR021"), 0u);
}

TEST(AnalyzeTest, Gr021CapEmitsANote) {
  std::string text;
  for (int i = 0; i < 4; ++i) {
    text += IndexedName("p", i) + "(X) -> q(X).\n";
  }
  SymbolTable syms;
  Result<Program> p = ParseProgram(text, &syms);
  ASSERT_TRUE(p.ok());
  AnalyzeOptions options;
  options.max_subsumption_rules = 2;
  AnalysisResult r = Analyze(p.value().theory, p.value().database, syms,
                             options);
  const Diagnostic* d = FindCode(r, "GR021");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_NE(d->message.find("skipped"), std::string::npos);
}

// --- GR030 ---------------------------------------------------------------

TEST(AnalyzeTest, Gr030AnnotationShapeMismatchIsAnError) {
  Analyzed a = AnalyzeText(
      "ann(X, Y) -> p(X).\n"
      "ann[c](d).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR030"), 1u);
  const Diagnostic* d = FindCode(a.result, "GR030");
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("'ann'"), std::string::npos);
  EXPECT_EQ(a.result.errors, 1u);
}

TEST(AnalyzeTest, Gr030SilentOnConsistentAnnotationUse) {
  Analyzed a = AnalyzeText(
      "ann[c](d).\n"
      "ann[U](X) -> p(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(CountCode(a.result, "GR030"), 0u);
}

// --- GR040 ---------------------------------------------------------------

TEST(AnalyzeTest, Gr040NegationCycleIsAnErrorWithTheCyclePrinted) {
  Analyzed a = AnalyzeText(
      "node(a).\n"
      "node(X), not odd(X) -> even(X).\n"
      "node(X), not even(X) -> odd(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR040"), 1u);
  const Diagnostic* d = FindCode(a.result, "GR040");
  EXPECT_EQ(d->severity, Severity::kError);
  ASSERT_FALSE(d->notes.empty());
  EXPECT_NE(d->notes[0].find("even -> odd -> even"), std::string::npos);
  // The span points at the negated literal, not the whole rule.
  EXPECT_EQ(a.map.Resolve(d->span).line, 2u);
  EXPECT_EQ(a.map.Resolve(d->span).col, 14u);
}

TEST(AnalyzeTest, Gr040SilentOnStratifiablePrograms) {
  Analyzed a = AnalyzeText(
      "node(a).\n"
      "node(X), not bad(X) -> good(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(CountCode(a.result, "GR040"), 0u);
}

TEST(AnalyzeTest, Gr040SelfNegationCycle) {
  Analyzed a = AnalyzeText("p(X), not q(X) -> q(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR040"), 1u);
  EXPECT_NE(FindCode(a.result, "GR040")->notes[0].find("q -> q"),
            std::string::npos);
}

// --- GR050 ---------------------------------------------------------------

TEST(AnalyzeTest, Gr050WarnsWhenNeitherWeaklyNorJointlyAcyclic) {
  Analyzed a = AnalyzeText("r(X, Y) -> exists Z. r(Y, Z).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR050"), 1u);
  const Diagnostic* d = FindCode(a.result, "GR050");
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("neither weakly nor jointly"),
            std::string::npos);
}

TEST(AnalyzeTest, Gr070NoteWhenJointlyButNotWeaklyAcyclic) {
  Analyzed a = AnalyzeText(
      "p(X), q0(X) -> exists Y. r(X, Y).\n"
      "r(X, Y) -> p(Y).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  // A certified theory gets the GR070 certificate note; the legacy
  // GR050 warning is reserved for refuted/inconclusive theories.
  EXPECT_EQ(CountCode(a.result, "GR050"), 0u);
  ASSERT_EQ(CountCode(a.result, "GR070"), 1u);
  const Diagnostic* d = FindCode(a.result, "GR070");
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_NE(d->message.find("jointly acyclic"), std::string::npos);
}

TEST(AnalyzeTest, Gr050SilentOnWeaklyAcyclicAndOnDatalog) {
  Analyzed wa = AnalyzeText("a(X) -> exists Y. r(X, Y).\nr(X, Y) -> s(Y, Y).\n");
  ASSERT_TRUE(wa.error.empty()) << wa.error;
  EXPECT_EQ(CountCode(wa.result, "GR050"), 0u);
  Analyzed dlg = AnalyzeText("e(X, Y), t(Y, Z) -> t(X, Z).\n");
  ASSERT_TRUE(dlg.error.empty()) << dlg.error;
  EXPECT_EQ(CountCode(dlg.result, "GR050"), 0u);
}

// --- GR070-GR072: the termination certificate ----------------------------

TEST(AnalyzeTest, Gr070WeaklyAcyclicCertificateCarriesTheOrder) {
  Analyzed a =
      AnalyzeText("a(X) -> exists Y. r(X, Y).\nr(X, Y) -> s(Y, Y).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR070"), 1u);
  const Diagnostic* d = FindCode(a.result, "GR070");
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_NE(d->message.find("weakly acyclic"), std::string::npos);
  ASSERT_FALSE(d->notes.empty());
  EXPECT_NE(d->notes[0].find("Skolem function order:"), std::string::npos);
  EXPECT_EQ(a.result.termination.kind, CertificateKind::kWeaklyAcyclic);
  EXPECT_TRUE(a.result.termination.terminating());
  // The pre-rendered order names match the certificate's length.
  EXPECT_EQ(a.result.termination_order.size(),
            a.result.termination.order.size());
}

TEST(AnalyzeTest, Gr070MfaCertificateWhenNeitherWeaklyNorJointlyAcyclic) {
  // The Ω-closure sees nulls in both u positions and p.1, so the
  // dependency graph is cyclic (not JA) — but no single atom ever holds
  // the same null twice, so u(Y, Y) never fires on a null and the
  // critical-instance chase saturates.
  Analyzed a = AnalyzeText(
      "a(X) -> exists Y. u(X, Y).\n"
      "u(X, Y) -> u(Y, X).\n"
      "u(Y, Y) -> p(Y).\n"
      "p(X) -> a(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(CountCode(a.result, "GR050"), 0u);
  ASSERT_EQ(CountCode(a.result, "GR070"), 1u);
  const Diagnostic* d = FindCode(a.result, "GR070");
  EXPECT_NE(d->message.find("model-faithful acyclicity"), std::string::npos);
  EXPECT_EQ(a.result.termination.kind, CertificateKind::kMfa);
  EXPECT_GT(a.result.termination.critical_steps, 0u);
}

TEST(AnalyzeTest, Gr071RefutationNamesTheCyclicSkolemPath) {
  Analyzed a = AnalyzeText("r(X, Y) -> exists Z. r(Y, Z).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  // Refuted theories keep the legacy GR050 warning and add the witness.
  EXPECT_EQ(CountCode(a.result, "GR050"), 1u);
  ASSERT_EQ(CountCode(a.result, "GR071"), 1u);
  const Diagnostic* d = FindCode(a.result, "GR071");
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("cyclic Skolem path"), std::string::npos);
  ASSERT_EQ(d->notes.size(), 2u);
  EXPECT_NE(d->notes[1].find("gerel check --dot"), std::string::npos);
  EXPECT_EQ(a.result.termination.kind, CertificateKind::kRefuted);
  EXPECT_FALSE(a.result.termination.cycle.empty());
  EXPECT_EQ(a.result.termination_cycle.size(),
            a.result.termination.cycle.size());
}

TEST(AnalyzeTest, Gr072InconclusiveWhenTheCriticalChaseIsCapped) {
  // The same refutable theory, but with a budget too small for the
  // critical-instance chase to reach the cyclic Skolem term.
  SymbolTable syms;
  SourceMap map;
  Result<Program> p =
      ParseProgram("r(X, Y) -> exists Z. r(Y, Z).\n", &syms, &map);
  ASSERT_TRUE(p.ok());
  AnalyzeOptions options;
  options.source = &map;
  // One chase step invents f(*) but never the nested f(f(*)) that
  // refutes MFA, so the ladder cannot reach a verdict.
  options.termination.max_steps = 1;
  AnalysisResult r =
      Analyze(p.value().theory, p.value().database, syms, options);
  EXPECT_EQ(CountCode(r, "GR050"), 1u);
  EXPECT_EQ(CountCode(r, "GR071"), 0u);
  ASSERT_EQ(CountCode(r, "GR072"), 1u);
  const Diagnostic* d = FindCode(r, "GR072");
  EXPECT_EQ(d->severity, Severity::kNote);
  EXPECT_NE(d->message.find("inconclusive"), std::string::npos);
  EXPECT_EQ(r.termination.kind, CertificateKind::kInconclusive);
  EXPECT_FALSE(r.termination.terminating());
}

// --- GR080-GR084: the extended lattice membership matrix -----------------
//
// One positive and one negative theory per class. Every theory keeps at
// least one existential rule (the notes stay silent on Datalog), and
// the explain witnesses (indices 7..11: linear, frontier-one, joinless,
// domain-restricted, shy) must agree with the emitted notes.

TEST(AnalyzeTest, Gr080LinearMembership) {
  Analyzed in = AnalyzeText(
      "p(X) -> exists Y. q(X, Y).\n"
      "q(X, Y) -> p(Y).\n",
      /*explain=*/true);
  ASSERT_TRUE(in.error.empty()) << in.error;
  EXPECT_EQ(CountCode(in.result, "GR080"), 1u);
  ASSERT_EQ(in.result.witnesses.size(), 12u);
  EXPECT_EQ(std::string(in.result.witnesses[7].class_name), "linear");
  EXPECT_TRUE(in.result.witnesses[7].member);

  Analyzed out = AnalyzeText(
      "p(X), r(X) -> exists Y. q(X, Y).\n", /*explain=*/true);
  ASSERT_TRUE(out.error.empty()) << out.error;
  EXPECT_EQ(CountCode(out.result, "GR080"), 0u);
  EXPECT_FALSE(out.result.witnesses[7].member);
  EXPECT_NE(out.result.witnesses[7].reason.find("2 positive body atoms"),
            std::string::npos);
}

TEST(AnalyzeTest, Gr081FrontierOneMembership) {
  Analyzed in = AnalyzeText("p(X, X) -> exists Y. q(X, Y).\n",
                            /*explain=*/true);
  ASSERT_TRUE(in.error.empty()) << in.error;
  EXPECT_EQ(CountCode(in.result, "GR081"), 1u);
  EXPECT_EQ(std::string(in.result.witnesses[8].class_name), "frontier-one");
  EXPECT_TRUE(in.result.witnesses[8].member);

  Analyzed out = AnalyzeText("p(X, Z) -> exists Y. q(X, Y, Z).\n",
                             /*explain=*/true);
  ASSERT_TRUE(out.error.empty()) << out.error;
  EXPECT_EQ(CountCode(out.result, "GR081"), 0u);
  EXPECT_FALSE(out.result.witnesses[8].member);
}

TEST(AnalyzeTest, Gr082JoinlessMembership) {
  // Two body atoms but no shared variable: joinless without being
  // linear.
  Analyzed in = AnalyzeText("p(X), r(Z) -> exists Y. q(X, Y, Z).\n",
                            /*explain=*/true);
  ASSERT_TRUE(in.error.empty()) << in.error;
  EXPECT_EQ(CountCode(in.result, "GR080"), 0u);
  EXPECT_EQ(CountCode(in.result, "GR082"), 1u);
  EXPECT_EQ(std::string(in.result.witnesses[9].class_name), "joinless");
  EXPECT_TRUE(in.result.witnesses[9].member);

  Analyzed out = AnalyzeText("p(X), r(X) -> exists Y. q(X, Y).\n",
                             /*explain=*/true);
  ASSERT_TRUE(out.error.empty()) << out.error;
  EXPECT_EQ(CountCode(out.result, "GR082"), 0u);
  EXPECT_FALSE(out.result.witnesses[9].member);
}

TEST(AnalyzeTest, Gr083DomainRestrictedMembership) {
  // Every head atom carries all of the rule's universal body variables.
  Analyzed in = AnalyzeText("p(X) -> exists Y. q(X, Y).\n",
                            /*explain=*/true);
  ASSERT_TRUE(in.error.empty()) << in.error;
  EXPECT_EQ(CountCode(in.result, "GR083"), 1u);
  EXPECT_EQ(std::string(in.result.witnesses[10].class_name),
            "domain-restricted");
  EXPECT_TRUE(in.result.witnesses[10].member);

  // Head q(X, Y) sees X but drops Z: neither all nor none.
  Analyzed out = AnalyzeText("p(X), r(Z) -> exists Y. q(X, Y).\n",
                             /*explain=*/true);
  ASSERT_TRUE(out.error.empty()) << out.error;
  EXPECT_EQ(CountCode(out.result, "GR083"), 0u);
  EXPECT_FALSE(out.result.witnesses[10].member);
}

TEST(AnalyzeTest, Gr084ShyMembership) {
  // Nulls flow from q.2 into p.1, but no attacked variable is ever
  // joined across body atoms or shared between frontier atoms.
  Analyzed in = AnalyzeText(
      "p(X) -> exists Y. q(X, Y).\n"
      "q(X, Y) -> p(Y).\n",
      /*explain=*/true);
  ASSERT_TRUE(in.error.empty()) << in.error;
  EXPECT_EQ(CountCode(in.result, "GR084"), 1u);
  EXPECT_EQ(std::string(in.result.witnesses[11].class_name), "shy");
  EXPECT_TRUE(in.result.witnesses[11].member);

  // X and Y are both attacked by the same Skolem function (its nulls
  // reach p.1) and share no body atom in the last rule: not shy.
  Analyzed out = AnalyzeText(
      "p(X) -> exists Y. q(X, Y).\n"
      "q(X, Y) -> p(Y).\n"
      "p(X), p(Y) -> r(X, Y).\n",
      /*explain=*/true);
  ASSERT_TRUE(out.error.empty()) << out.error;
  EXPECT_EQ(CountCode(out.result, "GR084"), 0u);
  EXPECT_FALSE(out.result.witnesses[11].member);
  EXPECT_FALSE(out.result.witnesses[11].reason.empty());
}

// --- Certificate-witness goldens -----------------------------------------
//
// Byte-exact text renders for one certificate of each flavor: these pin
// the exact diagnostic wording, note order, and source anchoring that
// `gerel check` ships.

TEST(AnalyzeTest, CertifiedTheoryTextRenderIsByteExact) {
  Analyzed a = AnalyzeText(
      "gen(X) -> exists Y. e(X, Y).\n"
      "e(X, Y), e(Y, Z) -> e(X, Z).\n"
      "gen(a).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  RenderOptions ro{"wg.gerel", &a.map};
  EXPECT_EQ(RenderText(a.result, ro),
            "wg.gerel:1:1: note[GR070]: chase termination certified: theory "
            "is weakly acyclic\n"
            "  gen(X) -> exists Y. e(X, Y).\n"
            "  ^~~~~~~~~~~~~~~~~~~~~~~~~~~\n"
            "  note: Skolem function order: r0.Y\n"
            "  note: the Skolem (semi-oblivious) chase terminates on every "
            "database in polynomially many steps\n"
            "wg.gerel:1:1: note[GR084]: theory is shy: attacked variables "
            "are never joined and never shared between frontier atoms\n"
            "  gen(X) -> exists Y. e(X, Y).\n"
            "  ^~~~~~~~~~~~~~~~~~~~~~~~~~~\n"
            "wg.gerel: classification: weakly-guarded, "
            "weakly-frontier-guarded\n"
            "wg.gerel: extended: shy\n"
            "wg.gerel: termination: weakly-acyclic\n"
            "wg.gerel: 0 error(s), 0 warning(s), 2 note(s)\n");
}

TEST(AnalyzeTest, RefutedTheoryTextRenderIsByteExact) {
  Analyzed a = AnalyzeText("r(X, Y) -> exists Z. r(Y, Z).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  RenderOptions ro{"cyc.gerel", &a.map};
  EXPECT_EQ(RenderText(a.result, ro),
            "cyc.gerel:1:1: warning[GR050]: theory is neither weakly nor "
            "jointly acyclic: the oblivious chase may diverge on some "
            "database\n"
            "  r(X, Y) -> exists Z. r(Y, Z).\n"
            "  ^~~~~~~~~~~~~~~~~~~~~~~~~~~~\n"
            "  note: guardedness guarantees decidable query answering, not "
            "chase termination; use the bounded chase (--max-steps) or the "
            "Datalog translations\n"
            "cyc.gerel:1:1: warning[GR071]: theory is not model-faithfully "
            "acyclic: the critical-instance chase built the cyclic Skolem "
            "path r0.Z -> r0.Z\n"
            "  r(X, Y) -> exists Z. r(Y, Z).\n"
            "  ^~~~~~~~~~~~~~~~~~~~~~~~~~~~\n"
            "  note: a null of r0.Z was derived on top of an earlier one; no "
            "acyclicity-based termination certificate exists\n"
            "  note: render the dependency graph with `gerel check --dot`\n"
            "cyc.gerel:1:1: note[GR080]: theory is linear: every rule has at "
            "most one positive body atom\n"
            "  r(X, Y) -> exists Z. r(Y, Z).\n"
            "  ^~~~~~~~~~~~~~~~~~~~~~~~~~~~\n"
            "cyc.gerel:1:1: note[GR081]: theory is frontier-one: every rule "
            "passes at most one variable to its head\n"
            "  r(X, Y) -> exists Z. r(Y, Z).\n"
            "  ^~~~~~~~~~~~~~~~~~~~~~~~~~~~\n"
            "cyc.gerel:1:1: note[GR082]: theory is joinless: no rule joins a "
            "variable across two body atoms\n"
            "  r(X, Y) -> exists Z. r(Y, Z).\n"
            "  ^~~~~~~~~~~~~~~~~~~~~~~~~~~~\n"
            "cyc.gerel:1:1: note[GR084]: theory is shy: attacked variables "
            "are never joined and never shared between frontier atoms\n"
            "  r(X, Y) -> exists Z. r(Y, Z).\n"
            "  ^~~~~~~~~~~~~~~~~~~~~~~~~~~~\n"
            "cyc.gerel: classification: guarded, frontier-guarded, "
            "weakly-guarded, weakly-frontier-guarded, nearly-guarded, "
            "nearly-frontier-guarded\n"
            "cyc.gerel: extended: linear, frontier-one, joinless, shy\n"
            "cyc.gerel: termination: refuted\n"
            "cyc.gerel: 0 error(s), 2 warning(s), 4 note(s)\n");
}

// --- GR060 ---------------------------------------------------------------

TEST(AnalyzeTest, Gr060DeclaredButUnusedExistential) {
  Analyzed a = AnalyzeText("p(X) -> exists W, U. q(X, W).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR060"), 1u);
  const Diagnostic* d = FindCode(a.result, "GR060");
  EXPECT_NE(d->message.find("U"), std::string::npos);
  EXPECT_NE(d->message.find("never used"), std::string::npos);
  // The span points at the declaration itself.
  EXPECT_EQ(a.map.text().substr(d->span.begin, d->span.end - d->span.begin),
            "U");
}

TEST(AnalyzeTest, Gr060DeclaredExistentialShadowedByBody) {
  Analyzed a = AnalyzeText("p(X) -> exists X. q(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR060"), 1u);
  EXPECT_NE(FindCode(a.result, "GR060")->message.find("no effect"),
            std::string::npos);
}

TEST(AnalyzeTest, Gr060SilentOnGenuineExistentialsAndWithoutSource) {
  Analyzed a = AnalyzeText("p(X) -> exists Y. q(X, Y).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(CountCode(a.result, "GR060"), 0u);
  // Without a SourceMap the declaration list is gone; no false GR060.
  SymbolTable syms;
  Result<Program> p = ParseProgram("p(X) -> exists W, U. q(X, W).\n", &syms);
  ASSERT_TRUE(p.ok());
  AnalysisResult r =
      Analyze(p.value().theory, p.value().database, syms, AnalyzeOptions());
  EXPECT_EQ(CountCode(r, "GR060"), 0u);
}

// --- Explain witnesses ---------------------------------------------------

TEST(AnalyzeTest, ExplainNamesAWitnessPerFailingClass) {
  Analyzed a = AnalyzeText(
      "t(X) -> exists Y. e(X, Y).\n"
      "e(X, Y) -> t(Y).\n"
      "e(X, Y), e(Z, Y) -> t(X), t(Z).\n",
      /*explain=*/true);
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(a.result.witnesses.size(), 12u);
  EXPECT_EQ(std::string(a.result.witnesses[0].class_name), "datalog");
  EXPECT_FALSE(a.result.witnesses[0].member);
  EXPECT_EQ(a.result.witnesses[0].rule_index, 0u);
  EXPECT_NE(a.result.witnesses[0].reason.find("existential variables {Y}"),
            std::string::npos);
  // The theory is in no class: every witness names a rule and reason.
  for (const ClassWitness& w : a.result.witnesses) {
    EXPECT_FALSE(w.member) << w.class_name;
    EXPECT_FALSE(w.reason.empty()) << w.class_name;
  }
}

TEST(AnalyzeTest, ExplainMarksMembersWithoutAWitness) {
  Analyzed a = AnalyzeText("e(X, Y), t(Y, Z) -> t(X, Z).\n", /*explain=*/true);
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(a.result.witnesses.size(), 12u);
  EXPECT_TRUE(a.result.witnesses[0].member);  // datalog
  EXPECT_TRUE(a.result.witnesses[0].reason.empty());
  // Not guarded (no atom holds X, Y, Z), but weakly guarded.
  EXPECT_FALSE(a.result.witnesses[1].member);
  EXPECT_TRUE(a.result.witnesses[3].member);
  EXPECT_EQ(CountCode(a.result, "GR001"), 0u);
}

TEST(AnalyzeTest, ExplainOffByDefault) {
  Analyzed a = AnalyzeText("e(X, Y) -> t(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_TRUE(a.result.witnesses.empty());
}

// --- Edge cases ----------------------------------------------------------

TEST(AnalyzeTest, EmptyTheoryAndEmptyDatabase) {
  Analyzed a = AnalyzeText("", /*explain=*/true);
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_TRUE(a.result.diagnostics.empty());
  ASSERT_EQ(a.result.witnesses.size(), 12u);
  for (const ClassWitness& w : a.result.witnesses) {
    EXPECT_TRUE(w.member) << w.class_name;  // Vacuously in every class.
  }
  EXPECT_EQ(a.result.errors + a.result.warnings + a.result.notes, 0u);
}

TEST(AnalyzeTest, ZeroAryPredicates) {
  Analyzed a = AnalyzeText(
      "boot.\n"
      "boot -> ready.\n"
      "ready, not stop -> run.\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  // stop is a body-only 0-ary predicate with no facts.
  EXPECT_EQ(CountCode(a.result, "GR020"), 1u);
  EXPECT_NE(FindCode(a.result, "GR020")->message.find("'stop'"),
            std::string::npos);
  EXPECT_EQ(CountCode(a.result, "GR040"), 0u);
}

TEST(AnalyzeTest, AnnotatedPositionsAreAnalyzed) {
  Analyzed a = AnalyzeText(
      "r[a](b).\n"
      "s(b).\n"
      "r[U](X), s(X) -> out[U](X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  // Shapes are consistent, everything reachable, safely annotated: clean.
  EXPECT_TRUE(a.result.diagnostics.empty());
}

TEST(AnalyzeTest, QuotedConstantSpansRenderIntact) {
  Analyzed a = AnalyzeText(
      "q('a b', c).\n"
      "q[U](X) -> p(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_EQ(CountCode(a.result, "GR030"), 1u);
  RenderOptions render;
  render.file = "test.gerel";
  render.source = &a.map;
  std::string text = RenderText(a.result, render);
  // The caret snippet reproduces the quoted source line verbatim.
  EXPECT_NE(text.find("q('a b', c)."), std::string::npos);
  EXPECT_NE(text.find("error[GR030]"), std::string::npos);
}

TEST(AnalyzeTest, DiagnosticsAreSortedBySpan) {
  Analyzed a = AnalyzeText(
      "node(a).\n"
      "p(X), not q(X) -> q(X).\n"
      "dead(X) -> s(X).\n");
  ASSERT_TRUE(a.error.empty()) << a.error;
  ASSERT_GE(a.result.diagnostics.size(), 2u);
  for (size_t i = 1; i < a.result.diagnostics.size(); ++i) {
    EXPECT_LE(a.result.diagnostics[i - 1].span.begin,
              a.result.diagnostics[i].span.begin);
  }
}

// --- Renderers -----------------------------------------------------------

TEST(AnalyzeTest, RenderersAreDeterministic) {
  const std::string text =
      "t(X) -> exists Y. e(X, Y).\n"
      "e(X, Y) -> t(Y).\n"
      "e(X, Y), e(Z, Y) -> t(X), t(Z).\n"
      "t(a).\n";
  Analyzed a1 = AnalyzeText(text, /*explain=*/true);
  Analyzed a2 = AnalyzeText(text, /*explain=*/true);
  ASSERT_TRUE(a1.error.empty()) << a1.error;
  RenderOptions r1{"f.gerel", &a1.map};
  RenderOptions r2{"f.gerel", &a2.map};
  EXPECT_EQ(RenderText(a1.result, r1), RenderText(a2.result, r2));
  EXPECT_EQ(RenderJson(a1.result, r1), RenderJson(a2.result, r2));
}

TEST(AnalyzeTest, JsonEscapesQuotesAndControlCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(AnalyzeTest, RenderParseErrorReanchorsOnTheFile) {
  SymbolTable syms;
  Result<Program> p = ParseProgram("e(X, Y) -> t(Y.\n", &syms);
  ASSERT_FALSE(p.ok());
  std::string out = RenderParseError(p.status(), "bad.gerel");
  EXPECT_EQ(out,
            "bad.gerel:1:15: error[GR000]: expected closing bracket\n"
            "  e(X, Y) -> t(Y.\n"
            "                ^\n");
  // Unlocated errors fall back to a plain file prefix.
  Status plain = Status::Error("cannot open bad.gerel");
  EXPECT_EQ(RenderParseError(plain, "bad.gerel"),
            "bad.gerel: error[GR000]: cannot open bad.gerel\n");
}

}  // namespace
}  // namespace gerel
