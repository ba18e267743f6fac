// End-to-end tests of the `gerel` command-line tool against the sample
// programs in data/. The binary and data paths come from CMake.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#ifndef GEREL_CLI_PATH
#define GEREL_CLI_PATH "gerel"
#endif
#ifndef GEREL_DATA_DIR
#define GEREL_DATA_DIR "data"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr, interleaved.
};

CommandResult RunCli(const std::string& args) {
  std::string command =
      std::string(GEREL_CLI_PATH) + " " + args + " 2>&1";
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string Data(const char* name) {
  return std::string(GEREL_DATA_DIR) + "/" + name;
}

// As RunCli, but feeds `input` to the CLI's stdin (for `serve`).
CommandResult RunCliWithInput(const std::string& input,
                              const std::string& args) {
  std::string command = "printf '%s' '" + input + "' | " +
                        std::string(GEREL_CLI_PATH) + " " + args + " 2>&1";
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

TEST(CliTest, ClassifyPublications) {
  CommandResult r = RunCli("classify " + Data("publications.gerel"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("frontier-guarded:         yes"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("weakly guarded:           no"),
            std::string::npos)
      << r.output;
}

TEST(CliTest, AnswerPublicationsViaChase) {
  CommandResult r =
      RunCli("answer " + Data("publications.gerel") + " q --route=chase");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("q(a1)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("q(a2)"), std::string::npos) << r.output;
}

TEST(CliTest, AnswerTransitiveClosureBothRoutes) {
  for (const char* route : {"--route=chase", "--route=datalog"}) {
    CommandResult r = RunCli("answer " + Data("transitive_closure.gerel") +
                             " t " + route);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("t(a, d)"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("6 answers"), std::string::npos) << r.output;
  }
}

TEST(CliTest, ChasePrintsFigure2Atoms) {
  CommandResult r = RunCli("chase " + Data("publications.gerel"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("keywords(p1"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("saturated=1"), std::string::npos) << r.output;
}

TEST(CliTest, TranslateExample7ToDatalog) {
  CommandResult r = RunCli("translate g2dat " + Data("example7.gerel"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // σ12 must appear in the printed Datalog program (variable names are
  // canonical, so just look for the co-occurrence pattern).
  EXPECT_NE(r.output.find("-> d("), std::string::npos) << r.output;
}

TEST(CliTest, NormalizeTransitiveClosureIsIdentityShaped) {
  CommandResult r =
      RunCli("normalize " + Data("transitive_closure.gerel"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("t(X, Z)"), std::string::npos) << r.output;
}

TEST(CliTest, BoundedChaseExitsWithCode2) {
  CommandResult r = RunCli("chase " + Data("weakly_guarded_tc.gerel") +
                           " --max-steps=50");
  EXPECT_EQ(r.exit_code, 2) << r.output;  // Unsaturated.
  EXPECT_NE(r.output.find("saturated=0"), std::string::npos) << r.output;
}

// The chase is defined for negation-free programs only; a program with
// stratified negation is a clean error (exit 1), never an abort.
TEST(CliTest, ChaseRejectsNegationWithExit1) {
  CommandResult r = RunCli("chase " + Data("stratified_sep.gerel"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("gerel: the chase needs a negation-free program"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("GEREL_CHECK"), std::string::npos) << r.output;
}

TEST(CliTest, AnswerChaseRouteRejectsNegationWithExit1) {
  CommandResult r = RunCli("answer " + Data("stratified_sep.gerel") +
                           " separated --route=chase");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("gerel: the chase needs a negation-free program "
                          "(try --route=datalog)"),
            std::string::npos)
      << r.output;
  // The Datalog route evaluates the same program.
  CommandResult datalog = RunCli("answer " + Data("stratified_sep.gerel") +
                                 " separated --route=datalog");
  EXPECT_EQ(datalog.exit_code, 0) << datalog.output;
  EXPECT_NE(datalog.output.find("8 answers"), std::string::npos)
      << datalog.output;
}

TEST(CliTest, TreeRejectsNegationWithExit1) {
  // Normal and frontier-guarded, so only the negation check stands
  // between this program and the chase.
  std::string path =
      "/tmp/gerel_cli_negtree_" + std::to_string(getpid()) + ".gerel";
  FILE* f = fopen(path.c_str(), "w");
  fputs("e(X, Y) -> t(X, Y).\ne(X, Y), not t(Y, X) -> s(X, Y).\ne(a, b).\n",
        f);
  fclose(f);
  CommandResult r = RunCli("tree " + path);
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("gerel: chase tree requires a negation-free theory"),
            std::string::npos)
      << r.output;
}

TEST(CliTest, DotOutputsAreWellFormed) {
  for (const char* mode : {"preds", "positions", "tree"}) {
    CommandResult r = RunCli(std::string("dot ") + mode + " " +
                             Data("publications.gerel"));
    EXPECT_EQ(r.exit_code, 0) << mode << ": " << r.output;
    EXPECT_EQ(r.output.find("digraph"), 0u) << mode << ": " << r.output;
    EXPECT_NE(r.output.find("}"), std::string::npos);
  }
}

TEST(CliTest, TreeCommandVerifiesProp2) {
  CommandResult r = RunCli("tree " + Data("publications.gerel"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("Prop 2 (P1)-(P3): hold"), std::string::npos)
      << r.output;
}

TEST(CliTest, AnswerExitsWith3WhenTranslationHitsACap) {
  CommandResult r = RunCli("answer " + Data("transitive_closure.gerel") +
                           " t --max-rules=1");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("may be incomplete"), std::string::npos)
      << r.output;
}

TEST(CliTest, ServeAnswersQueriesAndAsserts) {
  CommandResult r = RunCliWithInput(
      "query t(X, Y) -> q(X, Y)\n"
      "assert e(d, f)\n"
      "query t(X, Y) -> q(X, Y)\n"
      "stats\n"
      "quit\n",
      "serve " + Data("transitive_closure.gerel"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("prepared: mode=datalog"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("6 answers (complete)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("asserted 1 new"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("10 answers (complete)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("delta asserts:       1"), std::string::npos)
      << r.output;
}

TEST(CliTest, ServeExitsWith3OnIncompleteAnswers) {
  // MFA-refuted: the planner cannot certify the theory, so serve takes
  // the translation pipeline and succ-queries see the null witnesses.
  CommandResult r = RunCliWithInput(
      "query succ(U, V) -> q(U)\nquit\n",
      "serve " + Data("nonterminating.gerel"));
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("possibly incomplete"), std::string::npos)
      << r.output;
}

TEST(CliTest, ServeRejectsBadCommandsWithExit1) {
  CommandResult r = RunCliWithInput(
      "frobnicate\nquit\n", "serve " + Data("transitive_closure.gerel"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unknown command"), std::string::npos) << r.output;
}

TEST(CliTest, ServeMalformedQueryIsACleanError) {
  // Parse errors and shape errors (negated CQ body) must come back as
  // error lines with exit 1 — never crash the session.
  CommandResult r = RunCliWithInput(
      "query t(((\n"
      "query e(X, Y), not t(X, Y) -> q(X, Y)\n"
      "query t(X, Y) -> q(X, Y)\n"
      "quit\n",
      "serve " + Data("transitive_closure.gerel"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("negation-free"), std::string::npos) << r.output;
  // The session keeps serving after errors.
  EXPECT_NE(r.output.find("6 answers (complete)"), std::string::npos)
      << r.output;
}

TEST(CliTest, ServeAssertIntoNegationRematerializes) {
  // Asserting into a stratified-negation program must rematerialize
  // (never delta-extend): the new edge *retracts* separated-pairs.
  CommandResult r = RunCliWithInput(
      "query separated(X, Y) -> q(X, Y)\n"
      "assert e(b, c)\n"
      "query separated(X, Y) -> q(X, Y)\n"
      "quit\n",
      "serve " + Data("stratified_sep.gerel"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("mode=datalog"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("8 answers (complete)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("(rematerialized)"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("6 answers (complete)"), std::string::npos)
      << r.output;
  // q(a, c) holds before the assert and is retracted by it: it must
  // appear exactly once across the two answer blocks.
  size_t first = r.output.find("q(a, c)");
  ASSERT_NE(first, std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("q(a, c)", first + 1), std::string::npos)
      << r.output;
}

TEST(CliTest, ServeAssertRejectsNonGroundFacts) {
  CommandResult r = RunCliWithInput(
      "assert e(X, b)\nquit\n",
      "serve " + Data("transitive_closure.gerel"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("fact contains variables"), std::string::npos)
      << r.output;
}

TEST(CliTest, ServeCompletenessCertificateLines) {
  // Both certificate verdicts in one session on an MFA-refuted theory
  // (pipeline mode): edge's positions can never hold labeled nulls
  // (certificate holds → "(complete)"), while succ holds invented
  // successors, so its answers are sound but possibly incomplete —
  // which is exactly what exit code 3 certifies.
  CommandResult r = RunCliWithInput(
      "query edge(U, V) -> q(U)\n"
      "query succ(U, V) -> q(U)\n"
      "quit\n",
      "serve " + Data("nonterminating.gerel"));
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("3 answers (complete)"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("(sound, possibly incomplete)"), std::string::npos)
      << r.output;
}

// Substitutes every "{F}" in `expected` with `file` — byte-for-byte
// golden outputs stay readable while the data dir stays configurable.
std::string WithFile(std::string expected, const std::string& file) {
  size_t at = 0;
  while ((at = expected.find("{F}", at)) != std::string::npos) {
    expected.replace(at, 3, file);
    at += file.size();
  }
  return expected;
}

// Writes a deliberately malformed program and returns its path. The
// path is per-process: ctest runs these cases as separate parallel
// processes, and a shared fixed path races (truncate-while-read).
std::string MalformedFile() {
  std::string path = "/tmp/gerel_cli_malformed_" +
                     std::to_string(getpid()) + ".gerel";
  FILE* f = fopen(path.c_str(), "w");
  fputs("e(X, Y) -> t(Y.\n", f);
  fclose(f);
  return path;
}

TEST(CliTest, CheckJsonIsByteExact) {
  std::string file = Data("stratified_sep.gerel");
  CommandResult r = RunCli("check --json " + file);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, WithFile(
      "{\n"
      "  \"file\": \"{F}\",\n"
      "  \"classification\": {\"datalog\": false, \"guarded\": false, "
      "\"frontier_guarded\": false, \"weakly_guarded\": true, "
      "\"weakly_frontier_guarded\": true, \"nearly_guarded\": true, "
      "\"nearly_frontier_guarded\": true},\n"
      "  \"extended_classification\": {\"linear\": false, "
      "\"frontier_one\": false, \"joinless\": false, "
      "\"domain_restricted\": false, \"shy\": true},\n"
      "  \"termination\": {\"certificate\": \"existential-free\", "
      "\"terminating\": true},\n"
      "  \"diagnostics\": [],\n"
      "  \"errors\": 0, \"warnings\": 0, \"notes\": 0\n"
      "}\n",
      file));
}

TEST(CliTest, CheckJsonIsDeterministicAcrossRunsAndThreads) {
  // The analyzer is single-threaded by construction (certificates must
  // be byte-deterministic), so --threads is accepted and ignored.
  std::string file = Data("diagnostics_demo.gerel");
  CommandResult a = RunCli("check --json " + file);
  CommandResult b = RunCli("check --json " + file);
  CommandResult c = RunCli("check --json --threads=8 " + file);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.output, c.output);
  EXPECT_EQ(a.exit_code, c.exit_code);
}

TEST(CliTest, CheckExplainOnDemoIsByteExact) {
  std::string file = Data("diagnostics_demo.gerel");
  CommandResult r = RunCli("check --explain " + file);
  EXPECT_EQ(r.exit_code, 1) << r.output;  // Two errors in the demo.
  // Spot-check the span-accurate pieces individually for a readable
  // failure, then pin the whole transcript byte-for-byte.
  EXPECT_NE(r.output.find(file + ":33:14: error[GR040]"), std::string::npos);
  std::string expected = WithFile(
      R"x({F}:6:1: warning[GR050]: theory is neither weakly nor jointly acyclic: the oblivious chase may diverge on some database
  t(X) -> exists Y. e(X, Y).
  ^~~~~~~~~~~~~~~~~~~~~~~~~
  note: guardedness guarantees decidable query answering, not chase termination; use the bounded chase (--max-steps) or the Datalog translations
{F}:6:1: warning[GR071]: theory is not model-faithfully acyclic: the critical-instance chase built the cyclic Skolem path r0.Y -> r0.Y
  t(X) -> exists Y. e(X, Y).
  ^~~~~~~~~~~~~~~~~~~~~~~~~
  note: a null of r0.Y was derived on top of an earlier one; no acyclicity-based termination certificate exists
  note: render the dependency graph with `gerel check --dot`
{F}:11:1: warning[GR010]: rule 2 is not weakly frontier-guarded: no positive body atom contains its unsafe frontier variables {X, Z}
  e(X, Y), e(Z, Y) -> t(X), t(Z).
  ^~~~~~~~~~~~~~~~~~~~~~~~~~~~~~
  note: X may be bound to a labeled null during the chase: every positive occurrence (e[0]) is an affected position (Def 2)
  note: Z may be bound to a labeled null during the chase: every positive occurrence (e[0]) is an affected position (Def 2)
  note: the serving pipeline (Thm 2 + §7) requires a weakly frontier-guarded theory
{F}:15:1: warning[GR001]: rule 3 is not weakly guarded: no positive body atom contains its unsafe variables {X, Y, Z}
  e(X, Y), e(Y, Z) -> u(X).
  ^~~~~~~~~~~~~~~~~~~~~~~~
  note: X may be bound to a labeled null during the chase: every positive occurrence (e[0]) is an affected position (Def 2)
  note: the rule is still weakly frontier-guarded, so query answering remains supported (Thm 2)
{F}:19:1: warning[GR020]: predicate 'dead' is unreachable: no fact or applicable rule ever derives it
  dead(X) -> s(X).
  ^~~~~~~
  note: 'dead' never occurs in a rule head and the database has no 'dead' facts
{F}:19:1: warning[GR020]: predicate 's' is unreachable: no fact or applicable rule ever derives it
  dead(X) -> s(X).
  ^~~~~~~~~~~~~~~
  note: every rule deriving 's' depends on an unreachable predicate
{F}:22:19: warning[GR060]: existential variable U is declared but never used in the head
  p(X) -> exists W, U. q(X, W).
                    ^
  note: evars(σ) is recomputed from occurrences (§2); this declaration is dropped silently
{F}:25:1: warning[GR010]: rule 6 is not weakly frontier-guarded: no positive body atom contains its unsafe frontier variables {X, Z}
  e(X, Y), e(Z, Y) -> t(X), t(Z).
  ^~~~~~~~~~~~~~~~~~~~~~~~~~~~~~
  note: X may be bound to a labeled null during the chase: every positive occurrence (e[0]) is an affected position (Def 2)
  note: Z may be bound to a labeled null during the chase: every positive occurrence (e[0]) is an affected position (Def 2)
  note: the serving pipeline (Thm 2 + §7) requires a weakly frontier-guarded theory
{F}:25:1: warning[GR021]: rule 6 is subsumed by rule 2: whenever it fires, rule 2 derives the same atoms
  e(X, Y), e(Z, Y) -> t(X), t(Z).
  ^~~~~~~~~~~~~~~~~~~~~~~~~~~~~~
  note: subsuming rule: e(X, Y), e(Z, Y) -> t(X), t(Z)
{F}:29:1: error[GR030]: relation 'ann' splits its positions as 1 annotation(s) + 1 argument(s) here, but as 0 annotation(s) + 2 argument(s) at its first use
  ann[c](d).
  ^~~~~~~~~
  note: the annotation transforms (Defs 17-18) require every use of a relation to partition its positions identically
{F}:33:14: error[GR040]: the program is not stratifiable: 'even' depends on its own negation
  node(X), not odd(X) -> even(X).
               ^~~~~~
  note: cycle: even -> odd -> even (the step odd -> even is through "not odd")
  note: stratified evaluation (Def 22) requires every negated dependency to point strictly downward
{F}: classification: none of the seven classes (Fig. 1)
{F}: extended: none of the extended classes
{F}: termination: refuted
{F}: explain:
  datalog: no: rule 0 (t(X) -> exists Y. e(X, Y)) has existential variables {Y}
  guarded: no: rule 2 (e(X, Y), e(Z, Y) -> t(X), t(Z)): no positive body atom contains all universal variables {X, Y, Z}
  frontier-guarded: no: rule 2 (e(X, Y), e(Z, Y) -> t(X), t(Z)): no positive body atom contains all frontier variables {X, Z}
  weakly-guarded: no: rule 2 (e(X, Y), e(Z, Y) -> t(X), t(Z)): no positive body atom contains all unsafe variables {X, Y, Z}; X may be bound to a labeled null during the chase: every positive occurrence (e[0]) is an affected position (Def 2)
  weakly-frontier-guarded: no: rule 2 (e(X, Y), e(Z, Y) -> t(X), t(Z)): no positive body atom contains all unsafe frontier variables {X, Z}; X may be bound to a labeled null during the chase: every positive occurrence (e[0]) is an affected position (Def 2)
  nearly-guarded: no: rule 2 (e(X, Y), e(Z, Y) -> t(X), t(Z)): not guarded, with unsafe variables {X, Y, Z} (Def 3 needs guarded, or safe and existential-free)
  nearly-frontier-guarded: no: rule 2 (e(X, Y), e(Z, Y) -> t(X), t(Z)): not frontier-guarded, with unsafe variables {X, Y, Z} (Def 3 needs frontier-guarded, or safe and existential-free)
  linear: no: rule 2 (e(X, Y), e(Z, Y) -> t(X), t(Z)) has 2 positive body atoms (linear allows one)
  frontier-one: no: rule 2 (e(X, Y), e(Z, Y) -> t(X), t(Z)) has frontier variables {X, Z} (frontier-one allows one)
  joinless: no: rule 2 (e(X, Y), e(Z, Y) -> t(X), t(Z)): variable Y joins two distinct positive body atoms
  domain-restricted: no: rule 1 (e(X, Y) -> t(Y)): some head atom uses part (not all, not none) of the body variables
  shy: no: rule 2 (e(X, Y), e(Z, Y) -> t(X), t(Z)): an attacked variable is joined across body atoms, or two attacked frontier variables share no body atom
{F}: 2 error(s), 9 warning(s), 0 note(s)
)x",
      file);
  EXPECT_EQ(r.output, expected);
}

TEST(CliTest, CheckDotIsByteExactAndHighlightsTheCycle) {
  // --dot replaces the report with the Skolem dependency graph; the
  // MFA-refuted demo gets its cyclic witness path highlighted.
  CommandResult r = RunCli("check --dot " + Data("diagnostics_demo.gerel"));
  EXPECT_EQ(r.exit_code, 1) << r.output;  // Diagnostics still gate exit.
  EXPECT_EQ(r.output,
            "digraph skolem {\n"
            "  rankdir=LR;\n"
            "  \"r0.Y\" [color=red, style=bold];\n"
            "  \"r5.W\";\n"
            "  \"r0.Y\" -> \"r0.Y\" [color=red, style=bold];\n"
            "}\n");
  // A certified theory renders the same graph with no highlight.
  CommandResult ok =
      RunCli("check --dot " + Data("weakly_guarded_gen.gerel"));
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_EQ(ok.output,
            "digraph skolem {\n"
            "  rankdir=LR;\n"
            "  \"r0.Y\";\n"
            "}\n");
}

TEST(CliTest, CheckDenyPromotesWarningsToErrors) {
  CommandResult clean = RunCli("check " + Data("stratified_sep.gerel") +
                               " --deny=GR020");
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
  CommandResult r = RunCli("check " + Data("diagnostics_demo.gerel") +
                           " --deny=GR020");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error[GR020]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("4 error(s), 7 warning(s)"), std::string::npos)
      << r.output;
}

TEST(CliTest, CheckParseErrorRendersGr000) {
  std::string file = MalformedFile();
  CommandResult r = RunCli("check " + file);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.output, WithFile(
      "{F}:1:15: error[GR000]: expected closing bracket\n"
      "  e(X, Y) -> t(Y.\n"
      "                ^\n",
      file));
}

TEST(CliTest, CheckMissingFileRendersGr000) {
  CommandResult r = RunCli("check /nonexistent/file.gerel");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error[GR000]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("cannot open"), std::string::npos) << r.output;
}

TEST(CliTest, ClassifyParseErrorSharesTheDiagnosticRenderer) {
  std::string file = MalformedFile();
  CommandResult r = RunCli("classify " + file);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Not the raw status string: the line:col + GR000 + caret form.
  EXPECT_EQ(r.output, WithFile(
      "{F}:1:15: error[GR000]: expected closing bracket\n"
      "  e(X, Y) -> t(Y.\n"
      "                ^\n",
      file));
}

// Runs a full shell command (no implicit redirection), capturing stdout.
CommandResult RunRaw(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

// Every `% gerel ...` command a data/*.gerel header suggests, except
// those piped into another program, must run to its end: within 30 s
// and with exit code 0, 2 or 3 (complete, truncated chase, sound but
// possibly incomplete), stdin at EOF.
TEST(CliTest, DataHeaderCommandsRun) {
  const std::string data_dir = GEREL_DATA_DIR;
  size_t commands = 0;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir)) {
    if (entry.path().extension() != ".gerel") continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      const std::string prefix = "gerel ";
      size_t at = line.find(prefix);
      if (line.rfind("%", 0) != 0 || at == std::string::npos ||
          line.find_first_not_of("% ") != at ||
          line.find('|') != std::string::npos) {
        continue;
      }
      std::string args = line.substr(at + prefix.size());
      for (size_t p = 0; (p = args.find("data/", p)) != std::string::npos;
           p += data_dir.size() + 1) {
        args.replace(p, 5, data_dir + "/");
      }
      ++commands;
      CommandResult r =
          RunRaw("timeout 30 " + std::string(GEREL_CLI_PATH) + " " + args +
                 " < /dev/null > /dev/null 2>&1");
      EXPECT_TRUE(r.exit_code == 0 || r.exit_code == 2 || r.exit_code == 3)
          << line << ": exit " << r.exit_code;
    }
  }
  EXPECT_GE(commands, 13u);
}

// --- Resource governance (--timeout-ms) and graceful degradation ---

TEST(CliTest, AnswerNonterminatingTheoryDegradesUnderTimeout) {
  // The chase of data/nonterminating.gerel never saturates; the budget
  // must stop it with sound partial answers (here: all of them — the
  // constant consequences converge in the first rounds), exit code 3,
  // and a populated degradation reason.
  CommandResult r = RunCli("answer " + Data("nonterminating.gerel") +
                           " reach --route=chase --timeout-ms=200");
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("may be incomplete"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("chase: deadline"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("6 answers"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("reach(a, d)"), std::string::npos) << r.output;
}

TEST(CliTest, TimedOutAnswersAreByteIdenticalAcrossThreads) {
  // Only stdout is compared: the stderr degradation line names the round
  // the deadline tripped at, which legitimately varies run to run.
  std::string base;
  for (const char* threads : {"1", "2", "4"}) {
    CommandResult r = RunRaw(
        std::string(GEREL_CLI_PATH) + " answer " +
        Data("nonterminating.gerel") +
        " reach --route=chase --timeout-ms=200 --threads=" + threads +
        " 2>/dev/null");
    EXPECT_EQ(r.exit_code, 3) << r.output;
    if (base.empty()) {
      base = r.output;
      EXPECT_NE(base.find("reach(a, d)"), std::string::npos) << base;
    } else {
      EXPECT_EQ(r.output, base) << "diverged at --threads=" << threads;
    }
  }
}

TEST(CliTest, ChaseDegradesOnTimeoutWithExit2) {
  CommandResult r = RunCli("chase " + Data("nonterminating.gerel") +
                           " --timeout-ms=100");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("saturated=0"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("degraded (chase: deadline"), std::string::npos)
      << r.output;
}

TEST(CliTest, ChaseDepthBoundDegradesWithDepthCause) {
  // Only the null-depth bound stops this run (10 of the 1,000,000
  // allowed steps), so the degradation must name it, not the step cap.
  CommandResult r =
      RunCli("chase " + Data("nonterminating.gerel") + " --max-depth=2");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("10 steps, saturated=0"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("degraded (chase: depth at round 5)"),
            std::string::npos)
      << r.output;
}

TEST(CliTest, GerelFaultEnvForcesDeterministicExhaustion) {
  CommandResult r = RunRaw("GEREL_FAULT=exhaust=chase@1 " +
                           std::string(GEREL_CLI_PATH) + " chase " +
                           Data("transitive_closure.gerel") +
                           " --timeout-ms=60000 2>&1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("degraded (chase: fault"), std::string::npos)
      << r.output;
}

// --- Crash-safe snapshots (serve --snapshot, session `save`) ---

TEST(CliTest, ServeSnapshotRoundTripAndTruncationRecovery) {
  std::string snap = "/tmp/gerel_cli_snap_" + std::to_string(getpid()) +
                     ".snap";
  std::remove(snap.c_str());
  std::string serve_args = "serve " + Data("transitive_closure.gerel") +
                           " --snapshot=" + snap;
  std::string input = "query t(X, Y) -> q(X, Y)\nquit\n";

  // First session: no snapshot yet — prepare fresh and save one.
  CommandResult first = RunCliWithInput(input, serve_args);
  EXPECT_EQ(first.exit_code, 0) << first.output;
  EXPECT_EQ(first.output.find("loaded snapshot"), std::string::npos)
      << first.output;
  EXPECT_NE(first.output.find("6 answers (complete)"), std::string::npos)
      << first.output;

  // Second session: load the saved snapshot, same answers.
  CommandResult second = RunCliWithInput(input, serve_args);
  EXPECT_EQ(second.exit_code, 0) << second.output;
  EXPECT_NE(second.output.find("loaded snapshot"), std::string::npos)
      << second.output;
  EXPECT_NE(second.output.find("6 answers (complete)"), std::string::npos)
      << second.output;

  // Simulated crash mid-write: truncate the snapshot. The load must
  // detect it and fall back to re-materialization — same answers again.
  ASSERT_EQ(truncate(snap.c_str(), 16), 0);
  CommandResult third = RunCliWithInput(input, serve_args);
  EXPECT_EQ(third.exit_code, 0) << third.output;
  EXPECT_NE(third.output.find("re-materializing"), std::string::npos)
      << third.output;
  EXPECT_NE(third.output.find("6 answers (complete)"), std::string::npos)
      << third.output;
  std::remove(snap.c_str());
}

TEST(CliTest, ServeSaveCommandWritesSnapshot) {
  std::string snap = "/tmp/gerel_cli_save_" + std::to_string(getpid()) +
                     ".snap";
  std::remove(snap.c_str());
  CommandResult r = RunCliWithInput(
      "save " + snap + "\nsave\nquit\n",
      "serve " + Data("transitive_closure.gerel"));
  EXPECT_EQ(r.exit_code, 1) << r.output;  // The bare `save` is an error.
  EXPECT_NE(r.output.find("snapshot saved to " + snap), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("error: save requires a path"), std::string::npos)
      << r.output;
  FILE* f = fopen(snap.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "session save did not write " << snap;
  fclose(f);
  std::remove(snap.c_str());
}

// --- Serve input robustness ---

TEST(CliTest, ServeEofWithoutQuitExitsCleanly) {
  CommandResult r = RunCliWithInput("query t(X, Y) -> q(X, Y)\n",
                                    "serve " + Data("transitive_closure.gerel"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("6 answers (complete)"), std::string::npos)
      << r.output;
}

TEST(CliTest, ServeOversizedLineIsSkippedCleanly) {
  // A 1.1 MB line exceeds the 1 MiB serve cap: it must be diagnosed and
  // skipped (exit 1), never buffered whole or crash the session — and
  // the session keeps serving afterwards.
  CommandResult r = RunRaw(
      "{ head -c 1100000 /dev/zero | tr '\\0' 'a'; printf '\\nstats\\nquit\\n'; } | " +
      std::string(GEREL_CLI_PATH) + " serve " +
      Data("transitive_closure.gerel") + " 2>&1");
  EXPECT_EQ(r.exit_code, 1) << r.output.substr(0, 2000);
  EXPECT_NE(r.output.find("exceeds"), std::string::npos)
      << r.output.substr(0, 2000);
  EXPECT_NE(r.output.find("queries:"), std::string::npos)
      << r.output.substr(0, 2000);
}

TEST(CliTest, UsageOnBadInvocation) {
  EXPECT_EQ(RunCli("frobnicate nothing").exit_code, 64);
  EXPECT_EQ(RunCli("classify").exit_code, 64);
}

TEST(CliTest, MissingFileIsACleanError) {
  CommandResult r = RunCli("classify /nonexistent/file.gerel");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

}  // namespace
