// gerel — command-line front end for the library.
//
// Usage:
//   gerel check <program> [--json] [--explain] [--deny=CODE]
//                                         static analysis: GR-coded
//                                         diagnostics with line:col spans
//   gerel classify  <program>             classify the rules (§3)
//   gerel normalize <program>             print the Prop 1 normal form
//   gerel chase     <program> [opts]      run the bounded oblivious chase
//   gerel tree      <program>             print the chase tree (§4)
//   gerel translate <mode> <program>      print a translation:
//       fg2ng   frontier-guarded -> nearly guarded        (Thm 1)
//       nfg2ng  nearly frontier-guarded -> nearly guarded (Prop 4)
//       wfg2wg  weakly frontier-guarded -> weakly guarded (Thm 2)
//       g2dat   guarded -> Datalog                        (Thm 3)
//       ng2dat  nearly guarded -> Datalog                 (Prop 6)
//   gerel answer <program> <relation> [--route=chase|datalog]
//                                         answers of the output relation
//   gerel serve <program> [opts]          prepare the KB, then answer
//                                         query/assert commands from stdin
//   gerel dot preds|positions|tree <program>
//                                         Graphviz renderings
//
// A <program> file mixes rules and facts ("rule." / "fact." statements;
// see core/parser.h for the grammar). Chase options:
//   --max-steps=N --max-atoms=N --max-depth=N
// Translation/serving options:
//   --max-rules=N (cap the rewrite/grounding/saturation stages)
//   --threads=N   (worker lanes for saturation; output is identical for
//                  any value; the chase and Datalog evaluation always
//                  run on one thread)
//
// Resource governance (chase/answer/serve):
//   --timeout-ms=N (wall-clock budget; exhaustion degrades to sound
//                   partial results, never a hang or crash)
//   --max-atoms=N  (atom ceiling; for `chase` this is the existing chase
//                   cap, for answer/serve it bounds every pipeline stage)
//   --snapshot=PATH (serve: load a crash-safe snapshot if it matches the
//                   program, else prepare and save one; also saved at
//                   session end)
//
// Exit codes: 0 success, 1 error, 2 chase hit a cap before saturating,
// 3 answers are sound but possibly incomplete (a translation stage hit a
// size cap or a budget was exhausted), 64 usage.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "analyze/render.h"
#include "chase/chase.h"
#include "chase/chase_tree.h"
#include "core/budget.h"
#include "core/classify.h"
#include "core/fault.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/printer.h"
#include "datalog/evaluator.h"
#include "server/session.h"
#include "service/prepared_kb.h"
#include "transform/annotation.h"
#include "transform/fg_to_ng.h"
#include "core/graphviz.h"
#include "testing/differential.h"
#include "transform/saturation.h"

namespace {

using namespace gerel;  // NOLINT

int Fail(const std::string& message) {
  std::fprintf(stderr, "gerel: %s\n", message.c_str());
  return 1;
}

constexpr char kChaseNeedsPositive[] =
    "the chase needs a negation-free program";

Result<std::string> ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) return Status::Error(std::string("cannot open ") + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct ParsedArgs {
  std::string command;
  std::string mode;  // For translate.
  std::string file;
  std::string relation;  // For answer.
  std::string route = "datalog";
  ChaseOptions chase;
  size_t max_rules = 0;  // 0 = library defaults.
  // Worker lanes for chase/tree/translate/answer/serve (chase
  // enumeration, saturation frontier, Datalog evaluation).
  size_t threads = 1;
  // Resource budget (0 = unlimited). --max-atoms doubles as the chase
  // cap (existing semantics) and the budget atom ceiling.
  double timeout_ms = 0;
  uint64_t budget_atoms = 0;
  // serve: crash-safe snapshot path (empty = no persistence).
  std::string snapshot;
};

// Budget limits from the command line; unlimited() when no flag was set.
BudgetLimits CliBudget(const ParsedArgs& args) {
  BudgetLimits limits;
  limits.timeout_ms = args.timeout_ms;
  limits.max_atoms = args.budget_atoms;
  return limits;
}

bool ParseFlag(const char* arg, const char* name, long* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::strtol(arg + len + 1, nullptr, 10);
  return true;
}

int Usage();

// `gerel check [--json] [--explain] [--dot] [--deny=CODE] <program>`:
// run every analyzer and render the diagnostics. Exit 1 when any
// error-severity diagnostic remains (parse failures are GR000 errors;
// --deny promotes warning codes to errors). --dot replaces the report
// with the Skolem-dependency graph in Graphviz format, the termination
// certificate's cyclic witness path highlighted.
int Check(int argc, char** argv) {
  bool json = false;
  bool explain = false;
  bool dot = false;
  std::vector<std::string> deny;
  std::string file;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--dot") {
      dot = true;
    } else if (arg.rfind("--deny=", 0) == 0) {
      deny.push_back(arg.substr(7));
    } else if (arg.rfind("--threads=", 0) == 0) {
      // Accepted for CLI uniformity. Analysis is single-threaded by
      // construction (certificates must be byte-deterministic), so the
      // value changes nothing — which the CLI tests pin down.
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (file.empty()) {
      file = arg;
    } else {
      return Usage();
    }
  }
  if (file.empty()) return Usage();
  auto text = ReadFile(file.c_str());
  if (!text.ok()) {
    std::fputs(RenderParseError(text.status(), file).c_str(), stderr);
    return 1;
  }
  SymbolTable syms;
  SourceMap map;
  auto program = ParseProgram(text.value(), &syms, &map);
  if (!program.ok()) {
    std::fputs(RenderParseError(program.status(), file).c_str(), stderr);
    return 1;
  }
  AnalyzeOptions options;
  options.explain = explain;
  options.source = &map;
  AnalysisResult result = Analyze(program.value().theory,
                                  program.value().database, syms, options);
  if (dot) {
    std::string out = ExistentialGraphDot(result.termination.graph, syms,
                                          result.termination.cycle);
    std::fputs(out.c_str(), stdout);
    return result.errors > 0 ? 1 : 0;
  }
  for (Diagnostic& d : result.diagnostics) {
    if (d.severity == Severity::kWarning &&
        std::find(deny.begin(), deny.end(), d.code) != deny.end()) {
      d.severity = Severity::kError;
      --result.warnings;
      ++result.errors;
    }
  }
  RenderOptions render;
  render.file = file;
  render.source = &map;
  std::string out =
      json ? RenderJson(result, render) : RenderText(result, render);
  std::fputs(out.c_str(), stdout);
  return result.errors > 0 ? 1 : 0;
}

int Classify(const ParsedArgs& args) {
  SymbolTable syms;
  auto text = ReadFile(args.file.c_str());
  if (!text.ok()) return Fail(text.status().message());
  auto program = ParseProgram(text.value(), &syms);
  if (!program.ok()) {
    // Parse failures share the GR000 renderer with `gerel check`.
    std::fputs(RenderParseError(program.status(), args.file).c_str(),
               stderr);
    return 1;
  }
  const Theory& t = program.value().theory;
  Classification c = gerel::Classify(t);
  std::printf("rules: %zu   max arity: %zu   max vars/rule: %zu\n",
              t.size(), t.MaxArity(), t.MaxVarsPerRule());
  std::printf("datalog:                  %s\n", c.datalog ? "yes" : "no");
  std::printf("guarded:                  %s\n", c.guarded ? "yes" : "no");
  std::printf("frontier-guarded:         %s\n",
              c.frontier_guarded ? "yes" : "no");
  std::printf("weakly guarded:           %s\n",
              c.weakly_guarded ? "yes" : "no");
  std::printf("weakly frontier-guarded:  %s\n",
              c.weakly_frontier_guarded ? "yes" : "no");
  std::printf("nearly guarded:           %s\n",
              c.nearly_guarded ? "yes" : "no");
  std::printf("nearly frontier-guarded:  %s\n",
              c.nearly_frontier_guarded ? "yes" : "no");
  ExtendedClassification ext = ClassifyExtended(t);
  std::printf("linear:                   %s\n", ext.linear ? "yes" : "no");
  std::printf("frontier-one:             %s\n",
              ext.frontier_one ? "yes" : "no");
  std::printf("joinless:                 %s\n", ext.joinless ? "yes" : "no");
  std::printf("domain-restricted:        %s\n",
              ext.domain_restricted ? "yes" : "no");
  std::printf("shy:                      %s\n", ext.shy ? "yes" : "no");
  TerminationCertificate cert = AnalyzeTermination(t, syms);
  std::printf("termination:              %s%s\n", CertificateKindName(cert.kind),
              cert.terminating() ? " (skolem chase terminates)" : "");
  // Per-rule diagnosis for the tightest failing class.
  PositionSet affected = AffectedPositions(t);
  for (size_t i = 0; i < t.rules().size(); ++i) {
    const Rule& r = t.rules()[i];
    if (!IsWeaklyFrontierGuardedRule(r, affected)) {
      std::printf("  rule %zu is not weakly frontier-guarded: %s\n", i,
                  ToString(r, syms).c_str());
    }
  }
  return 0;
}

int Normalize(const ParsedArgs& args) {
  SymbolTable syms;
  auto text = ReadFile(args.file.c_str());
  if (!text.ok()) return Fail(text.status().message());
  auto program = ParseProgram(text.value(), &syms);
  if (!program.ok()) return Fail(program.status().message());
  Theory normal = gerel::Normalize(program.value().theory, &syms);
  std::printf("%s", ToString(normal, syms).c_str());
  return 0;
}

int RunChase(const ParsedArgs& args) {
  SymbolTable syms;
  auto text = ReadFile(args.file.c_str());
  if (!text.ok()) return Fail(text.status().message());
  auto program = ParseProgram(text.value(), &syms);
  if (!program.ok()) return Fail(program.status().message());
  if (program.value().theory.HasNegation()) {
    return Fail(std::string(kChaseNeedsPositive) +
                " (for stratified negation use answer --route=datalog)");
  }
  ChaseOptions chase_opts = args.chase;
  ExecutionBudget budget(CliBudget(args), GlobalFaultPlan());
  if (args.timeout_ms > 0) chase_opts.budget = &budget;
  ChaseResult r = Chase(program.value().theory, program.value().database,
                        &syms, chase_opts);
  std::fprintf(stderr, "chase: %zu atoms, %zu steps, saturated=%d\n",
               r.database.size(), r.steps, r.saturated);
  if (r.degradation.degraded()) {
    std::fprintf(stderr, "chase: degraded (%s); atoms are sound but "
                 "possibly incomplete\n",
                 r.degradation.ToString().c_str());
  }
  std::printf("%s", ToString(r.database, syms).c_str());
  return r.saturated ? 0 : 2;
}

int Tree(const ParsedArgs& args) {
  SymbolTable syms;
  auto text = ReadFile(args.file.c_str());
  if (!text.ok()) return Fail(text.status().message());
  auto program = ParseProgram(text.value(), &syms);
  if (!program.ok()) return Fail(program.status().message());
  auto tree = BuildChaseTree(program.value().theory,
                             program.value().database, &syms, args.chase);
  if (!tree.ok()) return Fail(tree.status().message());
  for (size_t i = 0; i < tree.value().nodes.size(); ++i) {
    const ChaseTreeNode& node = tree.value().nodes[i];
    std::printf("node %zu (parent %d, depth %zu):\n", i, node.parent,
                tree.value().Depth(i));
    for (const Atom& a : node.atoms) {
      std::printf("  %s\n", ToString(a, syms).c_str());
    }
  }
  Status props = CheckChaseTreeProperties(
      tree.value(), program.value().theory, program.value().database);
  std::fprintf(stderr, "Prop 2 (P1)-(P3): %s\n",
               props.ok() ? "hold" : props.message().c_str());
  return 0;
}

int Translate(const ParsedArgs& args) {
  SymbolTable syms;
  auto text = ReadFile(args.file.c_str());
  if (!text.ok()) return Fail(text.status().message());
  auto program = ParseProgram(text.value(), &syms);
  if (!program.ok()) return Fail(program.status().message());
  const Theory& t = program.value().theory;
  if (args.mode == "fg2ng" || args.mode == "nfg2ng") {
    Theory normal = gerel::Normalize(t, &syms);
    auto rew = args.mode == "fg2ng"
                   ? RewriteFgToNearlyGuarded(normal, &syms)
                   : RewriteNfgToNearlyGuarded(normal, &syms);
    if (!rew.ok()) return Fail(rew.status().message());
    std::fprintf(stderr, "%zu rules, complete=%d\n",
                 rew.value().theory.size(), rew.value().complete);
    std::printf("%s", ToString(rew.value().theory, syms).c_str());
    return 0;
  }
  if (args.mode == "wfg2wg") {
    Theory normal = gerel::Normalize(t, &syms);
    auto rew = RewriteWfgToWeaklyGuarded(normal, &syms);
    if (!rew.ok()) return Fail(rew.status().message());
    std::fprintf(stderr, "%zu rules, complete=%d\n",
                 rew.value().theory.size(), rew.value().complete);
    std::printf("%s", ToString(rew.value().theory, syms).c_str());
    return 0;
  }
  if (args.mode == "g2dat") {
    SaturationOptions sopts;
    if (args.max_rules > 0) sopts.max_rules = args.max_rules;
    sopts.num_threads = args.threads;
    auto sat = Saturate(t, &syms, sopts);
    if (!sat.ok()) return Fail(sat.status().message());
    std::fprintf(stderr, "closure %zu, datalog %zu, complete=%d\n",
                 sat.value().closure.size(), sat.value().datalog.size(),
                 sat.value().complete);
    std::printf("%s", ToString(sat.value().datalog, syms).c_str());
    return 0;
  }
  if (args.mode == "ng2dat") {
    SaturationOptions sopts;
    if (args.max_rules > 0) sopts.max_rules = args.max_rules;
    sopts.num_threads = args.threads;
    auto dat = NearlyGuardedToDatalog(t, &syms, sopts);
    if (!dat.ok()) return Fail(dat.status().message());
    std::fprintf(stderr, "%zu datalog rules, complete=%d\n",
                 dat.value().datalog.size(), dat.value().complete);
    std::printf("%s", ToString(dat.value().datalog, syms).c_str());
    return 0;
  }
  return Fail("unknown translation mode: " + args.mode);
}

int Answer(const ParsedArgs& args) {
  SymbolTable syms;
  auto text = ReadFile(args.file.c_str());
  if (!text.ok()) return Fail(text.status().message());
  auto program = ParseProgram(text.value(), &syms);
  if (!program.ok()) return Fail(program.status().message());
  RelationId q = syms.FindRelation(args.relation);
  if (q == kUnknownRelation) {
    return Fail("relation not found: " + args.relation);
  }
  std::set<std::vector<Term>> answers;
  bool incomplete = false;
  BudgetLimits limits = CliBudget(args);
  ExecutionBudget budget(limits, GlobalFaultPlan());
  ExecutionBudget* budget_ptr = limits.unlimited() ? nullptr : &budget;
  DegradationReason degradation;
  if (args.route == "chase") {
    if (program.value().theory.HasNegation()) {
      return Fail(std::string(kChaseNeedsPositive) + " (try --route=datalog)");
    }
    ChaseOptions chase_opts = args.chase;
    chase_opts.budget = budget_ptr;
    ChaseResult r = Chase(program.value().theory, program.value().database,
                          &syms, chase_opts);
    for (uint32_t ai : r.database.AtomsOf(q)) {
      const Atom& a = r.database.atom(ai);
      if (a.IsGroundOverConstants()) answers.insert(a.args);
    }
    if (!r.saturated) {
      incomplete = true;
      degradation = r.degradation;
    }
  } else if (args.route == "datalog") {
    // Translate (Prop 4 + Prop 6) then evaluate.
    ExpansionOptions expansion;
    SaturationOptions saturation;
    if (args.max_rules > 0) {
      expansion.max_rules = args.max_rules;
      saturation.max_rules = args.max_rules;
    }
    expansion.budget = budget_ptr;
    saturation.budget = budget_ptr;
    saturation.num_threads = args.threads;
    Theory normal = gerel::Normalize(program.value().theory, &syms);
    auto rew = RewriteNfgToNearlyGuarded(normal, &syms, expansion);
    if (!rew.ok()) return Fail(rew.status().message() +
                               " (try --route=chase)");
    auto dat = NearlyGuardedToDatalog(rew.value().theory, &syms, saturation);
    if (!dat.ok()) return Fail(dat.status().message());
    if (!rew.value().complete || !dat.value().complete) {
      incomplete = true;
      degradation = rew.value().complete ? dat.value().degradation
                                         : rew.value().degradation;
    }
    DatalogOptions dopts;
    dopts.budget = budget_ptr;
    auto eval = EvaluateDatalog(dat.value().datalog,
                                program.value().database, &syms, dopts);
    if (!eval.ok()) return Fail(eval.status().message());
    if (!eval.value().complete) {
      incomplete = true;
      if (!degradation.degraded()) degradation = eval.value().degradation;
    }
    for (uint32_t ai : eval.value().database.AtomsOf(q)) {
      const Atom& a = eval.value().database.atom(ai);
      if (a.IsGroundOverConstants()) answers.insert(a.args);
    }
  } else {
    return Fail("unknown route: " + args.route);
  }
  if (incomplete) {
    std::fprintf(stderr,
                 "warning: answers are sound but may be incomplete (%s)\n",
                 degradation.degraded() ? degradation.ToString().c_str()
                                        : "a stage hit a size cap");
  }
  for (const std::vector<Term>& tuple : answers) {
    std::printf("%s(", args.relation.c_str());
    for (size_t i = 0; i < tuple.size(); ++i) {
      if (i > 0) std::printf(", ");
      std::printf("%s", syms.TermName(tuple[i]).c_str());
    }
    std::printf(")\n");
  }
  std::fprintf(stderr, "%zu answers\n", answers.size());
  return incomplete ? 3 : 0;
}

// Longest serve input line accepted; longer lines are drained and
// reported instead of ballooning memory.
constexpr size_t kMaxServeLine = size_t{1} << 20;

// Reads one line (up to `cap` bytes) from `in`. Returns false at EOF
// with no pending content. Oversized lines are consumed to their
// newline, truncated, and flagged via *oversized.
bool ReadLineBounded(std::istream& in, std::string* line, size_t cap,
                     bool* oversized) {
  line->clear();
  *oversized = false;
  int ch;
  while ((ch = in.get()) != EOF) {
    if (ch == '\n') return true;
    if (line->size() < cap) {
      line->push_back(static_cast<char>(ch));
    } else {
      *oversized = true;
    }
  }
  return !line->empty();
}

int Serve(const ParsedArgs& args) {
  // A reader that goes away mid-session must surface as a write error,
  // not a SIGPIPE kill.
#ifdef SIGPIPE
  std::signal(SIGPIPE, SIG_IGN);
#endif
  auto text = ReadFile(args.file.c_str());
  if (!text.ok()) return Fail(text.status().message());
  uint64_t fingerprint =
      server::TenantRegistry::FingerprintText(text.value());
  PreparedKbOptions options;
  options.pipeline.CapRules(args.max_rules);
  options.pipeline.saturation.num_threads = args.threads;
  options.budget = CliBudget(args);
  SymbolTable syms;
  std::unique_ptr<PreparedKb> kb;
  if (!args.snapshot.empty()) {
    auto loaded =
        PreparedKb::LoadSnapshot(args.snapshot, &syms, options, fingerprint);
    if (loaded.ok()) {
      kb = std::move(loaded).value();
      std::fprintf(stderr, "loaded snapshot %s\n", args.snapshot.c_str());
    } else {
      std::fprintf(stderr, "gerel: %s; re-materializing\n",
                   loaded.status().message().c_str());
      // A failed load may have partially interned names; start over.
      syms = SymbolTable();
    }
  }
  if (kb == nullptr) {
    auto program = ParseProgram(text.value(), &syms);
    if (!program.ok()) return Fail(program.status().message());
    auto prepared = PreparedKb::Prepare(program.value().theory,
                                        program.value().database, &syms,
                                        options);
    if (!prepared.ok()) return Fail(prepared.status().message());
    kb = std::move(prepared).value();
    kb->set_snapshot_fingerprint(fingerprint);
    if (!args.snapshot.empty()) {
      Status s = kb->SaveSnapshot(args.snapshot);
      if (!s.ok()) std::fprintf(stderr, "gerel: %s\n", s.message().c_str());
    }
  }
  ServiceStats prepared_stats = kb->stats();
  std::fprintf(stderr,
               "prepared: mode=%s, %llu datalog rules, %llu model atoms, "
               "%.1f ms%s\n",
               ModeName(kb->mode()),
               static_cast<unsigned long long>(prepared_stats.datalog_rules),
               static_cast<unsigned long long>(prepared_stats.model_atoms),
               prepared_stats.prepare_wall_ms,
               kb->prepare_complete() ? "" : " (incomplete)");
  ServiceSession session(kb.get(), &syms);
  std::string line;
  bool oversized = false;
  bool io_error = false;
  while (ReadLineBounded(std::cin, &line, kMaxServeLine, &oversized)) {
    ServiceSession::Response r;
    if (oversized) {
      r.error = true;
      r.text = "error: input line exceeds " +
               std::to_string(kMaxServeLine) + " bytes; skipped\n";
      io_error = true;
    } else {
      r = session.HandleLine(line);
    }
    std::fputs(r.text.c_str(), stdout);
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
      std::fprintf(stderr, "gerel: stdout write failed; exiting\n");
      io_error = true;
      break;
    }
    if (r.quit) break;
  }
  if (!args.snapshot.empty()) {
    Status s = kb->SaveSnapshot(args.snapshot);
    if (!s.ok()) std::fprintf(stderr, "gerel: %s\n", s.message().c_str());
  }
  std::fputs(kb->stats().ToString().c_str(), stderr);
  if (session.saw_incomplete()) return 3;
  return (session.saw_error() || io_error) ? 1 : 0;
}

int Dot(const ParsedArgs& args) {
  SymbolTable syms;
  auto text = ReadFile(args.file.c_str());
  if (!text.ok()) return Fail(text.status().message());
  auto program = ParseProgram(text.value(), &syms);
  if (!program.ok()) return Fail(program.status().message());
  if (args.mode == "preds") {
    std::printf("%s", PredicateGraphDot(program.value().theory, syms).c_str());
    return 0;
  }
  if (args.mode == "positions") {
    std::printf("%s", PositionGraphDot(program.value().theory, syms).c_str());
    return 0;
  }
  if (args.mode == "tree") {
    auto tree = BuildChaseTree(program.value().theory,
                               program.value().database, &syms, args.chase);
    if (!tree.ok()) return Fail(tree.status().message());
    std::printf("%s", ChaseTreeDot(tree.value(), syms).c_str());
    return 0;
  }
  return Fail("unknown dot mode: " + args.mode);
}

int Usage();

// Differential conformance fuzzing (src/testing/, DESIGN.md §8). Flags
// accept both "--seed=1" and "--seed 1".
int Fuzz(int argc, char** argv) {
  unsigned seed = 1;
  size_t iters = 100;
  std::string lane = "conformance";
  std::vector<testing::GenClass> classes;  // Empty = all seven.
  testing::DiffOptions opts;
  opts.shrink = false;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* name) -> const char* {
      std::string prefix = std::string(name) + "=";
      if (arg.rfind(prefix, 0) == 0) return arg.c_str() + prefix.size();
      if (arg == name && i + 1 < argc) return argv[++i];
      return nullptr;
    };
    const char* v = nullptr;
    if ((v = value("--seed")) != nullptr) {
      seed = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if ((v = value("--iters")) != nullptr) {
      iters = static_cast<size_t>(std::strtoul(v, nullptr, 10));
    } else if ((v = value("--lane")) != nullptr) {
      lane = v;
      if (lane != "conformance" && lane != "fault-recovery" &&
          lane != "crud" && lane != "termination") {
        std::fprintf(stderr,
                     "gerel fuzz: unknown lane '%s' "
                     "(conformance|fault-recovery|crud|termination)\n",
                     v);
        return 64;
      }
    } else if ((v = value("--threads")) != nullptr) {
      opts.num_threads = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if ((v = value("--class")) != nullptr) {
      testing::GenClass cls;
      if (std::string(v) != "all") {
        if (!testing::ParseGenClass(v, &cls)) {
          std::fprintf(stderr,
                       "gerel fuzz: unknown class '%s' "
                       "(dlg|g|fg|wg|wfg|ng|nfg|all)\n",
                       v);
          return 64;
        }
        classes.push_back(cls);
      }
    } else if ((v = value("--fault")) != nullptr) {
      if (!testing::ParseFault(v, &opts.fault)) {
        std::fprintf(stderr,
                     "gerel fuzz: unknown fault '%s' (none|drop-acdom-guard|"
                     "skip-saturation-step|stale-answer-cache)\n",
                     v);
        return 64;
      }
    } else if (arg == "--shrink") {
      opts.shrink = true;
    } else if (arg == "--log-cases") {
      opts.log_cases = true;
    } else {
      return Usage();
    }
  }
  testing::DiffReport report =
      lane == "fault-recovery"
          ? testing::RunFaultRecovery(seed, iters, classes, opts)
          : lane == "crud"
              ? testing::RunCrud(seed, iters, classes, opts)
              : lane == "termination"
                  ? testing::RunTermination(seed, iters, classes, opts)
                  : testing::RunDifferential(seed, iters, classes, opts);
  if (opts.log_cases) std::printf("%s", report.transcript.c_str());
  std::printf("fuzz: %zu cases (%zu checked, %zu skipped), %zu failure%s\n",
              report.iterations, report.checked, report.skipped,
              report.failures.size(),
              report.failures.size() == 1 ? "" : "s");
  for (const testing::DiffFailure& f : report.failures) {
    std::printf("FAIL class=%s iteration=%zu seed=%u lane=%s\n  %s\n",
                testing::GenClassTag(f.cls), f.iteration, f.case_seed,
                f.lane.c_str(), f.detail.c_str());
    std::printf("repro (%zu rules):\n%s", f.repro_rules, f.repro.c_str());
  }
  return report.ok() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: gerel classify|normalize|chase|tree <program>\n"
               "       gerel check <program> [--json] [--explain] [--dot] "
               "[--deny=CODE]\n"
               "       gerel translate fg2ng|nfg2ng|wfg2wg|g2dat|ng2dat "
               "<program>\n"
               "       gerel answer <program> <relation> "
               "[--route=chase|datalog]\n"
               "       gerel serve <program> [--threads=N] "
               "[--snapshot=PATH]\n"
               "       gerel fuzz [--seed N] [--iters N] [--class "
               "dlg|g|fg|wg|wfg|ng|nfg|\n"
               "                   lin|f1|jl|dr|shy|all]\n"
               "                  [--lane conformance|fault-recovery|crud|"
               "termination]\n"
               "                  [--shrink] [--threads N (saturation lanes "
               "of the KB checks)]\n"
               "                  [--fault F] [--log-cases]\n"
               "       gerel dot preds|positions|tree <program>\n"
               "flags: --max-steps=N --max-atoms=N --max-depth=N "
               "--max-rules=N --threads=N (saturation lanes)\n"
               "       --timeout-ms=N (degrade to sound partial results "
               "on budget exhaustion)\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "fuzz") == 0) {
    return Fuzz(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "check") == 0) {
    return Check(argc, argv);
  }
  if (argc < 3) return Usage();
  ParsedArgs args;
  args.command = argv[1];
  int pos = 2;
  if (args.command == "translate" || args.command == "dot") {
    if (argc < 4) return Usage();
    args.mode = argv[pos++];
  }
  args.file = argv[pos++];
  if (args.command == "answer") {
    if (pos >= argc) return Usage();
    args.relation = argv[pos++];
  }
  for (int i = pos; i < argc; ++i) {
    long value = 0;
    if (ParseFlag(argv[i], "--max-steps", &value)) {
      args.chase.max_steps = static_cast<size_t>(value);
    } else if (ParseFlag(argv[i], "--max-atoms", &value)) {
      args.chase.max_atoms = static_cast<size_t>(value);
      args.budget_atoms = static_cast<uint64_t>(value);
    } else if (ParseFlag(argv[i], "--timeout-ms", &value)) {
      args.timeout_ms = static_cast<double>(value);
    } else if (std::strncmp(argv[i], "--snapshot=", 11) == 0) {
      args.snapshot = argv[i] + 11;
    } else if (ParseFlag(argv[i], "--max-depth", &value)) {
      args.chase.max_null_depth = static_cast<uint32_t>(value);
    } else if (ParseFlag(argv[i], "--max-rules", &value)) {
      args.max_rules = static_cast<size_t>(value);
    } else if (ParseFlag(argv[i], "--threads", &value)) {
      args.threads = static_cast<size_t>(value);
    } else if (std::strncmp(argv[i], "--route=", 8) == 0) {
      args.route = argv[i] + 8;
    } else {
      return Usage();
    }
  }
  if (args.command == "classify") return Classify(args);
  if (args.command == "normalize") return Normalize(args);
  if (args.command == "chase") return RunChase(args);
  if (args.command == "tree") return Tree(args);
  if (args.command == "translate") return Translate(args);
  if (args.command == "answer") return Answer(args);
  if (args.command == "serve") return Serve(args);
  if (args.command == "dot") return Dot(args);
  return Usage();
}
