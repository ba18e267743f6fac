#include "testing/differential.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>

#include <unistd.h>

#include "analyze/analyze.h"
#include "analyze/render.h"
#include "analyze/termination.h"
#include "chase/chase.h"
#include "core/budget.h"
#include "core/classify.h"
#include "core/fault.h"
#include "core/normalize.h"
#include "core/printer.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "service/prepared_kb.h"
#include "testing/shrink.h"
#include "transform/pipeline.h"
#include "transform/saturation.h"

namespace gerel::testing {

namespace {

using AnswerSet = std::set<std::vector<Term>>;

// Deterministic per-case seed: splitmix64 over (base seed, class, iter).
unsigned CaseSeed(unsigned seed, unsigned cls, unsigned iter) {
  uint64_t z = static_cast<uint64_t>(seed) * 0x9E3779B97F4A7C15ull +
               static_cast<uint64_t>(cls) * 0xBF58476D1CE4E5B9ull +
               static_cast<uint64_t>(iter) * 0x94D049BB133111EBull;
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<unsigned>(z ^ (z >> 32));
}

std::set<std::string> GroundFactSet(const Database& db, const Theory& theory,
                                    const SymbolTable& symbols) {
  std::set<RelationId> rels;
  for (RelationId r : theory.Relations()) rels.insert(r);
  std::set<std::string> out;
  for (const Atom& a : db.atoms()) {
    if (rels.count(a.pred) > 0 && a.IsGroundOverConstants()) {
      out.insert(ToString(a, symbols));
    }
  }
  return out;
}

AnswerSet CollectAnswers(const Database& db, RelationId output) {
  AnswerSet out;
  for (uint32_t i : db.AtomsOf(output)) {
    const Atom& a = db.atom(i);
    if (a.IsGroundOverConstants()) out.insert(a.args);
  }
  return out;
}

// Whether Prepare saturates on this route (dat(Σ) or dat(pg(Σ, D))), the
// only routes that SaturationOptions::num_threads reaches.
bool SaturatesOnPrepare(PreparedKb::Mode mode) {
  return mode == PreparedKb::Mode::kGuarded ||
         mode == PreparedKb::Mode::kWeaklyGuarded;
}

bool IsSubset(const AnswerSet& small, const AnswerSet& big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

std::string TupleString(const std::vector<Term>& tuple,
                        const SymbolTable& symbols) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) out += ", ";
    out += ToString(tuple[i], symbols);
  }
  return out + ")";
}

std::string DescribeAnswerDiff(const AnswerSet& expect, const AnswerSet& got,
                               const SymbolTable& symbols) {
  std::string out = "expected " + std::to_string(expect.size()) +
                    " answers, got " + std::to_string(got.size());
  for (const auto& t : expect) {
    if (got.count(t) == 0) {
      out += "; missing " + TupleString(t, symbols);
      break;
    }
  }
  for (const auto& t : got) {
    if (expect.count(t) == 0) {
      out += "; extra " + TupleString(t, symbols);
      break;
    }
  }
  return out;
}

std::string DescribeFactDiff(const std::set<std::string>& expect,
                             const std::set<std::string>& got) {
  std::string out = "expected " + std::to_string(expect.size()) +
                    " facts, got " + std::to_string(got.size());
  for (const std::string& s : expect) {
    if (got.count(s) == 0) {
      out += "; missing " + s;
      break;
    }
  }
  for (const std::string& s : got) {
    if (expect.count(s) == 0) {
      out += "; extra " + s;
      break;
    }
  }
  return out;
}

// Applies a constant renaming (metamorphic lane M2).
Atom RenameAtom(const Atom& a, const std::map<Term, Term>& map) {
  Atom out = a;
  for (Term& t : out.args) {
    auto it = map.find(t);
    if (it != map.end()) t = it->second;
  }
  for (Term& t : out.annotation) {
    auto it = map.find(t);
    if (it != map.end()) t = it->second;
  }
  return out;
}

Rule RenameRule(const Rule& r, const std::map<Term, Term>& map) {
  Rule out = r;
  for (Literal& l : out.body) l.atom = RenameAtom(l.atom, map);
  for (Atom& h : out.head) h = RenameAtom(h, map);
  return out;
}

// Chase of (Σ ∪ {acdom-guarded cq}, D), collecting the query answers.
// Returns false (unsaturated) in *saturated if caps were hit.
AnswerSet ChaseCqAnswers(const Theory& theory, const Rule& cq,
                         const Database& db, SymbolTable* symbols,
                         const ChaseOptions& options, bool* saturated) {
  Theory with_q = theory;
  with_q.AddRule(GuardConjunctiveQuery(cq, symbols));
  ChaseResult r = Chase(with_q, db, symbols, options);
  *saturated = r.saturated;
  return CollectAnswers(r.database, cq.head[0].pred);
}

}  // namespace

const char* FaultTag(Fault fault) {
  switch (fault) {
    case Fault::kNone: return "none";
    case Fault::kDropAcdomGuard: return "drop-acdom-guard";
    case Fault::kSkipSaturationStep: return "skip-saturation-step";
    case Fault::kStaleAnswerCache: return "stale-answer-cache";
  }
  return "?";
}

bool ParseFault(std::string_view tag, Fault* out) {
  for (Fault f : {Fault::kNone, Fault::kDropAcdomGuard,
                  Fault::kSkipSaturationStep, Fault::kStaleAnswerCache}) {
    if (tag == FaultTag(f)) {
      *out = f;
      return true;
    }
  }
  return false;
}

CaseVerdict CheckCase(const GeneratedCase& c, SymbolTable* symbols,
                      const DiffOptions& options, DiffFailure* failure) {
  failure->cls = c.cls;
  failure->case_seed = c.seed;
  auto fail = [&](const char* lane, std::string detail) {
    failure->lane = lane;
    failure->detail = std::move(detail);
    return CaseVerdict::kFail;
  };

  // Lint lane: every generated theory must pass through the static
  // analyzer without crashing, and the rendered diagnostics must be
  // byte-identical across runs (Analyze is a pure function of the
  // case). Runs before the oracle so even skipped cases are linted.
  {
    AnalyzeOptions ao;
    ao.explain = true;
    RenderOptions ro;
    ro.file = "<fuzz>";
    AnalysisResult a1 = Analyze(c.theory, c.database, *symbols, ao);
    AnalysisResult a2 = Analyze(c.theory, c.database, *symbols, ao);
    std::string r1 = RenderText(a1, ro) + RenderJson(a1, ro);
    std::string r2 = RenderText(a2, ro) + RenderJson(a2, ro);
    if (r1 != r2) {
      return fail("lint-determinism",
                  "two Analyze runs rendered different diagnostics");
    }
  }

  // Ground truth: the naive oracle. Unsaturated instances are skipped
  // (certain-answer comparison needs a terminating chase).
  OracleResult oracle = OracleChase(c.theory, c.database, symbols,
                                    options.oracle);
  if (!oracle.saturated) return CaseVerdict::kSkip;
  std::set<std::string> facts_expect =
      OracleGroundFacts(oracle, c.theory, *symbols);
  AnswerSet expect = OracleCqAnswers(oracle, c.query);

  // The production chase gets generous caps: it fires the same oblivious
  // triggers as the oracle, so if the oracle saturated, it must too.
  ChaseOptions chase_opts;
  chase_opts.max_steps = options.oracle.max_steps * 20;
  chase_opts.max_atoms = options.oracle.max_atoms * 20;

  // Lane: oracle vs. production chase, ground facts.
  ChaseResult chase = Chase(c.theory, c.database, symbols, chase_opts);
  if (!chase.saturated) {
    return fail("chase-saturation",
                "oracle saturated but the production chase did not");
  }
  std::set<std::string> facts_chase =
      GroundFactSet(chase.database, c.theory, *symbols);
  if (facts_chase != facts_expect) {
    return fail("oracle-vs-chase-facts",
                DescribeFactDiff(facts_expect, facts_chase));
  }

  // Lane: oracle vs. chase CQ answers.
  bool sat = false;
  AnswerSet chase_ans =
      ChaseCqAnswers(c.theory, c.query, c.database, symbols, chase_opts, &sat);
  if (sat && chase_ans != expect) {
    return fail("oracle-vs-chase-answers",
                DescribeAnswerDiff(expect, chase_ans, *symbols));
  }

  // Metamorphic: fact-order permutation (reverse the database).
  if (sat) {
    Database reversed;
    std::vector<Atom> atoms = c.database.AtomsVector();
    for (auto it = atoms.rbegin(); it != atoms.rend(); ++it) {
      reversed.Insert(*it);
    }
    bool rsat = false;
    AnswerSet rans = ChaseCqAnswers(c.theory, c.query, reversed, symbols,
                                    chase_opts, &rsat);
    if (rsat && rans != expect) {
      return fail("metamorphic-fact-order",
                  DescribeAnswerDiff(expect, rans, *symbols));
    }

    // Metamorphic: bijective constant renaming. Answers must be the
    // renamed answers.
    std::map<Term, Term> ren;
    for (const Atom& a : c.database.atoms()) {
      for (Term t : a.AllTerms()) {
        if (t.IsConstant() && ren.count(t) == 0) {
          ren[t] = symbols->Constant("rn_" + symbols->TermName(t));
        }
      }
    }
    for (Term t : c.theory.Constants()) {
      if (ren.count(t) == 0) {
        ren[t] = symbols->Constant("rn_" + symbols->TermName(t));
      }
    }
    Theory rth;
    for (const Rule& r : c.theory.rules()) rth.AddRule(RenameRule(r, ren));
    Database rdb;
    for (const Atom& a : c.database.atoms()) rdb.Insert(RenameAtom(a, ren));
    Rule rq = RenameRule(c.query, ren);
    AnswerSet mapped;
    for (const std::vector<Term>& t : expect) {
      std::vector<Term> m = t;
      for (Term& x : m) {
        auto it = ren.find(x);
        if (it != ren.end()) x = it->second;
      }
      mapped.insert(std::move(m));
    }
    bool msat = false;
    AnswerSet mans = ChaseCqAnswers(rth, rq, rdb, symbols, chase_opts, &msat);
    if (msat && mans != mapped) {
      return fail("metamorphic-renaming",
                  DescribeAnswerDiff(mapped, mans, *symbols));
    }

    // Metamorphic: rule duplication never changes certain answers.
    if (c.theory.size() > 0) {
      Theory dup = c.theory;
      dup.AddRule(c.theory.rules()[0]);
      bool dsat = false;
      AnswerSet dans =
          ChaseCqAnswers(dup, c.query, c.database, symbols, chase_opts, &dsat);
      if (dsat && dans != expect) {
        return fail("metamorphic-rule-dup",
                    DescribeAnswerDiff(expect, dans, *symbols));
      }
    }
  }

  Classification cls = Classify(c.theory);

  // Shared pipeline caps: these theories are tiny, so a closure that
  // runs away is pathological — bound it hard and fall back to the
  // soundness check (complete=false) rather than burning time (an
  // uncapped fg saturation can take seconds per case).
  KbQueryOptions pipeline_opts;
  pipeline_opts.saturation.max_rules = 400;
  pipeline_opts.saturation.max_body_atoms = 6;
  pipeline_opts.expansion.max_rules = 2000;
  pipeline_opts.grounding.max_rules = 2000;
  if (options.fault == Fault::kSkipSaturationStep) {
    pipeline_opts.saturation.enable_composition = false;
  }
  // A missing saturation step marks the result incomplete; the seeded
  // bug simulates an engine that skips the step *silently*, so the
  // harness must trust such results as if complete.
  bool trust_incomplete = options.fault == Fault::kSkipSaturationStep;

  // Lane: the §7 pipeline (rew → pg → dat → evaluate).
  if (cls.weakly_frontier_guarded) {
    Result<KbQueryResult> r =
        AnswerKbQuery(c.theory, c.query, c.database, symbols, pipeline_opts);
    if (r.ok()) {
      bool complete = r.value().complete || trust_incomplete;
      if (complete && r.value().answers != expect) {
        return fail("oracle-vs-pipeline-wfg",
                    DescribeAnswerDiff(expect, r.value().answers, *symbols));
      }
      if (!IsSubset(r.value().answers, expect)) {
        return fail("pipeline-wfg-unsound",
                    DescribeAnswerDiff(expect, r.value().answers, *symbols));
      }
    }
  }

  // Lane: the nearly frontier-guarded PTime route (Prop 4 + Prop 6).
  // May reject the combined (Σ, cq) on shape; that is a precondition,
  // not a failure.
  if (cls.nearly_frontier_guarded) {
    Result<KbQueryResult> r = AnswerKbQueryNearlyFrontierGuarded(
        c.theory, c.query, c.database, symbols, pipeline_opts);
    if (r.ok()) {
      bool complete = r.value().complete || trust_incomplete;
      if (complete && r.value().answers != expect) {
        return fail("oracle-vs-pipeline-nfg",
                    DescribeAnswerDiff(expect, r.value().answers, *symbols));
      }
      if (!IsSubset(r.value().answers, expect)) {
        return fail("pipeline-nfg-unsound",
                    DescribeAnswerDiff(expect, r.value().answers, *symbols));
      }
    }
  }

  // Lanes: PreparedKb — fresh, cached, N saturation lanes, incremental
  // assert.
  if (cls.weakly_frontier_guarded) {
    PreparedKbOptions po;
    po.pipeline = pipeline_opts;
    if (options.fault == Fault::kDropAcdomGuard) {
      po.datalog.populate_acdom = false;
    }
    Result<std::unique_ptr<PreparedKb>> kb =
        PreparedKb::Prepare(c.theory, c.database, symbols, po);
    AnswerSet fresh_answers;
    bool have_fresh = false;
    bool fresh_complete = false;
    if (kb.ok()) {
      Result<PreparedQueryResult> q1 = kb.value()->Query(c.query);
      if (q1.ok()) {
        have_fresh = true;
        fresh_answers = q1.value().answers;
        fresh_complete =
            q1.value().complete || options.fault != Fault::kNone;
        if (fresh_complete && fresh_answers != expect) {
          return fail("oracle-vs-prepared",
                      DescribeAnswerDiff(expect, fresh_answers, *symbols));
        }
        if (!IsSubset(fresh_answers, expect)) {
          return fail("prepared-unsound",
                      DescribeAnswerDiff(expect, fresh_answers, *symbols));
        }
        // Cache lane: the second query must serve identical answers.
        Result<PreparedQueryResult> q2 = kb.value()->Query(c.query);
        if (q2.ok() && q2.value().answers != fresh_answers) {
          return fail("prepared-cache",
                      DescribeAnswerDiff(fresh_answers, q2.value().answers,
                                         *symbols));
        }
      }
    }

    // Lane: a KB whose prepare saturates (the guarded and weakly guarded
    // routes) answers the same with N saturation lanes. The other routes
    // never saturate, so they skip this prepare.
    if (have_fresh && options.num_threads > 1 &&
        SaturatesOnPrepare(kb.value()->mode())) {
      PreparedKbOptions pn = po;
      pn.pipeline.saturation.num_threads =
          static_cast<size_t>(options.num_threads);
      Result<std::unique_ptr<PreparedKb>> kbn =
          PreparedKb::Prepare(c.theory, c.database, symbols, pn);
      if (kbn.ok()) {
        Result<PreparedQueryResult> qn = kbn.value()->Query(c.query);
        if (qn.ok() && qn.value().answers != fresh_answers) {
          return fail("prepared-threads",
                      DescribeAnswerDiff(fresh_answers, qn.value().answers,
                                         *symbols));
        }
      }
    }

    // Incremental lane: prepare on the first half, assert the rest; the
    // final answers must match the fresh full prepare. Also checks
    // assert-order independence (reversed second half).
    if (have_fresh && c.database.size() >= 2) {
      std::vector<Atom> atoms = c.database.AtomsVector();
      size_t half = atoms.size() / 2;
      Database d1;
      for (size_t i = 0; i < half; ++i) d1.Insert(atoms[i]);
      std::vector<Atom> d2(atoms.begin() + half, atoms.end());
      Result<std::unique_ptr<PreparedKb>> kbi =
          PreparedKb::Prepare(c.theory, d1, symbols, po);
      if (kbi.ok()) {
        AnswerSet stale;
        if (options.fault == Fault::kStaleAnswerCache) {
          Result<PreparedQueryResult> qa = kbi.value()->Query(c.query);
          if (qa.ok()) stale = qa.value().answers;
        }
        Result<AssertResult> ar = kbi.value()->Assert(d2);
        if (ar.ok()) {
          Result<PreparedQueryResult> qi = kbi.value()->Query(c.query);
          if (qi.ok()) {
            // A stale cache serves the pre-assert answers.
            const AnswerSet& inc_answers =
                options.fault == Fault::kStaleAnswerCache
                    ? stale
                    : qi.value().answers;
            bool inc_complete = qi.value().complete ||
                                options.fault != Fault::kNone;
            if (fresh_complete && inc_complete &&
                inc_answers != fresh_answers) {
              return fail(options.fault == Fault::kStaleAnswerCache
                              ? "prepared-stale-cache"
                              : "prepared-incremental",
                          DescribeAnswerDiff(fresh_answers, inc_answers,
                                             *symbols));
            }
          }
        }
        // Assert-order independence: reversed second half.
        std::vector<Atom> d2r(d2.rbegin(), d2.rend());
        Result<std::unique_ptr<PreparedKb>> kbr =
            PreparedKb::Prepare(c.theory, d1, symbols, po);
        if (kbr.ok() && kbr.value()->Assert(d2r).ok()) {
          Result<PreparedQueryResult> qr = kbr.value()->Query(c.query);
          Result<PreparedQueryResult> qi2 = kbi.value()->Query(c.query);
          if (qr.ok() && qi2.ok() &&
              qr.value().answers != qi2.value().answers) {
            return fail("metamorphic-assert-order",
                        DescribeAnswerDiff(qi2.value().answers,
                                           qr.value().answers, *symbols));
          }
        }
      }
    }
  }

  // Lanes: naive vs. semi-naive Datalog (Datalog theories: the least
  // model is the chase, so the oracle facts are ground truth).
  bool is_datalog = true;
  for (const Rule& r : c.theory.rules()) {
    if (!r.IsDatalog()) is_datalog = false;
  }
  if (is_datalog) {
    struct EngineConfig {
      const char* lane;
      bool seminaive;
    };
    const EngineConfig configs[] = {
        {"datalog-naive", false},
        {"datalog-seminaive", true},
    };
    for (const EngineConfig& cfg : configs) {
      DatalogOptions dopt;
      dopt.seminaive = cfg.seminaive;
      Result<DatalogResult> r =
          EvaluateDatalog(c.theory, c.database, symbols, dopt);
      if (!r.ok()) continue;
      std::set<std::string> facts =
          GroundFactSet(r.value().database, c.theory, *symbols);
      if (facts != facts_expect) {
        return fail(cfg.lane, DescribeFactDiff(facts_expect, facts));
      }
    }
  }

  return CaseVerdict::kOk;
}

namespace {

// One fault-recovery case: every faulted run must be byte-identical to
// the clean run or degrade cleanly (subset + populated reason). See the
// header comment on RunFaultRecovery for the lane list.
CaseVerdict CheckFaultRecoveryCase(const GeneratedCase& c,
                                   SymbolTable* symbols,
                                   const DiffOptions& options,
                                   DiffFailure* failure) {
  failure->cls = c.cls;
  failure->case_seed = c.seed;
  auto fail = [&](const char* lane, std::string detail) {
    failure->lane = lane;
    failure->detail = std::move(detail);
    return CaseVerdict::kFail;
  };

  ChaseOptions chase_opts;
  chase_opts.max_steps = options.oracle.max_steps * 20;
  chase_opts.max_atoms = options.oracle.max_atoms * 20;

  // Clean chase: the reference for every faulted run.
  SymbolTable clean_syms = *symbols;
  ChaseResult clean = Chase(c.theory, c.database, &clean_syms, chase_opts);
  std::set<std::string> clean_facts =
      GroundFactSet(clean.database, c.theory, clean_syms);

  // Lane: forced budget exhaustion at a seeded round. The trip happens
  // in CheckRound at a round boundary, so the truncated chase must be a
  // prefix of the clean run (facts ⊆ clean facts) that says why it
  // stopped.
  {
    FaultPlan plan;
    plan.exhaust_stage = GovernedStage::kChase;
    plan.exhaust_round = 1 + c.seed % 3;
    SymbolTable fsyms = *symbols;
    ExecutionBudget budget(BudgetLimits{}, &plan);
    ChaseOptions fopts = chase_opts;
    fopts.budget = &budget;
    ChaseResult faulted = Chase(c.theory, c.database, &fsyms, fopts);
    if (!faulted.saturated) {
      if (!faulted.degradation.degraded()) {
        return fail("fault-chase-reason",
                    "budget-exhausted chase reported no DegradationReason");
      }
      if (faulted.degradation.limit != BudgetLimit::kFault) {
        return fail("fault-chase-reason",
                    "expected a kFault degradation, got " +
                        faulted.degradation.ToString());
      }
    }
    std::set<std::string> faulted_facts =
        GroundFactSet(faulted.database, c.theory, fsyms);
    if (!std::includes(clean_facts.begin(), clean_facts.end(),
                       faulted_facts.begin(), faulted_facts.end())) {
      return fail("fault-chase-unsound",
                  "budget-exhausted chase derived facts outside the "
                  "clean chase");
    }
  }

  Classification cls = Classify(c.theory);
  KbQueryOptions pipeline_opts;
  pipeline_opts.saturation.max_rules = 400;
  pipeline_opts.saturation.max_body_atoms = 6;
  pipeline_opts.expansion.max_rules = 2000;
  pipeline_opts.grounding.max_rules = 2000;

  // Lane: worker-delay injection must never change a single byte of a
  // 2-lane saturation of the case's theory (guarded, negation-free
  // cases, under the KB lanes' saturation caps): the closure, dat(Σ),
  // the inference count and the completeness flag. The delay is 0µs
  // (= thread yield): timed sleeps cost ~1ms of timer granularity per
  // call on small hosts, while a yield perturbs lane interleaving nearly
  // for free.
  if (cls.guarded && !c.theory.HasNegation()) {
    auto saturate = [&](ExecutionBudget* budget) {
      SymbolTable ssyms = *symbols;
      SaturationOptions sopts = pipeline_opts.saturation;
      sopts.num_threads = 2;
      sopts.budget = budget;
      Result<SaturationResult> r = Saturate(c.theory, &ssyms, sopts);
      if (!r.ok()) return std::string(r.status().message());
      return ToString(r.value().closure, ssyms) + "dat\n" +
             ToString(r.value().datalog, ssyms) + "inferences " +
             std::to_string(r.value().inferences) + " complete " +
             std::to_string(r.value().complete);
    };
    FaultPlan plan;
    plan.worker_delay_us = 0;
    plan.worker_delay_every = 7;
    ExecutionBudget budget(BudgetLimits{}, &plan);
    if (saturate(&budget) != saturate(nullptr)) {
      return fail("fault-worker-delay",
                  "worker-delay injection changed the 2-lane saturation");
    }
  }

  // The service lanes need a weakly frontier-guarded theory.
  if (!cls.weakly_frontier_guarded) return CaseVerdict::kOk;
  PreparedKbOptions po;
  po.pipeline = pipeline_opts;

  Result<std::unique_ptr<PreparedKb>> kb =
      PreparedKb::Prepare(c.theory, c.database, symbols, po);
  if (!kb.ok()) return CaseVerdict::kSkip;
  Result<PreparedQueryResult> clean_q = kb.value()->Query(c.query);
  if (!clean_q.ok()) return CaseVerdict::kSkip;
  const AnswerSet& clean_ans = clean_q.value().answers;

  // Lane: forced exhaustion during materialization. Answers must stay
  // sound (⊆ clean), carry complete=false plus a populated reason, and
  // agree across saturation lane counts (round-boundary trips are
  // deterministic). Routes that never saturate run the 1-lane prepare
  // only.
  {
    FaultPlan plan;
    plan.exhaust_stage = GovernedStage::kDatalog;
    plan.exhaust_round = 1;
    SetFaultPlanForTest(&plan);
    AnswerSet first_ans;
    bool have_first = false;
    for (int threads : {1, options.num_threads}) {
      if (threads > 1 && !SaturatesOnPrepare(kb.value()->mode())) break;
      PreparedKbOptions pf = po;
      pf.pipeline.saturation.num_threads = static_cast<size_t>(threads);
      Result<std::unique_ptr<PreparedKb>> kbf =
          PreparedKb::Prepare(c.theory, c.database, symbols, pf);
      if (!kbf.ok()) {
        SetFaultPlanForTest(nullptr);
        return fail("fault-prepared-error",
                    "forced exhaustion failed the prepare instead of "
                    "degrading: " + std::string(kbf.status().message()));
      }
      Result<PreparedQueryResult> qf = kbf.value()->Query(c.query);
      if (!qf.ok()) {
        SetFaultPlanForTest(nullptr);
        return fail("fault-prepared-error",
                    "query on a degraded KB failed: " +
                        std::string(qf.status().message()));
      }
      if (!IsSubset(qf.value().answers, clean_ans)) {
        SetFaultPlanForTest(nullptr);
        return fail("fault-prepared-unsound",
                    DescribeAnswerDiff(clean_ans, qf.value().answers,
                                       *symbols));
      }
      if (!kbf.value()->prepare_complete() &&
          !kbf.value()->degradation().degraded()) {
        SetFaultPlanForTest(nullptr);
        return fail("fault-prepared-reason",
                    "degraded prepare reported no DegradationReason");
      }
      if (!have_first) {
        have_first = true;
        first_ans = qf.value().answers;
      } else if (qf.value().answers != first_ans) {
        SetFaultPlanForTest(nullptr);
        return fail("fault-prepared-determinism",
                    "degraded prepare diverged across saturation lanes");
      }
    }
    SetFaultPlanForTest(nullptr);
  }

  // Snapshot lanes need a writable scratch path, private to this process:
  // two runs with the same seed must not overwrite each other's image.
  const char* tmpdir = std::getenv("TMPDIR");
  std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                     "/gerel-frec-" + std::to_string(getpid()) + "-" +
                     std::to_string(c.seed) + ".snap";

  // Lane: clean snapshot round trip — identical answers and model size.
  {
    Status s = kb.value()->SaveSnapshot(path);
    if (!s.ok()) {
      return fail("fault-snapshot-save", std::string(s.message()));
    }
    SymbolTable load_syms;
    Result<std::unique_ptr<PreparedKb>> loaded =
        PreparedKb::LoadSnapshot(path, &load_syms, po);
    if (!loaded.ok()) {
      std::remove(path.c_str());
      return fail("fault-snapshot-load",
                  "clean snapshot failed to load: " +
                      std::string(loaded.status().message()));
    }
    if (loaded.value()->model_size() != kb.value()->model_size()) {
      std::remove(path.c_str());
      return fail("fault-snapshot-roundtrip", "model size changed");
    }
    Result<PreparedQueryResult> ql = loaded.value()->Query(c.query);
    if (!ql.ok() || ql.value().answers != clean_ans) {
      std::remove(path.c_str());
      return fail("fault-snapshot-roundtrip",
                  ql.ok() ? DescribeAnswerDiff(clean_ans,
                                               ql.value().answers, load_syms)
                          : std::string(ql.status().message()));
    }
  }

  // Lane: seeded truncation and bit-flips are always detected at load,
  // and a fresh Prepare (re-materialization) recovers the clean answers.
  {
    FaultPlan truncate;
    truncate.snapshot_truncate_at = 10 + static_cast<int64_t>(c.seed % 8);
    FaultPlan flip_header;
    flip_header.snapshot_flip_byte = 2;
    FaultPlan flip_payload;
    flip_payload.snapshot_flip_byte = 21 + static_cast<int64_t>(c.seed % 4);
    for (const FaultPlan* plan : {&truncate, &flip_header, &flip_payload}) {
      SetFaultPlanForTest(plan);
      Status s = kb.value()->SaveSnapshot(path);
      SetFaultPlanForTest(nullptr);
      if (!s.ok()) {
        std::remove(path.c_str());
        return fail("fault-snapshot-save", std::string(s.message()));
      }
      SymbolTable load_syms;
      Result<std::unique_ptr<PreparedKb>> loaded =
          PreparedKb::LoadSnapshot(path, &load_syms, po);
      if (loaded.ok()) {
        std::remove(path.c_str());
        return fail("fault-snapshot-corruption",
                    "corrupted snapshot loaded without an error");
      }
    }
    std::remove(path.c_str());
    SymbolTable rsyms = *symbols;
    Result<std::unique_ptr<PreparedKb>> rkb =
        PreparedKb::Prepare(c.theory, c.database, &rsyms, po);
    if (!rkb.ok()) {
      return fail("fault-snapshot-recovery",
                  std::string(rkb.status().message()));
    }
    Result<PreparedQueryResult> qr = rkb.value()->Query(c.query);
    if (!qr.ok() || qr.value().answers != clean_ans) {
      return fail("fault-snapshot-recovery",
                  "re-materialization after corruption diverged from the "
                  "clean run");
    }
  }

  return CaseVerdict::kOk;
}

// Certain ground facts of a materialized model (theory relations, plus
// acdom, which PreparedKb::Retract maintains apart from the program;
// atoms mentioning labeled nulls are identity-sensitive and excluded).
std::set<std::string> GroundFactSetOf(const std::vector<Atom>& atoms,
                                      const Theory& theory,
                                      const SymbolTable& symbols) {
  std::set<RelationId> rels;
  for (RelationId r : theory.Relations()) rels.insert(r);
  rels.insert(symbols.FindRelation(kAcdomName));
  std::set<std::string> out;
  for (const Atom& a : atoms) {
    if (rels.count(a.pred) > 0 && a.IsGroundOverConstants()) {
      out.insert(ToString(a, symbols));
    }
  }
  return out;
}

// One CRUD case under one planner setting, shared by the live KB and
// every fresh KB it is compared with: see the RunCrud header comment for
// the checked properties.
CaseVerdict CheckCrudCaseWith(const GeneratedCase& c, SymbolTable* symbols,
                              const DiffOptions& options, bool planner,
                              DiffFailure* failure) {
  failure->cls = c.cls;
  failure->case_seed = c.seed;
  auto fail = [&](const char* lane, std::string detail) {
    failure->lane = lane;
    failure->detail =
        (planner ? "planner on: " : "planner off: ") + std::move(detail);
    return CaseVerdict::kFail;
  };

  Classification cls = Classify(c.theory);
  if (!cls.weakly_frontier_guarded) return CaseVerdict::kSkip;

  KbQueryOptions pipeline_opts;
  pipeline_opts.saturation.max_rules = 400;
  pipeline_opts.saturation.max_body_atoms = 6;
  pipeline_opts.expansion.max_rules = 2000;
  pipeline_opts.grounding.max_rules = 2000;
  PreparedKbOptions po;
  po.pipeline = pipeline_opts;
  po.pipeline.saturation.num_threads =
      static_cast<size_t>(options.num_threads);
  po.planner = planner;

  bool is_datalog = true;
  for (const Rule& r : c.theory.rules()) {
    if (!r.IsDatalog()) is_datalog = false;
  }

  // Start the KB on a prefix of the generated database; the suffix is
  // the assert pool.
  std::vector<Atom> all = c.database.AtomsVector();
  size_t start_n = (all.size() * 2) / 3;
  if (start_n == 0 && !all.empty()) start_n = 1;
  std::vector<Atom> edb(all.begin(), all.begin() + start_n);
  std::vector<Atom> pool(all.begin() + start_n, all.end());
  Database d0;
  for (const Atom& a : edb) d0.Insert(a);
  Result<std::unique_ptr<PreparedKb>> prepared =
      PreparedKb::Prepare(c.theory, d0, symbols, po);
  if (!prepared.ok()) return CaseVerdict::kSkip;
  PreparedKb* kb = prepared.value().get();

  size_t compared = 0;
  bool checkpoint_failed = false;
  // Human-readable op trace, prefixed to failure details so a repro
  // names the exact interleaving.
  std::string ops_log;
  // Compares the live KB against a fresh Prepare from the surviving
  // EDB. Returns false with *failure set when a property is violated.
  auto checkpoint = [&](const char* when) -> bool {
    Database cur;
    for (const Atom& a : edb) cur.Insert(a);
    Result<std::unique_ptr<PreparedKb>> fresh =
        PreparedKb::Prepare(c.theory, cur, symbols, po);
    if (!fresh.ok()) return true;  // Nothing comparable.
    if (kb->prepare_complete() && fresh.value()->prepare_complete()) {
      std::set<std::string> live_facts;
      std::set<std::string> fresh_facts;
      if (is_datalog) {
        // Null-free models compare exactly.
        for (const Atom& a : kb->ModelAtoms()) {
          live_facts.insert(ToString(a, *symbols));
        }
        for (const Atom& a : fresh.value()->ModelAtoms()) {
          fresh_facts.insert(ToString(a, *symbols));
        }
      } else {
        live_facts = GroundFactSetOf(kb->ModelAtoms(), c.theory, *symbols);
        fresh_facts =
            GroundFactSetOf(fresh.value()->ModelAtoms(), c.theory, *symbols);
      }
      if (live_facts != fresh_facts) {
        fail("crud-model", "[" + ops_log + "] " + when + ": " +
                               DescribeFactDiff(fresh_facts, live_facts));
        return false;
      }
      ++compared;
    }
    Result<PreparedQueryResult> ql = kb->Query(c.query);
    Result<PreparedQueryResult> qf = fresh.value()->Query(c.query);
    if (ql.ok() && qf.ok() && qf.value().complete) {
      if (ql.value().complete) {
        if (ql.value().answers != qf.value().answers) {
          fail("crud-answers",
               "[" + ops_log + "] " + when + ": " +
                   DescribeAnswerDiff(qf.value().answers, ql.value().answers,
                                      *symbols));
          return false;
        }
      } else if (!IsSubset(ql.value().answers, qf.value().answers)) {
        fail("crud-unsound",
             "[" + ops_log + "] " + when + ": " +
                 DescribeAnswerDiff(qf.value().answers, ql.value().answers,
                                    *symbols));
        return false;
      }
      ++compared;
    }
    return true;
  };

  std::mt19937 rng(c.seed);
  const size_t kOps = 8;
  for (size_t op = 0; op < kOps && !checkpoint_failed; ++op) {
    switch (rng() % 3) {
      case 0: {  // Assert up to two pool atoms.
        if (pool.empty()) break;
        std::vector<Atom> batch;
        size_t take = 1 + rng() % 2;
        while (take-- > 0 && !pool.empty()) {
          batch.push_back(pool.back());
          pool.pop_back();
        }
        for (const Atom& a : batch) {
          ops_log += "assert " + ToString(a, *symbols) + "; ";
        }
        Result<AssertResult> ar = kb->Assert(batch);
        if (!ar.ok()) return fail("crud-assert", ar.status().message());
        edb.insert(edb.end(), batch.begin(), batch.end());
        if (!checkpoint("after assert")) checkpoint_failed = true;
        break;
      }
      case 1: {  // Retract one random surviving EDB fact.
        if (edb.empty()) break;
        size_t idx = rng() % edb.size();
        Atom victim = edb[idx];
        ops_log += "retract " + ToString(victim, *symbols) + "; ";
        Result<RetractResult> rr = kb->Retract({victim});
        if (!rr.ok()) return fail("crud-retract", rr.status().message());
        edb.erase(edb.begin() + idx);
        // Retracting it again must fail cleanly without mutating.
        size_t before = kb->model_size();
        Result<RetractResult> again = kb->Retract({victim});
        if (again.ok()) {
          return fail("crud-retract-missing-error",
                      "retract of a non-EDB fact succeeded");
        }
        if (kb->model_size() != before) {
          return fail("crud-retract-error-mutated",
                      "failed retract changed the model size");
        }
        if (!checkpoint("after retract")) checkpoint_failed = true;
        break;
      }
      case 2: {  // Query (populates the cache across mutations).
        ops_log += "query; ";
        (void)kb->Query(c.query);
        break;
      }
    }
  }
  if (checkpoint_failed) return CaseVerdict::kFail;
  return compared > 0 ? CaseVerdict::kOk : CaseVerdict::kSkip;
}

// One CRUD case with the planner on, then off: the chase-mode Skolem
// program and the translation routes each face the same interleaving.
// Each setting runs on its own copy of the case's symbol table.
CaseVerdict CheckCrudCase(const GeneratedCase& c, SymbolTable* symbols,
                          const DiffOptions& options, DiffFailure* failure) {
  CaseVerdict verdict = CaseVerdict::kSkip;
  for (bool planner : {true, false}) {
    SymbolTable run_symbols = *symbols;
    CaseVerdict v = CheckCrudCaseWith(c, &run_symbols, options, planner,
                                      failure);
    if (v == CaseVerdict::kFail) return v;
    if (v == CaseVerdict::kOk) verdict = v;
  }
  return verdict;
}

}  // namespace

DiffReport RunCrud(unsigned seed, size_t iters,
                   const std::vector<GenClass>& classes,
                   const DiffOptions& options) {
  const std::vector<GenClass>& run_classes =
      classes.empty() ? AllGenClasses() : classes;
  DiffReport report;
  for (GenClass cls : run_classes) {
    unsigned cls_index = static_cast<unsigned>(cls);
    for (size_t iter = 0; iter < iters; ++iter) {
      unsigned cseed = CaseSeed(seed, cls_index, static_cast<unsigned>(iter));
      SymbolTable symbols;
      CaseGenerator gen(cseed, &symbols, options.gen);
      GeneratedCase c = gen.Next(cls);
      ++report.iterations;
      if (options.log_cases) report.transcript += CaseToString(c, symbols);
      DiffFailure f;
      CaseVerdict verdict = CheckCrudCase(c, &symbols, options, &f);
      std::string line = std::string(GenClassTag(cls)) + " " +
                         std::to_string(iter) + " seed=" +
                         std::to_string(cseed);
      switch (verdict) {
        case CaseVerdict::kOk:
          ++report.checked;
          report.transcript += line + " ok\n";
          break;
        case CaseVerdict::kSkip:
          ++report.skipped;
          report.transcript += line + " skip\n";
          break;
        case CaseVerdict::kFail:
          ++report.checked;
          report.transcript += line + " FAIL(" + f.lane + ")\n";
          f.iteration = iter;
          f.repro = CaseToString(c, symbols);
          f.repro_rules = c.theory.size();
          report.failures.push_back(std::move(f));
          if (options.stop_on_failure) return report;
          break;
      }
    }
  }
  return report;
}

DiffReport RunFaultRecovery(unsigned seed, size_t iters,
                            const std::vector<GenClass>& classes,
                            const DiffOptions& options) {
  const std::vector<GenClass>& run_classes =
      classes.empty() ? AllGenClasses() : classes;
  DiffReport report;
  for (GenClass cls : run_classes) {
    unsigned cls_index = static_cast<unsigned>(cls);
    for (size_t iter = 0; iter < iters; ++iter) {
      unsigned cseed = CaseSeed(seed, cls_index, static_cast<unsigned>(iter));
      SymbolTable symbols;
      CaseGenerator gen(cseed, &symbols, options.gen);
      GeneratedCase c = gen.Next(cls);
      ++report.iterations;
      if (options.log_cases) report.transcript += CaseToString(c, symbols);
      DiffFailure f;
      CaseVerdict verdict = CheckFaultRecoveryCase(c, &symbols, options, &f);
      std::string line = std::string(GenClassTag(cls)) + " " +
                         std::to_string(iter) + " seed=" +
                         std::to_string(cseed);
      switch (verdict) {
        case CaseVerdict::kOk:
          ++report.checked;
          report.transcript += line + " ok\n";
          break;
        case CaseVerdict::kSkip:
          ++report.skipped;
          report.transcript += line + " skip\n";
          break;
        case CaseVerdict::kFail:
          ++report.checked;
          report.transcript += line + " FAIL(" + f.lane + ")\n";
          f.iteration = iter;
          f.repro = CaseToString(c, symbols);
          f.repro_rules = c.theory.size();
          report.failures.push_back(std::move(f));
          if (options.stop_on_failure) return report;
          break;
      }
    }
  }
  return report;
}

DiffReport RunDifferential(unsigned seed, size_t iters,
                           const std::vector<GenClass>& classes,
                           const DiffOptions& options) {
  const std::vector<GenClass>& run_classes =
      classes.empty() ? AllGenClasses() : classes;
  DiffReport report;
  for (GenClass cls : run_classes) {
    unsigned cls_index = static_cast<unsigned>(cls);
    for (size_t iter = 0; iter < iters; ++iter) {
      unsigned cseed = CaseSeed(seed, cls_index, static_cast<unsigned>(iter));
      SymbolTable symbols;
      CaseGenerator gen(cseed, &symbols, options.gen);
      GeneratedCase c = gen.Next(cls);
      ++report.iterations;
      if (options.log_cases) report.transcript += CaseToString(c, symbols);
      DiffFailure f;
      CaseVerdict verdict = CheckCase(c, &symbols, options, &f);
      std::string line = std::string(GenClassTag(cls)) + " " +
                         std::to_string(iter) + " seed=" +
                         std::to_string(cseed);
      switch (verdict) {
        case CaseVerdict::kOk:
          ++report.checked;
          report.transcript += line + " ok\n";
          break;
        case CaseVerdict::kSkip:
          ++report.skipped;
          report.transcript += line + " skip\n";
          break;
        case CaseVerdict::kFail: {
          ++report.checked;
          report.transcript += line + " FAIL(" + f.lane + ")\n";
          f.iteration = iter;
          GeneratedCase repro = c;
          if (options.shrink) {
            repro = ShrinkCase(
                c,
                [&](const GeneratedCase& cand) {
                  DiffFailure g;
                  return CheckCase(cand, &symbols, options, &g) ==
                         CaseVerdict::kFail;
                },
                options.shrink_max_checks);
            // Re-check the minimized case so lane/detail describe it.
            DiffFailure g;
            if (CheckCase(repro, &symbols, options, &g) ==
                CaseVerdict::kFail) {
              f.lane = g.lane;
              f.detail = g.detail;
            }
          }
          f.repro = CaseToString(repro, symbols);
          f.repro_rules = repro.theory.size();
          report.failures.push_back(std::move(f));
          if (options.stop_on_failure) return report;
          break;
        }
      }
    }
  }
  return report;
}

namespace {

// A Skolem null's identity: the rule, the index of the existential
// variable in Rule::EVars() order, and the frontier image.
struct SkolemTerm {
  uint32_t rule = 0;
  uint32_t evar = 0;
  std::vector<Term> frontier;
};

// Renders every atom of `db` with each null named by its Skolem term,
// "f<rule>.<evar>(<frontier>)", so two models whose nulls carry
// different ids compare as sets of strings.
std::set<std::string> SkolemRendering(
    const Database& db, const std::unordered_map<uint32_t, SkolemTerm>& skolem,
    const SymbolTable& symbols) {
  std::unordered_map<uint32_t, std::string> names;
  std::function<std::string(Term)> name = [&](Term t) -> std::string {
    if (!t.IsNull()) return symbols.ConstantName(t);
    auto it = skolem.find(t.id());
    // Nulls of the input database keep their ids on both sides.
    if (it == skolem.end()) return IndexedName("_", t.id());
    auto known = names.find(t.id());
    if (known != names.end()) return known->second;
    std::string out = IndexedName("f", it->second.rule) + "." +
                      std::to_string(it->second.evar) + "(";
    for (size_t i = 0; i < it->second.frontier.size(); ++i) {
      if (i > 0) out += ',';
      out += name(it->second.frontier[i]);
    }
    out += ")";
    names.emplace(t.id(), out);
    return out;
  };
  std::set<std::string> out;
  for (const Atom& a : db.atoms()) {
    std::string text = symbols.RelationName(a.pred) + "(";
    std::vector<Term> terms = a.AllTerms();
    for (size_t i = 0; i < terms.size(); ++i) {
      if (i > 0) text += i == a.args.size() ? ';' : ',';
      text += name(terms[i]);
    }
    out.insert(text + ")");
  }
  return out;
}

// The Skolem program of a certified theory against its semi-oblivious
// chase (Zhang, Zhang & You: a finite Skolem chase is the Skolem
// program's least model). Both run the normalized theory over `db`, each
// on its own copy of `symbols`; the models must agree atom for atom once
// every null is named by its Skolem term. Returns a failure detail, or
// the empty string when they agree.
std::string CompareProgramWithChase(const Theory& theory, const Database& db,
                                    const SymbolTable& symbols,
                                    const ChaseOptions& caps) {
  SymbolTable base = symbols;
  Theory normal = Normalize(theory, &base);
  SymbolTable chase_syms = base;
  ChaseOptions copts = caps;
  copts.semi_oblivious = true;
  ChaseResult run = Chase(normal, db, &chase_syms, copts);
  if (!run.saturated) {
    return "the normalized theory's chase hit its caps (" +
           std::to_string(run.database.size()) + " atoms)";
  }
  // In normal form every rule has one head atom; a step's nulls sit at
  // its rule's existential positions (found once per rule).
  std::vector<std::vector<size_t>> existential_at(normal.size());
  for (size_t ri = 0; ri < normal.size(); ++ri) {
    const Rule& rule = normal.rules()[ri];
    std::vector<Term> evars = rule.EVars();
    if (evars.empty()) continue;
    std::vector<Term> head = rule.head[0].AllTerms();
    for (Term v : evars) {
      existential_at[ri].push_back(
          std::find(head.begin(), head.end(), v) - head.begin());
    }
  }
  std::unordered_map<uint32_t, SkolemTerm> chase_skolem;
  for (const ChaseStep& step : run.derivation) {
    const std::vector<size_t>& at = existential_at[step.rule_index];
    for (uint32_t k = 0; k < at.size(); ++k) {
      chase_skolem[step.atom.TermAt(at[k]).id()] =
          SkolemTerm{step.rule_index, k, step.frontier_image};
    }
  }

  SymbolTable program_syms = base;
  // The ceiling only stops a runaway program; a correct one derives no
  // more atoms than the chase did.
  ExecutionBudget budget(BudgetLimits{0, caps.max_atoms});
  DatalogOptions dopts;
  dopts.budget = &budget;
  Result<DatalogProgram> program =
      DatalogProgram::Compile(normal, &program_syms, dopts);
  if (!program.ok()) return "compile: " + program.status().message();
  Database model = db;
  Result<EvalPassStats> pass = program.value().Materialize(&model);
  if (!pass.ok()) return "materialize: " + pass.status().message();
  if (!pass.value().complete) {
    return "the program stopped at " + std::to_string(model.size()) +
           " atoms (" + pass.value().degradation.ToString() + ")";
  }
  std::unordered_map<uint32_t, SkolemTerm> program_skolem;
  program.value().ForEachSkolem([&](uint32_t rule,
                                    const std::vector<Term>& frontier,
                                    const std::vector<Term>& nulls) {
    for (uint32_t k = 0; k < nulls.size(); ++k) {
      program_skolem[nulls[k].id()] = SkolemTerm{rule, k, frontier};
    }
  });

  std::set<std::string> chase_atoms =
      SkolemRendering(run.database, chase_skolem, chase_syms);
  std::set<std::string> program_atoms =
      SkolemRendering(model, program_skolem, program_syms);
  if (run.database.size() == model.size() && chase_atoms == program_atoms) {
    return "";
  }
  return "chase " + std::to_string(run.database.size()) + " atoms, program " +
         std::to_string(model.size()) + ": " +
         DescribeFactDiff(chase_atoms, program_atoms);
}

// One termination-lane case: see the RunTermination header comment for
// the checked properties.
CaseVerdict CheckTerminationCase(const GeneratedCase& c,
                                 SymbolTable* symbols,
                                 const DiffOptions& options,
                                 DiffFailure* failure) {
  auto fail = [&](const std::string& lane,
                  const std::string& detail) {
    failure->cls = c.cls;
    failure->case_seed = c.seed;
    failure->lane = lane;
    failure->detail = detail;
    return CaseVerdict::kFail;
  };

  // Lane: certificate determinism. Two analyzer runs over the same
  // theory must produce the same kind, ordering witness, and cycle
  // witness — `gerel check --json` byte-determinism rests on this.
  TerminationCertificate cert1 = AnalyzeTermination(c.theory, *symbols);
  TerminationCertificate cert2 = AnalyzeTermination(c.theory, *symbols);
  if (cert1.kind != cert2.kind || cert1.order != cert2.order ||
      cert1.cycle != cert2.cycle) {
    return fail("certificate-determinism",
                std::string("two AnalyzeTermination runs disagree: ") +
                    CertificateKindName(cert1.kind) + " vs " +
                    CertificateKindName(cert2.kind));
  }

  // Lane: a terminating certificate must be *true*. The semi-oblivious
  // chase over the generated database gets caps far above anything the
  // generator emits; a certified theory that fails to saturate means
  // the ladder proved a false statement.
  if (cert1.terminating()) {
    ChaseOptions copts;
    copts.max_steps = 100000;
    copts.max_atoms = 200000;
    copts.semi_oblivious = true;
    SymbolTable chase_syms = *symbols;
    ChaseResult run = Chase(c.theory, c.database, &chase_syms, copts);
    if (!run.saturated) {
      return fail("certified-nontermination",
                  std::string("certificate ") +
                      CertificateKindName(cert1.kind) +
                      " but the semi-oblivious chase hit its caps (" +
                      std::to_string(run.database.size()) + " atoms, " +
                      std::to_string(run.steps) + " steps)");
    }
    // Lane: the certified theory's Skolem program materializes the
    // chase's model, up to the names of the nulls.
    std::string mismatch =
        CompareProgramWithChase(c.theory, c.database, *symbols, copts);
    if (!mismatch.empty()) return fail("program-vs-chase", mismatch);
  }

  // Lane: planner agreement. For weakly frontier-guarded negation-free
  // theories both Prepare strategies are available; the certificate-
  // driven planner must answer exactly like the translation pipeline
  // when both are complete, and soundly (⊆) otherwise.
  Classification cls = Classify(c.theory);
  if (cls.weakly_frontier_guarded && !c.theory.HasNegation()) {
    // Same hard pipeline caps as CheckCase: generated theories are
    // tiny, so a translation closure that runs away is pathological —
    // cap it and let the failed Prepare skip the comparison instead of
    // grinding (an uncapped pg+dat saturation can hang for minutes).
    KbQueryOptions pipeline_opts;
    pipeline_opts.saturation.max_rules = 400;
    pipeline_opts.saturation.max_body_atoms = 6;
    pipeline_opts.expansion.max_rules = 2000;
    pipeline_opts.grounding.max_rules = 2000;
    PreparedKbOptions on;
    on.planner = true;
    on.pipeline = pipeline_opts;
    PreparedKbOptions off;
    off.planner = false;
    off.pipeline = pipeline_opts;
    SymbolTable on_syms = *symbols;
    SymbolTable off_syms = *symbols;
    Result<std::unique_ptr<PreparedKb>> kb_on =
        PreparedKb::Prepare(c.theory, c.database, &on_syms, on);
    Result<std::unique_ptr<PreparedKb>> kb_off =
        PreparedKb::Prepare(c.theory, c.database, &off_syms, off);
    // Either side may legitimately fail alone — the translation
    // pipeline can exhaust its caps on a theory the chase certifies,
    // and vice versa — so only agreement between two successful
    // prepares is checked.
    if (kb_on.ok() && kb_off.ok()) {
      Result<PreparedQueryResult> q_on = kb_on.value()->Query(c.query);
      Result<PreparedQueryResult> q_off = kb_off.value()->Query(c.query);
      if (q_on.ok() && q_off.ok()) {
        bool both_complete =
            q_on.value().complete && q_off.value().complete;
        if (both_complete &&
            q_on.value().answers != q_off.value().answers) {
          return fail("planner-vs-pipeline",
                      DescribeAnswerDiff(q_off.value().answers,
                                         q_on.value().answers, off_syms));
        }
        if (q_off.value().complete &&
            !IsSubset(q_on.value().answers, q_off.value().answers)) {
          return fail("planner-unsound",
                      DescribeAnswerDiff(q_off.value().answers,
                                         q_on.value().answers, off_syms));
        }
      }
    }
    (void)options;
  }

  // An inconclusive or refuted certificate with nothing else to check
  // still validated determinism, so it counts as checked, not skipped.
  return CaseVerdict::kOk;
}

}  // namespace

DiffReport RunTermination(unsigned seed, size_t iters,
                          const std::vector<GenClass>& classes,
                          const DiffOptions& options) {
  // Default to the planner-relevant classes: the five extended classes
  // plus the guarded boundary the translation pipeline accepts.
  std::vector<GenClass> defaults = ExtendedGenClasses();
  defaults.push_back(GenClass::kGuarded);
  defaults.push_back(GenClass::kWeaklyFrontierGuarded);
  const std::vector<GenClass>& run_classes =
      classes.empty() ? defaults : classes;
  DiffReport report;
  for (GenClass cls : run_classes) {
    unsigned cls_index = static_cast<unsigned>(cls);
    for (size_t iter = 0; iter < iters; ++iter) {
      unsigned cseed = CaseSeed(seed, cls_index, static_cast<unsigned>(iter));
      SymbolTable symbols;
      CaseGenerator gen(cseed, &symbols, options.gen);
      GeneratedCase c = gen.Next(cls);
      ++report.iterations;
      if (options.log_cases) report.transcript += CaseToString(c, symbols);
      DiffFailure f;
      CaseVerdict verdict = CheckTerminationCase(c, &symbols, options, &f);
      std::string line = std::string(GenClassTag(cls)) + " " +
                         std::to_string(iter) + " seed=" +
                         std::to_string(cseed);
      switch (verdict) {
        case CaseVerdict::kOk:
          ++report.checked;
          report.transcript += line + " ok\n";
          break;
        case CaseVerdict::kSkip:
          ++report.skipped;
          report.transcript += line + " skip\n";
          break;
        case CaseVerdict::kFail:
          ++report.checked;
          report.transcript += line + " FAIL(" + f.lane + ")\n";
          f.iteration = iter;
          f.repro = CaseToString(c, symbols);
          f.repro_rules = c.theory.size();
          report.failures.push_back(std::move(f));
          if (options.stop_on_failure) return report;
          break;
      }
    }
  }
  return report;
}

}  // namespace gerel::testing
