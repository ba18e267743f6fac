#include "service/prepared_kb.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "analyze/analyze.h"
#include "chase/chase.h"
#include "core/check.h"
#include "core/join_plan.h"
#include "core/normalize.h"
#include "transform/annotation.h"
#include "transform/canonical.h"
#include "transform/grounding.h"
#include "transform/saturation.h"

namespace gerel {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

PreparedKb::PreparedKb(SymbolTable* symbols, const PreparedKbOptions& options)
    : symbols_(symbols),
      options_(options),
      cache_(options.answer_cache_capacity) {}

Result<std::unique_ptr<PreparedKb>> PreparedKb::Prepare(
    const Theory& theory, const Database& db, SymbolTable* symbols,
    const PreparedKbOptions& options) {
  Clock::time_point start = Clock::now();
  std::unique_ptr<PreparedKb> kb(new PreparedKb(symbols, options));
  kb->budget_ = std::make_unique<ExecutionBudget>();
  kb->budget_->Arm(options.budget, GlobalFaultPlan());
  kb->normal_ = Normalize(theory, symbols);
  Classification c = Classify(kb->normal_);
  if (!c.weakly_frontier_guarded) {
    return Status::Error("knowledge base is not weakly frontier-guarded");
  }
  // Pre-flight: advisory diagnostics over the *input* theory
  // (pre-normalization — spans and rule indices match what the user
  // wrote, not the normal form). They never fail the prepare (the wfg
  // membership check above is what rejects theories); only their count
  // is kept, in ServiceStats::diagnostics.
  const size_t diagnostics = Analyze(theory, db, *symbols).diagnostics.size();
  kb->affected_ = AffectedPositions(kb->normal_);
  for (const Rule& r : kb->normal_.rules()) {
    if (!r.EVars().empty()) kb->theory_has_existentials_ = true;
  }
  kb->acdom_ = AcdomRelation(symbols);
  kb->edb_ = db;
  double classify_ms = MsSince(start);
  Clock::time_point transform_start = Clock::now();
  double transform_ms = 0.0;
  Clock::time_point materialize_start = transform_start;

  // Certificate-driven materialization planning: when the acyclicity
  // ladder certifies that the Skolem chase of Σ terminates on every
  // database, the translation stack (rew → pg → dat) buys nothing —
  // chasing the EDB directly is cheaper and yields a *universal* model,
  // against which every CQ is answered completely (the dat(·) model
  // cannot see null witnesses). Negation stays on the Datalog route
  // (the chase is negation-free), as do existential-free theories
  // (their least model already is the chase). The certified theory is
  // also compiled as a Skolem program, which serves every later write.
  bool chase_materialized = false;
  // The certificate's kind name, for ServiceStats; empty when the planner
  // did not analyze the theory.
  std::string certificate_kind;
  if (options.planner && kb->theory_has_existentials_ &&
      !kb->normal_.HasNegation()) {
    TerminationOptions topts = options.termination;
    if (topts.budget == nullptr) topts.budget = kb->budget_.get();
    TerminationCertificate certificate =
        AnalyzeTermination(kb->normal_, *symbols, topts);
    certificate_kind = CertificateKindName(certificate.kind);
    if (certificate.terminating()) {
      kb->mode_ = Mode::kChaseMaterialized;
      kb->weakly_guarded_ = kb->normal_;
      Status s = kb->CompileProgram();
      if (!s.ok()) return s;
      transform_ms = MsSince(transform_start);
      materialize_start = Clock::now();
      kb->ChaseModel();
      if (kb->materialize_complete_) {
        chase_materialized = true;
      } else {
        // The certificate promised termination but a cap or the budget
        // intervened first; serve the translation pipeline's model
        // instead of a degraded chase.
        kb->model_ = Database();
        kb->program_.reset();
        kb->dependents_.clear();
        kb->materialize_complete_ = true;
        kb->materialize_degradation_ = DegradationReason();
      }
    }
  }
  if (!chase_materialized) {
    // Step 1: rew(Σ) (Thm 2), unless the theory is already weakly
    // guarded. This stage is both query- and data-independent, so it
    // never reruns.
    if (c.weakly_guarded) {
      kb->weakly_guarded_ = kb->normal_;
    } else {
      ExpansionOptions exp = options.pipeline.expansion;
      exp.budget = kb->budget_.get();
      Result<WfgRewriteResult> rew =
          RewriteWfgToWeaklyGuarded(kb->normal_, symbols, exp);
      if (!rew.ok()) return rew.status();
      kb->rewrite_complete_ = rew.value().complete;
      kb->rewrite_degradation_ = rew.value().degradation;
      kb->weakly_guarded_ = std::move(rew.value().theory);
    }
    Classification wc = Classify(kb->weakly_guarded_);
    // Existential-free theories are Datalog mode even with negation:
    // Classify clears `datalog` on negation (the guardedness lattice is
    // negation-free; §8 treats stratified negation as an extension), but
    // the stratified evaluator handles such programs directly — and the
    // Assert path already rematerializes instead of delta-extending them.
    kb->mode_ = (wc.datalog || !kb->theory_has_existentials_)
                    ? Mode::kDatalog
                    : (wc.guarded ? Mode::kGuarded : Mode::kWeaklyGuarded);
    Status s = kb->CompileProgram();
    if (!s.ok()) return s;
    transform_ms = MsSince(transform_start);
    materialize_start = Clock::now();
    s = kb->MaterializeModel();
    if (!s.ok()) return s;
  }
  ServiceStats& stats = kb->stats_;
  stats.prepares = 1;
  stats.prepare_wall_ms = MsSince(start);
  stats.prepare_classify_wall_ms = classify_ms;
  stats.prepare_transform_wall_ms = transform_ms;
  stats.prepare_materialize_wall_ms = MsSince(materialize_start);
  stats.model_atoms = kb->model_.size();
  stats.datalog_rules = kb->datalog_rules();
  stats.diagnostics = diagnostics;
  stats.materialization_strategy = chase_materialized ? "chase" : "datalog";
  stats.termination_certificate = certificate_kind;
  DegradationReason reason = kb->degradation();
  if (reason.degraded()) {
    stats.degraded_prepares = 1;
    stats.last_degradation = reason;
  }
  return kb;
}

Status PreparedKb::CompileProgram() {
  Theory program_rules;
  bool complete = true;
  DegradationReason degradation;
  SaturationOptions sat_opts = options_.pipeline.saturation;
  sat_opts.budget = budget_.get();
  switch (mode_) {
    case Mode::kDatalog:
      // The theory is its own Datalog translation; its least model over
      // any database is the chase. No grounding, no saturation.
      program_rules = weakly_guarded_;
      break;
    case Mode::kGuarded: {
      // Step 3 only: dat(Σ) (Thm 3) has the same ground atomic
      // consequences as Σ over *every* database, so the translation
      // survives any sequence of asserts.
      Result<SaturationResult> sat =
          Saturate(weakly_guarded_, symbols_, sat_opts);
      if (!sat.ok()) return sat.status();
      complete = sat.value().complete;
      degradation = sat.value().degradation;
      program_rules = std::move(sat.value().datalog);
      break;
    }
    case Mode::kWeaklyGuarded: {
      // Steps 2–3: pg(Σ, D) then dat(·) (§7). The grounding depends on
      // the constant domain of the EDB; Assert re-runs this stage when a
      // genuinely new constant arrives.
      GroundingOptions pg_opts = options_.pipeline.grounding;
      pg_opts.budget = budget_.get();
      Result<GroundingResult> pg =
          PartialGrounding(weakly_guarded_, edb_, pg_opts);
      if (!pg.ok()) return pg.status();
      complete = pg.value().complete;
      degradation = pg.value().degradation;
      Result<SaturationResult> sat =
          Saturate(pg.value().theory, symbols_, sat_opts);
      if (!sat.ok()) return sat.status();
      complete = complete && sat.value().complete;
      if (!degradation.degraded()) degradation = sat.value().degradation;
      program_rules = std::move(sat.value().datalog);
      grounded_constants_.clear();
      for (Term t : edb_.ActiveConstants()) {
        grounded_constants_.insert(t.bits());
      }
      for (Term t : weakly_guarded_.Constants()) {
        grounded_constants_.insert(t.bits());
      }
      break;
    }
    case Mode::kChaseMaterialized:
      // The certified theory is its own program: existential rules mint
      // their nulls through the program's Skolem table, so its least
      // model is the Skolem chase (datalog/program.h).
      program_rules = normal_;
      break;
  }
  // The compiled program evaluates under the shared prepare/assert
  // budget (budget_ outlives program_), recording one derivation support
  // per inserted atom for incremental retraction.
  DatalogOptions dopts = options_.datalog;
  dopts.budget = budget_.get();
  dopts.support_log = &supports_;
  Result<DatalogProgram> program =
      DatalogProgram::Compile(std::move(program_rules), symbols_, dopts);
  if (!program.ok()) return program.status();
  program_ = std::make_unique<DatalogProgram>(std::move(program).value());
  compile_complete_ = complete;
  compile_degradation_ = degradation;
  BuildDependencyIndex();
  return Status::Ok();
}

void PreparedKb::BuildDependencyIndex() {
  dependents_.clear();
  for (const Rule& r : program_->theory().rules()) {
    for (const Literal& l : r.body) {
      // Negated literals count too: under stratified negation a write to
      // the negated relation can flip derivations of the head.
      std::vector<RelationId>& heads = dependents_[l.atom.pred];
      for (const Atom& h : r.head) heads.push_back(h.pred);
    }
  }
}

std::unordered_set<RelationId> PreparedKb::DependencyClosure(
    std::unordered_set<RelationId> preds) const {
  std::vector<RelationId> frontier(preds.begin(), preds.end());
  while (!frontier.empty()) {
    RelationId p = frontier.back();
    frontier.pop_back();
    auto it = dependents_.find(p);
    if (it == dependents_.end()) continue;
    for (RelationId q : it->second) {
      if (preds.insert(q).second) frontier.push_back(q);
    }
  }
  return preds;
}

void PreparedKb::EvictCacheForWrite(std::unordered_set<RelationId> written,
                                    bool domain_changed) {
  // A changed active domain invalidates acdom readers (queries with
  // head-only variables range over acdom) and everything derivable from
  // acdom guards the rewriting introduced.
  if (domain_changed) written.insert(acdom_);
  size_t retained = 0;
  size_t evicted =
      cache_.EvictReading(DependencyClosure(std::move(written)), &retained);
  stats_.cache_evicted_entries += evicted;
  stats_.cache_retained_entries += retained;
}

void PreparedKb::ChaseModel() {
  // Direct Skolem chase of the source theory over the EDB. The
  // termination certificate bounds the run; the caps and budget only
  // stop pathologies (Prepare then falls back to the translations).
  ChaseOptions copts;
  copts.max_steps = options_.chase_max_steps;
  copts.max_atoms = options_.chase_max_atoms;
  copts.semi_oblivious = true;
  copts.populate_acdom = options_.datalog.populate_acdom;
  copts.budget = budget_.get();
  ChaseResult run = Chase(normal_, edb_, symbols_, copts);
  model_ = std::move(run.database);
  materialize_complete_ = run.saturated;
  materialize_degradation_ = run.degradation;
  // The chase records no derivation supports, so the freshly compiled
  // program's log stays invalid: the first Retract re-materializes
  // through the program, which records them.
  if (!run.saturated) return;
  ++stats_.chase_materializations;
  // Adopt the chase's nulls as the program's Skolem table, so a delta
  // pass or re-materialization derives exactly the chase's atoms. In
  // normal form every rule has one head atom, and a step's nulls sit at
  // its rule's existential positions (found once per rule; steps of
  // Datalog rules are skipped).
  std::vector<std::vector<uint32_t>> existential_at(normal_.size());
  for (size_t ri = 0; ri < normal_.size(); ++ri) {
    const Rule& r = normal_.rules()[ri];
    std::vector<Term> evars = r.EVars();
    if (evars.empty()) continue;
    GEREL_CHECK(r.head.size() == 1);
    std::vector<Term> head = r.head[0].AllTerms();
    for (Term v : evars) {
      existential_at[ri].push_back(static_cast<uint32_t>(
          std::find(head.begin(), head.end(), v) - head.begin()));
    }
  }
  for (ChaseStep& step : run.derivation) {
    const std::vector<uint32_t>& at = existential_at[step.rule_index];
    if (at.empty()) continue;
    std::vector<Term> nulls;
    nulls.reserve(at.size());
    for (uint32_t pos : at) nulls.push_back(step.atom.TermAt(pos));
    Status s = program_->SeedSkolem(
        step.rule_index, std::move(step.frontier_image), std::move(nulls));
    GEREL_CHECK(s.ok());
  }
}

Status PreparedKb::MaterializeModel() {
  model_ = edb_;
  Result<EvalPassStats> pass = program_->Materialize(&model_);
  if (!pass.ok()) return pass.status();
  materialize_complete_ = pass.value().complete;
  materialize_degradation_ = pass.value().degradation;
  return Status::Ok();
}

bool PreparedKb::QueryCannotHaveNullWitnesses(const Rule& cq) const {
  // A chase-materialized model is universal: matching the CQ against it
  // decides the certain answers even when the witnesses are nulls
  // (answer tuples themselves stay filtered to constants).
  if (mode_ == Mode::kChaseMaterialized) return true;
  if (!theory_has_existentials_) return true;
  for (const Literal& l : cq.body) {
    for (uint32_t i = 0; i < l.atom.arity(); ++i) {
      if (affected_.Contains(l.atom.pred, i)) return false;
    }
  }
  return true;
}

Result<PreparedQueryResult> PreparedKb::Query(const Rule& cq) const {
  if (cq.head.size() != 1) {
    return Status::Error("conjunctive query must have a single head atom");
  }
  if (cq.body.empty()) {
    return Status::Error("conjunctive query must have a non-empty body");
  }
  std::vector<Atom> positives;
  positives.reserve(cq.body.size());
  for (const Literal& l : cq.body) {
    if (l.negated) {
      return Status::Error("conjunctive queries must be negation-free");
    }
    positives.push_back(l.atom);
  }
  // Answer variables missing from the body range over the active domain,
  // exactly as GuardConjunctiveQuery arranges for the one-shot pipeline.
  for (Term x : cq.head[0].ArgVars()) {
    bool in_body = false;
    for (const Atom& a : positives) {
      for (Term t : a.AllTerms()) {
        if (t == x) in_body = true;
      }
    }
    if (!in_body) positives.push_back(Atom(acdom_, {x}));
  }
  Clock::time_point start = Clock::now();
  ExecutionBudget armed;
  ExecutionBudget* budget = nullptr;
  if (!options_.budget.unlimited()) {
    armed.Arm(options_.budget, GlobalFaultPlan());
    budget = &armed;
  }
  // Stand-ins for names the symbol table lacks (symbol_table.h): in the
  // body they match no model atom, and anywhere but as the head's
  // relation they keep the answer out of the cache, whose keys render
  // names. An unknown head relation keys by its argument pattern alone.
  auto unknown = [](Term t) {
    return t == kUnknownConstant || t == kUnknownNull;
  };
  auto names_unknown = [&](const Atom& a) {
    return std::any_of(a.args.begin(), a.args.end(), unknown) ||
           std::any_of(a.annotation.begin(), a.annotation.end(), unknown);
  };
  bool matchable = true;
  for (const Atom& a : positives) {
    if (a.pred == kUnknownRelation || names_unknown(a)) matchable = false;
  }
  const bool cacheable = matchable && !names_unknown(cq.head[0]);
  static const RelationRenames kUnnamedHead = {{kUnknownRelation, ""}};
  std::string key;
  PreparedQueryResult result;
  AnswerCache::Entry entry;
  if (cacheable) {
    key = CanonicalRuleString(
        cq, *symbols_,
        cq.head[0].pred == kUnknownRelation ? &kUnnamedHead : nullptr);
  }
  if (cacheable && cache_.Lookup(key, &entry)) {
    result.answers = std::move(entry.answers);
    result.complete = entry.complete;
    result.cache_hit = true;
    if (!result.complete) result.degradation = degradation();
    ++stats_.queries;
    ++stats_.cache_hits;
    if (!result.complete) ++stats_.degraded_queries;
    stats_.query_wall_ms += MsSince(start);
    return result;
  }
  // The model contains every certain ground atom, so matching the body
  // join against it yields only certain answers; tuples touching labeled
  // nulls of the input database are filtered like the one-shot pipeline.
  bool truncated = false;
  // Deterministic fault/budget hook before the join starts.
  if (budget != nullptr &&
      !budget->CheckRound(GovernedStage::kQuery, 1, model_.size())) {
    truncated = true;
  }
  if (!truncated && matchable) {
    JoinPlan plan(positives);
    CompiledAtom head = plan.Compile(cq.head[0]);
    JoinExecutor exec;
    exec.Reset(plan);
    exec.Execute(
        plan, model_,
        [&](const JoinExecutor& e) {
          if (budget != nullptr &&
              !budget->CheckPoint(GovernedStage::kQuery)) {
            truncated = true;
            return false;
          }
          Atom a = e.Apply(head);
          if (a.IsGroundOverConstants()) result.answers.insert(a.args);
          return true;
        },
        /*db_grows=*/false);
  }
  result.complete = rewrite_complete_ && compile_complete_ &&
                    materialize_complete_ && !truncated &&
                    QueryCannotHaveNullWitnesses(cq);
  if (truncated) {
    result.degradation = budget->reason();
    if (!result.degradation.degraded()) {
      result.degradation.stage = GovernedStage::kQuery;
      result.degradation.limit = BudgetLimit::kDeadline;
    }
  } else if (!result.complete) {
    result.degradation = degradation();
  }
  // A budget-truncated answer set is transient (a retry with a fresh
  // deadline may do better); only deterministic results are cached. The
  // entry is tagged with the predicates the join read (body relations
  // plus any appended acdom guards) so writes can invalidate it by
  // dependency instead of clearing the cache.
  if (!truncated && cacheable) {
    std::vector<RelationId> reads;
    reads.reserve(positives.size());
    for (const Atom& a : positives) reads.push_back(a.pred);
    std::sort(reads.begin(), reads.end());
    reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
    cache_.Insert(key, {result.answers, result.complete, std::move(reads)});
  }
  ++stats_.queries;
  ++stats_.cache_misses;
  if (!result.complete) {
    ++stats_.degraded_queries;
    if (result.degradation.degraded()) {
      stats_.last_degradation = result.degradation;
    }
  }
  stats_.query_wall_ms += MsSince(start);
  return result;
}

Result<AssertResult> PreparedKb::Assert(const std::vector<Atom>& facts) {
  for (const Atom& f : facts) {
    if (!f.IsDatabaseAtom()) {
      return Status::Error("asserted facts must be ground");
    }
  }
  Clock::time_point start = Clock::now();
  // Fresh deadline for this operation's recompile/rematerialize/delta
  // work (the compiled program's options point at budget_).
  budget_->Arm(options_.budget, GlobalFaultPlan());
  AssertResult out;
  for (const Atom& f : facts) {
    if (edb_.Insert(f)) ++out.new_atoms;
  }
  if (out.new_atoms == 0) {
    // Every asserted fact was already in the EDB, so the model already
    // holds them and their consequences: no pass runs and no cached
    // answer goes stale (a no-op delta; replicas need no resync).
    ++stats_.asserts;
    ++stats_.delta_asserts;
    stats_.assert_wall_ms += MsSince(start);
    return out;
  }
  // Whether the write grows the active domain (a term the model's acdom
  // does not know yet); decides if acdom readers must be evicted.
  bool domain_changed = false;
  for (const Atom& f : facts) {
    for (Term t : f.AllTerms()) {
      if (!model_.Contains(Atom(acdom_, {t}))) domain_changed = true;
    }
  }
  bool recompile = false;
  if (mode_ == Mode::kWeaklyGuarded) {
    for (const Atom& f : facts) {
      for (Term t : f.AllTerms()) {
        if (t.IsConstant() &&
            grounded_constants_.count(t.bits()) == 0) {
          recompile = true;
        }
      }
    }
  }
  bool rematerialize = recompile || program_->has_negation();
  double transform_ms = 0.0;
  double materialize_ms = 0.0;
  if (recompile) {
    // A constant outside the grounded domain: pg(Σ, D) must be re-run
    // over the grown domain before the model can be trusted.
    Clock::time_point transform_start = Clock::now();
    Status s = CompileProgram();
    if (!s.ok()) return s;
    transform_ms = MsSince(transform_start);
  }
  if (rematerialize) {
    Clock::time_point materialize_start = Clock::now();
    Status s = MaterializeModel();
    if (!s.ok()) return s;
    materialize_ms = MsSince(materialize_start);
    out.delta = false;
  } else {
    // Delta path: seed the semi-naive evaluator with exactly the new
    // atoms (plus acdom facts for any new terms) and let it re-derive
    // only their consequences against the existing fixpoint.
    size_t begin = model_.size();
    for (const Atom& f : facts) model_.Insert(f);
    if (options_.datalog.populate_acdom) {
      size_t inserted_end = model_.size();
      for (size_t i = begin; i < inserted_end; ++i) {
        for (Term t : model_.atom(i).AllTerms()) {
          model_.Insert(Atom(acdom_, {t}));
        }
      }
    }
    Result<EvalPassStats> pass = program_->ExtendWithDelta(&model_, begin);
    if (!pass.ok()) return pass.status();
    out.derived_atoms = pass.value().derived_atoms;
    if (!pass.value().complete) {
      materialize_complete_ = false;
      materialize_degradation_ = pass.value().degradation;
    }
  }
  if (recompile) {
    // The rule set itself changed (fresh grounding): every read-set is
    // tagged against the old program, so nothing can be kept.
    cache_.Clear();
  } else {
    std::unordered_set<RelationId> written;
    for (const Atom& f : facts) written.insert(f.pred);
    EvictCacheForWrite(std::move(written), domain_changed);
  }
  DegradationReason reason = degradation();
  ++stats_.asserts;
  if (reason.degraded()) {
    ++stats_.degraded_prepares;
    stats_.last_degradation = reason;
  }
  stats_.asserted_atoms += out.new_atoms;
  if (out.delta) {
    ++stats_.delta_asserts;
    stats_.delta_derived_atoms += out.derived_atoms;
  } else {
    ++stats_.rematerializations;
    if (recompile) ++stats_.prepares;
    stats_.prepare_transform_wall_ms += transform_ms;
    stats_.prepare_materialize_wall_ms += materialize_ms;
  }
  stats_.model_atoms = model_.size();
  stats_.datalog_rules = datalog_rules();
  stats_.assert_wall_ms += MsSince(start);
  return out;
}

Result<RetractResult> PreparedKb::Retract(const std::vector<Atom>& facts) {
  for (const Atom& f : facts) {
    if (!f.IsDatabaseAtom()) {
      return Status::Error("retracted facts must be ground");
    }
  }
  Clock::time_point start = Clock::now();
  budget_->Arm(options_.budget, GlobalFaultPlan());
  // Validate before touching anything: retracting an unknown fact or a
  // derived-only atom is a clean no-op error.
  std::unordered_set<Atom, AtomHash> targets;
  for (const Atom& f : facts) {
    if (!edb_.Contains(f)) {
      return Status::Error("cannot retract a fact that is not in the EDB");
    }
    targets.insert(f);
  }
  RetractResult out;
  out.removed_atoms = targets.size();
  if (targets.empty()) {
    ++stats_.retracts;
    ++stats_.retracts_dred;
    stats_.retract_wall_ms += MsSince(start);
    return out;
  }

  // The surviving EDB, read by both paths (an overdeleted atom that is
  // still a base fact must not be deleted).
  std::vector<uint8_t> erase(edb_.size(), 0);
  for (const Atom& f : targets) erase[edb_.Find(f)] = 1;
  std::vector<uint32_t> remap;
  edb_.Erase(erase, &remap);

  // Which active-domain terms vanish with the retracted facts: a
  // retracted term that no surviving (non-acdom) EDB atom holds leaves
  // the domain unless it is a program constant (PopulateAcdom's two
  // sources).
  std::unordered_set<uint32_t> occurring;
  for (const Atom& a : edb_.atoms()) {
    if (a.pred == acdom_) continue;
    for (Term t : a.AllTerms()) occurring.insert(t.bits());
  }
  // The exclusion set must be the *source* theory's constants, not the
  // compiled program's: in wg mode the partial grounding bakes EDB
  // constants into rules, so the compiled theory "contains" every domain
  // constant and nothing would ever vanish — leaving stale acdom atoms
  // that a fresh Prepare would not derive.
  std::unordered_set<uint32_t> program_constants;
  for (Term t : weakly_guarded_.Constants()) {
    program_constants.insert(t.bits());
  }
  bool null_retracted = false;
  std::vector<Term> vanished;
  std::unordered_set<uint32_t> vanished_seen;
  for (const Atom& f : targets) {
    for (Term t : f.AllTerms()) {
      if (t.IsNull()) null_retracted = true;
    }
    if (f.pred == acdom_) continue;
    for (Term t : f.AllTerms()) {
      if (occurring.count(t.bits()) == 0 &&
          program_constants.count(t.bits()) == 0 &&
          vanished_seen.insert(t.bits()).second) {
        vanished.push_back(t);
      }
    }
  }

  // In wg mode the compiled program is dat(pg(Σ, D)): the grounding is a
  // function of the constant domain, so a shrinking domain invalidates
  // it (stale acdom/grounded constants would over-answer relative to a
  // fresh Prepare) and a retracted labeled null is outside what the
  // grounding reasons about at all.
  bool wg_domain_shrinks = false;
  if (mode_ == Mode::kWeaklyGuarded) {
    for (Term t : vanished) {
      if (t.IsConstant()) wg_domain_shrinks = true;
    }
  }
  bool recompile = mode_ == Mode::kWeaklyGuarded &&
                   (wg_domain_shrinks || null_retracted);

  // DRed in the program, seeded with the retracted facts and the acdom
  // atoms of the vanished terms. The program declines when its support
  // log does not license it (negation, a chase-seeded or loaded model, a
  // truncated pass).
  RetractPassStats dred;
  if (!recompile) {
    std::vector<Atom> seeds(targets.begin(), targets.end());
    for (Term t : vanished) seeds.push_back(Atom(acdom_, {t}));
    dred = program_->Retract(&model_, edb_, seeds);
  }
  out.overdeleted_atoms = dred.overdeleted_atoms;
  out.rederived_atoms = dred.rederived_atoms;
  double transform_ms = 0.0;
  double materialize_ms = 0.0;
  if (!dred.applied) {
    // Fallback: rebuild the model from the surviving EDB (recompiling
    // the data-dependent stages first when the wg grounding is stale).
    // A budget that tripped mid-DRed degrades this pass too — the model
    // stays a sound under-approximation, never unsound — and the rebuild
    // replaces a partly pruned model and support log.
    if (recompile) {
      Clock::time_point transform_start = Clock::now();
      Status s = CompileProgram();
      if (!s.ok()) return s;
      transform_ms = MsSince(transform_start);
    }
    Clock::time_point materialize_start = Clock::now();
    Status s = MaterializeModel();
    if (!s.ok()) return s;
    materialize_ms = MsSince(materialize_start);
    out.delta = false;
  }
  if (recompile) {
    cache_.Clear();
  } else {
    std::unordered_set<RelationId> written;
    for (const Atom& f : targets) written.insert(f.pred);
    EvictCacheForWrite(std::move(written), !vanished.empty());
  }
  DegradationReason reason = degradation();
  ++stats_.retracts;
  stats_.retracted_atoms += out.removed_atoms;
  if (out.delta) {
    ++stats_.retracts_dred;
    stats_.overdeleted_atoms += out.overdeleted_atoms;
    stats_.rederived_atoms += out.rederived_atoms;
  } else {
    ++stats_.retracts_rematerialized;
    ++stats_.rematerializations;
    if (recompile) ++stats_.prepares;
    stats_.prepare_transform_wall_ms += transform_ms;
    stats_.prepare_materialize_wall_ms += materialize_ms;
  }
  if (reason.degraded()) {
    ++stats_.degraded_prepares;
    stats_.last_degradation = reason;
  }
  stats_.model_atoms = model_.size();
  stats_.datalog_rules = datalog_rules();
  stats_.retract_wall_ms += MsSince(start);
  return out;
}

const char* ModeName(PreparedKb::Mode mode) {
  switch (mode) {
    case PreparedKb::Mode::kDatalog: return "datalog";
    case PreparedKb::Mode::kGuarded: return "guarded";
    case PreparedKb::Mode::kWeaklyGuarded: return "weakly guarded";
    case PreparedKb::Mode::kChaseMaterialized: return "chase";
  }
  return "?";
}

DegradationReason PreparedKb::degradation() const {
  if (rewrite_degradation_.degraded()) return rewrite_degradation_;
  if (compile_degradation_.degraded()) return compile_degradation_;
  return materialize_degradation_;
}

}  // namespace gerel
