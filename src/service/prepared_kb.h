// Prepared knowledge bases: run the §7 pipeline once, serve many queries
// and incremental fact assertions (DESIGN.md §7).
//
// AnswerKbQuery (transform/pipeline.h) re-runs rewrite → partial
// grounding → saturation → stratification → join-plan compilation on
// every call. For a fixed weakly frontier-guarded theory all of these
// artifacts are query-independent, and most are data-independent too;
// PreparedKb computes them once:
//
//   Prepare:  normalize and classify Σ, rewrite to weakly guarded (Thm
//             2) if needed, then collapse the remaining stages by class:
//               - certified Σ (the planner proves its Skolem chase
//                 terminates): Σ itself, as a Skolem program whose
//                 existential rules mint nulls (datalog/program.h);
//               - Datalog Σ: compile Σ directly (no grounding, no
//                 saturation — the least model is the chase);
//               - guarded Σ: dat(Σ) by saturation (Thm 3), which is
//                 database-independent;
//               - weakly guarded Σ: dat(pg(Σ, D)) (§7), which depends
//                 only on D's constant domain.
//             The compiled program is evaluated over D once and the
//             resulting model kept ("materialized"). A certified Σ is
//             materialized by the semi-oblivious chase instead, whose
//             nulls seed the program's Skolem table.
//   Query:    evaluate the CQ's body join directly against the
//             materialized model — no recompilation, no re-evaluation.
//             Answers are always sound (every tuple is certain); the
//             `complete` flag certifies they are all of the certain
//             answers (see PreparedQueryResult).
//   Assert:   extend the model incrementally: new facts seed the
//             semi-naive evaluator's delta, so only their consequences
//             are derived. An assert of facts the EDB already holds runs
//             nothing. Falls back to re-running the data-dependent
//             stages only when a weakly guarded theory meets constants
//             outside the grounded domain (or the program has negation).
//   Retract:  erase the facts from the EDB and hand the model to the
//             program's DRed (DatalogProgram::Retract), seeded with the
//             facts and the acdom atoms of the terms that leave the
//             active domain; the result is exactly the least model of
//             the surviving EDB. Falls back to an epoch-bump full
//             re-materialization when the program declines (negation, or
//             a support log it does not trust: a degraded or chased
//             materialization, a snapshot load), when a weakly guarded
//             theory's constant domain shrinks or the retracted facts
//             carry labeled nulls (both recompile the grounding), or
//             when the budget trips mid-retract.
//
// Single owner: a PreparedKb holds no lock. Callers serialize every call,
// const ones included (Query fills the answer cache and counts stats);
// the server does so with one lock per tenant (server/registry.h).
//
// Writes invalidate the answer cache by predicate dependency, not
// wholesale: CompileProgram records body→head edges of the compiled
// rules, each cached entry is tagged with the predicates its join read,
// and Assert/Retract evict only entries reading the dependency closure
// of the changed predicates (answer_cache.h).
#ifndef GEREL_SERVICE_PREPARED_KB_H_
#define GEREL_SERVICE_PREPARED_KB_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analyze/termination.h"
#include "core/budget.h"
#include "core/classify.h"
#include "core/database.h"
#include "core/rule.h"
#include "core/status.h"
#include "core/symbol_table.h"
#include "core/theory.h"
#include "datalog/program.h"
#include "datalog/support.h"
#include "service/answer_cache.h"
#include "service/stats.h"
#include "transform/pipeline.h"

namespace gerel {

struct PreparedKbOptions {
  // Caps for the rewrite/grounding/saturation stages (shared with the
  // one-shot pipeline).
  KbQueryOptions pipeline;
  // Evaluation options for the materialization and delta passes, which
  // run on the calling thread. pipeline.saturation.num_threads is the
  // only parallel knob: it sets the saturation lanes of the guarded and
  // weakly guarded routes. Chase mode (Mode::kChaseMaterialized) runs
  // its prepare-time Skolem chase on one thread too.
  DatalogOptions datalog;
  // Maximum number of cached query answer sets; 0 disables the cache.
  size_t answer_cache_capacity = 1024;
  // Resource budget applied to Prepare, to every Assert, and (by
  // default) to every Query. Exhaustion never fails the operation: the
  // pipeline degrades to a sound-but-possibly-incomplete model and the
  // reason is recorded (degradation(), ServiceStats). Unlimited by
  // default.
  BudgetLimits budget;
  // Certificate-driven materialization planning: when the termination
  // analyzer (analyze/termination.h) certifies that the Skolem chase of
  // the theory terminates on every database, Prepare skips the rewrite/
  // grounding/saturation translation stack entirely and materializes a
  // *universal* model by chasing the EDB directly
  // (Mode::kChaseMaterialized); writes then run on the theory compiled
  // as a Skolem program, whose least model is that chase. Queries
  // against a universal model are always complete — even through null
  // witnesses the dat(·) route cannot see. Existential-free theories and
  // programs with negation keep the Datalog route; an uncertified theory
  // falls back to the translations.
  bool planner = true;
  // Caps for the planner's certificate analysis and for the prepare-time
  // chase (generous: the certificate bounds the chase, the caps only
  // stop pathologies; an unsaturated chase falls back to the translation
  // pipeline).
  TerminationOptions termination;
  size_t chase_max_steps = 1 << 20;
  size_t chase_max_atoms = 1 << 21;
};

struct PreparedQueryResult {
  std::set<std::vector<Term>> answers;
  // Answers are always sound. They are certified complete when no
  // prepare stage hit a cap and the query cannot have null witnesses:
  // either the prepared theory is existential-free, or no body relation
  // of the CQ has an affected position (ap(Σ), Def 2 — only affected
  // positions ever hold chase nulls). Otherwise the certain answers may
  // strictly include these (the one-shot pipeline saturates the query
  // rule into the theory and can see null witnesses; see DESIGN.md §7).
  bool complete = true;
  bool cache_hit = false;
  // Why the result is possibly incomplete: the first prepare-stage
  // degradation, or a per-query budget trip. limit kNone when complete.
  DegradationReason degradation;
};

struct AssertResult {
  // EDB atoms that were actually new.
  size_t new_atoms = 0;
  // Derived consequences added to the materialized model (delta path
  // only; 0 after a re-materialization).
  size_t derived_atoms = 0;
  // False when the assert had to rebuild the model from the EDB.
  bool delta = true;
};

struct RetractResult {
  // Distinct EDB atoms removed.
  size_t removed_atoms = 0;
  // Derived atoms the DRed cascade overdeleted beyond the retracted
  // seeds (0 on the re-materialization fallback).
  size_t overdeleted_atoms = 0;
  // Overdeleted atoms the rederivation phase proved still entailed and
  // restored (0 on the fallback).
  size_t rederived_atoms = 0;
  // False when the retract rebuilt the model from the surviving EDB
  // instead of running DRed. The server maps this to an epoch bump (a
  // replica cannot apply the change as a delta).
  bool delta = true;
};

class PreparedKb {
 public:
  // Which stages the §7 pipeline collapsed to for this theory.
  enum class Mode {
    kDatalog,            // Direct evaluation; fully incremental.
    kGuarded,            // dat(Σ) once; fully incremental.
    kWeaklyGuarded,      // dat(pg(Σ, D)); re-grounds on new constants.
    kChaseMaterialized,  // Certified terminating: direct Skolem chase,
                         // then Σ as a Skolem program; fully
                         // incremental.
  };

  // Runs the prepare phase over `theory` (must be weakly
  // frontier-guarded) and `db`. `symbols` must outlive the PreparedKb
  // and must not be mutated externally while Query/Assert run.
  static Result<std::unique_ptr<PreparedKb>> Prepare(
      const Theory& theory, const Database& db, SymbolTable* symbols,
      const PreparedKbOptions& options = PreparedKbOptions());

  // Answers the conjunctive query `cq` (a Datalog rule with a single
  // head atom and a positive, non-empty body) against the materialized
  // model, keyed in the cache by the canonical body plus the head's name
  // and argument pattern. A per-query budget armed from
  // PreparedKbOptions::budget bounds the join; a trip yields the sound
  // partial answer set with complete = false, never cached.
  //
  // `cq` may carry kUnknown* stand-ins (symbol_table.h), as a served
  // query resolved without interning does (DESIGN.md §7). In the body
  // they match nothing: the answer set is empty, `complete` is computed
  // as for any body, and nothing is cached. A kUnknownRelation head keys
  // by its argument pattern alone; a stand-in head term is copied into
  // the answers and keeps them out of the cache.
  Result<PreparedQueryResult> Query(const Rule& cq) const;

  // Adds ground facts to the knowledge base and re-derives their
  // consequences. Evicts the cached answers that depend on the changed
  // predicates.
  Result<AssertResult> Assert(const std::vector<Atom>& facts);

  // Removes ground EDB facts and incrementally deletes the derived
  // consequences that lose their last recorded support (the program's
  // DRed), falling back to full re-materialization when the incremental
  // path cannot be trusted (see the class comment). Every fact must be a
  // current EDB atom: an unknown or derived-only fact is a clean no-op
  // error (no state changes). A retracted fact may survive in the model
  // when it is still entailed by the remaining facts.
  Result<RetractResult> Retract(const std::vector<Atom>& facts);

  // Copy of the serving counters.
  ServiceStats stats() const { return stats_; }

  // --- Crash-safe persistence (implemented in snapshot.cc) ---
  //
  // Binary format: magic + version + payload size + payload + FNV-1a
  // checksum, where the payload serializes the symbol table (named nulls
  // included), theories, mode, EDB, materialized model, the program's
  // Skolem table, degradation certificate, and the prepare-time
  // analysis stats (termination certificate kind and diagnostics count,
  // restored into stats() on load). Written
  // to `path` via temp file + atomic rename, so a crash mid-save leaves
  // any previous snapshot intact. The active fault plan (GEREL_FAULT /
  // SetFaultPlanForTest) can truncate or bit-flip the written image for
  // recovery drills.
  Status SaveSnapshot(const std::string& path) const;
  // Loads a snapshot into a PreparedKb over `symbols` (which must be
  // freshly constructed — names are re-interned at their original ids).
  // Returns an error on truncation, corruption, version/magic skew, or
  // fingerprint mismatch; callers recover by falling back to a fresh
  // Prepare (re-materialization).
  static Result<std::unique_ptr<PreparedKb>> LoadSnapshot(
      const std::string& path, SymbolTable* symbols,
      const PreparedKbOptions& options = PreparedKbOptions(),
      uint64_t expected_fingerprint = 0);
  // Caller-provided hash of the source program (0 = unchecked); stored
  // in snapshots and verified by LoadSnapshot so a snapshot is never
  // applied to a different theory's program file.
  void set_snapshot_fingerprint(uint64_t fp) { snapshot_fingerprint_ = fp; }
  uint64_t snapshot_fingerprint() const { return snapshot_fingerprint_; }

  // The first degradation recorded by the prepare/assert pipeline
  // stages (rewrite, then compile, then materialize; limit kNone when
  // none).
  DegradationReason degradation() const;

  Mode mode() const { return mode_; }
  // Whether every prepare stage ran to completion (no cap hit); query
  // results degrade to complete=false otherwise.
  bool prepare_complete() const {
    return rewrite_complete_ && compile_complete_ && materialize_complete_;
  }
  size_t model_size() const { return model_.size(); }
  // Compiled-program rule count (in chase mode, the Skolem program's).
  size_t datalog_rules() const {
    return program_ == nullptr ? 0 : program_->theory().size();
  }
  // Copies of the materialized model / base facts, for tests and the
  // differential harness (order is insertion order).
  std::vector<Atom> ModelAtoms() const { return model_.AtomsVector(); }
  std::vector<Atom> EdbAtoms() const { return edb_.AtomsVector(); }

 private:
  PreparedKb(SymbolTable* symbols, const PreparedKbOptions& options);

  // Rebuilds the data-dependent stages (grounding + saturation +
  // program compilation) from the current EDB.
  Status CompileProgram();
  // Chase mode's prepare-time materialization: the semi-oblivious chase
  // of the EDB, whose nulls then seed the program's Skolem table.
  void ChaseModel();
  // Rebuilds the materialized model from the EDB through the program.
  Status MaterializeModel();
  // Records the compiled program's body→head predicate edges for
  // dependency-aware cache invalidation (also called by LoadSnapshot).
  void BuildDependencyIndex();
  // All predicates transitively derivable from `preds` (including
  // `preds` themselves).
  std::unordered_set<RelationId> DependencyClosure(
      std::unordered_set<RelationId> preds) const;
  // Evicts cached entries reading the closure of `written` (plus acdom
  // when the active domain changed) and updates the selectivity
  // counters.
  void EvictCacheForWrite(std::unordered_set<RelationId> written,
                          bool domain_changed);
  // Completeness certificate for a query: the materialized model decides
  // the certain answers — either it is a universal model (chase mode) or
  // no body relation of `cq` can hold a labeled null in the chase.
  bool QueryCannotHaveNullWitnesses(const Rule& cq) const;

  SymbolTable* const symbols_;
  const PreparedKbOptions options_;

  // Query-independent artifacts, immutable after Prepare.
  Theory normal_;          // Normalize(Σ).
  Theory weakly_guarded_;  // rew(normal_) (Thm 2), or normal_ itself.
  PositionSet affected_;   // ap(normal_), for the completeness check.
  Mode mode_ = Mode::kDatalog;
  bool rewrite_complete_ = true;
  bool theory_has_existentials_ = false;
  RelationId acdom_ = 0;
  DegradationReason rewrite_degradation_;
  uint64_t snapshot_fingerprint_ = 0;

  // Budget shared by Prepare/Assert pipelines; re-armed per operation.
  // Owned here because the compiled DatalogProgram's options hold a
  // pointer into it for the lifetime of the program. A query arms a
  // local budget of its own.
  std::unique_ptr<ExecutionBudget> budget_;

  Database edb_;    // Base facts: the initial database plus all asserts.
  Database model_;  // edb_ plus every derived consequence (and acdom).
  std::unique_ptr<DatalogProgram> program_;
  // The program's derivation-support log (its options point here),
  // which it records, reads and keeps valid for DRed itself. A log it
  // does not trust sends Retract to the re-materialization fallback,
  // which rebuilds it: the prepare-time chase records no supports, and
  // the snapshot format does not persist them.
  SupportLog supports_;
  // Direct body→head predicate edges of the compiled program, for the
  // cache-invalidation closure.
  std::unordered_map<RelationId, std::vector<RelationId>> dependents_;
  bool compile_complete_ = true;
  bool materialize_complete_ = true;
  DegradationReason compile_degradation_;
  DegradationReason materialize_degradation_;
  // kWeaklyGuarded only: constants the current grounding covers.
  std::unordered_set<uint32_t> grounded_constants_;

  // Mutable so that Query stays const: it fills the cache and counts.
  mutable AnswerCache cache_;
  mutable ServiceStats stats_;
};

// The mode's name as `gerel serve` and the wire protocol print it.
const char* ModeName(PreparedKb::Mode mode);

}  // namespace gerel

#endif  // GEREL_SERVICE_PREPARED_KB_H_
