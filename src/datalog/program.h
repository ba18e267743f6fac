// Compiled Datalog programs: validate, stratify, and join-plan compile a
// program once, then evaluate it many times.
//
// EvaluateDatalog (evaluator.h) is a thin wrapper that compiles a program
// and materializes a single fixpoint. Long-lived callers — the serving
// layer's PreparedKb in particular — keep the DatalogProgram alive and
// reuse its compiled join plans across many passes: full materializations
// and, for negation-free programs, incremental extensions that re-derive
// only the consequences of newly inserted atoms (semi-naive evaluation
// seeded with the delta) and incremental retractions by DRed over the
// support log the passes record (datalog/support.h).
//
// Skolem programs: a negation-free program may contain existential rules.
// Each existential variable is read as a Skolem function of the rule and
// its frontier image, so the least model is the semi-oblivious chase
// (chase.h) up to the names of the nulls. The program owns the Skolem
// table: a firing of existential rule σ whose frontier variables
// (Rule::FVars() order) map to ~t looks up (σ, ~t); on a miss it mints
// one fresh null per existential variable (Rule::EVars() order) and
// stores them, on a hit it reuses them. The table outlives every pass, so
// a re-derived atom gets the same nulls back. Termination is the caller's
// business: compile only theories whose Skolem chase is certified finite
// (analyze/termination.h).
#ifndef GEREL_DATALOG_PROGRAM_H_
#define GEREL_DATALOG_PROGRAM_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/database.h"
#include "core/status.h"
#include "core/symbol_table.h"
#include "core/theory.h"
#include "datalog/evaluator.h"
#include "datalog/stratifier.h"

namespace gerel {

// Counters for one evaluation pass (Materialize or ExtendWithDelta).
struct EvalPassStats {
  size_t rounds = 0;
  // Atoms appended to the database by this pass (beyond any atoms the
  // caller inserted before invoking it).
  size_t derived_atoms = 0;
  // False when the pass stopped short of the fixpoint because the
  // options' budget was exhausted. The partial database is sound.
  bool complete = true;
  DegradationReason degradation;
};

// Counters for one DRed retraction (DatalogProgram::Retract).
struct RetractPassStats {
  // False when the program declined or the budget tripped: the caller
  // must rebuild the database with Materialize. The counts are 0 then.
  bool applied = false;
  // Derived atoms the cascade deleted beyond the seeds.
  size_t overdeleted_atoms = 0;
  // Overdeleted atoms rederivation proved still entailed and restored.
  size_t rederived_atoms = 0;
};

class DatalogProgram {
 public:
  // Validates and compiles `theory`: every rule safe, the program
  // stratifiable, and existential rules only in a negation-free program.
  // `symbols` must outlive the program (existential rules mint their
  // nulls there). Join plans compile lazily on first use, exactly as in
  // the one-shot evaluator.
  static Result<DatalogProgram> Compile(Theory theory, SymbolTable* symbols,
                                        const DatalogOptions& options =
                                            DatalogOptions());

  DatalogProgram(DatalogProgram&&) noexcept;
  DatalogProgram& operator=(DatalogProgram&&) noexcept;
  DatalogProgram(const DatalogProgram&) = delete;
  DatalogProgram& operator=(const DatalogProgram&) = delete;
  ~DatalogProgram();

  // Evaluates the program over *db in place to its least/perfect model;
  // derived atoms are appended. Populates acdom first when
  // options.populate_acdom. Rewrites options.support_log, if set. Not
  // thread-safe: a pass runs on the calling thread and mutates the
  // evaluators' join scratch.
  Result<EvalPassStats> Materialize(Database* db);

  // Incrementally extends a fixpoint: *db must be a database previously
  // brought to a fixpoint by this program, with new atoms appended at
  // [delta_begin, db->size()). Only derivations reachable from the delta
  // are recomputed (always semi-naive, whatever options.seminaive says).
  // Requires a negation-free program: under stratified negation new
  // facts can invalidate earlier derivations, which an append-only
  // database cannot express — callers must re-Materialize instead.
  // Does NOT populate acdom; callers insert acdom atoms for new terms as
  // part of the delta if they rely on the built-in. Appends to
  // options.support_log, if set.
  Result<EvalPassStats> ExtendWithDelta(Database* db, size_t delta_begin);

  // Incrementally retracts by DRed: *db must be the fixpoint whose
  // supports options.support_log holds, `base` the surviving base atoms
  // and `seeds` the atoms to delete (seeds absent from *db are skipped).
  // Overdeletes the support cascade in one forward pass from the lowest
  // seed (an atom `base` holds survives a lost witness), erases the dead
  // atoms from *db and the log in place (survivors keep their order),
  // then rederives overdeleted atoms against the pruned model until a
  // round restores nothing; a Skolem head rederives only an atom holding
  // its table's nulls. *db ends as the least model of `base`.
  //
  // The log licenses this only after a complete pass of a negation-free
  // program recorded it and no later pass was truncated, so a freshly
  // compiled program's log is invalid. Otherwise Retract declines,
  // leaving *db and the log untouched. A budget trip may leave both
  // partly pruned. Either way `applied` is false, and the log stays
  // invalid until the next Materialize.
  RetractPassStats Retract(Database* db, const Database& base,
                           const std::vector<Atom>& seeds);

  const Theory& theory() const;
  const Stratification& stratification() const;
  const DatalogOptions& options() const;
  bool has_negation() const;
  // Cumulative per-rule counters across every pass, indexed like
  // theory().rules().
  const std::vector<RuleStats>& rule_stats() const;

  // --- Skolem table ------------------------------------------------------

  // Records `nulls` as the image of (existential rule `rule`, frontier
  // image `frontier`), so a later firing reuses them instead of minting.
  // Used to adopt the nulls of a chase run or of a snapshot. Errors when
  // `rule` is out of range or not existential, when the sizes differ
  // from |fvars| and |evars|, or when the key is already present.
  Status SeedSkolem(uint32_t rule, std::vector<Term> frontier,
                    std::vector<Term> nulls);
  // Visits every entry as (rule, frontier, nulls), in no fixed order.
  void ForEachSkolem(
      const std::function<void(uint32_t, const std::vector<Term>&,
                               const std::vector<Term>&)>& visit) const;

 private:
  struct Rep;
  explicit DatalogProgram(std::unique_ptr<Rep> rep);

  std::unique_ptr<Rep> rep_;
};

}  // namespace gerel

#endif  // GEREL_DATALOG_PROGRAM_H_
