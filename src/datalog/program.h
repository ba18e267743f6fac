// Compiled Datalog programs: validate, stratify, and join-plan compile a
// program once, then evaluate it many times.
//
// EvaluateDatalog (evaluator.h) is a thin wrapper that compiles a program
// and materializes a single fixpoint. Long-lived callers — the serving
// layer's PreparedKb in particular — keep the DatalogProgram alive and
// reuse its compiled join plans across many passes: full materializations
// and, for negation-free programs, incremental extensions that re-derive
// only the consequences of newly inserted atoms (semi-naive evaluation
// seeded with the delta).
#ifndef GEREL_DATALOG_PROGRAM_H_
#define GEREL_DATALOG_PROGRAM_H_

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

class DatalogProgram {
 public:
  // Validates and compiles `theory`: all rules must be Datalog (no
  // existential variables) and the program stratifiable. `symbols` must
  // outlive the program. Join plans compile lazily on first use, exactly
  // as in the one-shot evaluator.
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
  // options.populate_acdom. Not thread-safe: a pass runs on the calling
  // thread and mutates the evaluators' join scratch.
  Result<EvalPassStats> Materialize(Database* db);

  // Incrementally extends a fixpoint: *db must be a database previously
  // brought to a fixpoint by this program, with new atoms appended at
  // [delta_begin, db->size()). Only derivations reachable from the delta
  // are recomputed (always semi-naive, whatever options.seminaive says).
  // Requires a negation-free program: under stratified negation new
  // facts can invalidate earlier derivations, which an append-only
  // database cannot express — callers must re-Materialize instead.
  // Does NOT populate acdom; callers insert acdom atoms for new terms as
  // part of the delta if they rely on the built-in.
  Result<EvalPassStats> ExtendWithDelta(Database* db, size_t delta_begin);

  const Theory& theory() const;
  const Stratification& stratification() const;
  const DatalogOptions& options() const;
  bool has_negation() const;
  // Cumulative per-rule counters across every pass, indexed like
  // theory().rules().
  const std::vector<RuleStats>& rule_stats() const;

 private:
  struct Rep;
  explicit DatalogProgram(std::unique_ptr<Rep> rep);

  std::unique_ptr<Rep> rep_;
};

}  // namespace gerel

#endif  // GEREL_DATALOG_PROGRAM_H_
