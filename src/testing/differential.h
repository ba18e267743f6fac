// Metamorphic / differential conformance driver (DESIGN.md §8).
//
// For each seeded case the driver runs every applicable answering path
// and asserts agreement with the naive oracle and with each other:
//
//   lanes    oracle vs. production chase (ground facts and CQ answers),
//            the §7 pipeline (dat(pg(rew(Σ), D))), the nearly
//            frontier-guarded route (Prop 4 + Prop 6), PreparedKb
//            (fresh, incremental assert, answer cache, N saturation
//            lanes), and naive vs. semi-naive Datalog;
//   invariants
//            fact-order permutation, bijective constant renaming, rule
//            duplication, and assert-order independence.
//
// Sound-but-incomplete lanes (a cap was hit, `complete == false`) are
// checked for soundness only (answers ⊆ oracle answers); unsaturated
// oracle instances are skipped.
//
// Fault injection (--fault): deliberately misconfigured lanes that
// simulate seeded bugs; the mutation smoke suite proves each is caught
// within a bounded number of iterations.
#ifndef GEREL_TESTING_DIFFERENTIAL_H_
#define GEREL_TESTING_DIFFERENTIAL_H_

#include <string>
#include <string_view>
#include <vector>

#include "testing/generator.h"
#include "testing/oracle.h"

namespace gerel::testing {

// Seeded bugs for the mutation smoke suite. Each twists exactly one lane
// into a realistic wrong configuration; kNone is the production setup.
enum class Fault {
  kNone,
  // Materialize PreparedKb with populate_acdom off: every acdom guard
  // introduced by the §7 rewriting becomes unsatisfiable, silently
  // dropping derived facts (simulates "dropped an acdom guard").
  kDropAcdomGuard,
  // Saturate with the composition rule disabled but *trust* the result
  // as complete (simulates "skipped a saturation step" without the
  // honesty of the `complete` flag).
  kSkipSaturationStep,
  // Serve pre-assert answers after Assert (simulates a stale AnswerCache
  // that survived invalidation).
  kStaleAnswerCache,
};

const char* FaultTag(Fault fault);
bool ParseFault(std::string_view tag, Fault* out);

struct DiffOptions {
  GenOptions gen;
  OracleOptions oracle;
  // Saturation lanes (SaturationOptions::num_threads) for the PreparedKb
  // checks that compare lane counts and for every crud-lane prepare. The
  // chase and the Datalog evaluator always run on one thread. Does not
  // affect verdicts.
  int num_threads = 2;
  Fault fault = Fault::kNone;
  // Shrink failing cases before reporting.
  bool shrink = true;
  size_t shrink_max_checks = 400;
  // Stop the run at the first failure (the CLI default; the mutation
  // smoke tests only need one repro).
  bool stop_on_failure = true;
  // Embed every generated case (parser syntax) in the transcript, so a
  // transcript diff pins down generator nondeterminism, not just verdict
  // nondeterminism (the deterministic-replay test sets this).
  bool log_cases = false;
};

struct DiffFailure {
  GenClass cls = GenClass::kDatalog;
  unsigned case_seed = 0;
  size_t iteration = 0;
  std::string lane;    // Which comparison disagreed (e.g. "oracle-vs-chase").
  std::string detail;  // Human-readable expected/actual sketch.
  // The shrunk (or original, with shrinking off) failing triple, in
  // parser syntax.
  std::string repro;
  size_t repro_rules = 0;
};

struct DiffReport {
  size_t iterations = 0;  // Cases generated.
  size_t checked = 0;     // Cases with a saturated oracle (fully compared).
  size_t skipped = 0;     // Unsaturated / out-of-scope cases.
  std::vector<DiffFailure> failures;
  // One line per case: "<class> <iteration> seed=<s> <verdict>". Pure
  // function of (seed, iters, classes, gen options) — thread counts and
  // wall clock never appear, which the determinism test pins down.
  std::string transcript;
  bool ok() const { return failures.empty(); }
};

enum class CaseVerdict {
  kOk,    // Every applicable lane agreed.
  kSkip,  // Oracle did not saturate within its bounds; nothing compared.
  kFail,  // Some lane disagreed; *failure is filled in.
};

// Checks one case against every applicable lane. `symbols` must be the
// table the case was generated against (engines add fresh nulls to it).
// On kFail, `failure->lane`/`detail` are set; the repro fields are
// filled by the caller (after shrinking).
CaseVerdict CheckCase(const GeneratedCase& c, SymbolTable* symbols,
                      const DiffOptions& options, DiffFailure* failure);

// Runs `iters` iterations per class: generates a case (fresh symbol
// table, per-case seed derived from `seed`), checks it, and shrinks any
// failure. `classes` defaults to all seven when empty.
DiffReport RunDifferential(unsigned seed, size_t iters,
                           const std::vector<GenClass>& classes,
                           const DiffOptions& options = DiffOptions());

// Fault-recovery lane (`gerel fuzz --lane fault-recovery`). For each
// seeded case, asserts that resource-governed execution degrades
// cleanly instead of crashing, hanging, or lying:
//   - a chase forced to exhaust its budget (seeded FaultPlan) yields a
//     subset of the clean chase's facts and reports a kFault
//     DegradationReason;
//   - worker-delay injection never changes any byte of a 2-lane
//     saturation of a guarded, negation-free case (closure, dat(Σ),
//     inference count, completeness flag);
//   - a PreparedKb forced to exhaust during materialization serves
//     sound answers (⊆ clean) with complete=false, the same at 1 and N
//     saturation lanes when its route saturates;
//   - a clean snapshot save/load round-trips to identical answers, and
//     seeded truncation/bit-flip corruption is always detected at load,
//     with recovery-by-re-Prepare matching the clean run.
DiffReport RunFaultRecovery(unsigned seed, size_t iters,
                            const std::vector<GenClass>& classes,
                            const DiffOptions& options = DiffOptions());

// CRUD lane (`gerel fuzz --lane crud`). For each seeded case, prepares
// a PreparedKb on a prefix of the generated database and then replays a
// deterministic random interleaving of assert / retract / query ops,
// once with the planner on and once with it off (a failure's detail
// names the setting).
// After every mutation the live KB is compared against a *fresh*
// Prepare from the surviving EDB: certain ground facts, acdom included,
// must agree (the full model, for Datalog-class theories), query
// answers must agree when both sides are complete (live answers must
// stay sound against a complete fresh run otherwise), and retracting a
// fact that is not in the EDB must fail without touching the model. This exercises the
// DRed overdelete/rederive/prune path, the re-materialization
// fallbacks, and dependency-aware cache invalidation (a stale cached
// answer served after a covering write diverges from the fresh KB).
// The transcript is a pure function of (seed, iters, classes, gen
// options) — saturation lane counts never affect it.
DiffReport RunCrud(unsigned seed, size_t iters,
                   const std::vector<GenClass>& classes,
                   const DiffOptions& options = DiffOptions());

// Termination lane (`gerel fuzz --lane termination`). For each seeded
// case, runs the acyclicity ladder (analyze/termination.h) and holds the
// certificate to account:
//   - recomputing the certificate yields byte-identical kind/order/cycle
//     (the determinism the `gerel check --json` goldens rely on);
//   - a *certified* theory's semi-oblivious chase must saturate over the
//     generated database within generous caps — a terminating
//     certificate that fails to terminate is a lane failure;
//   - for a certified theory, the normalized theory's Skolem program
//     (DatalogProgram) must materialize the same model as its
//     semi-oblivious chase, atom for atom once each null is named by its
//     Skolem term (lane `program-vs-chase`);
//   - for weakly frontier-guarded negation-free cases, a PreparedKb with
//     the certificate-driven planner enabled must agree with one with
//     the planner disabled: equal answers when both are complete, and
//     planner answers sound (⊆) otherwise.
// When `classes` is empty the lane defaults to the five extended
// classes plus wg/wfg (the planner-relevant boundary classes).
DiffReport RunTermination(unsigned seed, size_t iters,
                          const std::vector<GenClass>& classes,
                          const DiffOptions& options = DiffOptions());

}  // namespace gerel::testing

#endif  // GEREL_TESTING_DIFFERENTIAL_H_
