// The (oblivious) chase (paper §2).
//
// A trigger is a pair (σ, h) of a rule and a homomorphism from body(σ)
// into the current database. The oblivious chase fires every trigger
// exactly once, in fair (round-based, semi-naive) order, replacing
// existential variables by fresh labeled nulls.
//
// The chase runs on the calling thread. Each round enumerates its
// triggers against the database as it stood at the round's start, then
// fires them in a fixed order, so atom order, null names and step counts
// depend on the input alone.
//
// The chase of an existential-rule theory may be infinite; ChaseOptions
// bounds the run and ChaseResult::saturated reports whether a fixpoint was
// actually reached. The decision procedures of the library are the
// paper's translations into Datalog (§5–§7), which terminate by
// construction. The bounded chase is the reference semantics: `gerel
// chase` prints it, the test oracles compare the translations against
// it, and the semi-oblivious variant decides MFA termination
// (analyze/termination.h) and materializes theories certified finite.
#ifndef GEREL_CHASE_CHASE_H_
#define GEREL_CHASE_CHASE_H_

#include <cstdint>
#include <set>
#include <vector>

#include "core/budget.h"
#include "core/database.h"
#include "core/symbol_table.h"
#include "core/theory.h"

namespace gerel {

struct ChaseOptions {
  // Maximum number of trigger firings; 0 disables the bound.
  size_t max_steps = 1000000;
  // Stop once the database holds this many atoms; 0 disables the bound.
  size_t max_atoms = 1000000;
  // Maximum null nesting depth: a null created by a trigger whose image
  // contains nulls of depth d gets depth d + 1; constants have depth 0.
  // Triggers that would create nulls deeper than this are skipped.
  // 0 disables the bound.
  uint32_t max_null_depth = 0;
  // Populate the acdom built-in from the input database and theory
  // constants before chasing (paper §2, "Further Notions").
  bool populate_acdom = true;
  // Semi-oblivious (a.k.a. Skolem) chase: triggers are identified by the
  // rule and the *frontier* bindings only — two homomorphisms that agree
  // on the frontier fire once, mirroring skolemization. Termination
  // guarantee: weakly and jointly acyclic theories (core/acyclicity.h)
  // have terminating semi-oblivious chases. Neither notion bounds the
  // fully oblivious chase: p(X) → ∃Y p(Y) is weakly acyclic, yet its
  // oblivious chase invents a new null for every p-atom, forever.
  bool semi_oblivious = false;
  // Optional execution budget (wall-clock deadline, atom ceiling,
  // cooperative cancellation, fault injection). Checked at round
  // boundaries and, amortized, inside trigger enumeration; not owned.
  // Exhaustion stops the run cleanly with ChaseResult::degradation set.
  ExecutionBudget* budget = nullptr;
};

// Provenance of one derived atom: which rule fired and the image of its
// frontier variables under the trigger homomorphism (used by the chase
// tree, Def 6).
struct ChaseStep {
  uint32_t rule_index = 0;
  Atom atom;
  std::vector<Term> frontier_image;
};

struct ChaseResult {
  Database database;
  // True iff no applicable trigger remains (the chase reached a fixpoint
  // within the configured limits).
  bool saturated = false;
  // Number of triggers fired.
  size_t steps = 0;
  // Newly derived atoms in derivation order (input atoms excluded).
  std::vector<ChaseStep> derivation;
  // Why the run stopped short of a fixpoint (limit kNone when
  // saturated). The bounded database is still sound: every atom in it is
  // a certain consequence of the input.
  DegradationReason degradation;
};

// Runs the oblivious chase of `input` w.r.t. `theory`. The theory must be
// negation-free (CHECK-fails otherwise; callers reject negation first, see
// Theory::HasNegation). `symbols` supplies fresh nulls.
ChaseResult Chase(const Theory& theory, const Database& input,
                  SymbolTable* symbols,
                  const ChaseOptions& options = ChaseOptions());

// ans((Σ, Q), D): the set of constant tuples ~c with Q(~c) in the chase.
std::set<std::vector<Term>> ChaseAnswers(const Theory& theory,
                                         const Database& input,
                                         RelationId output,
                                         SymbolTable* symbols,
                                         const ChaseOptions& options =
                                             ChaseOptions());

}  // namespace gerel

#endif  // GEREL_CHASE_CHASE_H_
