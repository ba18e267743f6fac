// Guardedness classification (paper §3).
//
// Implements affected positions ap(Σ) (Def 2), unsafe variables, and the
// seven language classes of Figure 1: Datalog, guarded, frontier-guarded,
// weakly guarded, weakly frontier-guarded, nearly guarded, and nearly
// frontier-guarded.
//
// Positions are flattened over argument positions first, then annotation
// positions. Guard/frontier checks consider *argument* variables only:
// annotation variables never need guarding (paper, "safely annotated"
// theories — annotation terms behave as part of the relation name). For
// unannotated theories this coincides exactly with the paper's
// definitions. For stratified theories, ap and the guard checks ignore
// negative literals (paper §8: weak guardedness of Σ is defined via the
// negation-free Σ').
#ifndef GEREL_CORE_CLASSIFY_H_
#define GEREL_CORE_CLASSIFY_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/acyclicity.h"
#include "core/database.h"
#include "core/rule.h"
#include "core/theory.h"

namespace gerel {

// A relation position (R, i), packed.
struct PositionSet {
 public:
  void Insert(RelationId pred, uint32_t index) { set_.insert(Key(pred, index)); }
  bool Contains(RelationId pred, uint32_t index) const {
    return set_.count(Key(pred, index)) > 0;
  }
  size_t size() const { return set_.size(); }

 private:
  static uint64_t Key(RelationId pred, uint32_t index) {
    return (static_cast<uint64_t>(pred) << 32) | index;
  }
  std::unordered_set<uint64_t> set_;
};

// Computes the affected positions ap(Σ) (Def 2): the least set containing
// all head positions of existential variables, closed under propagation of
// all-affected body variables into their head positions.
PositionSet AffectedPositions(const Theory& theory);

// unsafe(σ, Σ) ∩ uvars(σ): the universal variables of `rule` all of whose
// positive-body occurrences are affected (they may be bound to labeled
// nulls during the chase).
std::vector<Term> UnsafeVars(const Rule& rule, const PositionSet& affected);

// --- Per-rule class membership ------------------------------------------

// Guarded: some positive body atom contains all universal variables.
bool IsGuardedRule(const Rule& rule);
// Frontier-guarded: some positive body atom contains all frontier vars.
bool IsFrontierGuardedRule(const Rule& rule);
// Weakly guarded in Σ: some positive body atom contains all unsafe
// universal variables.
bool IsWeaklyGuardedRule(const Rule& rule, const PositionSet& affected);
// Weakly frontier-guarded in Σ: some positive body atom contains all
// unsafe frontier variables.
bool IsWeaklyFrontierGuardedRule(const Rule& rule,
                                 const PositionSet& affected);
// Nearly guarded in Σ (Def 3): guarded, or no unsafe vars and no evars.
bool IsNearlyGuardedRule(const Rule& rule, const PositionSet& affected);
// Nearly frontier-guarded in Σ (Def 3).
bool IsNearlyFrontierGuardedRule(const Rule& rule,
                                 const PositionSet& affected);

// The fixed frontier guard fg(σ) (Def 1): the first positive body atom
// containing all frontier variables, or nullptr if none exists.
const Atom* FrontierGuardOrNull(const Rule& rule);

// --- Theory-level classification ----------------------------------------

struct Classification {
  bool datalog = false;
  bool guarded = false;
  bool frontier_guarded = false;
  bool weakly_guarded = false;
  bool weakly_frontier_guarded = false;
  bool nearly_guarded = false;
  bool nearly_frontier_guarded = false;
};

Classification Classify(const Theory& theory);

// --- Extended lattice (beyond Fig. 1) -----------------------------------
//
// Cheap syntactic classes from the termination literature (nemo's
// rule_properties list; Zhang/Zhang/You, "Existential Rule Languages
// with Finite Chase"). They refine the planner's picture: linear and
// joinless bound join width, frontier-one bounds null fan-in, shy
// guarantees parsimonious-chase query answering.

// Linear: at most one positive body atom (implies guarded).
bool IsLinearRule(const Rule& rule);
// Frontier-one: at most one frontier variable.
bool IsFrontierOneRule(const Rule& rule);
// Joinless: no variable occurs in two distinct positive body atoms
// (repeated occurrences inside one atom are fine).
bool IsJoinlessRule(const Rule& rule);
// Domain-restricted: every head atom contains all universal body
// variables or none of them.
bool IsDomainRestrictedRule(const Rule& rule);
// Shy (Leone et al.): a universal variable x is *attacked* by a Skolem
// function f when every positive-body occurrence of x lies in Ω(f) —
// i.e. x can be bound to an f-null. A rule is shy iff (i) no variable
// occurring in two distinct positive body atoms is attacked, and (ii) no
// two distinct frontier variables lacking a common body atom are
// attacked by the same function. `graph` must come from
// BuildExistentialDependencyGraph over the *whole* theory.
bool IsShyRule(const Rule& rule, const ExistentialDependencyGraph& graph);

struct ExtendedClassification {
  bool linear = false;
  bool frontier_one = false;
  bool joinless = false;
  bool domain_restricted = false;
  bool shy = false;
};

ExtendedClassification ClassifyExtended(const Theory& theory);

// --- Proper theories (Def 16) -------------------------------------------

// A position permutation per relation: new_args[i] = old_args[perm[i]].
struct ProperReordering {
  Theory theory;
  std::unordered_map<RelationId, std::vector<uint32_t>> permutation;

  // Applies / inverts the reordering on databases.
  Database Apply(const Database& db) const;
  Database Invert(const Database& db) const;
  Atom Apply(const Atom& atom) const;
  Atom Invert(const Atom& atom) const;
};

// Reorders relation positions so every relation has its affected positions
// first (Def 16). The result is proper; ap membership is preserved
// position-wise along the permutation.
ProperReordering MakeProper(const Theory& theory);

// Whether every relation of `theory` has its affected positions forming a
// prefix (Def 16).
bool IsProper(const Theory& theory);

// Whether `theory` is safely annotated (paper §2, "Relation name
// annotations"): (i) no annotation variable occurs as an argument in the
// same rule, and (ii) every head-annotation variable occurs in some
// body-atom annotation.
bool IsSafelyAnnotated(const Theory& theory);

}  // namespace gerel

#endif  // GEREL_CORE_CLASSIFY_H_
