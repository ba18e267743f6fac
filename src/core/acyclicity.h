// Chase-termination guarantees via acyclicity (paper §9 cites
// acyclicity-based Datalog translations [Krötzsch & Rudolph, IJCAI'11]).
//
// Weak acyclicity (Fagin et al.): build the position dependency graph
// with regular edges (a universal variable flows from a body position to
// a head position) and special edges (a body position feeds an
// existential position); the theory is weakly acyclic iff no cycle goes
// through a special edge. The semi-oblivious (Skolem) chase of a weakly
// acyclic theory terminates on every database in polynomially many
// steps. (The naive oblivious chase, which keys triggers on *all* body
// variables, can diverge even here — e.g. p(x) → ∃y p(y) has no frontier
// and hence an empty position graph.)
//
// Joint acyclicity (Krötzsch & Rudolph) refines this with a dependency
// relation between existential variables; it is strictly more general
// and guarantees termination of the *semi-oblivious* (Skolem) chase
// (ChaseOptions::semi_oblivious) — the fully oblivious chase may still
// diverge on jointly acyclic theories by inventing fresh nulls for
// non-frontier bindings.
//
// The dependency structure itself (ExistentialDependencyGraph) is
// exposed: the termination analyzer renders it (core/graphviz.h), emits
// topological orders as acyclicity certificates, and reuses the Ω sets
// for the "attacked variable" relation of shy theories (core/classify.h).
#ifndef GEREL_CORE_ACYCLICITY_H_
#define GEREL_CORE_ACYCLICITY_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/symbol_table.h"
#include "core/theory.h"

namespace gerel {

// A Skolem function: one existential variable of one rule. Under
// skolemization the variable becomes the function symbol f_{σ,y} applied
// to σ's frontier; every labeled null the semi-oblivious chase invents
// is a term of exactly one such function.
struct SkolemFunction {
  size_t rule = 0;  // 0-based index into Theory::rules().
  Term var;         // The existential variable.

  friend bool operator==(const SkolemFunction& a, const SkolemFunction& b) {
    return a.rule == b.rule && a.var == b.var;
  }
};

// "r<rule>.<var>", e.g. "r2.Y" — the stable display name used by DOT
// renderings, certificates, and diagnostics (rule indices are 0-based,
// matching the analyzer's "rule N" convention).
std::string SkolemFunctionName(const SkolemFunction& f,
                               const SymbolTable& symbols);

// Packs a relation position (R, i) into the key used by the Ω sets.
inline uint64_t PackPosition(RelationId pred, uint32_t pos) {
  return (static_cast<uint64_t>(pred) << 32) | pos;
}

// The existential dependency graph of joint acyclicity: one node per
// Skolem function f, its invaded-position set Ω(f), and an edge f → g
// when a null of f can feed the frontier of g's rule (so g-nulls can be
// built on top of f-nulls). Acyclic ⇔ jointly acyclic ⇒ the
// semi-oblivious chase terminates on every database.
struct ExistentialDependencyGraph {
  std::vector<SkolemFunction> functions;
  // omega[i]: positions (PackPosition) that nulls of functions[i] can
  // reach, per the Def 2-style propagation fixpoint.
  std::vector<std::unordered_set<uint64_t>> omega;
  // edges[i]: target indices j with functions[i] → functions[j], in
  // increasing order.
  std::vector<std::vector<size_t>> edges;
};

ExistentialDependencyGraph BuildExistentialDependencyGraph(
    const Theory& theory);

// Topological sort of the dependency graph. On success returns true and
// fills `order` (if non-null) with every function index, dependencies
// first — a machine-checkable acyclicity certificate. On failure returns
// false and fills `cycle` (if non-null) with a closed witness path
// f0 → f1 → ... → f0 (first index repeated at the end).
bool ExistentialTopoOrder(const ExistentialDependencyGraph& graph,
                          std::vector<size_t>* order,
                          std::vector<size_t>* cycle);

// Whether the position dependency graph has no cycle through a special
// edge. Guarantees semi-oblivious chase termination.
bool IsWeaklyAcyclic(const Theory& theory);

}  // namespace gerel

#endif  // GEREL_CORE_ACYCLICITY_H_
