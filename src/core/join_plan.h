// Compiled join plans for conjunctive pattern matching.
//
// The interpreted matcher (homomorphism.cc of the seed) re-derived the
// most-constrained-atom order at every recursion node and copied a
// hash-map Substitution around every candidate atom. A JoinPlan compiles
// a pattern once: variables are mapped to dense slots in a flat Term
// binding array, the atom order is fixed up front (most bound positions
// first, replicating the dynamic heuristic exactly for ground bindings),
// and backtracking unwinds an undo trail instead of copying state. The
// Datalog evaluator and the chase compile one plan per (rule, delta-atom
// position) at construction time and reuse an executor across rounds.
#ifndef GEREL_CORE_JOIN_PLAN_H_
#define GEREL_CORE_JOIN_PLAN_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/atom.h"
#include "core/database.h"
#include "core/substitution.h"

namespace gerel {

class JoinExecutor;

// A pattern atom compiled against a plan's slot mapping: one spec per
// flattened position (argument positions first, then annotation).
struct PositionSpec {
  // kTerm: compare the candidate term against `term` (a constant or a
  // null). kSlot: if the slot is bound, compare against its value;
  // otherwise bind it (recorded on the trail).
  enum Kind : uint8_t { kTerm, kSlot };
  Kind kind = kTerm;
  Term term;
  uint32_t slot = 0;
  uint32_t pos = 0;  // Flattened position, for the per-position index.
};

// One join level: the pattern atom to match at this depth.
struct PlanLevel {
  RelationId pred = 0;
  uint32_t num_args = 0;  // Candidates must split args/annotation equally.
  uint32_t num_annotation = 0;
  std::vector<PositionSpec> specs;
};

// An atom compiled for fast application of a match's bindings (rule
// heads, negated body literals, trigger keys). Terms without a slot
// (constants, nulls, variables foreign to the plan) pass through.
struct CompiledAtom {
  struct Entry {
    bool is_slot = false;
    Term term;
    uint32_t slot = 0;
  };
  RelationId pred = 0;
  uint32_t num_args = 0;
  std::vector<Entry> entries;  // args then annotation
};

class JoinPlan {
 public:
  JoinPlan() = default;
  // Compiles `pattern`. Variables listed in `pre_bound` receive slots
  // (even when absent from the pattern) and count as bound for the
  // join-order heuristic; the caller seeds them via JoinExecutor::Bind.
  // If `pinned_first` is >= 0, pattern[pinned_first] becomes level 0 (the
  // semi-naive delta atom, matched against a single seed candidate via
  // ExecuteSeeded); the remaining atoms are ordered greedily by the
  // number of statically bound positions, ties broken by pattern index —
  // the exact order the seed's dynamic heuristic produced.
  explicit JoinPlan(const std::vector<Atom>& pattern,
                    const std::vector<Term>& pre_bound = {},
                    int pinned_first = -1) {
    Recompile(pattern, pre_bound, pinned_first);
  }

  // Recompiles in place, reusing internal buffers.
  void Recompile(const std::vector<Atom>& pattern,
                 const std::vector<Term>& pre_bound = {},
                 int pinned_first = -1);

  // Compiles `atom` against this plan's slots for JoinExecutor::Apply.
  CompiledAtom Compile(const Atom& atom) const;

  size_t num_slots() const { return var_of_slot_.size(); }
  size_t num_levels() const { return levels_.size(); }
  const std::vector<PlanLevel>& levels() const { return levels_; }
  // Slot of `var`, or -1 if the plan does not know it.
  int SlotOf(Term var) const;
  Term VarOfSlot(uint32_t slot) const { return var_of_slot_[slot]; }

 private:
  uint32_t SlotFor(Term var);  // Interns a slot during compilation.

  std::vector<PlanLevel> levels_;
  // var bits -> slot. Patterns are small (rule bodies, CQs), so
  // a flat array with linear lookup beats a hash map's per-node
  // allocations; plans compiled per call (ForEachHomomorphism) stay cheap.
  std::vector<std::pair<uint32_t, uint32_t>> slot_of_;
  std::vector<Term> var_of_slot_;
  // Compilation scratch, kept to make Recompile allocation-free in
  // steady state.
  std::vector<std::vector<int32_t>> pos_slots_;
  std::vector<bool> bound_scratch_;
  std::vector<bool> used_scratch_;
  std::vector<uint32_t> order_scratch_;
};

// Runs a plan against a Database. Holds the slot binding array, the undo
// trail, and per-level scratch buffers; reusable across executions (and
// across plans of the same or different shapes).
class JoinExecutor {
 public:
  // Visitor invoked per complete match; the executor's accessors are
  // valid for the duration of the call. Return false to stop.
  using Visitor = std::function<bool(const JoinExecutor&)>;

  JoinExecutor() = default;

  // Enumerates matches of `plan` in `db`, extending any bindings seeded
  // via Bind() since the last Reset(). If `db_grows`, the visitor may
  // insert into `db` mid-enumeration: candidate lists are copied into
  // per-level scratch buffers (the seed matcher's snapshot semantics);
  // read-only visitors iterate the index postings in place. Returns
  // false iff the visitor stopped the enumeration.
  bool Execute(const JoinPlan& plan, const Database& db,
               const Visitor& visitor, bool db_grows);

  // As Execute, but level 0 (the plan's pinned atom) is matched only
  // against `seed`. Resets bindings first. Mismatching seeds (wrong
  // relation or repeated-variable conflict) visit nothing. `seed_index`
  // is the seed's database index, reported through MatchedAtomIndices()
  // for callers recording derivation supports; pass 0 if unused.
  bool ExecuteSeeded(const JoinPlan& plan, const Database& db,
                     const Atom& seed, const Visitor& visitor, bool db_grows,
                     uint32_t seed_index = 0);

  // Clears all bindings (sizing the executor for `plan`), then allows
  // seeding pre-bound slots with Bind().
  void Reset(const JoinPlan& plan);
  // Binds `var` to `value` before execution; vars unknown to the plan
  // are ignored.
  void Bind(Term var, Term value);

  // --- Accessors for visitors (valid during Execute*) -------------------
  // The image of `t`: its slot's value if t is a bound pattern variable,
  // t itself otherwise.
  Term Value(Term t) const;
  // Instantiates a compiled atom under the current bindings.
  Atom Apply(const CompiledAtom& atom) const;
  // Materializes the bound slots as a Substitution (appended to `out`).
  void AppendBindings(Substitution* out) const;
  // Database indices of the candidate atoms matched at each plan level,
  // in level order (one per level). Valid during the visitor of Execute
  // and ExecuteSeeded. The support log of a retractable fixpoint reads
  // this.
  const std::vector<uint32_t>& MatchedAtomIndices() const { return matched_; }

 private:
  bool MatchCandidate(const PlanLevel& level, const Atom& candidate,
                      size_t trail_mark);
  void UnwindTo(size_t trail_mark);
  bool RecurseDb(const JoinPlan& plan, const Database& db, size_t depth,
                 const Visitor& visitor, bool db_grows);

  const JoinPlan* plan_ = nullptr;  // Set during Execute*.
  std::vector<Term> bindings_;
  std::vector<uint8_t> bound_;
  std::vector<uint32_t> trail_;
  std::vector<uint32_t> matched_;  // Per-level matched atom index.
  // Per-depth candidate copies for db_grows mode; capacity persists
  // across executions so steady-state rounds do not allocate.
  std::vector<std::vector<uint32_t>> scratch_;
};

}  // namespace gerel

#endif  // GEREL_CORE_JOIN_PLAN_H_
