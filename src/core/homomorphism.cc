#include "core/homomorphism.h"

#include <algorithm>

#include "core/check.h"
#include "core/join_plan.h"

namespace gerel {

namespace {

// Pattern variables that `initial` pre-binds; they seed the executor and
// count as bound for the compiled join order.
std::vector<Term> PreBoundVars(const std::vector<Atom>& pattern,
                               const Substitution& initial) {
  std::vector<Term> out;
  if (initial.empty()) return out;
  for (const Atom& a : pattern) {
    for (Term v : a.AllVars()) {
      if (initial.IsBound(v) &&
          std::find(out.begin(), out.end(), v) == out.end()) {
        out.push_back(v);
      }
    }
  }
  return out;
}

void SeedExecutor(const std::vector<Term>& pre_bound,
                  const Substitution& initial, JoinExecutor* exec) {
  for (Term v : pre_bound) exec->Bind(v, initial.Apply(v));
}

// Adapts a plan-based match to the Substitution-taking visitor of the
// public API: the visitor sees `initial` extended by the slot bindings.
JoinExecutor::Visitor SubstitutionVisitor(const Substitution& initial,
                                          const HomomorphismVisitor& visitor) {
  return [&initial, &visitor](const JoinExecutor& e) {
    Substitution h = initial;
    e.AppendBindings(&h);
    return visitor(h);
  };
}

}  // namespace

bool ForEachHomomorphism(const std::vector<Atom>& pattern, const Database& db,
                         const Substitution& initial,
                         const HomomorphismVisitor& visitor) {
  std::vector<Term> pre_bound = PreBoundVars(pattern, initial);
  JoinPlan plan(pattern, pre_bound);
  JoinExecutor exec;
  exec.Reset(plan);
  SeedExecutor(pre_bound, initial, &exec);
  // Visitors may insert into the database mid-enumeration (chase and
  // Datalog rule firing), so candidate lists are snapshotted per level.
  return exec.Execute(plan, db, SubstitutionVisitor(initial, visitor),
                      /*db_grows=*/true);
}

bool HasHomomorphism(const std::vector<Atom>& pattern, const Database& db,
                     const Substitution& initial) {
  std::vector<Term> pre_bound = PreBoundVars(pattern, initial);
  JoinPlan plan(pattern, pre_bound);
  JoinExecutor exec;
  exec.Reset(plan);
  SeedExecutor(pre_bound, initial, &exec);
  bool found = false;
  exec.Execute(plan, db,
               [&found](const JoinExecutor&) {
                 found = true;
                 return false;  // Stop at the first hit.
               },
               /*db_grows=*/false);
  return found;
}

bool DatabaseMapsInto(const Database& a, const Database& b) {
  // Nulls of `a` behave as variables of the pattern; constants are fixed.
  std::vector<Atom> pattern;
  pattern.reserve(a.size());
  for (const Atom& atom : a.atoms()) {
    Atom p = atom;
    auto null_to_var = [](std::vector<Term>* ts) {
      for (Term& t : *ts) {
        if (t.IsNull()) t = Term::Variable(t.id());
      }
    };
    null_to_var(&p.args);
    null_to_var(&p.annotation);
    pattern.push_back(std::move(p));
  }
  return HasHomomorphism(pattern, b);
}

bool HomomorphicallyEquivalent(const Database& a, const Database& b) {
  return DatabaseMapsInto(a, b) && DatabaseMapsInto(b, a);
}

}  // namespace gerel
