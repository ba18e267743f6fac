// Homomorphism enumeration: mapping atom conjunctions into databases
// (paper §2). These are the definition-level checks that tests compare
// the chase and the Datalog engine against; the engines themselves run
// compiled JoinPlans (core/join_plan.h).
#ifndef GEREL_CORE_HOMOMORPHISM_H_
#define GEREL_CORE_HOMOMORPHISM_H_

#include <functional>
#include <vector>

#include "core/atom.h"
#include "core/database.h"
#include "core/substitution.h"

namespace gerel {

// Visitor for enumerated homomorphisms; return false to stop enumeration.
using HomomorphismVisitor = std::function<bool(const Substitution&)>;

// Enumerates homomorphisms h extending `initial` with h(pattern) ⊆ db.
// Pattern atoms may contain variables, constants, and nulls; constants and
// nulls must match database terms exactly. Returns false iff the visitor
// stopped the enumeration early.
bool ForEachHomomorphism(const std::vector<Atom>& pattern, const Database& db,
                         const Substitution& initial,
                         const HomomorphismVisitor& visitor);

// Convenience: does any homomorphism exist?
bool HasHomomorphism(const std::vector<Atom>& pattern, const Database& db,
                     const Substitution& initial = Substitution());

// Whether there is a homomorphism from the atoms of `a` into the atoms of
// `b` (used for homomorphic-equivalence checks of chase results).
bool DatabaseMapsInto(const Database& a, const Database& b);
bool HomomorphicallyEquivalent(const Database& a, const Database& b);

}  // namespace gerel

#endif  // GEREL_CORE_HOMOMORPHISM_H_
