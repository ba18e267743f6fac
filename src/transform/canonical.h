// Canonical forms of rules modulo variable renaming and body reordering.
//
// The expansion (Def 12) and the saturation calculus (Def 19) both
// generate rules up to variable renaming; deduplication keys rules by a
// deterministic canonical string. The canonicalizer is *sound* for
// deduplication: equal canonical strings imply isomorphic rules (the
// output is a consistent renaming plus a reordering of the body, which is
// a set). It is not guaranteed to identify every isomorphic pair (greedy
// tie-breaking), which only costs duplicate work, never correctness.
#ifndef GEREL_TRANSFORM_CANONICAL_H_
#define GEREL_TRANSFORM_CANONICAL_H_

#include <string>
#include <unordered_map>

#include "core/rule.h"
#include "core/symbol_table.h"

namespace gerel {

// Optional relation renames applied during canonicalization (used to key
// rewriting pairs with a placeholder for the fresh head relation).
using RelationRenames = std::unordered_map<RelationId, std::string>;

// Deterministic canonical string for a rule.
std::string CanonicalRuleString(const Rule& rule, const SymbolTable& symbols,
                                const RelationRenames* renames = nullptr);

// Canonical string for several rules sharing variables (e.g. a rewriting
// pair): variables are renamed consistently across all rules.
std::string CanonicalRulesString(const std::vector<Rule>& rules,
                                 const SymbolTable& symbols,
                                 const RelationRenames* renames = nullptr);

}  // namespace gerel

#endif  // GEREL_TRANSFORM_CANONICAL_H_
