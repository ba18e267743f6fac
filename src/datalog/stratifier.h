// Stratification of Datalog programs with negation (paper §8, Def 22).
//
// Computes the canonical stratification by relation: stratum(H) ≥
// stratum(B) for positive body atoms and stratum(H) > stratum(B) for
// negated ones. A program is stratifiable iff no cycle goes through a
// negative edge.
#ifndef GEREL_DATALOG_STRATIFIER_H_
#define GEREL_DATALOG_STRATIFIER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "core/theory.h"

namespace gerel {

struct Stratification {
  // strata[i] holds the indices of the rules evaluated in stratum i.
  std::vector<std::vector<uint32_t>> strata;
  // Stratum of each head relation (EDB-only relations are stratum 0).
  std::unordered_map<RelationId, uint32_t> relation_stratum;

  size_t NumStrata() const { return strata.size(); }
};

// Stratifies `theory` (existential rules allowed; only negation matters).
// Fails if the program is not stratifiable.
Result<Stratification> Stratify(const Theory& theory);

}  // namespace gerel

#endif  // GEREL_DATALOG_STRATIFIER_H_
