// Normalization into the normal form of Def 4 (Prop 1):
//   (i)   every rule has a singleton head,
//   (ii)  every existential rule is guarded,
//   (iii) constants only occur in rules of the form → R(c).
//
// The transformation preserves answers over the original signature and
// preserves membership in the weakly (frontier-)guarded and nearly
// (frontier-)guarded classes.
//
// Documented deviation (see DESIGN.md §2): for a *fully guarded* input
// rule containing constants, the constant-extraction step introduces a
// fresh unary `const#c(Xc)` body atom whose variable cannot join the
// guard, so the output rule is only nearly guarded. All downstream
// translations handle nearly guarded rules (Prop 6), so the pipeline is
// unaffected; constant-free guarded theories normalize to guarded
// theories exactly as in the paper.
#ifndef GEREL_CORE_NORMALIZE_H_
#define GEREL_CORE_NORMALIZE_H_

#include "core/symbol_table.h"
#include "core/theory.h"

namespace gerel {

struct NormalizeOptions {
  bool extract_constants = true;
  bool split_heads = true;
};

// Returns an equivalent (w.r.t. ground atomic consequences over the
// original signature) theory in normal form. Fresh relations are derived
// from "aux".
Theory Normalize(const Theory& theory, SymbolTable* symbols,
                 const NormalizeOptions& options = NormalizeOptions());

// Whether `theory` satisfies Def 4 (i)-(iii).
bool IsNormal(const Theory& theory);

}  // namespace gerel

#endif  // GEREL_CORE_NORMALIZE_H_
