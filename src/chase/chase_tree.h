// Chase trees (paper §4, Defs 5–6) and the Prop 2 property checks.
//
// For a normal frontier-guarded theory Σ, the chase of a database D can be
// arranged as a tree whose root stores the atoms over the input constants
// and whose non-root nodes store atoms over at most m terms, where m is
// the maximal relation arity of Σ. This structure drives the translation
// of §5.
#ifndef GEREL_CHASE_CHASE_TREE_H_
#define GEREL_CHASE_CHASE_TREE_H_

#include <string>
#include <vector>

#include "chase/chase.h"
#include "core/database.h"
#include "core/status.h"
#include "core/symbol_table.h"
#include "core/theory.h"

namespace gerel {

struct ChaseTreeNode {
  std::vector<Atom> atoms;
  int parent = -1;  // -1 for the root.
  std::vector<int> children;
};

struct ChaseTree {
  // nodes[0] is the root d0 = D ∪ {R(c) | → R(c) ∈ Σ}.
  std::vector<ChaseTreeNode> nodes;

  // Distinct terms of node i (terms(d) in the paper).
  std::vector<Term> NodeTerms(size_t i) const;
  // Depth of node i (root = 0).
  size_t Depth(size_t i) const;
};

// Builds a chase tree of `input` w.r.t. the normal frontier-guarded theory
// `theory`, following the chase derivation order (Def 6 rules C1/C2).
// Fails if the theory is not normal frontier-guarded or if the bounded
// chase did not saturate.
Result<ChaseTree> BuildChaseTree(const Theory& theory, const Database& input,
                                 SymbolTable* symbols,
                                 const ChaseOptions& options = ChaseOptions());

// Renders the tree as Graphviz DOT (nodes list their atoms).
std::string ChaseTreeDot(const ChaseTree& tree, const SymbolTable& symbols);

// Verifies Prop 2 on a built tree:
//   (P1) |terms(d0)| ≤ |terms(D)| + k   (k = constants in Σ),
//   (P2) |terms(d)| ≤ m for non-root d  (m = max relation arity in Σ),
//   (P3) C-minimal nodes are unique for every C = terms of a node.
Status CheckChaseTreeProperties(const ChaseTree& tree, const Theory& theory,
                                const Database& input);

}  // namespace gerel

#endif  // GEREL_CHASE_CHASE_TREE_H_
