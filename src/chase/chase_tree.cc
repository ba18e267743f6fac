#include "chase/chase_tree.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/check.h"
#include "core/classify.h"
#include "core/normalize.h"
#include "core/printer.h"

namespace gerel {

namespace {

std::vector<Term> DistinctTerms(const std::vector<Term>& terms) {
  std::vector<Term> out;
  for (Term t : terms) {
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  }
  return out;
}

// Incremental tree with per-node term sets and a term → nodes index.
class TreeBuilder {
 public:
  explicit TreeBuilder(std::vector<Atom> root_atoms) {
    ChaseTreeNode root;
    root.atoms = std::move(root_atoms);
    tree_.nodes.push_back(std::move(root));
    node_terms_.emplace_back();
    for (const Atom& a : tree_.nodes[0].atoms) IndexAtomTerms(0, a);
  }

  // All nodes d with C ⊆ terms(d) such that no parent of d contains C.
  std::vector<int> MinimalNodes(const std::vector<Term>& c) const {
    std::vector<int> candidates;
    if (c.empty()) {
      candidates.push_back(0);
      return candidates;
    }
    // Start from the postings of the first term, filter by the rest.
    auto it = term_to_nodes_.find(c[0].bits());
    if (it == term_to_nodes_.end()) return {};
    for (int node : it->second) {
      bool all = true;
      for (Term t : c) {
        if (node_terms_[node].count(t.bits()) == 0) {
          all = false;
          break;
        }
      }
      if (!all) continue;
      int parent = tree_.nodes[node].parent;
      bool parent_has_all = parent >= 0;
      if (parent >= 0) {
        for (Term t : c) {
          if (node_terms_[parent].count(t.bits()) == 0) {
            parent_has_all = false;
            break;
          }
        }
      }
      if (!parent_has_all) candidates.push_back(node);
    }
    return candidates;
  }

  void AddAtomToNode(int node, const Atom& atom) {
    tree_.nodes[node].atoms.push_back(atom);
    IndexAtomTerms(node, atom);
  }

  int AddChild(int parent, const Atom& atom) {
    int id = static_cast<int>(tree_.nodes.size());
    ChaseTreeNode node;
    node.parent = parent;
    node.atoms.push_back(atom);
    tree_.nodes.push_back(std::move(node));
    tree_.nodes[parent].children.push_back(id);
    node_terms_.emplace_back();
    IndexAtomTerms(id, atom);
    return id;
  }

  ChaseTree Take() { return std::move(tree_); }

 private:
  void IndexAtomTerms(int node, const Atom& atom) {
    for (Term t : atom.AllTerms()) {
      if (node_terms_[node].insert(t.bits()).second) {
        term_to_nodes_[t.bits()].push_back(node);
      }
    }
  }

  ChaseTree tree_;
  std::vector<std::unordered_set<uint32_t>> node_terms_;
  std::unordered_map<uint32_t, std::vector<int>> term_to_nodes_;
};

}  // namespace

std::vector<Term> ChaseTree::NodeTerms(size_t i) const {
  std::vector<Term> out;
  for (const Atom& a : nodes[i].atoms) {
    for (Term t : a.AllTerms()) {
      if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
    }
  }
  return out;
}

size_t ChaseTree::Depth(size_t i) const {
  size_t d = 0;
  int cur = static_cast<int>(i);
  while (nodes[cur].parent >= 0) {
    cur = nodes[cur].parent;
    ++d;
  }
  return d;
}

Result<ChaseTree> BuildChaseTree(const Theory& theory, const Database& input,
                                 SymbolTable* symbols,
                                 const ChaseOptions& options) {
  if (!IsNormal(theory)) {
    return Status::Error("chase tree requires a normal theory (Def 6)");
  }
  if (theory.HasNegation()) {
    return Status::Error("chase tree requires a negation-free theory");
  }
  if (!Classify(theory).frontier_guarded) {
    return Status::Error("chase tree requires a frontier-guarded theory");
  }
  ChaseResult chase = Chase(theory, input, symbols, options);
  if (!chase.saturated) {
    return Status::Error("chase did not saturate within the given limits");
  }
  // Root d0 = D (plus acdom facts) plus the fact-rule heads → R(c).
  std::vector<Atom> root_atoms;
  Database root_set;
  for (const Atom& a : input.atoms()) {
    if (root_set.Insert(a)) root_atoms.push_back(a);
  }
  for (uint32_t i = 0; i < chase.database.size(); ++i) {
    const Atom& a = chase.database.atom(i);
    if (a.pred == AcdomRelation(symbols) && root_set.Insert(a)) {
      root_atoms.push_back(a);
    }
  }
  for (const Rule& r : theory.rules()) {
    if (r.IsFact() && root_set.Insert(r.head[0])) {
      root_atoms.push_back(r.head[0]);
    }
  }
  TreeBuilder builder(std::move(root_atoms));
  for (const ChaseStep& step : chase.derivation) {
    if (root_set.Contains(step.atom)) continue;  // Fact-rule heads, acdom.
    std::vector<Term> c = DistinctTerms(step.atom.AllTerms());
    std::vector<int> minimal = builder.MinimalNodes(c);
    if (!minimal.empty()) {
      // (C1): some node contains all of ~t — add to the C-minimal node.
      builder.AddAtomToNode(minimal.front(), step.atom);
      continue;
    }
    // (C2): create a new child of the frontier-image-minimal node.
    std::vector<Term> frontier = DistinctTerms(step.frontier_image);
    std::vector<int> host = builder.MinimalNodes(frontier);
    if (host.empty()) {
      return Status::Error(
          "no node contains the frontier image of a derived atom; theory "
          "is not frontier-guarded as required");
    }
    builder.AddChild(host.front(), step.atom);
  }
  return builder.Take();
}

std::string ChaseTreeDot(const ChaseTree& tree, const SymbolTable& symbols) {
  std::string out = "digraph chasetree {\n  node [shape=box];\n";
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    std::string label;
    for (const Atom& a : tree.nodes[i].atoms) {
      label += ToString(a, symbols);
      label += "\\n";
    }
    out += "  n" + std::to_string(i) + " [label=\"" + label + "\"];\n";
    if (tree.nodes[i].parent >= 0) {
      out += "  n" + std::to_string(tree.nodes[i].parent) + " -> n" +
             std::to_string(i) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

Status CheckChaseTreeProperties(const ChaseTree& tree, const Theory& theory,
                                const Database& input) {
  size_t m = theory.MaxFullArity();
  size_t k = theory.Constants().size();
  // (P1): the root's terms are the input terms plus at most k constants.
  std::vector<Term> root_terms = tree.NodeTerms(0);
  size_t input_terms = input.ActiveTerms().size();
  if (root_terms.size() > input_terms + k) {
    return Status::Error("P1 violated: root has " +
                         std::to_string(root_terms.size()) + " terms > " +
                         std::to_string(input_terms + k));
  }
  // (P2): non-root nodes span at most m terms.
  for (size_t i = 1; i < tree.nodes.size(); ++i) {
    if (tree.NodeTerms(i).size() > m) {
      return Status::Error("P2 violated at node " + std::to_string(i));
    }
  }
  // (P3): for each node's term set, the C-minimal node is unique.
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    std::vector<Term> c = tree.NodeTerms(i);
    if (c.empty()) continue;
    size_t minimal_count = 0;
    for (size_t j = 0; j < tree.nodes.size(); ++j) {
      std::vector<Term> tj = tree.NodeTerms(j);
      auto contains_all = [](const std::vector<Term>& sup,
                             const std::vector<Term>& sub) {
        return std::all_of(sub.begin(), sub.end(), [&sup](Term t) {
          return std::find(sup.begin(), sup.end(), t) != sup.end();
        });
      };
      if (!contains_all(tj, c)) continue;
      int parent = tree.nodes[j].parent;
      if (parent >= 0 &&
          contains_all(tree.NodeTerms(parent), c)) {
        continue;
      }
      ++minimal_count;
    }
    if (minimal_count != 1) {
      return Status::Error("P3 violated for node " + std::to_string(i) +
                           ": " + std::to_string(minimal_count) +
                           " minimal nodes");
    }
  }
  return Status::Ok();
}

}  // namespace gerel
