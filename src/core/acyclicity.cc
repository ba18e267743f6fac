#include "core/acyclicity.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gerel {

namespace {

// Flattened positions of a variable in a set of atoms.
std::vector<uint64_t> PositionsOf(Term var, const std::vector<Atom>& atoms) {
  std::vector<uint64_t> out;
  for (const Atom& a : atoms) {
    uint32_t pos = 0;
    for (Term t : a.args) {
      if (t == var) out.push_back(PackPosition(a.pred, pos));
      ++pos;
    }
    for (Term t : a.annotation) {
      if (t == var) out.push_back(PackPosition(a.pred, pos));
      ++pos;
    }
  }
  return out;
}

// Reachability u →* v in the edge map.
bool Reaches(uint64_t from, uint64_t to,
             const std::unordered_map<uint64_t, std::vector<uint64_t>>&
                 edges) {
  std::unordered_set<uint64_t> visited;
  std::deque<uint64_t> frontier = {from};
  while (!frontier.empty()) {
    uint64_t u = frontier.front();
    frontier.pop_front();
    if (u == to) return true;
    if (!visited.insert(u).second) continue;
    auto it = edges.find(u);
    if (it == edges.end()) continue;
    for (uint64_t v : it->second) frontier.push_back(v);
  }
  return false;
}

}  // namespace

std::string SkolemFunctionName(const SkolemFunction& f,
                               const SymbolTable& symbols) {
  std::string name = IndexedName("r", f.rule);
  name += '.';
  name += symbols.VariableName(f.var);
  return name;
}

bool IsWeaklyAcyclic(const Theory& theory) {
  // Position dependency graph (Fagin et al., Def 3.7): edges originate
  // from the body positions of *frontier* variables.
  std::unordered_map<uint64_t, std::vector<uint64_t>> edges;
  std::vector<std::pair<uint64_t, uint64_t>> special;
  for (const Rule& rule : theory.rules()) {
    std::vector<Atom> body = rule.PositiveBody();
    std::vector<Term> evars = rule.EVars();
    for (Term x : rule.FVars()) {
      std::vector<uint64_t> body_pos = PositionsOf(x, body);
      std::vector<uint64_t> head_pos = PositionsOf(x, rule.head);
      for (uint64_t p : body_pos) {
        for (uint64_t q : head_pos) edges[p].push_back(q);
        for (Term y : evars) {
          for (uint64_t q : PositionsOf(y, rule.head)) {
            edges[p].push_back(q);  // Special edges are edges too.
            special.emplace_back(p, q);
          }
        }
      }
    }
  }
  for (const auto& [p, q] : special) {
    if (Reaches(q, p, edges)) return false;  // Cycle through p ⇒ q.
  }
  return true;
}

ExistentialDependencyGraph BuildExistentialDependencyGraph(
    const Theory& theory) {
  // Ω(y): positions reachable by nulls invented for the existential
  // variable y — y's head positions, closed under the Def 2-style
  // propagation ("if all body positions of a universal variable are in
  // Ω(y), its head positions join Ω(y)").
  ExistentialDependencyGraph graph;
  for (size_t ri = 0; ri < theory.rules().size(); ++ri) {
    for (Term y : theory.rules()[ri].EVars()) {
      SkolemFunction f;
      f.rule = ri;
      f.var = y;
      std::unordered_set<uint64_t> omega;
      for (uint64_t q : PositionsOf(y, theory.rules()[ri].head)) {
        omega.insert(q);
      }
      graph.functions.push_back(f);
      graph.omega.push_back(std::move(omega));
    }
  }
  for (std::unordered_set<uint64_t>& omega : graph.omega) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Rule& rule : theory.rules()) {
        std::vector<Atom> body = rule.PositiveBody();
        for (Term x : rule.UVars()) {
          std::vector<uint64_t> body_pos = PositionsOf(x, body);
          if (body_pos.empty()) continue;
          bool all = std::all_of(
              body_pos.begin(), body_pos.end(),
              [&omega](uint64_t p) { return omega.count(p) > 0; });
          if (!all) continue;
          for (uint64_t q : PositionsOf(x, rule.head)) {
            if (omega.insert(q).second) changed = true;
          }
        }
      }
    }
  }
  // Dependency edges: y → y′ when a frontier variable of y′'s rule can
  // be bound entirely inside Ω(y). Cycle ⇒ not jointly acyclic.
  size_t n = graph.functions.size();
  graph.edges.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const Rule& rule_j = theory.rules()[graph.functions[j].rule];
      std::vector<Atom> body = rule_j.PositiveBody();
      for (Term x : rule_j.FVars()) {
        std::vector<uint64_t> body_pos = PositionsOf(x, body);
        if (body_pos.empty()) continue;
        bool all = std::all_of(body_pos.begin(), body_pos.end(),
                               [&](uint64_t p) {
                                 return graph.omega[i].count(p) > 0;
                               });
        if (all) {
          graph.edges[i].push_back(j);
          break;
        }
      }
    }
  }
  return graph;
}

bool ExistentialTopoOrder(const ExistentialDependencyGraph& graph,
                          std::vector<size_t>* order,
                          std::vector<size_t>* cycle) {
  size_t n = graph.functions.size();
  if (order != nullptr) order->clear();
  if (cycle != nullptr) cycle->clear();
  // Cycle detection (DFS, three colors). The work stack holds the
  // current path, so a back edge yields the witness cycle directly.
  std::vector<int> color(n, 0);
  std::vector<size_t> postorder;
  postorder.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    if (color[s] != 0) continue;
    std::vector<std::pair<size_t, size_t>> work = {{s, 0}};
    color[s] = 1;
    while (!work.empty()) {
      auto& [u, next] = work.back();
      if (next < graph.edges[u].size()) {
        size_t v = graph.edges[u][next++];
        if (color[v] == 1) {
          // Back edge u → v: the cycle is the work-stack slice from v
          // to u, closed by repeating v.
          if (cycle != nullptr) {
            size_t at = 0;
            while (work[at].first != v) ++at;
            for (; at < work.size(); ++at) cycle->push_back(work[at].first);
            cycle->push_back(v);
          }
          return false;
        }
        if (color[v] == 0) {
          color[v] = 1;
          work.emplace_back(v, 0);
        }
      } else {
        color[u] = 2;
        postorder.push_back(u);
        work.pop_back();
      }
    }
  }
  if (order != nullptr) {
    // Reverse postorder: every edge u → v places u before v, so a
    // function precedes everything built on top of its nulls.
    order->assign(postorder.rbegin(), postorder.rend());
  }
  return true;
}

}  // namespace gerel
