#include "inputs.h"

#include <algorithm>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool Graph::HasEdge(uint32_t u, uint32_t v) const {
  return std::find(out[u].begin(), out[u].end(), v) != out[u].end();
}

Graph ChainGraph(Rng* rng, size_t comps, size_t len, size_t chords) {
  Graph g;
  g.n = comps * len;
  g.out.resize(g.n);
  std::vector<uint32_t> label(g.n);
  for (size_t i = 0; i < g.n; ++i) label[i] = static_cast<uint32_t>(i);
  for (size_t i = g.n; i > 1; --i) {
    std::swap(label[i - 1], label[rng->Below(i)]);
  }
  g.chains.resize(comps);
  for (size_t c = 0; c < comps; ++c) {
    std::vector<uint32_t>& chain = g.chains[c];
    for (size_t p = 0; p < len; ++p) {
      uint32_t v = label[c * len + p];
      chain.push_back(v);
      if (p > 0) g.out[chain[p - 1]].push_back(v);
    }
    // Chords never change the closure, only the number of derivations.
    for (size_t k = 0; k < chords && len >= 3;) {
      size_t i = rng->Below(len - 2);
      size_t j = i + 2 + rng->Below(len - i - 2);
      if (g.HasEdge(chain[i], chain[j])) continue;
      g.out[chain[i]].push_back(chain[j]);
      ++k;
    }
  }
  return g;
}

std::string NodeName(uint32_t v) {
  std::string name = "c";
  name += std::to_string(v);
  return name;
}

const char* RouteName(Route route) {
  switch (route) {
    case Route::kDatalog: return "datalog";
    case Route::kGuarded: return "guarded";
    case Route::kWeaklyGuarded: return "weakly_guarded";
    case Route::kChase: return "chase";
  }
  return "?";
}

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kQuery: return "query";
    case OpType::kAssert: return "assert";
    case OpType::kRetract: return "retract";
  }
  return "?";
}

std::string QueryText(Route route, const QuerySpec& spec) {
  const std::string k = NodeName(spec.key);
  // The served routes name their edge-closure relation differently.
  const char* closure = route == Route::kDatalog ? "t" : "e";
  switch (spec.kind) {
    case QueryKind::kDescendants:
      return std::string(closure) + "(" + k + ", Y) -> q(Y)";
    case QueryKind::kAncestors:
      return std::string(closure) + "(X, " + k + ") -> q(X)";
    case QueryKind::kTwoStep:
      return "e(" + k + ", Y), " + closure + "(Y, Z) -> q(Z)";
    case QueryKind::kDescendantsWithOut:
      return "e(" + k + ", X), e(X, Y) -> q(X)";
    case QueryKind::kReachFromKey:
      return route == Route::kGuarded ? "r" + k + "(X) -> q(X)"
                                      : "reach(X, " + k + ") -> q(X)";
  }
  return "";
}

namespace {

void AppendFacts(const Graph& g, const char* rel, std::string* text) {
  for (uint32_t u = 0; u < g.n; ++u) {
    for (uint32_t v : g.out[u]) {
      *text += std::string(rel) + "(" + NodeName(u) + ", " + NodeName(v) +
               ").\n";
    }
  }
}

// `count` nodes at evenly spaced positions of every chain, or the heads
// of `count` random chains. Positions, not labels, decide how much a
// marked node adds to the model, so they are the same for every seed.
std::vector<uint32_t> MarkNodes(const Graph& g, size_t count, bool per_chain,
                                Rng* rng) {
  std::vector<uint32_t> marked;
  if (per_chain) {
    for (const std::vector<uint32_t>& chain : g.chains) {
      for (size_t i = 0; i < count && i < chain.size(); ++i) {
        marked.push_back(chain[i * chain.size() / count]);
      }
    }
  } else {
    std::vector<size_t> order(g.chains.size());
    for (size_t c = 0; c < order.size(); ++c) order[c] = c;
    for (size_t i = 0; i < count && i < order.size(); ++i) {
      std::swap(order[i], order[i + rng->Below(order.size() - i)]);
      marked.push_back(g.chains[order[i]][0]);
    }
  }
  std::sort(marked.begin(), marked.end());
  return marked;
}

}  // namespace

ProgramInput MakeProgram(Route route, const ProgramSize& size,
                         uint64_t seed) {
  Rng rng(seed);
  ProgramInput p;
  p.route = route;
  p.graph = ChainGraph(&rng, size.comps, size.len, size.chords);
  p.marked = MarkNodes(p.graph, size.marked, route != Route::kGuarded, &rng);
  if (route == Route::kChase) {
    // A chain's tail has no out-edge of its own, so its gen fact gives it
    // a labeled null as its only e-successor (unless a fresh edge of the
    // request stream leaves it): answers that join through a tail rest
    // on that null witness alone.
    for (const std::vector<uint32_t>& chain : p.graph.chains) {
      p.marked.push_back(chain.back());
    }
    std::sort(p.marked.begin(), p.marked.end());
    p.marked.erase(std::unique(p.marked.begin(), p.marked.end()),
                   p.marked.end());
  }
  std::string& text = p.text;
  switch (route) {
    case Route::kDatalog:
      text = "e(X, Y) -> t(X, Y).\ne(X, Y), t(Y, Z) -> t(X, Z).\n";
      AppendFacts(p.graph, "e", &text);
      break;
    case Route::kGuarded:
      // Reachability from each seed s in its own relation rs, over f
      // edges, where every f-node also gets an invented successor: the
      // Skolem chase never terminates, so the planner saturates.
      text = "f(X, Y) -> exists Z. f(Y, Z).\n";
      for (uint32_t s : p.marked) {
        std::string r = "r" + NodeName(s);
        text += r + "(X), f(X, Y) -> " + r + "(Y).\n";
      }
      AppendFacts(p.graph, "f", &text);
      for (uint32_t s : p.marked) {
        text += "r" + NodeName(s) + "(" + NodeName(s) + ").\n";
      }
      break;
    case Route::kWeaklyGuarded:
      // Every f-node gets an invented successor, so both f positions are
      // affected and the chase is infinite. The reach rule is weakly but
      // not plainly guarded: S is safe and gets grounded (pg(Σ, D)).
      text =
          "f(X, Y) -> exists Z. f(Y, Z).\n"
          "reach(X, S), f(X, Y) -> reach(Y, S).\n";
      AppendFacts(p.graph, "f", &text);
      for (uint32_t s : p.marked) {
        text += "reach(" + NodeName(s) + ", " + NodeName(s) + ").\n";
      }
      break;
    case Route::kChase:
      // Weakly acyclic: the planner certifies the Skolem chase.
      text = "gen(X) -> exists Y. e(X, Y).\ne(X, Y), e(Y, Z) -> e(X, Z).\n";
      AppendFacts(p.graph, "e", &text);
      for (uint32_t s : p.marked) text += "gen(" + NodeName(s) + ").\n";
      break;
  }
  // Probes: a few keys per program, at spread-out chain positions.
  const size_t kProbeKeys = 8;
  for (size_t i = 0; i < kProbeKeys; ++i) {
    const std::vector<uint32_t>& chain =
        p.graph.chains[rng.Below(p.graph.chains.size())];
    uint32_t key = chain[(i * chain.size()) / kProbeKeys];
    switch (route) {
      case Route::kDatalog:
        p.probes.push_back({QueryKind::kDescendants, key});
        p.probes.push_back({QueryKind::kAncestors, key});
        break;
      case Route::kGuarded:
      case Route::kWeaklyGuarded:
        p.probes.push_back(
            {QueryKind::kReachFromKey, p.marked[rng.Below(p.marked.size())]});
        break;
      case Route::kChase:
        p.probes.push_back({QueryKind::kDescendants, key});
        p.probes.push_back({QueryKind::kDescendantsWithOut, key});
        break;
    }
  }
  return p;
}

RequestStream::RequestStream(const ProgramInput* served, uint64_t seed)
    : served_(served), rng_(seed) {
  double total = 0;
  for (size_t r = 0; r < served_->graph.n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

uint32_t RequestStream::SkewedKey() {
  size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.Unit()) -
                cdf_.begin();
  if (rank >= cdf_.size()) rank = cdf_.size() - 1;
  // The rank fixes the chain position, so hot keys ask for the same
  // amount of work under every seed; the seed only relabels the nodes.
  const Graph& g = served_->graph;
  size_t comps = g.chains.size();
  size_t len = g.chains[0].size();
  return g.chains[rank % comps][(rank / comps + rank * 7) % len];
}

Op RequestStream::Next() {
  Op op;
  const Graph& g = served_->graph;
  uint64_t id = issued_++;
  size_t slot = id % kWritePeriod;
  if (slot == kWritePeriod / 2) {
    // A fresh edge from one chain's tail to another chain's head: every
    // node of the first chain now reaches every node of the second, so
    // each assert adds len² closure pairs whatever the seed, and the
    // paired retract takes them away again. Write latency then varies
    // with the host alone, not with where the edge landed.
    size_t from = rng_.Below(g.chains.size());
    size_t to = (from + 1 + rng_.Below(g.chains.size() - 1)) %
                g.chains.size();
    live_ = {true, g.chains[from].back(), g.chains[to].front()};
    op.type = OpType::kAssert;
    op.edge = live_;
  } else if (slot == kWritePeriod - 1) {
    op.type = OpType::kRetract;
    op.edge = live_;
    live_ = ExtraEdge();
  } else {
    op.type = OpType::kQuery;
    op.edge = live_;
    double x = rng_.Unit();
    QueryKind third = served_->route == Route::kChase
                          ? QueryKind::kDescendantsWithOut
                          : QueryKind::kTwoStep;
    op.query.kind = x < 0.60   ? QueryKind::kDescendants
                    : x < 0.85 ? QueryKind::kAncestors
                               : third;
    op.query.key = SkewedKey();
  }
  op.frame = "{\"op\": \"" + std::string(OpTypeName(op.type)) +
             "\", \"kb\": \"main\", \"id\": " + std::to_string(id) + ", ";
  if (op.type == OpType::kQuery) {
    op.frame += "\"cq\": \"" + QueryText(served_->route, op.query) + "\"}";
  } else {
    op.frame += "\"facts\": \"e(" + NodeName(op.edge.u) + ", " +
                NodeName(op.edge.v) + ").\"}";
  }
  return op;
}

}  // namespace perfbench
