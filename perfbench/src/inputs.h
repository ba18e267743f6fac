// Seeded inputs: graphs, programs and request streams. Everything here
// is a pure function of the workload seed; gerel only ever sees the
// generated texts.
//
// Every program's constant answers reduce to reachability in a graph
// built here, so reference.h can check them without gerel's engines.
// Graphs are disjoint chains with random forward chords: the transitive
// closure of a chain of `len` nodes has len·(len−1)/2 pairs whatever the
// seed, so model sizes (and the work per query) do not drift between
// seeds while labels, chords and request keys do.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: small, fast, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

struct Graph {
  size_t n = 0;
  std::vector<std::vector<uint32_t>> out;
  // chains[c][p]: the node at position p of chain c.
  std::vector<std::vector<uint32_t>> chains;

  bool HasEdge(uint32_t u, uint32_t v) const;
};

// `comps` chains of `len` shuffled nodes each, plus `chords` random
// forward chords (i → j, j ≥ i + 2) per chain.
Graph ChainGraph(Rng* rng, size_t comps, size_t len, size_t chords);

std::string NodeName(uint32_t v);

// What a query asks, in graph terms (reference.h computes the answer).
enum class QueryKind {
  kDescendants,        // Nodes reachable from key in ≥ 1 step.
  kAncestors,          // Nodes reaching key in ≥ 1 step.
  kTwoStep,            // Nodes reachable from key in ≥ 2 steps.
  kDescendantsWithOut, // Descendants of key that have a successor in the
                       // chase model: an out-edge or a gen fact (the
                       // witness may be a labeled null).
  kReachFromKey,       // key and every node reachable from it.
};

struct QuerySpec {
  QueryKind kind = QueryKind::kDescendants;
  uint32_t key = 0;
};

// An edge asserted by the request stream and not yet retracted.
struct ExtraEdge {
  bool active = false;
  uint32_t u = 0;
  uint32_t v = 0;
};

// The four planner routes of PreparedKb::Prepare.
enum class Route { kDatalog, kGuarded, kWeaklyGuarded, kChase };
inline constexpr Route kRoutes[] = {Route::kDatalog, Route::kGuarded,
                                    Route::kWeaklyGuarded, Route::kChase};
const char* RouteName(Route route);

// A generated program with the graph it encodes.
struct ProgramInput {
  Route route = Route::kDatalog;
  Graph graph;
  // kGuarded/kWeaklyGuarded: reachability seeds. kChase: gen nodes.
  // Sorted.
  std::vector<uint32_t> marked;
  std::string text;
  // Probe queries checked after every prepare and snapshot load.
  std::vector<QuerySpec> probes;
};

// CQ text for `spec` against `route`'s program.
std::string QueryText(Route route, const QuerySpec& spec);

// Size of a generated program: `comps` chains of `len` nodes with
// `chords` chords each, and `marked` seeds (kGuarded: in all; otherwise
// per chain; kChase also marks every chain's tail). For kGuarded and
// kWeaklyGuarded the saturation cost grows steeply with the seeds
// (resp. constants): each adds a reach rule.
struct ProgramSize {
  size_t comps = 1;
  size_t len = 2;
  size_t chords = 0;
  size_t marked = 1;
};

// A program for `route` over a fresh seeded graph of `size`.
ProgramInput MakeProgram(Route route, const ProgramSize& size, uint64_t seed);

// --- Request streams for the served tenant ---

enum class OpType { kQuery, kAssert, kRetract };
inline constexpr OpType kOpTypes[] = {OpType::kQuery, OpType::kAssert,
                                      OpType::kRetract};
const char* OpTypeName(OpType type);

struct Op {
  OpType type = OpType::kQuery;
  std::string frame;  // One JSON request line, without the newline.
  QuerySpec query;    // kQuery only.
  ExtraEdge edge;     // The fresh edge live while this op runs (kQuery),
                      // or the edge written (kAssert/kRetract).
};

// Requests per write period of a RequestStream: 2 of every 40, or 5%,
// are writes.
inline constexpr size_t kWritePeriod = 40;

// Infinite seeded request stream over `served`'s graph: in every period
// of kWritePeriod requests, one assert of a fresh edge at kWritePeriod/2
// and its retract at kWritePeriod − 1; queries otherwise, 60%
// descendants, 25% ancestors and 15% a two-atom join of a Zipf-skewed
// (s = 1) key.
class RequestStream {
 public:
  // `served` must be a kDatalog or kChase program and outlive the
  // stream.
  RequestStream(const ProgramInput* served, uint64_t seed);
  Op Next();

 private:
  uint32_t SkewedKey();

  const ProgramInput* served_;
  Rng rng_;
  std::vector<double> cdf_;  // Zipf CDF over key ranks.
  uint64_t issued_ = 0;
  ExtraEdge live_;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
