// The two halves of a run: a served tenant driven by one closed-loop
// socket client (ServeSession), and the four-route prepare corpus
// (Corpus). Each workload runs both; its spec decides the time split.
#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "inputs.h"
#include "server/dispatch.h"
#include "server/registry.h"
#include "server/server.h"
#include "service/prepared_kb.h"
#include "trace.h"

namespace perfbench {

// Operations attempted and failed; failures keep their first messages.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;
  void Record(bool ok, const std::string& what);
};

// Nearest-rank percentile (p in (0, 1]); 0 for no samples.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

struct ServeConfig {
  Route route = Route::kDatalog;
  ProgramSize size;
};

// Per-op-type figures of the traced in-process replay.
struct ReplayStats {
  std::array<std::vector<double>, 3> dispatch_us;  // By OpType.
  std::vector<double> decode_us, encode_us;
  std::vector<double> query_inproc_us;  // decode + dispatch + encode.
  uint64_t nesting_violations = 0;  // Children outside their request.
};

class ServeSession {
 public:
  // Generates the served program and the request stream from `seed`.
  ServeSession(const ServeConfig& config, uint64_t seed);
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  // Prepares tenant "main" from program text through a TenantRegistry
  // (no snapshot dir), starts a one-worker SocketServer on loopback,
  // connects, and sends a 400-request warm-up prefix of the stream
  // (untimed). With `replay`, a second
  // registry gets the same tenant for the traced in-process replay.
  bool Start(bool replay, Tally* tally);
  // Sends the stream's next `n` requests over the socket; when `timed`,
  // records each round trip and, with a tracer, traces the in-process
  // replay of the same frames. Untimed requests are still checked.
  void Send(size_t n, bool timed, Tracer* tracer, Tally* tally);
  // Verifies every response recorded since the last call against the
  // reference checker, then drops them, so memory stays flat however
  // many requests a run sends.
  void Check(Tally* tally);

  const std::array<std::vector<double>, 3>& latency_ms() const {
    return latency_ms_;
  }
  const ReplayStats& replay() const { return replay_; }
  // Over every checked query response.
  double mean_query_response_bytes() const;
  // Serving counters of the tenant that saw the (replayed) stream, and
  // the same counters right after its prepare.
  gerel::ServiceStats stats() const;
  const gerel::ServiceStats& stats_after_prepare() const {
    return stats_after_prepare_;
  }

 private:
  bool Exchange(const Op& op, bool timed, Tracer* tracer, Tally* tally);
  void Replay(const Op& op, Tracer* tracer);

  ProgramInput served_;
  RequestStream stream_;
  std::unique_ptr<gerel::server::TenantRegistry> registry_;
  std::unique_ptr<gerel::server::Dispatcher> dispatcher_;
  std::unique_ptr<gerel::server::SocketServer> server_;
  Client client_;
  std::unique_ptr<gerel::server::TenantRegistry> replay_registry_;
  std::unique_ptr<gerel::server::Dispatcher> replay_dispatcher_;
  gerel::ServiceStats stats_after_prepare_;

  std::array<std::vector<double>, 3> latency_ms_;
  uint64_t requests_ = 0;  // Sent over the socket.
  // Recorded since the last Check(), replayed ones included.
  std::vector<Op> sent_;
  std::vector<std::string> responses_;
  uint64_t query_response_bytes_ = 0, query_responses_ = 0;
  ReplayStats replay_;
};

// Stage names of a traced prepare, in PreparedKb::Prepare's order.
inline constexpr const char* kStages[] = {
    "parse",   "classify", "preflight", "termination", "ground",
    "saturate", "compile", "evaluate",  "chase"};
inline constexpr size_t kNumStages = std::size(kStages);

struct RouteFigures {
  std::vector<double> prepare_ms;  // Untraced cold Prepare from text.
  // Traced stage replica: per stage, one sample per prepare.
  std::array<std::vector<double>, kNumStages> stage_ms;
  std::vector<double> stage_sum_ms;
  // Σ stage spans / the untraced Prepare next to it, per traced step.
  std::vector<double> stage_sum_ratio;
  std::vector<double> save_ms, load_ms;
  size_t rules = 0, model_atoms = 0, chase_steps = 0, snapshot_bytes = 0;
};

class Corpus {
 public:
  // `snapshot_dir` must exist; snapshots are written there.
  Corpus(uint64_t seed, std::string snapshot_dir);

  // One untimed cold prepare per route (set-up warm-up).
  void WarmPass(Tally* tally);
  // Cold-prepares the next route from its text and saves its snapshot;
  // after each full cycle of routes, loads all four snapshots (one warm
  // start). With a tracer, each prepare is preceded by a traced
  // stage-by-stage replica.
  void Step(Tracer* tracer, Tally* tally);

  const RouteFigures& figures(Route r) const {
    return figures_[static_cast<size_t>(r)];
  }
  const std::vector<double>& warm_start_ms() const { return warm_start_ms_; }

 private:
  std::unique_ptr<gerel::PreparedKb> PrepareFromText(
      const ProgramInput& p, gerel::SymbolTable* symbols, Tally* tally);
  void StagedReplica(const ProgramInput& p, Tracer* tracer, Tally* tally);
  void Probe(const ProgramInput& p, const gerel::PreparedKb& kb,
             gerel::SymbolTable* symbols, const char* when, Tally* tally);
  std::string SnapshotPath(Route r) const;

  std::vector<ProgramInput> programs_;
  std::string snapshot_dir_;
  size_t step_ = 0;
  std::array<RouteFigures, 4> figures_;
  std::vector<double> warm_start_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
