// gerel-loadgen: companion load generator for gerel-server.
//
//   gerel-loadgen [--connect=HOST:PORT] [--program=FILE] [--kb=NAME]
//                 [--snapshot-dir=DIR] [--clients=N] [--requests=N]
//                 [--assert-every=N] [--retract-every=N] [--workers=N]
//                 [--query=CQ] [--assert-rel=REL] [--min-rps=N] [--quiet]
//
// Default (in-process) mode boots a registry + socket server on an
// ephemeral loopback port, measures cold start (fresh prepare) vs warm
// start (snapshot reload) of the benchmark tenant, then drives a mixed
// query/assert/retract workload from `--clients` real socket
// connections — each client periodically retracts the edge it asserted
// last (the DRed delta path), so the steady state exercises all three
// verbs. `--retract-every=0` disables retracts.
// `--connect` skips the start measurements and aims the same workload
// at an already-running server (the tenant is prepared on demand).
//
// Results land in BENCH_server_throughput.json in the current
// directory, in the same shape every bench binary dumps
// (bench/bench_util.h, provenance included), so tools/bench_diff.py
// tracks server throughput alongside the paper experiments. The
// mixed-load entry's wall_ms is the mean per-request latency;
// requests_per_s, p50_ms, and p99_ms ride along as counters.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/provenance.h"
#include "server/dispatch.h"
#include "server/json.h"
#include "server/registry.h"
#include "server/server.h"
#include "server/wire.h"

namespace {

using namespace gerel;          // NOLINT
using namespace gerel::server;  // NOLINT

// The default workload program (data/transitive_closure.gerel).
constexpr char kDefaultProgram[] =
    "e(X, Y) -> t(X, Y).\n"
    "e(X, Y), t(Y, Z) -> t(X, Z).\n"
    "e(a, b). e(b, c). e(c, d).\n";

struct Args {
  std::string connect;  // HOST:PORT; empty = in-process server.
  std::string program_path;
  std::string kb = "bench";
  std::string snapshot_dir;
  std::string query = "t(X, Y) -> ans(X, Y)";
  std::string assert_rel = "e";
  size_t clients = 8;
  size_t requests = 250;    // Per client.
  size_t assert_every = 8;   // Every Nth request is an assert batch.
  size_t retract_every = 16;  // Every Nth request retracts the last assert.
  size_t workers = 8;       // In-process server worker threads.
  double min_rps = 0;       // Fail below this throughput (0 = report only).
  bool quiet = false;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: gerel-loadgen [--connect=HOST:PORT] [--program=FILE]\n"
      "                     [--kb=NAME] [--snapshot-dir=DIR]\n"
      "                     [--clients=N] [--requests=N]\n"
      "                     [--assert-every=N] [--retract-every=N]\n"
      "                     [--workers=N] [--query=CQ]\n"
      "                     [--assert-rel=REL] [--min-rps=N] [--quiet]\n");
  return 64;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A minimal blocking JSON-lines client over one TCP connection.
class LineClient {
 public:
  bool Connect(const std::string& host, uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  // Sends one request line, reads one response line; true iff the
  // response parses with "status": "ok".
  bool Call(const std::string& request, std::string* response) {
    std::string framed = request + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    while (true) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *response = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[8192];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

bool ResponseOk(const std::string& line) {
  Result<JsonValue> v = JsonValue::Parse(line);
  if (!v.ok()) return false;
  const JsonValue* status = v.value().Get("status");
  return status != nullptr && status->is_string() &&
         status->as_string() == "ok";
}

struct BenchEntry {
  std::string name;
  double wall_ms = 0;
  double cpu_ms = 0;
  long long iterations = 1;
  int threads = 1;
  std::vector<std::pair<std::string, double>> counters;
};

void WriteBenchJson(const std::vector<BenchEntry>& entries) {
  std::FILE* f = std::fopen("BENCH_server_throughput.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "loadgen: cannot write BENCH_server_throughput.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"binary\": \"server_throughput\",\n  %s,\n"
               "  \"benchmarks\": [\n",
               gerel::bench::ProvenanceJsonMember().c_str());
  for (size_t i = 0; i < entries.size(); ++i) {
    const BenchEntry& e = entries[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"wall_ms\": %.6f, "
                 "\"cpu_ms\": %.6f, \"iterations\": %lld, "
                 "\"threads\": %d",
                 e.name.c_str(), e.wall_ms, e.cpu_ms, e.iterations,
                 e.threads);
    for (const auto& [name, value] : e.counters) {
      std::fprintf(f, ", \"%s\": %.6f", name.c_str(), value);
    }
    std::fprintf(f, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

// One client's share of the mixed workload; latencies in ms appended to
// *latencies (pre-sized by the caller).
void RunClient(const Args& args, const std::string& host, uint16_t port,
               size_t client_index, std::vector<double>* latencies,
               std::atomic<size_t>* errors) {
  LineClient client;
  if (!client.Connect(host, port)) {
    errors->fetch_add(args.requests);
    return;
  }
  const std::string query_frame =
      "{\"op\": \"query\", \"kb\": \"" + args.kb + "\", \"cq\": \"" +
      JsonEscape(args.query) + "\"}";
  std::string response;
  // The fact this client asserted most recently and has not yet
  // retracted; retract slots fall back to a query while it is empty.
  std::string pending_retract;
  for (size_t i = 0; i < args.requests; ++i) {
    std::string frame;
    if (args.assert_every != 0 && i % args.assert_every == 1) {
      // Fresh constants per client keep every batch on the delta path.
      std::string tag = "lg" + std::to_string(client_index) + "_" +
                        std::to_string(i);
      std::string fact =
          args.assert_rel + "(" + tag + "a, " + tag + "b)";
      frame = "{\"op\": \"assert\", \"kb\": \"" + args.kb +
              "\", \"facts\": \"" + fact + "\"}";
      pending_retract = fact;
    } else if (args.retract_every != 0 &&
               i % args.retract_every == 3 && !pending_retract.empty()) {
      // Retract this client's own last assert: always a live EDB fact,
      // so the server takes the DRed delta path.
      frame = "{\"op\": \"retract\", \"kb\": \"" + args.kb +
              "\", \"facts\": \"" + pending_retract + "\"}";
      pending_retract.clear();
    } else {
      frame = query_frame;
    }
    double start = NowMs();
    bool ok = client.Call(frame, &response) && ResponseOk(response);
    (*latencies)[client_index * args.requests + i] = NowMs() - start;
    if (!ok) errors->fetch_add(1);
  }
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(p * (sorted.size() - 1));
  return sorted[index];
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      if (arg.compare(0, n, prefix) == 0) return argv[i] + n;
      return nullptr;
    };
    if (const char* p = value("--connect=")) {
      args.connect = p;
    } else if (const char* p = value("--program=")) {
      args.program_path = p;
    } else if (const char* p = value("--kb=")) {
      args.kb = p;
    } else if (const char* p = value("--snapshot-dir=")) {
      args.snapshot_dir = p;
    } else if (const char* p = value("--query=")) {
      args.query = p;
    } else if (const char* p = value("--assert-rel=")) {
      args.assert_rel = p;
    } else if (const char* p = value("--clients=")) {
      args.clients = std::strtoul(p, nullptr, 10);
    } else if (const char* p = value("--requests=")) {
      args.requests = std::strtoul(p, nullptr, 10);
    } else if (const char* p = value("--assert-every=")) {
      args.assert_every = std::strtoul(p, nullptr, 10);
    } else if (const char* p = value("--retract-every=")) {
      args.retract_every = std::strtoul(p, nullptr, 10);
    } else if (const char* p = value("--workers=")) {
      args.workers = std::strtoul(p, nullptr, 10);
    } else if (const char* p = value("--min-rps=")) {
      args.min_rps = std::strtod(p, nullptr);
    } else if (arg == "--quiet") {
      args.quiet = true;
    } else {
      std::fprintf(stderr, "loadgen: unknown flag %s\n", argv[i]);
      return Usage();
    }
  }
  if (args.clients == 0 || args.requests == 0) return Usage();

  std::string program = kDefaultProgram;
  if (!args.program_path.empty()) {
    std::ifstream in(args.program_path);
    if (!in) {
      std::fprintf(stderr, "loadgen: cannot open %s\n",
                   args.program_path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    program = buf.str();
  }

  std::vector<BenchEntry> entries;
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  // In-process plumbing (unused in --connect mode).
  std::unique_ptr<TenantRegistry> registry;
  std::unique_ptr<Dispatcher> dispatcher;
  std::unique_ptr<SocketServer> server;
  std::string scratch_dir;

  if (args.connect.empty()) {
    // Cold vs warm start: prepare the tenant from source, snapshot it,
    // then reload the snapshot through a second registry.
    scratch_dir = args.snapshot_dir;
    if (scratch_dir.empty()) {
      char tmpl[] = "/tmp/gerel-loadgen-XXXXXX";
      const char* made = ::mkdtemp(tmpl);
      if (made == nullptr) {
        std::fprintf(stderr, "loadgen: mkdtemp failed\n");
        return 1;
      }
      scratch_dir = made;
    }
    TenantRegistry::Config config;
    config.snapshot_dir = scratch_dir;
    {
      // Cold: no snapshot on disk yet; Prepare materializes and saves.
      TenantRegistry cold_registry(config);
      TenantRegistry::PrepareInfo info;
      double start = NowMs();
      auto tenant =
          cold_registry.Prepare(args.kb, program, /*max_rules=*/0, &info);
      double cold_ms = NowMs() - start;
      if (!tenant.ok()) {
        std::fprintf(stderr, "loadgen: prepare: %s\n",
                     std::string(tenant.status().message()).c_str());
        return 1;
      }
      if (info.loaded_snapshot) {
        std::fprintf(stderr,
                     "loadgen: stale snapshot in %s skews cold start; "
                     "remove it first\n",
                     scratch_dir.c_str());
        return 1;
      }
      BenchEntry cold;
      cold.name = "server/cold_start";
      cold.wall_ms = cold_ms;
      cold.cpu_ms = cold_ms;
      cold.counters.emplace_back(
          "model_atoms",
          static_cast<double>(tenant.value()->kb->model_size()));
      entries.push_back(cold);
    }
    // Warm: a fresh registry finds the snapshot the cold pass saved.
    registry = std::make_unique<TenantRegistry>(config);
    {
      TenantRegistry::PrepareInfo info;
      double start = NowMs();
      auto tenant =
          registry->Prepare(args.kb, program, /*max_rules=*/0, &info);
      double warm_ms = NowMs() - start;
      if (!tenant.ok() || !info.loaded_snapshot) {
        std::fprintf(stderr, "loadgen: warm start did not load the "
                             "snapshot\n");
        return 1;
      }
      BenchEntry warm;
      warm.name = "server/warm_start";
      warm.wall_ms = warm_ms;
      warm.cpu_ms = warm_ms;
      warm.counters.emplace_back(
          "model_atoms",
          static_cast<double>(tenant.value()->kb->model_size()));
      entries.push_back(warm);
    }
    dispatcher = std::make_unique<Dispatcher>(registry.get());
    ServerOptions options;
    options.num_workers = args.workers;
    server = std::make_unique<SocketServer>(dispatcher.get(), options);
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   std::string(started.message()).c_str());
      return 1;
    }
    port = server->port();
  } else {
    size_t colon = args.connect.rfind(':');
    if (colon == std::string::npos) return Usage();
    host = args.connect.substr(0, colon);
    port = static_cast<uint16_t>(
        std::strtoul(args.connect.c_str() + colon + 1, nullptr, 10));
    // Make sure the tenant exists; kb_exists answers are fine.
    LineClient bootstrap;
    if (!bootstrap.Connect(host, port)) {
      std::fprintf(stderr, "loadgen: cannot connect to %s\n",
                   args.connect.c_str());
      return 1;
    }
    std::string response;
    if (!bootstrap.Call("{\"op\": \"prepare\", \"kb\": \"" + args.kb +
                            "\", \"program\": \"" + JsonEscape(program) +
                            "\"}",
                        &response)) {
      std::fprintf(stderr, "loadgen: prepare request failed\n");
      return 1;
    }
  }

  // Mixed workload: `clients` connections, `requests` each.
  std::vector<double> latencies(args.clients * args.requests, 0);
  std::atomic<size_t> errors{0};
  std::clock_t cpu_start = std::clock();
  double wall_start = NowMs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < args.clients; ++c) {
    threads.emplace_back(RunClient, std::cref(args), std::cref(host),
                         port, c, &latencies, &errors);
  }
  for (std::thread& t : threads) t.join();
  double total_wall_ms = NowMs() - wall_start;
  double total_cpu_ms = 1e3 * static_cast<double>(std::clock() - cpu_start) /
                        CLOCKS_PER_SEC;
  size_t total_requests = args.clients * args.requests;
  double rps = total_wall_ms > 0 ? 1e3 * total_requests / total_wall_ms : 0;

  std::sort(latencies.begin(), latencies.end());
  double p50 = Percentile(latencies, 0.50);
  double p99 = Percentile(latencies, 0.99);

  BenchEntry mixed;
  mixed.name = "server/mixed_load";
  mixed.wall_ms = total_wall_ms / total_requests;  // Mean per request.
  mixed.cpu_ms = total_cpu_ms / total_requests;
  mixed.iterations = static_cast<long long>(total_requests);
  mixed.threads = static_cast<int>(args.clients);
  mixed.counters.emplace_back("requests_per_s", rps);
  mixed.counters.emplace_back("p50_ms", p50);
  mixed.counters.emplace_back("p99_ms", p99);
  mixed.counters.emplace_back("errors", static_cast<double>(errors.load()));
  entries.push_back(mixed);

  if (server != nullptr) server->Shutdown();
  if (args.snapshot_dir.empty() && !scratch_dir.empty()) {
    // Best-effort scratch cleanup (snapshot file + directory).
    std::remove((scratch_dir + "/" + args.kb + ".snap").c_str());
    ::rmdir(scratch_dir.c_str());
  }

  WriteBenchJson(entries);
  if (!args.quiet) {
    for (const BenchEntry& e : entries) {
      std::printf("%-22s wall %10.3f ms", e.name.c_str(), e.wall_ms);
      for (const auto& [name, v] : e.counters) {
        std::printf("  %s=%.3f", name.c_str(), v);
      }
      std::printf("\n");
    }
  }
  if (errors.load() > 0) {
    std::fprintf(stderr, "loadgen: %zu request(s) failed\n", errors.load());
    return 1;
  }
  if (args.min_rps > 0 && rps < args.min_rps) {
    std::fprintf(stderr, "loadgen: throughput %.0f req/s below --min-rps=%.0f\n",
                 rps, args.min_rps);
    return 1;
  }
  return 0;
}
