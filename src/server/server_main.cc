// gerel-server: the networked multi-tenant KB server (docs/protocol.md).
//
//   gerel-server [--host=ADDR] [--port=N] [--workers=N] [--threads=N]
//                [--snapshot-dir=DIR] [--kb NAME=PROGRAM.gerel]...
//                [--max-rules=N] [--timeout-ms=N] [--max-atoms=N]
//                [--max-tenants=N]
//
// Speaks JSON lines over TCP: one request object per line, one response
// line per request. Tenants named with --kb are prepared (or warm-
// started from --snapshot-dir) before the listener opens; clients can
// create more at runtime with the "prepare" op. SIGTERM/SIGINT drain
// in-flight requests, save dirty tenants, and exit 0. --threads sets the
// saturation lanes of every tenant's prepare; the chase and the Datalog
// evaluator always run on one thread.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "server/dispatch.h"
#include "server/registry.h"
#include "server/server.h"

namespace {

std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int) { g_stop_requested = 1; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: gerel-server [--host=ADDR] [--port=N] [--workers=N]\n"
      "                    [--threads=N] [--snapshot-dir=DIR]\n"
      "                    [--kb NAME=PROGRAM.gerel]... [--max-rules=N]\n"
      "                    [--timeout-ms=N] [--max-atoms=N]\n"
      "                    [--max-tenants=N]\n"
      "--threads=N: saturation lanes per prepare (answers are identical "
      "for any N)\n");
  return 64;
}

bool ParseSizeFlag(const char* value, uint64_t* out) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using gerel::server::Dispatcher;
  using gerel::server::ServerOptions;
  using gerel::server::SocketServer;
  using gerel::server::TenantRegistry;

  ServerOptions server_options;
  TenantRegistry::Config config;
  // Named tenants to prepare before serving, as (name, program path).
  std::vector<std::pair<std::string, std::string>> boot_kbs;
  size_t max_rules = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto take_value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      if (arg.compare(0, n, prefix) == 0) return argv[i] + n;
      return nullptr;
    };
    uint64_t v = 0;
    if (const char* p = take_value("--host=")) {
      server_options.host = p;
    } else if (const char* p = take_value("--port=")) {
      if (!ParseSizeFlag(p, &v) || v > 65535) return Usage();
      server_options.port = static_cast<uint16_t>(v);
    } else if (const char* p = take_value("--workers=")) {
      if (!ParseSizeFlag(p, &v) || v == 0) return Usage();
      server_options.num_workers = static_cast<size_t>(v);
    } else if (const char* p = take_value("--threads=")) {
      if (!ParseSizeFlag(p, &v) || v == 0) return Usage();
      config.kb_options.pipeline.saturation.num_threads =
          static_cast<size_t>(v);
    } else if (const char* p = take_value("--snapshot-dir=")) {
      config.snapshot_dir = p;
    } else if (const char* p = take_value("--max-rules=")) {
      if (!ParseSizeFlag(p, &v)) return Usage();
      max_rules = static_cast<size_t>(v);
    } else if (const char* p = take_value("--timeout-ms=")) {
      if (!ParseSizeFlag(p, &v)) return Usage();
      config.kb_options.budget.timeout_ms = static_cast<double>(v);
    } else if (const char* p = take_value("--max-atoms=")) {
      if (!ParseSizeFlag(p, &v)) return Usage();
      config.kb_options.budget.max_atoms = v;
    } else if (const char* p = take_value("--max-tenants=")) {
      if (!ParseSizeFlag(p, &v) || v == 0) return Usage();
      config.max_tenants = static_cast<size_t>(v);
    } else if (arg == "--kb") {
      if (i + 1 >= argc) return Usage();
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr,
                     "gerel-server: --kb expects NAME=PROGRAM.gerel\n");
        return Usage();
      }
      boot_kbs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else {
      std::fprintf(stderr, "gerel-server: unknown flag %s\n", argv[i]);
      return Usage();
    }
  }

  TenantRegistry registry(config);
  Dispatcher dispatcher(&registry);

  for (const auto& [name, path] : boot_kbs) {
    gerel::server::WireRequest req;
    req.op = gerel::server::Op::kPrepare;
    req.kb = name;
    req.path = path;
    req.max_rules = max_rules;
    gerel::server::DispatchOutcome outcome = dispatcher.Dispatch(req);
    if (!outcome.ok) {
      std::fprintf(stderr, "gerel-server: prepare %s: %s\n", name.c_str(),
                   outcome.error_message.c_str());
      return 1;
    }
    std::fprintf(stderr, "gerel-server: kb %s ready: mode=%s rules=%zu "
                 "model=%zu atoms%s\n",
                 name.c_str(), outcome.prepare.mode.c_str(),
                 outcome.prepare.datalog_rules, outcome.prepare.model_atoms,
                 outcome.prepare.loaded_snapshot ? " (warm start)" : "");
  }

  SocketServer server(&dispatcher, server_options);
  gerel::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "gerel-server: %s\n",
                 std::string(started.message()).c_str());
    return 1;
  }
  // Scripts read this line to learn the (possibly ephemeral) port.
  std::printf("gerel-server listening on %s:%u\n",
              server_options.host.c_str(), server.port());
  std::fflush(stdout);

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGPIPE, SIG_IGN);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::fprintf(stderr, "gerel-server: draining...\n");
  server.Shutdown();
  gerel::Status saved = registry.SaveDirty();
  if (!saved.ok()) {
    std::fprintf(stderr, "gerel-server: snapshot save failed: %s\n",
                 std::string(saved.message()).c_str());
  }
  std::fprintf(stderr,
               "gerel-server: served %llu requests on %llu connections "
               "(%llu protocol errors)\n",
               static_cast<unsigned long long>(server.requests_served()),
               static_cast<unsigned long long>(
                   server.connections_accepted()),
               static_cast<unsigned long long>(server.protocol_errors()));
  return saved.ok() ? 0 : 1;
}
