// perfbench: the repository benchmark. Runs one workload for a fixed
// time against gerel's public API and prints one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--git-sha SHA]
//   perfbench --selftest FILE
//
// Every workload serves one tenant over a loopback socket to a single
// closed-loop client, and after each block of requests cold-prepares the
// whole four-route corpus and warm-starts it from snapshots. The workloads
// differ in the served program and in how the time is split (README.md).
// --trace 0 reports the end-to-end metrics; --trace 1 re-runs the same
// seed with spans and reports the per-layer metrics instead.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cpus.h"
#include "phases.h"
#include "reference.h"

namespace perfbench {
namespace {

struct WorkloadSpec {
  const char* name;
  ServeConfig serve;
  size_t ops_per_round;  // Timed requests before each corpus cycle.
};

// 20 chains × 40 nodes: 15,600 closure atoms + ~1,000 edges.
constexpr ProgramSize kServedDatalog = {20, 40, 10, 1};
// 18 chains × 25 nodes with 5 gen nodes and a gen tail each: 7,398
// chase atoms.
constexpr ProgramSize kServedChase = {18, 25, 6, 5};

// Requests per round set the time split. Every workload times more than
// 10,000 queries in a 30 s run, so query p99 has 100 samples beyond it.
// On serve_* serving takes most of the run, yet every corpus route still
// gets ~10 or more cold prepares, so their means do not rest on a few
// samples; serve_chase's writes each re-chase the model (~35 ms), so its
// rounds hold fewer requests. prepare spends most of its run on the
// corpus. Rounds are long, so the few requests that a corpus cycle still
// slows down after kRewarmOps are a small share of any percentile.
const WorkloadSpec kWorkloads[] = {
    {"serve_datalog", {Route::kDatalog, kServedDatalog}, 1600},
    {"serve_chase", {Route::kChase, kServedChase}, 1200},
    {"prepare", {Route::kDatalog, kServedDatalog}, 480},
};

constexpr int kSetupReps = 8;
// Untimed requests before each timed block: after a corpus cycle, the
// next ~100 requests still run slower (asserts by ~20%) while the served
// model returns to the caches.
constexpr size_t kRewarmOps = 3 * kWritePeriod;
// query_p99_ms is the median of the p99s of consecutive windows of this
// many timed queries (20 samples beyond each window's p99).
constexpr size_t kTailWindow = 2000;
// Tolerance of Σ stage spans / untraced Prepare (median over adjacent
// pairs), per route: within a factor of 1.25 either way. Measured
// medians lie in 0.91–1.03; Prepare does a little more than its stages.
constexpr double kStageSumLo = 0.8;
constexpr double kStageSumHi = 1.25;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string work_dir;
  std::string git_sha = "unknown";
  std::string selftest;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--work-dir") a->work_dir = v;
    else if (k == "--git-sha") a->git_sha = v;
    else if (k == "--selftest") a->selftest = v;
    else return false;
  }
  if (!a->selftest.empty()) return true;
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1) && !a->work_dir.empty();
}

// A fixed memory-bound kernel: a dependent random walk over 32 MiB.
// It measures the host, not gerel; a slow reading flags a slow phase.
double HostProbeMs() {
  const size_t n = size_t{1} << 23;
  std::vector<uint32_t> next(n);
  std::iota(next.begin(), next.end(), 0u);
  Rng rng(42);
  for (size_t i = n - 1; i > 0; --i) {  // Sattolo: one cycle.
    std::swap(next[i], next[rng.Below(i)]);
  }
  Clock::time_point start = Clock::now();
  uint32_t at = 0;
  for (size_t i = 0; i < (size_t{1} << 20); ++i) at = next[at];
  double ms = MsBetween(start, Clock::now());
  if (at == n) std::printf("unreachable\n");  // Keeps the walk alive.
  return ms;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

std::string Json(const std::string& s) { return "\"" + s + "\""; }

// The shortest decimal that reads back as exactly `v`.
std::string Num(double v) {
  char buf[64];
  auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// The host changes speed in phases of seconds, so a run's prepares and
// set-ups mix a fast and a slow mode. Their median jumps between the
// modes as the mix passes one half; their mean moves with the share of
// time in each, and so varies less from run to run (README.md, Noise).
double Mean(const std::vector<double>& v) {
  return Ratio(std::accumulate(v.begin(), v.end(), 0.0),
               static_cast<double>(v.size()));
}

// Median over consecutive `window`-sample windows of each window's
// p-quantile: a latency spike confined to a few windows moves it less
// than it moves the quantile of the whole run. A run shorter than two
// windows falls back to the plain quantile.
double WindowedPercentile(const std::vector<double>& v, double p,
                          size_t window) {
  if (v.size() < 2 * window) return Percentile(v, p);
  std::vector<double> per_window;
  for (size_t at = 0; at + window <= v.size(); at += window) {
    per_window.push_back(Percentile(
        std::vector<double>(v.begin() + at, v.begin() + at + window), p));
  }
  return Median(per_window);
}

void PerLayer(const ServeSession& session, const Corpus& corpus,
              double probe_ms, Tally* tally, std::vector<Metric>* out) {
  auto add = [&](std::string name, double v, const char* unit, double n) {
    out->push_back({std::move(name), v, unit, static_cast<size_t>(n)});
  };
  const ReplayStats& r = session.replay();
  const auto& lat = session.latency_ms();
  size_t nq = r.dispatch_us[0].size();
  add("server.decode_us", Median(r.decode_us), "us", r.decode_us.size());
  add("server.encode_us", Median(r.encode_us), "us", r.encode_us.size());
  for (OpType t : kOpTypes) {
    const auto& v = r.dispatch_us[static_cast<size_t>(t)];
    add(std::string("server.dispatch_") + OpTypeName(t) + "_us", Median(v),
        "us", v.size());
  }
  double dispatch_query_us = Median(r.dispatch_us[0]);
  add("server.transport_us",
      Median(lat[0]) * 1000.0 - Median(r.query_inproc_us), "us", nq);
  add("server.response_bytes", session.mean_query_response_bytes(), "bytes",
      nq);

  gerel::ServiceStats s = session.stats();
  const gerel::ServiceStats& s0 = session.stats_after_prepare();
  double queries = static_cast<double>(s.queries - s0.queries);
  double asserts = static_cast<double>(s.asserts - s0.asserts);
  double retracts = static_cast<double>(s.retracts - s0.retracts);
  double writes = asserts + retracts;
  double query_us =
      Ratio(1000.0 * (s.query_wall_ms - s0.query_wall_ms), queries);
  add("service.query_us", query_us, "us", nq);
  add("service.assert_ms", Ratio(s.assert_wall_ms - s0.assert_wall_ms, asserts),
      "ms", asserts);
  add("service.retract_ms",
      Ratio(s.retract_wall_ms - s0.retract_wall_ms, retracts), "ms", retracts);
  add("service.cq_overhead_us", dispatch_query_us - query_us, "us", nq);
  add("service.cache_hit_ratio",
      Ratio(static_cast<double>(s.cache_hits - s0.cache_hits), queries),
      "ratio", queries);
  add("service.evicted_per_write",
      Ratio(static_cast<double>(s.cache_evicted_entries -
                                s0.cache_evicted_entries), writes),
      "count", writes);
  add("service.retained_per_write",
      Ratio(static_cast<double>(s.cache_retained_entries -
                                s0.cache_retained_entries), writes),
      "count", writes);
  add("service.delta_assert_ratio",
      Ratio(static_cast<double>(s.delta_asserts - s0.delta_asserts), asserts),
      "ratio", asserts);
  add("service.dred_retract_ratio",
      Ratio(static_cast<double>(s.retracts_dred - s0.retracts_dred), retracts),
      "ratio", retracts);
  add("service.chase_materializations",
      Ratio(static_cast<double>(s.chase_materializations -
                                s0.chase_materializations), writes),
      "count", writes);
  add("service.derived_per_assert",
      Ratio(static_cast<double>(s.delta_derived_atoms - s0.delta_derived_atoms),
            asserts),
      "count", asserts);
  double overdeleted =
      static_cast<double>(s.overdeleted_atoms - s0.overdeleted_atoms);
  add("service.overdeleted_per_retract", Ratio(overdeleted, retracts), "count",
      retracts);
  add("service.rederived_ratio",
      Ratio(static_cast<double>(s.rederived_atoms - s0.rederived_atoms),
            overdeleted),
      "ratio", retracts);
  add("service.model_atoms", static_cast<double>(s0.model_atoms), "count", 1);

  for (Route route : kRoutes) {
    const RouteFigures& f = corpus.figures(route);
    const std::string p = std::string("prepare.") + RouteName(route) + ".";
    size_t n = f.prepare_ms.size();
    for (size_t i = 0; i < kNumStages; ++i) {
      bool chase_stage = std::strcmp(kStages[i], "chase") == 0;
      if (chase_stage && route != Route::kChase) continue;
      add(p + kStages[i] + "_ms", Median(f.stage_ms[i]), "ms",
          f.stage_ms[i].size());
    }
    add(p + "rules", static_cast<double>(f.rules), "count", 1);
    add(p + "model_atoms", static_cast<double>(f.model_atoms), "count", 1);
    if (route == Route::kChase) {
      add(p + "steps", static_cast<double>(f.chase_steps), "count", 1);
    }
    double ratio = Median(f.stage_sum_ratio);
    add(p + "stage_sum_ratio", ratio, "ratio", n);
    tally->Record(ratio >= kStageSumLo && ratio <= kStageSumHi,
                  p + "stage_sum_ratio " + Num(ratio) + " outside [" +
                      Num(kStageSumLo) + ", " + Num(kStageSumHi) + "]");
  }
  for (const char* kind : {"save_ms", "load_ms", "bytes"}) {
    for (Route route : kRoutes) {
      const RouteFigures& f = corpus.figures(route);
      std::string name =
          std::string("service.snapshot_") + kind + "." + RouteName(route);
      if (std::strcmp(kind, "bytes") == 0) {
        add(name, static_cast<double>(f.snapshot_bytes), "bytes", 1);
      } else {
        const auto& v = kind[0] == 's' ? f.save_ms : f.load_ms;
        add(name, Median(v), "ms", v.size());
      }
    }
  }
  add("host.probe_ms", probe_ms, "ms", 2);
  tally->Record(r.nesting_violations == 0,
                "decode + dispatch + encode fell outside the request span " +
                    std::to_string(r.nesting_violations) + " times");
}

int Run(const Args& args, const WorkloadSpec& spec) {
  const bool traced = args.trace == 1;
  Tally tally;
  const int serving_cpu = PinToServingCpu();
  double probe_start = HostProbeMs();

  std::string snap_dir = args.work_dir + "/snapshots-" +
                         std::to_string(::getpid());
  std::filesystem::create_directories(snap_dir);

  // Set-up: inputs, tenant prepare, server start, and the stream-prefix
  // warm-up, timed kSetupReps times back to back (once when traced). All
  // but the last are torn down again; the last serves the run. One
  // untimed pass over the corpus follows.
  std::vector<double> setup_s;
  std::unique_ptr<ServeSession> session;
  std::unique_ptr<Corpus> corpus;
  for (int rep = traced ? kSetupReps - 1 : 0; rep < kSetupReps; ++rep) {
    session.reset();
    corpus.reset();
    Clock::time_point start = Clock::now();
    session = std::make_unique<ServeSession>(spec.serve, args.seed);
    corpus = std::make_unique<Corpus>(args.seed, snap_dir);
    if (!session->Start(traced, &tally)) break;
    setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
    session->Check(&tally);  // Its warm-up responses, after the timing.
  }
  if (tally.failed == 0) {
    OtherCpus away;
    corpus->WarmPass(&tally);
  }

  Tracer tracer;
  Tracer* t = traced ? &tracer : nullptr;
  if (tally.failed == 0) {
    const Clock::duration run = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(args.seconds));
    const Clock::time_point begin = Clock::now();
    // Each round ends on a whole corpus cycle, so every route has as
    // many samples.
    while (Clock::now() < begin + run && tally.failed == 0) {
      // Corpus work leaves the server's caches cold; the requests right
      // after it would time that, not serving.
      session->Send(kRewarmOps, false, t, &tally);
      session->Send(spec.ops_per_round, true, t, &tally);
      session->Check(&tally);  // Between blocks, so it delays no request.
      OtherCpus away;
      for (size_t i = 0; i < std::size(kRoutes); ++i) {
        corpus->Step(t, &tally);
      }
    }
  }
  double peak_rss = PeakRssMb();
  double probe_end = HostProbeMs();

  std::vector<Metric> metrics;
  if (tally.failed == 0 && traced) {
    PerLayer(*session, *corpus, (probe_start + probe_end) / 2, &tally,
             &metrics);
  } else if (tally.failed == 0) {
    const auto& lat = session->latency_ms();
    auto add = [&](std::string name, double v, const char* unit, size_t n) {
      metrics.push_back({std::move(name), v, unit, n});
    };
    add("setup_s", Mean(setup_s), "s", setup_s.size());
    add("peak_rss_mb", peak_rss, "MiB", 1);
    add("query_p50_ms", Percentile(lat[0], 0.50), "ms", lat[0].size());
    add("query_p99_ms", WindowedPercentile(lat[0], 0.99, kTailWindow), "ms",
        lat[0].size());
    add("assert_p90_ms", Percentile(lat[1], 0.90), "ms", lat[1].size());
    add("retract_p90_ms", Percentile(lat[2], 0.90), "ms", lat[2].size());
    for (Route route : kRoutes) {
      const auto& v = corpus->figures(route).prepare_ms;
      add(std::string("prepare_") + RouteName(route) + "_ms", Mean(v), "ms",
          v.size());
    }
    add("warm_start_ms", Mean(corpus->warm_start_ms()), "ms",
        corpus->warm_start_ms().size());
  }
  session.reset();
  corpus.reset();
  std::filesystem::remove_all(snap_dir);

  if (traced) {
    std::string path = args.work_dir + "/trace-" + spec.name + "-" +
                       std::to_string(args.seed) + ".jsonl";
    bool written = tracer.Write(path);
    tally.Record(written, "cannot write " + path);
    std::map<std::string, double> self = tracer.SelfTimeMs();
    double total = 0;
    for (const auto& [name, ms] : self) total += ms;
    for (const auto& [name, ms] : self) {
      std::printf("self %-40s %12.3f ms %6.2f%%\n", name.c_str(), ms,
                  100.0 * Ratio(ms, total));
    }
    std::printf("trace %s (%zu spans)\n", path.c_str(), tracer.spans().size());
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %14.6f %-6s samples=%zu\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  for (const std::string& m : tally.messages) {
    std::printf("failed: %s\n", m.c_str());
  }
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": %s, "
      "\"compiler\": %s, \"git_sha\": %s, \"serving_cpu\": %d, "
      "\"host_probe_ms\": {\"start\": %s, \"end\": %s}}\n",
      Json(spec.name).c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace,
      std::thread::hardware_concurrency(), Json(PERFBENCH_BUILD_TYPE).c_str(),
      Json(PERFBENCH_COMPILER).c_str(), Json(args.git_sha).c_str(),
      serving_cpu, Num(probe_start).c_str(), Num(probe_end).c_str());

  std::string line = "{\"correct\": ";
  line += tally.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted);
  line += ", \"failed\": " + std::to_string(tally.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += Json(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--git-sha SHA]\n"
                 "       perfbench --selftest FILE\n");
    return 2;
  }
  if (!args.selftest.empty()) {
    int failures = SelfTest(args.selftest);
    return failures == 0 ? 0 : 1;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload == spec.name) return Run(args, spec);
  }
  std::fprintf(stderr, "perfbench: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
