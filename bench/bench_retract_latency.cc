// Retract latency (DESIGN.md §7): the DRed delete/re-derive path
// against the full re-materialization fallback. The same steady-state
// workload — assert fresh edges, retract them — runs once on a plain
// transitive-closure theory (every retract is a DRed delta) and once
// with a stratified negation rule added (negation invalidates recorded
// supports, so every retract rebuilds the model from the EDB). The gap
// between the two is what the support log buys. The binary exits 1 when
// a DRed-arm retract of the verification run fell back.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/parser.h"
#include "service/prepared_kb.h"

namespace {

using namespace gerel;         // NOLINT
using namespace gerel::bench;  // NOLINT

const char* kTcTheory = R"(
  e(X, Y) -> t(X, Y).
  e(X, Y), t(Y, Z) -> t(X, Z).
)";

// The same closure plus one stratified negation rule: has_negation
// forces every retract (and assert) onto the re-materialization path.
const char* kNegTheory = R"(
  e(X, Y) -> t(X, Y).
  e(X, Y), t(Y, Z) -> t(X, Z).
  acdom(X), acdom(Y), not t(X, Y) -> sep(X, Y).
)";

constexpr int kChain = 24;

// Acceptance check printed before the benchmark table: a DRed retract
// on the closure chain must beat the re-materializing retract (same
// surviving EDB, same model) by a wide margin. Returns false when a
// call failed or a DRed-arm retract re-materialized: a count, not a
// timing.
bool PrintVerification() {
  std::printf("=== Retract latency: DRed vs re-materialization ===\n");
  auto now = [] { return std::chrono::steady_clock::now(); };
  auto ms = [](auto d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };

  double timings[2] = {0, 0};
  const char* theories[2] = {kTcTheory, kNegTheory};
  constexpr int kOps = 50;
  for (int mode = 0; mode < 2; ++mode) {
    SymbolTable syms;
    Theory theory = MustTheory(theories[mode], &syms);
    Database db = ChainDatabase(kChain, "e", &syms);
    auto kb = PreparedKb::Prepare(theory, db, &syms);
    if (!kb.ok()) {
      std::printf("prepare failed: %s\n", kb.status().message().c_str());
      return false;
    }
    RelationId e = syms.Relation("e", 2);
    Term head = syms.Constant("a0");
    double total = 0;
    for (int i = 0; i < kOps; ++i) {
      Atom extra(e, {syms.Constant(IndexedName("x", i)), head});
      if (!kb.value()->Assert({extra}).ok()) return false;
      auto t0 = now();
      auto r = kb.value()->Retract({extra});
      total += ms(now() - t0);
      if (!r.ok()) {
        std::printf("retract failed: %s\n", r.status().message().c_str());
        return false;
      }
    }
    timings[mode] = total / kOps;
    ServiceStats stats = kb.value()->stats();
    std::printf("%s: %8.3f ms/retract (dred=%zu, remat=%zu)\n",
                mode == 0 ? "dred  " : "remat ", timings[mode],
                stats.retracts_dred, stats.retracts_rematerialized);
    if (mode == 0 && (stats.retracts_rematerialized != 0 ||
                      stats.retracts_dred < static_cast<size_t>(kOps))) {
      std::printf("FAIL: %d DRed-arm retracts ran, %zu by DRed and %zu "
                  "re-materialized\n",
                  kOps, stats.retracts_dred, stats.retracts_rematerialized);
      return false;
    }
  }
  std::printf("remat/dred ratio: %.1fx (acceptance: > 1)\n\n",
              timings[0] > 0 ? timings[1] / timings[0] : 0);
  return true;
}

// Steady-state retract: each iteration pre-asserts a block of fresh
// edges into the chain head (untimed) and times only the single-fact
// retracts that remove them one by one, so the model returns to the
// same fixpoint every iteration. The DRed arm times a block of 32, so
// an iteration clears tools/bench_diff.py's 0.5 ms noise floor; the
// re-materialization arm times one retract per iteration.
void BM_RetractLatency(benchmark::State& state) {
  bool dred = state.range(0) == 1;
  const size_t block = dred ? 32 : 1;
  SymbolTable syms;
  Theory theory = MustTheory(dred ? kTcTheory : kNegTheory, &syms);
  Database db = ChainDatabase(kChain, "e", &syms);
  auto kb = PreparedKb::Prepare(theory, db, &syms);
  if (!kb.ok()) {
    state.SkipWithError(kb.status().message().c_str());
    return;
  }
  RelationId e = syms.Relation("e", 2);
  Term head = syms.Constant("a0");
  // Pre-intern the per-iteration constants: symbol interning is not
  // part of the measured retract.
  std::vector<Atom> facts;
  for (size_t i = 0; i < static_cast<size_t>(state.max_iterations) * block;
       ++i) {
    facts.emplace_back(
        e, std::vector<Term>{syms.Constant(IndexedName("x", i)), head});
  }
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (next + block > facts.size()) {
      state.SkipWithError("fact pool exhausted");
      return;
    }
    for (size_t i = next; i < next + block; ++i) {
      auto asserted = kb.value()->Assert({facts[i]});
      if (!asserted.ok()) {
        state.SkipWithError(asserted.status().message().c_str());
        return;
      }
    }
    state.ResumeTiming();
    for (size_t end = next + block; next < end; ++next) {
      auto r = kb.value()->Retract({facts[next]});
      if (!r.ok()) {
        state.SkipWithError(r.status().message().c_str());
        return;
      }
      benchmark::DoNotOptimize(r.value().removed_atoms);
    }
  }
  ServiceStats stats = kb.value()->stats();
  state.counters["retracts_dred"] =
      static_cast<double>(stats.retracts_dred);
  state.counters["retracts_rematerialized"] =
      static_cast<double>(stats.retracts_rematerialized);
  state.counters["overdeleted"] =
      static_cast<double>(stats.overdeleted_atoms);
  state.counters["model_atoms"] = static_cast<double>(stats.model_atoms);
  state.SetLabel(dred ? "DRed delta, 32 retracts"
                      : "re-materialization fallback");
}
// Fixed iteration counts: each iteration consumes a block of pooled
// facts (auto-scaling would size the pool blindly).
BENCHMARK(BM_RetractLatency)->Arg(1)
    ->Iterations(250)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RetractLatency)->Arg(0)
    ->Iterations(1000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  if (!PrintVerification()) return 1;
  return gerel::bench::RunBenchmarks(argc, argv, "bench_retract_latency");
}
