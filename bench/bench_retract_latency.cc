// Retract latency (DESIGN.md §7): the DRed delete/re-derive path
// against the full re-materialization fallback. The same steady-state
// workload — assert a fresh edge, retract it — runs once on a plain
// transitive-closure theory (every retract is a DRed delta) and once
// with a stratified negation rule added (negation invalidates recorded
// supports, so every retract rebuilds the model from the EDB). The gap
// between the two is what the support log buys.
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
// surviving EDB, same model) by a wide margin.
void PrintVerification() {
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
      return;
    }
    RelationId e = syms.Relation("e", 2);
    Term head = syms.Constant("a0");
    double total = 0;
    for (int i = 0; i < kOps; ++i) {
      Atom extra(e, {syms.Constant(IndexedName("x", i)), head});
      if (!kb.value()->Assert({extra}).ok()) return;
      auto t0 = now();
      auto r = kb.value()->Retract({extra});
      total += ms(now() - t0);
      if (!r.ok()) {
        std::printf("retract failed: %s\n", r.status().message().c_str());
        return;
      }
    }
    timings[mode] = total / kOps;
    ServiceStats stats = kb.value()->stats();
    std::printf("%s: %8.3f ms/retract (dred=%zu, remat=%zu)\n",
                mode == 0 ? "dred  " : "remat ", timings[mode],
                stats.retracts_dred, stats.retracts_rematerialized);
  }
  std::printf("remat/dred ratio: %.1fx (acceptance: > 1)\n\n",
              timings[0] > 0 ? timings[1] / timings[0] : 0);
}

// Steady-state retract: each iteration pre-asserts a fresh edge into
// the chain head (untimed) and times only the retract that removes it,
// so the model returns to the same fixpoint every iteration.
void BM_RetractLatency(benchmark::State& state) {
  bool dred = state.range(0) == 1;
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
  for (int i = 0; i < 1200; ++i) {
    facts.emplace_back(
        e, std::vector<Term>{syms.Constant(IndexedName("x", i)), head});
  }
  size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (i >= facts.size()) {
      state.SkipWithError("fact pool exhausted");
      return;
    }
    auto asserted = kb.value()->Assert({facts[i]});
    if (!asserted.ok()) {
      state.SkipWithError(asserted.status().message().c_str());
      return;
    }
    state.ResumeTiming();
    auto r = kb.value()->Retract({facts[i++]});
    if (!r.ok()) {
      state.SkipWithError(r.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value().removed_atoms);
  }
  ServiceStats stats = kb.value()->stats();
  state.counters["retracts_dred"] =
      static_cast<double>(stats.retracts_dred);
  state.counters["retracts_rematerialized"] =
      static_cast<double>(stats.retracts_rematerialized);
  state.counters["overdeleted"] =
      static_cast<double>(stats.overdeleted_atoms);
  state.counters["model_atoms"] = static_cast<double>(stats.model_atoms);
  state.SetLabel(dred ? "DRed delta" : "re-materialization fallback");
}
// Fixed iteration count: each iteration consumes one pooled fact
// (auto-scaling would exhaust the pool).
BENCHMARK(BM_RetractLatency)->Arg(1)->Arg(0)
    ->Iterations(1000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintVerification();
  return gerel::bench::RunBenchmarks(argc, argv, "bench_retract_latency");
}
