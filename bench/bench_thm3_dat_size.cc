// Experiment E7 (Theorem 3 / Prop 6 and the §6 size analysis):
// guarded → Datalog translation sizes and answer equivalence, on guarded
// existential chains of growing length.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "core/parser.h"
#include "datalog/evaluator.h"
#include "transform/saturation.h"

namespace {

using namespace gerel;         // NOLINT
using namespace gerel::bench;  // NOLINT

void PrintSizeTable() {
  std::printf("=== E7: dat(Sigma) size vs guarded chain length ===\n");
  std::printf("%6s %8s %10s %10s %10s %12s\n", "chain", "rules", "closure",
              "datalog", "complete", "answers-ok");
  for (int len = 2; len <= 8; len += 2) {
    SymbolTable syms;
    Theory t = MustTheory(GuardedChainTheoryText(len).c_str(), &syms);
    auto sat = Saturate(t, &syms);
    if (!sat.ok()) {
      std::printf("%6d  error: %s\n", len, sat.status().message().c_str());
      continue;
    }
    // Oracle check: goal(a) must follow from s0(a) (the whole chain of
    // invented nulls reaches the end and goal propagates back).
    Database db = ParseDatabase("s0(a).", &syms).value();
    auto eval = EvaluateDatalog(sat.value().datalog, db, &syms);
    bool ok = eval.ok() && eval.value().database.Contains(Atom(
                               syms.Relation("goal"), {syms.Constant("a")}));
    std::printf("%6d %8zu %10zu %10zu %10d %12s\n", len, t.size(),
                sat.value().closure.size(), sat.value().datalog.size(),
                sat.value().complete, ok ? "yes" : "NO");
  }
  std::printf("\n");
}

void BM_SaturateChain(benchmark::State& state) {
  int len = static_cast<int>(state.range(0));
  size_t closure = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable syms;
    Theory t = MustTheory(GuardedChainTheoryText(len).c_str(), &syms);
    state.ResumeTiming();
    auto sat = Saturate(t, &syms);
    if (!sat.ok()) {
      state.SkipWithError(sat.status().message().c_str());
      return;
    }
    closure = sat.value().closure.size();
  }
  state.counters["closure"] = static_cast<double>(closure);
}
BENCHMARK(BM_SaturateChain)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_EvaluateDatChainVsChase(benchmark::State& state) {
  // Compare the two decision procedures end-to-end: translate-once +
  // Datalog evaluation, vs direct chase (both terminate here).
  int len = 6;
  SymbolTable syms;
  Theory t = MustTheory(GuardedChainTheoryText(len).c_str(), &syms);
  auto sat = Saturate(t, &syms);
  Database db = ParseDatabase("s0(a). s0(b). s0(c).", &syms).value();
  if (state.range(0) == 0) {
    size_t derived = 0, rounds = 0;
    for (auto _ : state) {
      auto eval = EvaluateDatalog(sat.value().datalog, db, &syms);
      benchmark::DoNotOptimize(eval.ok());
      derived = eval.value().derived_atoms;
      rounds = eval.value().rounds;
    }
    state.counters["derived"] = static_cast<double>(derived);
    state.counters["rounds"] = static_cast<double>(rounds);
    state.counters["eval_threads"] = 1;
    state.SetLabel("datalog-after-translation");
  } else {
    size_t derived = 0;
    for (auto _ : state) {
      SymbolTable fresh = syms;
      ChaseResult r = Chase(t, db, &fresh);
      benchmark::DoNotOptimize(r.saturated);
      derived = r.database.size() - db.size();
    }
    state.counters["derived"] = static_cast<double>(derived);
    state.SetLabel("direct-chase");
  }
}
BENCHMARK(BM_EvaluateDatChainVsChase)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintSizeTable();
  return gerel::bench::RunBenchmarks(argc, argv, "bench_thm3_dat_size");
}
