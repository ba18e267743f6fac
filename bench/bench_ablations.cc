// Experiment E12: ablations of the design choices called out in
// DESIGN.md: (i) semi-naive vs naive Datalog evaluation, (ii) idempotent
// vs exhaustive selection enumeration in the expansion, (iii) subsuming
// vs exhaustive guard generation.
//
// Before the benchmarks run, the binary checks that every expansion
// configuration answers like the chase oracle, and exits 1 otherwise.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "datalog/evaluator.h"
#include "transform/fg_to_ng.h"

namespace {

using namespace gerel;         // NOLINT
using namespace gerel::bench;  // NOLINT

void BM_SeminaiveVsNaive(benchmark::State& state) {
  bool seminaive = state.range(0) == 0;
  SymbolTable syms;
  Theory t = MustTheory(
      "e(X, Y) -> tc(X, Y).\ne(X, Y), tc(Y, Z) -> tc(X, Z).", &syms);
  Database db = ChainDatabase(64, "e", &syms);
  DatalogOptions opts;
  opts.seminaive = seminaive;
  for (auto _ : state) {
    SymbolTable fresh = syms;
    auto eval = EvaluateDatalog(t, db, &fresh, opts);
    benchmark::DoNotOptimize(eval.ok());
  }
  state.SetLabel(seminaive ? "seminaive" : "naive");
}
BENCHMARK(BM_SeminaiveVsNaive)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SelectionEnumeration(benchmark::State& state) {
  bool idempotent = state.range(0) == 0;
  size_t rules = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable syms;
    Theory normal =
        Normalize(MustTheory(NullCycleTheoryText(3).c_str(), &syms), &syms);
    ExpansionOptions opts;
    opts.idempotent_selections_only = idempotent;
    opts.max_rules = 400000;
    state.ResumeTiming();
    auto ex = Expand(normal, &syms, opts);
    if (!ex.ok()) {
      state.SkipWithError(ex.status().message().c_str());
      return;
    }
    rules = ex.value().theory.size();
  }
  state.SetLabel(idempotent ? "idempotent-selections" : "all-selections");
  state.counters["rules"] = static_cast<double>(rules);
}
BENCHMARK(BM_SelectionEnumeration)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_GuardGeneration(benchmark::State& state) {
  bool subsuming = state.range(0) == 0;
  size_t rules = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable syms;
    Theory normal =
        Normalize(MustTheory(NullCycleTheoryText(3).c_str(), &syms), &syms);
    ExpansionOptions opts;
    opts.exhaustive_guards = !subsuming;
    opts.max_rules = 400000;
    state.ResumeTiming();
    auto ex = Expand(normal, &syms, opts);
    if (!ex.ok()) {
      state.SkipWithError(ex.status().message().c_str());
      return;
    }
    rules = ex.value().theory.size();
  }
  state.SetLabel(subsuming ? "subsuming-guards" : "exhaustive-guards");
  state.counters["rules"] = static_cast<double>(rules);
  state.counters["complete"] = 1;
}
BENCHMARK(BM_GuardGeneration)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

// The ablation equivalence check: restricted and exhaustive expansions
// derive the same answers (the restrictions drop only subsumed rules).
// Returns whether every configuration matched the chase oracle.
bool PrintEquivalenceCheck() {
  std::printf("=== E12: restricted vs exhaustive expansion agree? ===\n");
  SymbolTable syms;
  Theory raw = MustTheory(NullCycleTheoryText(3).c_str(), &syms);
  Theory normal = Normalize(raw, &syms);
  Database db =
      ParseDatabase("a(c). r(u, v). r(v, w). r(w, u).", &syms).value();
  RelationId p = syms.Relation("p");
  auto oracle = ChaseAnswers(raw, db, p, &syms);
  struct Config {
    const char* name;
    bool idempotent;
    bool exhaustive;
  } configs[] = {
      {"idempotent+subsuming (default)", true, false},
      {"all-selections+subsuming", false, false},
      {"idempotent+exhaustive-guards", true, true},
  };
  bool all_match = true;
  for (const Config& cfg : configs) {
    SymbolTable s2 = syms;
    ExpansionOptions opts;
    opts.idempotent_selections_only = cfg.idempotent;
    opts.exhaustive_guards = cfg.exhaustive;
    opts.max_rules = 400000;
    auto rew = RewriteFgToNearlyGuarded(normal, &s2, opts);
    if (!rew.ok()) {
      std::printf("%-34s error\n", cfg.name);
      all_match = false;
      continue;
    }
    ChaseOptions big;
    big.max_steps = 20000000;
    big.max_atoms = 20000000;
    bool match = ChaseAnswers(rew.value().theory, db, p, &s2, big) == oracle;
    all_match = all_match && match;
    std::printf("%-34s rules=%-7zu complete=%d answers %s\n", cfg.name,
                rew.value().theory.size(), rew.value().complete,
                match ? "match" : "MISMATCH");
  }
  std::printf("\n");
  return all_match;
}

}  // namespace

int main(int argc, char** argv) {
  if (!PrintEquivalenceCheck()) return 1;
  return gerel::bench::RunBenchmarks(argc, argv, "bench_ablations");
}
