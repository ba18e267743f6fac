// Experiment E2 (Figure 2): the chase and chase tree of the running
// example, scaled over growing publication databases, with the Prop 2
// chase-tree properties verified at every size.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "chase/chase_tree.h"
#include "core/classify.h"

namespace {

using namespace gerel;         // NOLINT
using namespace gerel::bench;  // NOLINT

void PrintFigure2Verification() {
  std::printf("=== E2: Figure 2 reproduction ===\n");
  SymbolTable syms;
  Theory t = MustTheory(kRunningExample, &syms);
  Database db = ParseDatabase(R"(
    publication(p1). publication(p2). citedin(p1, p2).
    hasauthor(p1, a1). hasauthor(p2, a1). hasauthor(p2, a2).
    hastopic(p1, t1). scientific(t1).
  )",
                              &syms)
                    .value();
  ChaseResult chase = Chase(t, db, &syms);
  RelationId q = syms.Relation("q");
  std::printf("chase atoms: %zu, saturated: %d, q-answers: %zu "
              "(paper: Q(a1), Q(a2))\n",
              chase.database.size(), chase.saturated,
              chase.database.AtomsOf(q).size());
  auto tree = BuildChaseTree(t, db, &syms);
  if (tree.ok()) {
    Status props = CheckChaseTreeProperties(tree.value(), t, db);
    std::printf("chase tree: %zu nodes; Prop 2 (P1)-(P3): %s\n\n",
                tree.value().nodes.size(),
                props.ok() ? "hold" : props.message().c_str());
  }
}

void BM_ChaseRunningExample(benchmark::State& state) {
  int pubs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable syms;
    Theory t = MustTheory(kRunningExample, &syms);
    Database db = PublicationDatabase(pubs, &syms);
    state.ResumeTiming();
    ChaseResult r = Chase(t, db, &syms);
    benchmark::DoNotOptimize(r.database.size());
    state.counters["atoms"] = static_cast<double>(r.database.size());
  }
}
BENCHMARK(BM_ChaseRunningExample)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_ChaseTreeRunningExample(benchmark::State& state) {
  int pubs = static_cast<int>(state.range(0));
  size_t nodes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable syms;
    Theory t = MustTheory(kRunningExample, &syms);
    Database db = PublicationDatabase(pubs, &syms);
    state.ResumeTiming();
    auto tree = BuildChaseTree(t, db, &syms);
    if (!tree.ok()) {
      state.SkipWithError(tree.status().message().c_str());
      return;
    }
    nodes = tree.value().nodes.size();
    // Prop 2 must hold at every scale.
    state.PauseTiming();
    Status props = CheckChaseTreeProperties(tree.value(), t, db);
    if (!props.ok()) {
      state.SkipWithError(props.message().c_str());
      return;
    }
    state.ResumeTiming();
  }
  state.counters["tree_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_ChaseTreeRunningExample)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure2Verification();
  return gerel::bench::RunBenchmarks(argc, argv, "bench_figure2_chase");
}
