// Experiment E12: ablations of the design choices called out in
// DESIGN.md: (i) semi-naive vs naive Datalog evaluation, (ii) idempotent
// vs exhaustive selection enumeration in the expansion, (iii) subsuming
// vs exhaustive guard generation, (iv) indexed vs scan matching in the
// chase.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "datalog/evaluator.h"
#include "datalog/magic.h"
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

void BM_MagicSetsVsFullEvaluation(benchmark::State& state) {
  // Goal-directed evaluation of the translated program: the query binds
  // the source node, and only a small part of the graph is relevant.
  bool magic = state.range(0) == 0;
  SymbolTable syms;
  Theory t = MustTheory(
      "e(X, Y) -> tc(X, Y).\ne(X, Y), tc(Y, Z) -> tc(X, Z).", &syms);
  // Star of 24 chains; the query touches only one.
  Database db;
  RelationId e = syms.Relation("e", 2);
  for (int chain = 0; chain < 24; ++chain) {
    for (int i = 0; i + 1 < 16; ++i) {
      std::string prefix = IndexedName("c", chain) + "_";
      db.Insert(Atom(e, {syms.Constant(IndexedName(prefix, i)),
                         syms.Constant(IndexedName(prefix, i + 1))}));
    }
  }
  Atom query = ParseAtom("tc(c0_0, Z)", &syms).value();
  for (auto _ : state) {
    SymbolTable fresh = syms;
    if (magic) {
      auto r = MagicAnswers(t, db, query, &fresh);
      if (!r.ok()) {
        state.SkipWithError(r.status().message().c_str());
        return;
      }
      benchmark::DoNotOptimize(r.value().size());
    } else {
      auto r = DatalogAnswers(t, db, fresh.Relation("tc"), &fresh);
      benchmark::DoNotOptimize(r.value().size());
    }
  }
  state.SetLabel(magic ? "magic-sets" : "full-evaluation");
}
BENCHMARK(BM_MagicSetsVsFullEvaluation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_ChaseIndexing(benchmark::State& state) {
  bool indexed = state.range(0) == 0;
  SymbolTable syms;
  Theory t = MustTheory(kRunningExample, &syms);
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable fresh = syms;
    Database source = PublicationDatabase(64, &fresh);
    Database db;
    db.set_position_index_enabled(indexed);
    for (const Atom& a : source.atoms()) {
      db.Insert(a);
    }
    state.ResumeTiming();
    ChaseResult r = Chase(t, db, &fresh);
    benchmark::DoNotOptimize(r.database.size());
  }
  state.SetLabel(indexed ? "position-indexed" : "relation-scan");
}
BENCHMARK(BM_ChaseIndexing)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The ablation equivalence check: restricted and exhaustive expansions
// derive the same answers (the restrictions drop only subsumed rules).
void PrintEquivalenceCheck() {
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
  for (const Config& cfg : configs) {
    SymbolTable s2 = syms;
    ExpansionOptions opts;
    opts.idempotent_selections_only = cfg.idempotent;
    opts.exhaustive_guards = cfg.exhaustive;
    opts.max_rules = 400000;
    auto rew = RewriteFgToNearlyGuarded(normal, &s2, opts);
    if (!rew.ok()) {
      std::printf("%-34s error\n", cfg.name);
      continue;
    }
    ChaseOptions big;
    big.max_steps = 20000000;
    big.max_atoms = 20000000;
    auto got = ChaseAnswers(rew.value().theory, db, p, &s2, big);
    std::printf("%-34s rules=%-7zu complete=%d answers %s\n", cfg.name,
                rew.value().theory.size(), rew.value().complete,
                got == oracle ? "match" : "MISMATCH");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintEquivalenceCheck();
  return gerel::bench::RunBenchmarks(argc, argv, "bench_ablations");
}
