// Experiment E11: data-complexity shapes (paper §1/§3).
//
// For a fixed nearly guarded query, the Datalog route scales
// polynomially in the database; for a fixed weakly guarded theory, the
// chase-based procedure exhibits the null-driven growth that places the
// language at EXPTIME. Absolute numbers are machine-specific; the shape
// (polynomial vs explosive growth per added generator) is the claim.
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

void BM_NearlyGuardedDatalogRoute(benchmark::State& state) {
  // Fixed query (translated once), growing random graph database.
  int n = static_cast<int>(state.range(0));
  SymbolTable syms;
  Theory t = MustTheory(R"(
    start(X) -> exists Y. e(X, Y).
    e(X, Y) -> mark(X).
    mark(X), mark(Y) -> pair(X, Y).
  )",
                        &syms);
  auto dat = NearlyGuardedToDatalog(t, &syms);
  size_t atoms = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable fresh = syms;
    Database db = RandomGraph(n, 2 * n, "e", &fresh);
    db.Insert(Atom(fresh.Relation("start", 1), {fresh.Constant("v0")}));
    state.ResumeTiming();
    auto eval = EvaluateDatalog(dat.value().datalog, db, &fresh);
    if (!eval.ok()) {
      state.SkipWithError(eval.status().message().c_str());
      return;
    }
    atoms = eval.value().database.size();
  }
  state.counters["db_nodes"] = n;
  state.counters["atoms"] = static_cast<double>(atoms);
}
BENCHMARK(BM_NearlyGuardedDatalogRoute)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_WeaklyGuardedChaseGrowth(benchmark::State& state) {
  // Fixed weakly guarded theory; each generator fact adds a null that
  // participates in the transitive closure — the null-involving work is
  // what separates weakly guarded rules from Datalog.
  int gens = static_cast<int>(state.range(0));
  SymbolTable syms;
  Theory t = MustTheory(
      "gen(X) -> exists Y. e(X, Y).\ne(X, Y), e(Y, Z) -> e(X, Z).", &syms);
  size_t atoms = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable fresh = syms;
    Database db = ChainDatabase(gens, "e", &fresh);
    RelationId gen = fresh.Relation("gen", 1);
    for (int i = 0; i < gens; ++i) {
      db.Insert(Atom(gen, {fresh.Constant(IndexedName("a", i))}));
    }
    state.ResumeTiming();
    ChaseResult r = Chase(t, db, &fresh);
    atoms = r.database.size();
  }
  state.counters["generators"] = gens;
  state.counters["atoms"] = static_cast<double>(atoms);
}
BENCHMARK(BM_WeaklyGuardedChaseGrowth)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return gerel::bench::RunBenchmarks(argc, argv, "bench_data_complexity");
}
