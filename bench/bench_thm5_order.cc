// Experiment E10 (Theorem 5): the stratified weakly guarded Σsucc
// program. Verifies that Good orderings are exactly the n! permutations
// and that the non-monotonic domain-parity query comes out right, and
// measures the stratified chase cost as the domain grows.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include <cstdio>

#include "capture/order_program.h"
#include "core/parser.h"

namespace {

using namespace gerel;  // NOLINT

Database DomainDb(int n, SymbolTable* syms) {
  Database db;
  RelationId d = syms->Relation("dom", 1);
  for (int i = 0; i < n; ++i) {
    db.Insert(Atom(d, {syms->Constant(IndexedName("c", i))}));
  }
  return db;
}

void PrintVerification() {
  std::printf("=== E10: Thm 5 — Sigma_succ rules (1)-(12) ===\n");
  std::printf("%4s %10s %10s %12s %10s\n", "n", "good", "n!", "domparity",
              "atoms");
  for (int n = 2; n <= 4; ++n) {
    SymbolTable syms;
    OrderProgram prog = BuildOrderProgram(&syms);
    Theory parity = ParseTheory(R"(
      ord#min(X, U) -> oddp(X, U).
      oddp(X, U), ord#succ(X, Y, U) -> evenp(Y, U).
      evenp(X, U), ord#succ(X, Y, U) -> oddp(Y, U).
      evenp(X, U), ord#max(X, U), ord#good(U) -> domeven.
      oddp(X, U), ord#max(X, U), ord#good(U) -> domodd.
    )",
                                &syms)
                        .value();
    Database db = DomainDb(n, &syms);
    auto result = RunOrderProgram(prog, parity, db, &syms);
    if (!result.ok()) {
      std::printf("%4d  error: %s\n", n, result.status().message().c_str());
      continue;
    }
    size_t goods = result.value().database.AtomsOf(prog.good).size();
    size_t fact = 1;
    for (int i = 2; i <= n; ++i) fact *= i;
    bool even = result.value().database.Contains(
        Atom(syms.Relation("domeven", 0), {}));
    bool odd = result.value().database.Contains(
        Atom(syms.Relation("domodd", 0), {}));
    const char* parity_str =
        even && !odd ? "even" : (odd && !even ? "odd" : "BROKEN");
    bool parity_ok = (n % 2 == 0) == even;
    std::printf("%4d %10zu %10zu %9s %s %9zu\n", n, goods, fact, parity_str,
                parity_ok ? "(ok)" : "(WRONG)",
                result.value().database.size());
  }
  std::printf("\n");
}

void BM_OrderProgram(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  size_t atoms = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable syms;
    OrderProgram prog = BuildOrderProgram(&syms);
    Database db = DomainDb(n, &syms);
    state.ResumeTiming();
    auto result = RunOrderProgram(prog, Theory(), db, &syms);
    if (!result.ok()) {
      state.SkipWithError(result.status().message().c_str());
      return;
    }
    atoms = result.value().database.size();
  }
  state.counters["atoms"] = static_cast<double>(atoms);
}
BENCHMARK(BM_OrderProgram)->Arg(2)->Arg(3)->Arg(4)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  PrintVerification();
  return gerel::bench::RunBenchmarks(argc, argv, "bench_thm5_order");
}
