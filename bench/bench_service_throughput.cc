// Serving-layer throughput (DESIGN.md §7 "Serving layer"): prepared
// queries against the one-shot AnswerKbQuery pipeline, incremental
// asserts against full re-materialization, and the prepare cost itself.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/parser.h"
#include "service/prepared_kb.h"
#include "transform/pipeline.h"

namespace {

using namespace gerel;         // NOLINT
using namespace gerel::bench;  // NOLINT

const char* kTheory = R"(
  e(X, Y) -> t(X, Y).
  e(X, Y), t(Y, Z) -> t(X, Z).
)";

// One one-shot AnswerKbQuery on this instance costs ~40 ms (the partial
// grounding is cubic in the domain and the saturation superlinear in the
// grounded rules); the prepared route answers the same query in
// microseconds. Keep the chain small enough that the 100-query one-shot
// baseline finishes in seconds.
constexpr int kChain = 12;

Rule MakeQuery(int i, SymbolTable* syms) {
  // Point queries t(a_i, V) -> q(V): a realistic served workload (cycling
  // through kChain distinct queries also exercises the answer cache).
  RelationId t = syms->Relation("t", 2);
  RelationId q = syms->Relation("q", 1);
  Term a = syms->Constant(IndexedName("a", i % kChain));
  Term v = syms->Variable("V");
  return Rule::Positive({Atom(t, {a, v})}, {Atom(q, {v})});
}

// Acceptance check printed before the benchmark table: N prepared queries
// must beat N one-shot pipeline calls by >= 5x, and an Assert must be far
// cheaper than the initial materialization.
void PrintVerification() {
  std::printf("=== Service throughput: prepared vs one-shot ===\n");
  constexpr int kQueries = 100;
  SymbolTable syms;
  Theory theory = MustTheory(kTheory, &syms);
  Database db = ChainDatabase(kChain, "e", &syms);
  std::vector<Rule> queries;
  for (int i = 0; i < kQueries; ++i) queries.push_back(MakeQuery(i, &syms));

  auto now = [] { return std::chrono::steady_clock::now(); };
  auto ms = [](auto d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };

  auto t0 = now();
  size_t oneshot_total = 0;
  for (const Rule& cq : queries) {
    auto r = AnswerKbQuery(theory, cq, db, &syms);
    if (!r.ok()) {
      std::printf("one-shot failed: %s\n", r.status().message().c_str());
      return;
    }
    oneshot_total += r.value().answers.size();
  }
  double oneshot_ms = ms(now() - t0);

  t0 = now();
  auto kb = PreparedKb::Prepare(theory, db, &syms);
  if (!kb.ok()) {
    std::printf("prepare failed: %s\n", kb.status().message().c_str());
    return;
  }
  double prepare_ms = ms(now() - t0);
  t0 = now();
  size_t prepared_total = 0;
  for (const Rule& cq : queries) {
    prepared_total += kb.value()->Query(cq).value().answers.size();
  }
  double prepared_ms = ms(now() - t0);

  RelationId e = syms.Relation("e", 2);
  Atom extra(e, {syms.Constant(IndexedName("a", kChain - 1)),
                 syms.Constant("fresh")});
  t0 = now();
  auto assert_result = kb.value()->Assert({extra});
  double assert_ms = ms(now() - t0);

  std::printf("%d one-shot queries:  %8.2f ms (%zu answers)\n", kQueries,
              oneshot_ms, oneshot_total);
  std::printf("prepare:              %8.2f ms\n", prepare_ms);
  std::printf("%d prepared queries:  %8.2f ms (%zu answers)\n", kQueries,
              prepared_ms, prepared_total);
  std::printf("1 delta assert:       %8.2f ms (delta=%d, derived=%zu)\n",
              assert_ms, assert_result.ok() && assert_result.value().delta,
              assert_result.ok() ? assert_result.value().derived_atoms : 0u);
  double speedup = prepared_ms > 0 ? oneshot_ms / prepared_ms : 0;
  std::printf("speedup: %.1fx (acceptance: >= 5x), answers %s\n",
              speedup, prepared_total == oneshot_total ? "match" : "MISMATCH");
  std::printf("assert/prepare ratio: %.3f (acceptance: << 1)\n\n",
              prepare_ms > 0 ? assert_ms / prepare_ms : 0);
}

void BM_OneShotQuery(benchmark::State& state) {
  SymbolTable syms;
  Theory theory = MustTheory(kTheory, &syms);
  Database db = ChainDatabase(kChain, "e", &syms);
  int i = 0;
  for (auto _ : state) {
    Rule cq = MakeQuery(i++, &syms);
    auto r = AnswerKbQuery(theory, cq, db, &syms);
    if (!r.ok()) {
      state.SkipWithError(r.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(r.value().answers.size());
  }
  state.SetLabel("one-shot AnswerKbQuery");
}
BENCHMARK(BM_OneShotQuery)->Unit(benchmark::kMillisecond);

void BM_PreparedQuery(benchmark::State& state) {
  bool cached = state.range(0) == 1;
  SymbolTable syms;
  Theory theory = MustTheory(kTheory, &syms);
  Database db = ChainDatabase(kChain, "e", &syms);
  PreparedKbOptions options;
  options.answer_cache_capacity = cached ? 1024 : 0;
  auto kb = PreparedKb::Prepare(theory, db, &syms, options);
  if (!kb.ok()) {
    state.SkipWithError(kb.status().message().c_str());
    return;
  }
  std::vector<Rule> queries;
  for (int i = 0; i < kChain; ++i) queries.push_back(MakeQuery(i, &syms));
  int i = 0;
  for (auto _ : state) {
    auto r = kb.value()->Query(queries[i++ % queries.size()]);
    benchmark::DoNotOptimize(r.value().answers.size());
  }
  ServiceStats stats = kb.value()->stats();
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
  state.counters["model_atoms"] = static_cast<double>(stats.model_atoms);
  state.SetLabel(cached ? "prepared, cache on" : "prepared, cache off");
}
BENCHMARK(BM_PreparedQuery)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_PrepareOnly(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable syms;
    Theory theory = MustTheory(kTheory, &syms);
    Database db = ChainDatabase(kChain, "e", &syms);
    state.ResumeTiming();
    auto kb = PreparedKb::Prepare(theory, db, &syms);
    if (!kb.ok()) {
      state.SkipWithError(kb.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(kb.value()->model_size());
  }
  state.SetLabel("prepare + materialize");
}
BENCHMARK(BM_PrepareOnly)->Unit(benchmark::kMillisecond);

void BM_PreparedAssertDelta(benchmark::State& state) {
  bool delta = state.range(0) == 1;
  SymbolTable syms;
  Theory theory = MustTheory(kTheory, &syms);
  Database db = ChainDatabase(kChain, "e", &syms);
  RelationId e = syms.Relation("e", 2);
  // Fresh edges hanging off the chain tail; pre-interned so the loop
  // body is pure Assert (or assert + rebuild when delta is off).
  std::vector<Atom> facts;
  for (int i = 0; i < 4096; ++i) {
    facts.push_back(Atom(e, {syms.Constant(IndexedName("x", i)),
                             syms.Constant(IndexedName("x", i + 1))}));
  }
  auto kb = PreparedKb::Prepare(theory, db, &syms);
  if (!kb.ok()) {
    state.SkipWithError(kb.status().message().c_str());
    return;
  }
  size_t i = 0;
  double prepare_ms = kb.value()->stats().prepare_wall_ms;
  for (auto _ : state) {
    if (i >= facts.size()) {
      state.SkipWithError("fact pool exhausted");
      return;
    }
    if (delta) {
      auto r = kb.value()->Assert({facts[i++]});
      benchmark::DoNotOptimize(r.value().derived_atoms);
    } else {
      // Baseline: what the assert would cost without the delta path —
      // re-prepare over the grown database.
      db.Insert(facts[i++]);
      auto fresh = PreparedKb::Prepare(theory, db, &syms);
      benchmark::DoNotOptimize(fresh.value()->model_size());
    }
  }
  ServiceStats stats = kb.value()->stats();
  state.counters["prepare_ms"] = prepare_ms;
  state.counters["assert_ms_total"] = stats.assert_wall_ms;
  state.counters["delta_derived"] =
      static_cast<double>(stats.delta_derived_atoms);
  state.SetLabel(delta ? "incremental assert" : "re-prepare baseline");
}
// Fixed iteration count: each iteration consumes one fact from the
// pre-interned pool (auto-scaling would exhaust it).
BENCHMARK(BM_PreparedAssertDelta)->Arg(1)->Arg(0)
    ->Iterations(1000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintVerification();
  return gerel::bench::RunBenchmarks(argc, argv, "bench_service_throughput");
}
