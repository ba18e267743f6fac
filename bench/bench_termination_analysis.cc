// Termination-certificate analysis cost and its payoff (ISSUE:
// certificate-driven materialization planning). Two questions:
//
//  1. What does running the acyclicity ladder (WA -> JA -> MFA via the
//     critical-instance chase) cost as the theory grows? BM_Analyze*
//     times AnalyzeTermination on scaled families that exercise each
//     rung: a weakly acyclic chain (graph tests only) and an MFA-
//     refuted theory padded with Datalog rules (full critical chase).
//
//  2. What does a certificate buy at Prepare time? On a certified
//     weakly guarded theory the planner skips the pg(Σ, D) + dat(·)
//     translations and materializes the chase model directly.
//     BM_Prepare compares the two strategies on the same (Σ, D); the
//     verification header prints the measured ratio (acceptance: the
//     certified route must win).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "analyze/termination.h"
#include "bench/bench_util.h"
#include "core/parser.h"
#include "service/prepared_kb.h"

namespace {

using namespace gerel;         // NOLINT
using namespace gerel::bench;  // NOLINT

// Certified workload: weakly guarded successor generation over a chain
// (data/weakly_guarded_gen.gerel at benchmark scale). The chase closes
// the chain in O(n^2) atoms; the translation pipeline additionally
// grounds the guarded fragment over the active domain.
const char* kWgGenTheory = R"(
  gen(X) -> exists Y. e(X, Y).
  e(X, Y), e(Y, Z) -> e(X, Z).
)";

Database WgGenDatabase(int chain, SymbolTable* syms) {
  Database db = ChainDatabase(chain, "e", syms);
  RelationId gen = syms->Relation("gen", 1);
  db.Insert(Atom(gen, {syms->Constant("a0")}));
  return db;
}

// A weakly acyclic chain of n generator stages: the ladder certifies
// it on the dependency graphs alone, no critical chase.
Theory WaChainTheory(int stages, SymbolTable* syms) {
  std::string text;
  for (int i = 0; i < stages; ++i) {
    std::string p = IndexedName("p", i);
    std::string r = IndexedName("r", i);
    std::string next = IndexedName("p", i + 1);
    text += p + "(X) -> exists Y. " + r + "(X, Y).\n";
    text += r + "(X, Y) -> " + next + "(Y).\n";
  }
  return MustTheory(text.c_str(), syms);
}

// MFA-refuted core plus n Datalog padding rules: WA and JA fail, so
// the ladder always pays for the critical-instance chase before it
// finds the cyclic Skolem term.
Theory RefutedTheory(int padding, SymbolTable* syms) {
  std::string text = "r(X, Y) -> exists Z. r(Y, Z).\n";
  for (int i = 0; i < padding; ++i) {
    std::string s = IndexedName("s", i);
    std::string next = IndexedName("s", i + 1);
    text += s + "(X, Y), " + next + "(Y, Z) -> " + next + "(X, Z).\n";
  }
  return MustTheory(text.c_str(), syms);
}

constexpr int kChain = 16;

// Acceptance check printed before the benchmark table: on the certified
// theory, a planner Prepare (direct chase materialization) must beat
// the translation-pipeline Prepare on the same knowledge base.
void PrintVerification() {
  std::printf("=== Certificate-driven prepare: chase vs pipeline ===\n");
  auto now = [] { return std::chrono::steady_clock::now(); };
  auto ms = [](auto d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };

  {
    SymbolTable syms;
    Theory theory = MustTheory(kWgGenTheory, &syms);
    TerminationCertificate cert = AnalyzeTermination(theory, syms);
    std::printf("certificate: %s (terminating: %s)\n",
                CertificateKindName(cert.kind),
                cert.terminating() ? "yes" : "no");
  }

  double timings[2] = {0, 0};
  const char* names[2] = {"chase (planner on)  ", "pipeline (planner off)"};
  constexpr int kReps = 5;
  for (int mode = 0; mode < 2; ++mode) {
    double total = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      SymbolTable syms;
      Theory theory = MustTheory(kWgGenTheory, &syms);
      Database db = WgGenDatabase(kChain, &syms);
      PreparedKbOptions options;
      options.planner = mode == 0;
      auto t0 = now();
      auto kb = PreparedKb::Prepare(theory, db, &syms, options);
      total += ms(now() - t0);
      if (!kb.ok()) {
        std::printf("prepare failed: %s\n", kb.status().message().c_str());
        return;
      }
      if (rep == 0) {
        ServiceStats stats = kb.value()->stats();
        std::printf("%s: strategy=%s\n", names[mode],
                    stats.materialization_strategy.c_str());
      }
    }
    timings[mode] = total / kReps;
    std::printf("%s: %8.3f ms/prepare\n", names[mode], timings[mode]);
  }
  std::printf("pipeline/chase ratio: %.1fx (acceptance: > 1)\n\n",
              timings[0] > 0 ? timings[1] / timings[0] : 0);
}

// Ladder cost on a theory it certifies from the graphs alone.
void BM_AnalyzeWeaklyAcyclic(benchmark::State& state) {
  SymbolTable syms;
  Theory theory = WaChainTheory(static_cast<int>(state.range(0)), &syms);
  for (auto _ : state) {
    TerminationCertificate cert = AnalyzeTermination(theory, syms);
    if (cert.kind != CertificateKind::kWeaklyAcyclic) {
      state.SkipWithError("expected a weakly-acyclic certificate");
      return;
    }
    benchmark::DoNotOptimize(cert.order);
  }
  state.SetLabel("graph rungs only");
}
BENCHMARK(BM_AnalyzeWeaklyAcyclic)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Ladder cost when every rung runs, ending in an MFA refutation.
void BM_AnalyzeRefuted(benchmark::State& state) {
  SymbolTable syms;
  Theory theory = RefutedTheory(static_cast<int>(state.range(0)), &syms);
  for (auto _ : state) {
    TerminationCertificate cert = AnalyzeTermination(theory, syms);
    if (cert.kind != CertificateKind::kRefuted) {
      state.SkipWithError("expected a refuted certificate");
      return;
    }
    benchmark::DoNotOptimize(cert.cycle);
  }
  state.SetLabel("critical-instance chase");
}
BENCHMARK(BM_AnalyzeRefuted)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Prepare latency on the certified theory: range(0) == 1 lets the
// planner chase directly, 0 forces the translation pipeline.
void BM_Prepare(benchmark::State& state) {
  bool planner = state.range(0) == 1;
  for (auto _ : state) {
    state.PauseTiming();
    SymbolTable syms;
    Theory theory = MustTheory(kWgGenTheory, &syms);
    Database db = WgGenDatabase(kChain, &syms);
    PreparedKbOptions options;
    options.planner = planner;
    state.ResumeTiming();
    auto kb = PreparedKb::Prepare(theory, db, &syms, options);
    if (!kb.ok()) {
      state.SkipWithError(kb.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(kb.value());
  }
  state.SetLabel(planner ? "chase-materialized" : "translation pipeline");
}
BENCHMARK(BM_Prepare)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintVerification();
  return gerel::bench::RunBenchmarks(argc, argv, "bench_termination_analysis");
}
