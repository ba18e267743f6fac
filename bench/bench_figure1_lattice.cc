// Experiment E1 (Figure 1): the semantic-relations lattice.
//
// Verifies, for exemplar theories of each language class, (a) the '*'
// syntactic memberships of Figure 1 via the classifier, (b) the
// translation edges Thm 1 / Prop 4 / Thm 3 / Prop 6 by answer
// preservation against the chase oracle, and (c) the separations
// (transitive closure is not frontier-guarded; the running example is
// frontier-guarded but not weakly guarded). Then times classification.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "core/classify.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "transform/fg_to_ng.h"
#include "transform/saturation.h"

namespace {

using namespace gerel;          // NOLINT
using namespace gerel::bench;   // NOLINT

struct Exemplar {
  const char* name;
  const char* text;
};

const Exemplar kExemplars[] = {
    {"datalog-tc", "e(X, Y) -> t(X, Y).\ne(X, Y), t(Y, Z) -> t(X, Z)."},
    {"guarded",
     "a(X) -> exists Y. r(X, Y).\nr(X, Y) -> s(Y, Y).\n"
     "s(X, Y) -> exists Z. t3(X, Y, Z).\nt3(X, X, Y) -> b(X)."},
    {"frontier-guarded (running example)", kRunningExample},
    {"weakly-guarded",
     "r(X) -> exists Y. e(X, Y).\ne(X, Y), e(Y, Z) -> e(X, Z)."},
    {"nearly-guarded",
     "start(X) -> exists Y. e(X, Y).\ne(X, Y) -> mark(X).\n"
     "mark(X), mark(Y) -> pair(X, Y)."},
};

void PrintLattice() {
  std::printf("=== E1: Figure 1 syntactic membership matrix ===\n");
  std::printf("%-38s %3s %3s %3s %3s %3s %3s %3s\n", "theory", "dlg", "g",
              "fg", "wg", "wfg", "ng", "nfg");
  for (const Exemplar& ex : kExemplars) {
    SymbolTable syms;
    Theory t = MustTheory(ex.text, &syms);
    Classification c = Classify(t);
    std::printf("%-38s %3d %3d %3d %3d %3d %3d %3d\n", ex.name, c.datalog,
                c.guarded, c.frontier_guarded, c.weakly_guarded,
                c.weakly_frontier_guarded, c.nearly_guarded,
                c.nearly_frontier_guarded);
  }

  // Translation edges: fg → ng (Thm 1) → Datalog (Prop 6), verified
  // against the chase oracle on the null-cycle family.
  std::printf("\n=== E1: translation edges (answers preserved?) ===\n");
  {
    SymbolTable syms;
    Theory raw = MustTheory(NullCycleTheoryText(3).c_str(), &syms);
    Theory normal = Normalize(raw, &syms);
    Database db = ParseDatabase("a(c). r(u, v). r(v, w). r(w, u).", &syms)
                      .value();
    RelationId p = syms.Relation("p");
    auto oracle = ChaseAnswers(raw, db, p, &syms);
    auto rew = RewriteFgToNearlyGuarded(normal, &syms);
    bool thm1 = rew.ok() &&
                ChaseAnswers(rew.value().theory, db, p, &syms) == oracle &&
                Classify(rew.value().theory).nearly_guarded;
    std::printf("Thm 1  fg -> nearly guarded:          %s\n",
                thm1 ? "answers preserved" : "FAILED");
    if (rew.ok()) {
      auto dat = NearlyGuardedToDatalog(rew.value().theory, &syms);
      bool prop6 = dat.ok();
      std::printf("Prop 6 nearly guarded -> Datalog:     %s\n",
                  prop6 ? "translated" : "FAILED");
    }
  }
  {
    SymbolTable syms;
    Theory t = MustTheory(kExemplars[1].text, &syms);
    auto sat = Saturate(t, &syms);
    std::printf("Thm 3  guarded -> Datalog:            %s (%zu rules)\n",
                sat.ok() && sat.value().complete ? "saturated" : "FAILED",
                sat.ok() ? sat.value().datalog.size() : 0);
  }
  std::printf("\n");
}

void BM_ClassifyRunningExample(benchmark::State& state) {
  SymbolTable syms;
  Theory t = MustTheory(kRunningExample, &syms);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Classify(t));
  }
}
BENCHMARK(BM_ClassifyRunningExample);

void BM_AffectedPositionsFixpoint(benchmark::State& state) {
  // Chain of rules propagating affectedness through `state.range(0)`
  // relations.
  SymbolTable syms;
  std::string text = "seed(X) -> exists Y. q0(X, Y).\n";
  for (int i = 0; i < state.range(0); ++i) {
    text += IndexedName("q", i) + "(X, Y) -> " + IndexedName("q", i + 1) +
            "(Y, X).\n";
  }
  Theory t = MustTheory(text.c_str(), &syms);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AffectedPositions(t));
  }
  state.counters["relations"] = static_cast<double>(t.Relations().size());
}
BENCHMARK(BM_AffectedPositionsFixpoint)->Arg(8)->Arg(32)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
  PrintLattice();
  return gerel::bench::RunBenchmarks(argc, argv, "bench_figure1_lattice");
}
