// Shared workload generators for the experiment benches (DESIGN.md §3).
#ifndef GEREL_BENCH_BENCH_UTIL_H_
#define GEREL_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "core/database.h"
#include "core/parser.h"
#include "core/symbol_table.h"
#include "core/theory.h"

namespace gerel::bench {

// The running example Σp (paper Example 1).
inline const char* kRunningExample = R"(
  publication(X) -> exists K1, K2. keywords(X, K1, K2).
  keywords(X, K1, K2) -> hastopic(X, K1).
  hastopic(X, Z), hasauthor(X, U), hasauthor(Y, U), hastopic(Y, Z2),
    scientific(Z2), citedin(Y, X) -> scientific(Z).
  hasauthor(X, Y), hastopic(X, Z), scientific(Z) -> q(Y).
)";

inline Theory MustTheory(const char* text, SymbolTable* syms) {
  Result<Theory> t = ParseTheory(text, syms);
  if (!t.ok()) {
    std::fprintf(stderr, "bench theory parse error: %s\n",
                 t.status().message().c_str());
    std::abort();
  }
  return std::move(t).value();
}

// A publications database: `pubs` publications in a citation chain, each
// with two authors from a pool, the first one carrying a scientific
// topic.
inline Database PublicationDatabase(int pubs, SymbolTable* syms) {
  Database db;
  auto c = [&](const std::string& s) { return syms->Constant(s); };
  RelationId publication = syms->Relation("publication", 1);
  RelationId citedin = syms->Relation("citedin", 2);
  RelationId hasauthor = syms->Relation("hasauthor", 2);
  RelationId hastopic = syms->Relation("hastopic", 2);
  RelationId scientific = syms->Relation("scientific", 1);
  for (int i = 0; i < pubs; ++i) {
    Term p = c(IndexedName("p", i));
    db.Insert(Atom(publication, {p}));
    db.Insert(Atom(hasauthor, {p, c(IndexedName("auth", i / 2))}));
    db.Insert(Atom(hasauthor, {p, c(IndexedName("auth", i / 2 + 1))}));
    if (i + 1 < pubs) {
      db.Insert(Atom(citedin, {p, c(IndexedName("p", i + 1))}));
    }
  }
  db.Insert(Atom(hastopic, {c("p0"), c("t0")}));
  db.Insert(Atom(scientific, {c("t0")}));
  return db;
}

// A directed path a0 → a1 → ... → a_{n-1} in relation `rel`.
inline Database ChainDatabase(int n, const std::string& rel,
                              SymbolTable* syms) {
  Database db;
  RelationId e = syms->Relation(rel, 2);
  for (int i = 0; i + 1 < n; ++i) {
    db.Insert(Atom(e, {syms->Constant(IndexedName("a", i)),
                       syms->Constant(IndexedName("a", i + 1))}));
  }
  return db;
}

// A random sparse digraph with n nodes and m edges (seeded).
inline Database RandomGraph(int n, int m, const std::string& rel,
                            SymbolTable* syms, unsigned seed = 42) {
  Database db;
  RelationId e = syms->Relation(rel, 2);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> node(0, n - 1);
  for (int i = 0; i < m; ++i) {
    db.Insert(Atom(e, {syms->Constant(IndexedName("v", node(rng))),
                       syms->Constant(IndexedName("v", node(rng)))}));
  }
  return db;
}

// The frontier-guarded cycle-rule family of paper Examples 3/5: a cycle
// of r-atoms of the given length feeding p, plus a guarded generator
// whose nulls close cycles.
inline std::string NullCycleTheoryText(int cycle_len) {
  // a(X) -> exists Y0..Y_{k-2}. r(X,Y0), r(Y0,Y1), ..., r(Y_{k-2},X).
  std::string gen = "a(X) -> exists ";
  for (int i = 0; i + 1 < cycle_len; ++i) {
    if (i > 0) gen += ", ";
    gen += IndexedName("Y", i);
  }
  gen += ". r(X, Y0)";
  for (int i = 0; i + 2 < cycle_len; ++i) {
    gen += ", r(Y" + std::to_string(i) + ", Y" + std::to_string(i + 1) + ")";
  }
  gen += ", r(Y" + std::to_string(cycle_len - 2) + ", X).\n";
  std::string rule;
  for (int i = 0; i < cycle_len; ++i) {
    if (i > 0) rule += ", ";
    rule += "r(X" + std::to_string(i) + ", X" +
            std::to_string((i + 1) % cycle_len) + ")";
  }
  rule += " -> p(X0).\n";
  return gen + rule;
}

// A guarded existential chain of the given length (Thm 3 family):
//   s0(X) → ∃Y s1(X, Y); s_i(X, Y) → ∃Z s_{i+1}(Y, Z); s_last(X, Y) → goal(X).
inline std::string GuardedChainTheoryText(int length) {
  std::string out = "s0(X) -> exists Y. s1(X, Y).\n";
  for (int i = 1; i < length; ++i) {
    out += IndexedName("s", i) + "(X, Y) -> exists Z. " +
           IndexedName("s", i + 1) + "(Y, Z).\n";
  }
  out += IndexedName("s", length) + "(X, Y) -> goal(X).\n";
  // Propagate goal back down the chain so saturation has work to do.
  for (int i = length; i >= 1; --i) {
    out += IndexedName("s", i) + "(X, Y), goal(Y) -> goal(X).\n";
  }
  return out;
}

// Console reporter that additionally accumulates every finished run, so
// the binary can drop a machine-readable BENCH_<name>.json next to the
// console table (regression tracking across commits; see EXPERIMENTS.md).
// Each dump carries a provenance object (bench/provenance.h).
class JsonDumpReporter : public ::benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      runs_.push_back(run);
    }
  }

  // Writes BENCH_<binary_name>.json into the current directory.
  void Write(const std::string& binary_name) const {
    std::string path = "BENCH_" + binary_name + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    auto escape = [](const std::string& s) {
      std::string out;
      for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      return out;
    };
    std::fprintf(f, "{\n  \"binary\": \"%s\",\n  %s,\n  \"benchmarks\": [\n",
                 escape(binary_name).c_str(), ProvenanceJsonMember().c_str());
    for (size_t i = 0; i < runs_.size(); ++i) {
      const Run& run = runs_[i];
      double iters = run.iterations > 0
                         ? static_cast<double>(run.iterations)
                         : 1.0;
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"wall_ms\": %.6f, "
                   "\"cpu_ms\": %.6f, \"iterations\": %lld, "
                   "\"threads\": %d",
                   escape(run.benchmark_name()).c_str(),
                   1e3 * run.real_accumulated_time / iters,
                   1e3 * run.cpu_accumulated_time / iters,
                   static_cast<long long>(run.iterations),
                   static_cast<int>(run.threads));
      // User counters carry workload facts (derived atoms, rounds,
      // closure sizes, evaluation threads) where the bench records them.
      for (const auto& [name, counter] : run.counters) {
        std::fprintf(f, ", \"%s\": %.6f", escape(name).c_str(),
                     static_cast<double>(counter.value));
      }
      std::fprintf(f, "}%s\n", i + 1 < runs_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

 private:
  std::vector<Run> runs_;
};

// Shared driver for every bench main: run all registered benchmarks with
// the console output unchanged, then dump BENCH_<binary_name>.json.
inline int RunBenchmarks(int argc, char** argv,
                         const std::string& binary_name) {
  ::benchmark::Initialize(&argc, argv);
  JsonDumpReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.Write(binary_name);
  return 0;
}

}  // namespace gerel::bench

#endif  // GEREL_BENCH_BENCH_UTIL_H_
