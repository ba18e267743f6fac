#include <algorithm>
#include <filesystem>

#include "analyze/analyze.h"
#include "analyze/termination.h"
#include "chase/chase.h"
#include "core/classify.h"
#include "core/normalize.h"
#include "core/parser.h"
#include "core/printer.h"
#include "datalog/program.h"
#include "datalog/support.h"
#include "phases.h"
#include "reference.h"
#include "transform/grounding.h"
#include "transform/saturation.h"

namespace perfbench {

namespace {

constexpr uint64_t kCorpusSalt = 0xc0de;

// One program per planner route, each a cold prepare of roughly
// 60–150 ms on a current x86 core (README.md).
struct CorpusEntry {
  Route route;
  ProgramSize size;
};
constexpr CorpusEntry kCorpus[] = {
    // 100 chains × 40: 78,000 closure atoms; evaluation dominates.
    {Route::kDatalog, {100, 40, 5, 1}},
    // 9 seeds, one reach rule each: saturation dominates.
    {Route::kGuarded, {40, 20, 3, 9}},
    // 9 constants: pg(Σ, D) grounds 9 reach rules, then saturation.
    {Route::kWeaklyGuarded, {3, 3, 0, 1}},
    // 60 chains × 20 with 4 gen nodes and a gen tail each: 16,140
    // chase atoms.
    {Route::kChase, {60, 20, 3, 4}},
};

}  // namespace

Corpus::Corpus(uint64_t seed, std::string snapshot_dir)
    : snapshot_dir_(std::move(snapshot_dir)) {
  for (const CorpusEntry& e : kCorpus) {
    programs_.push_back(MakeProgram(
        e.route, e.size,
        seed ^ (kCorpusSalt + static_cast<uint64_t>(e.route))));
  }
}

std::string Corpus::SnapshotPath(Route r) const {
  return snapshot_dir_ + "/" + RouteName(r) + ".snap";
}

std::unique_ptr<gerel::PreparedKb> Corpus::PrepareFromText(
    const ProgramInput& p, gerel::SymbolTable* symbols, Tally* tally) {
  gerel::Result<gerel::Program> program = gerel::ParseProgram(p.text, symbols);
  if (!program.ok()) {
    tally->Record(false, "parse: " + program.status().message());
    return nullptr;
  }
  auto kb = gerel::PreparedKb::Prepare(program.value().theory,
                                       program.value().database, symbols);
  tally->Record(kb.ok(), kb.ok() ? "" : "prepare: " + kb.status().message());
  if (!kb.ok()) return nullptr;
  return std::move(kb).value();
}

void Corpus::WarmPass(Tally* tally) {
  for (const ProgramInput& p : programs_) {
    gerel::SymbolTable symbols;
    std::unique_ptr<gerel::PreparedKb> kb = PrepareFromText(p, &symbols, tally);
    if (kb != nullptr) Probe(p, *kb, &symbols, "warm-up", tally);
  }
}

void Corpus::Probe(const ProgramInput& p, const gerel::PreparedKb& kb,
                   gerel::SymbolTable* symbols, const char* when,
                   Tally* tally) {
  for (const QuerySpec& q : p.probes) {
    std::string text = QueryText(p.route, q);
    gerel::Result<gerel::Rule> cq = gerel::ParseRule(text, symbols);
    bool ok = false;
    if (cq.ok()) {
      auto result = kb.Query(cq.value());
      if (result.ok()) {
        std::vector<std::string> got;
        for (const std::vector<gerel::Term>& tuple : result.value().answers) {
          got.push_back(gerel::ToString(
              gerel::Atom(cq.value().head[0].pred, tuple), *symbols));
        }
        std::sort(got.begin(), got.end());
        ok = got == ExpectedAnswers(p, q, ExtraEdge());
      }
    }
    tally->Record(ok, std::string(RouteName(p.route)) + " " + when +
                          " probe " + text);
  }
}

void Corpus::StagedReplica(const ProgramInput& p, Tracer* tracer,
                           Tally* tally) {
  // PreparedKb::Prepare's stages, called one by one in its order and
  // with its default options, each under its own span. What Prepare
  // keeps in the PreparedKb it returns (the compiled program, supports,
  // model) is declared here, so it is freed after the spans end.
  const std::string route = RouteName(p.route);
  std::array<double, kNumStages> ms{};
  gerel::SymbolTable symbols;
  gerel::SupportLog supports;
  std::unique_ptr<gerel::DatalogProgram> compiled;
  gerel::Database model;
  int64_t root = tracer->Begin("prepare." + route);
  auto stage = [&](size_t i, auto&& body) {
    int64_t id = tracer->Begin("prepare." + route + "." + kStages[i], root);
    body();
    tracer->End(id);
    ms[i] += tracer->span(id).ms();
  };
  gerel::Program program;
  bool parsed = false;
  stage(0, [&] {
    auto r = gerel::ParseProgram(p.text, &symbols);
    if (r.ok()) {
      program = std::move(r).value();
      parsed = true;
    }
  });
  gerel::Theory normal;
  gerel::Classification c;
  bool existentials = false;
  if (parsed) {
    stage(1, [&] {
      normal = gerel::Normalize(program.theory, &symbols);
      c = gerel::Classify(normal);
      gerel::AffectedPositions(normal);
      for (const gerel::Rule& r : normal.rules()) {
        if (!r.EVars().empty()) existentials = true;
      }
      gerel::AcdomRelation(&symbols);
    });
    stage(2, [&] {
      gerel::Analyze(program.theory, program.database, symbols);
    });
  }
  bool chase_route = false;
  if (existentials && !normal.HasNegation()) {
    stage(3, [&] {
      chase_route = gerel::AnalyzeTermination(normal, symbols).terminating();
    });
  }
  size_t rules = 0, model_atoms = 0, steps = 0;
  bool ok = parsed && c.weakly_guarded;  // The corpus never needs rew(Σ).
  if (ok && chase_route) {
    stage(8, [&] {
      gerel::PreparedKbOptions defaults;
      gerel::ChaseOptions copts;
      copts.max_steps = defaults.chase_max_steps;
      copts.max_atoms = defaults.chase_max_atoms;
      copts.semi_oblivious = true;
      copts.populate_acdom = defaults.datalog.populate_acdom;
      // As in Prepare, the model is kept and the rest of the run (its
      // derivation log) is freed inside the stage.
      gerel::ChaseResult run =
          gerel::Chase(normal, program.database, &symbols, copts);
      model = std::move(run.database);
      steps = run.steps;
    });
    model_atoms = model.size();
    rules = normal.size();
  } else if (ok) {
    gerel::Classification wc;
    stage(1, [&] { wc = gerel::Classify(normal); });
    gerel::Theory theory = normal;
    bool saturate = !(wc.datalog || !existentials);
    if (saturate && !wc.guarded) {
      stage(4, [&] {
        auto pg = gerel::PartialGrounding(normal, program.database);
        ok = pg.ok();
        if (ok) theory = std::move(pg.value().theory);
      });
    }
    if (ok && saturate) {
      stage(5, [&] {
        auto sat = gerel::Saturate(theory, &symbols);
        ok = sat.ok();
        if (ok) theory = std::move(sat.value().datalog);
      });
    }
    if (ok) {
      stage(6, [&] {
        gerel::DatalogOptions dopts;
        dopts.support_log = &supports;
        auto prog =
            gerel::DatalogProgram::Compile(std::move(theory), &symbols, dopts);
        ok = prog.ok();
        if (ok) {
          compiled = std::make_unique<gerel::DatalogProgram>(
              std::move(prog).value());
        }
      });
    }
    if (ok) {
      stage(7, [&] {
        model = program.database;
        ok = compiled->Materialize(&model).ok();
      });
      model_atoms = model.size();
      rules = compiled->theory().size();
    }
  }
  tracer->End(root);
  tally->Record(ok, route + " staged prepare failed");
  RouteFigures& f = figures_[static_cast<size_t>(p.route)];
  double sum = 0;
  for (size_t i = 0; i < kNumStages; ++i) {
    f.stage_ms[i].push_back(ms[i]);
    sum += ms[i];
  }
  f.stage_sum_ms.push_back(sum);
  f.rules = rules;
  f.model_atoms = model_atoms;
  f.chase_steps = steps;
}

void Corpus::Step(Tracer* tracer, Tally* tally) {
  const ProgramInput& p = programs_[step_ % programs_.size()];
  RouteFigures& f = figures_[static_cast<size_t>(p.route)];
  const std::string route = RouteName(p.route);
  // The traced replica and the untraced Prepare swap order every cycle,
  // so neither always runs on memory the other just released.
  bool replica_first = (step_ / programs_.size()) % 2 == 0;
  if (tracer != nullptr && replica_first) StagedReplica(p, tracer, tally);
  size_t prepared_atoms = 0;
  {
    gerel::SymbolTable symbols;
    Clock::time_point start = Clock::now();
    std::unique_ptr<gerel::PreparedKb> kb =
        PrepareFromText(p, &symbols, tally);
    double ms = MsBetween(start, Clock::now());
    if (kb != nullptr) {
      f.prepare_ms.push_back(ms);
      prepared_atoms = kb->model_size();
      Probe(p, *kb, &symbols, "cold", tally);
      int64_t span = tracer != nullptr
                         ? tracer->Begin("service.snapshot_save." + route)
                         : -1;
      start = Clock::now();
      gerel::Status saved = kb->SaveSnapshot(SnapshotPath(p.route));
      f.save_ms.push_back(MsBetween(start, Clock::now()));
      if (span >= 0) tracer->End(span);
      tally->Record(saved.ok(), route + " save: " + saved.message());
      std::error_code ec;
      f.snapshot_bytes = std::filesystem::file_size(SnapshotPath(p.route), ec);
    }
  }
  if (tracer != nullptr) {
    if (!replica_first) StagedReplica(p, tracer, tally);
    tally->Record(prepared_atoms == f.model_atoms,
                  route + ": staged model size differs from Prepare's");
    if (!f.prepare_ms.empty()) {
      f.stage_sum_ratio.push_back(f.stage_sum_ms.back() / f.prepare_ms.back());
    }
  }
  ++step_;
  if (step_ % programs_.size() != 0) return;

  // Warm start: load every route's latest snapshot.
  std::vector<std::unique_ptr<gerel::SymbolTable>> tables;
  std::vector<std::unique_ptr<gerel::PreparedKb>> kbs;
  double total_ms = 0;
  for (const ProgramInput& q : programs_) {
    const std::string name = RouteName(q.route);
    tables.push_back(std::make_unique<gerel::SymbolTable>());
    int64_t span = tracer != nullptr
                       ? tracer->Begin("service.snapshot_load." + name)
                       : -1;
    Clock::time_point start = Clock::now();
    auto kb = gerel::PreparedKb::LoadSnapshot(SnapshotPath(q.route),
                                              tables.back().get());
    double ms = MsBetween(start, Clock::now());
    if (span >= 0) tracer->End(span);
    total_ms += ms;
    figures_[static_cast<size_t>(q.route)].load_ms.push_back(ms);
    tally->Record(kb.ok(),
                  kb.ok() ? "" : name + " load: " + kb.status().message());
    kbs.push_back(kb.ok() ? std::move(kb).value() : nullptr);
  }
  warm_start_ms_.push_back(total_ms);
  for (size_t i = 0; i < programs_.size(); ++i) {
    if (kbs[i] != nullptr) {
      Probe(programs_[i], *kbs[i], tables[i].get(), "warm", tally);
    }
  }
}

}  // namespace perfbench
