// Per-knowledge-base serving counters (DESIGN.md §7).
//
// A PreparedKb maintains one ServiceStats block across its lifetime;
// PreparedKb::stats() returns a consistent snapshot. The CLI `serve`
// subcommand dumps the block on the `stats` command and at session end.
#ifndef GEREL_SERVICE_STATS_H_
#define GEREL_SERVICE_STATS_H_

#include <cstdint>
#include <string>

#include "core/budget.h"

namespace gerel {

struct ServiceStats {
  // Full pipeline compilations: the initial Prepare plus every assert
  // that had to re-run a data-dependent stage (partial grounding with a
  // grown constant domain).
  uint64_t prepares = 0;
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t asserts = 0;
  // Asserts served by the semi-naive delta path (no recompilation, no
  // re-materialization).
  uint64_t delta_asserts = 0;
  // Asserts that rebuilt the materialized model from the EDB.
  uint64_t rematerializations = 0;
  // New EDB atoms accepted by Assert (duplicates excluded).
  uint64_t asserted_atoms = 0;
  // Atoms derived by delta extensions (excludes full re-materializations).
  uint64_t delta_derived_atoms = 0;
  // Retract counters: every Retract is either served by the incremental
  // DRed path (overdelete → rederive → prune) or falls back to a full
  // re-materialization (negation strata, invalid supports, wg-mode
  // domain shrink/null, budget exhaustion mid-retract).
  uint64_t retracts = 0;
  uint64_t retracts_dred = 0;
  uint64_t retracts_rematerialized = 0;
  // EDB atoms removed by Retract.
  uint64_t retracted_atoms = 0;
  // Derived atoms overdeleted by the DRed cascade (beyond the retracted
  // seeds) and atoms the rederivation phase restored.
  uint64_t overdeleted_atoms = 0;
  uint64_t rederived_atoms = 0;
  // Cache-eviction selectivity: entries evicted by dependency-aware
  // write invalidation vs entries that survived those sweeps.
  uint64_t cache_evicted_entries = 0;
  uint64_t cache_retained_entries = 0;
  // Current sizes.
  uint64_t model_atoms = 0;
  uint64_t datalog_rules = 0;
  // Materialization plan chosen by Prepare: "datalog" (compiled
  // translation + least-model evaluation) or "chase" (certificate-driven
  // direct Skolem chase; see PreparedKbOptions::planner). Empty before
  // Prepare. The certificate string names the acyclicity-ladder verdict
  // that licensed (or refused) the chase plan ("weakly-acyclic",
  // "mfa", ...); empty when the planner did not analyze the theory.
  std::string materialization_strategy;
  std::string termination_certificate;
  // Models built by the direct chase: one per chase-mode Prepare. Writes
  // run on the Skolem program and never chase.
  uint64_t chase_materializations = 0;
  // Diagnostics reported by the Prepare pre-flight analysis (see
  // analyze/analyze.h).
  uint64_t diagnostics = 0;
  // Graceful-degradation counters: prepares/asserts whose pipeline hit a
  // budget or cap (the model is sound but possibly incomplete), and
  // queries answered with complete = false for any reason.
  uint64_t degraded_prepares = 0;
  uint64_t degraded_queries = 0;
  // Snapshot persistence counters (PreparedKb::SaveSnapshot/LoadSnapshot).
  uint64_t snapshot_saves = 0;
  uint64_t snapshot_loads = 0;
  uint64_t snapshot_load_failures = 0;
  // The most recent degradation (stage + limit + round); limit kNone when
  // nothing has degraded.
  DegradationReason last_degradation;
  // Cumulative wall times per phase.
  double prepare_wall_ms = 0.0;
  double query_wall_ms = 0.0;
  double assert_wall_ms = 0.0;
  double retract_wall_ms = 0.0;
  // Prepare-phase breakdown (cumulative across recompiles): classify =
  // normalize + classification + pre-flight analysis; transform = the §5–§7
  // pipeline (expansion, grounding, saturation, Datalog compilation);
  // materialize = model materialization. Makes the cost of each stage,
  // and any saturation speedup from pipeline.saturation.num_threads,
  // observable from `gerel serve stats`.
  double prepare_classify_wall_ms = 0.0;
  double prepare_transform_wall_ms = 0.0;
  double prepare_materialize_wall_ms = 0.0;

  // Adds `other`'s counters and wall times into this block. Used by the
  // multi-tenant registry to aggregate per-KB stats into a process
  // total: counters sum; last_degradation takes `other`'s when it is
  // degraded (latest contributor wins), otherwise keeps the current one.
  void Accumulate(const ServiceStats& other);

  // Human-readable block, one "name: value" per line.
  std::string ToString() const;
  // Single-object JSON rendering (the bench/CI format).
  std::string ToJson() const;
};

}  // namespace gerel

#endif  // GEREL_SERVICE_STATS_H_
