// Deterministic fault injection for the robustness harness.
//
// A FaultPlan names concrete failure points — "exhaust the budget when
// the chase reaches round 3", "sleep 200µs in every other worker unit",
// "truncate the snapshot payload at byte 100" — that the governed
// engines (chase, saturation, Datalog, snapshot writer) consult through
// their ExecutionBudget (core/budget.h) or directly. Plans are explicit
// and seeded by the caller, never random at the injection site, so a
// faulted run is exactly reproducible.
//
// Plans reach production code two ways: tests pass a plan into an
// ExecutionBudget or a snapshot write directly, and the GEREL_FAULT
// environment variable installs a process-global plan for CLI-level
// fault drills (parsed once; an invalid spec is reported on stderr and
// ignored).
#ifndef GEREL_CORE_FAULT_H_
#define GEREL_CORE_FAULT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/status.h"

namespace gerel {

// The governed pipeline stages, shared with DegradationReason
// (core/budget.h): which loop a budget check or fault fires in.
enum class GovernedStage : uint8_t {
  kNone = 0,
  kChase,
  kRewrite,     // fg→ng / wfg→wg expansion closures.
  kGrounding,   // pg(Σ, D).
  kSaturation,  // Ξ(Σ) closure.
  kDatalog,     // Bottom-up evaluation rounds.
  kQuery,       // Per-query join enumeration.
  kSnapshot,    // Snapshot save/load.
};

const char* GovernedStageName(GovernedStage stage);
bool ParseGovernedStage(std::string_view name, GovernedStage* out);

struct FaultPlan {
  // Force budget exhaustion when `exhaust_stage` reaches (1-based) round
  // `exhaust_round`. 0 disables.
  GovernedStage exhaust_stage = GovernedStage::kNone;
  uint64_t exhaust_round = 0;
  // Skew every `worker_delay_every`-th parallel work unit (0 disables):
  // sleep `worker_delay_us` microseconds, or yield the thread when the
  // delay is 0 (timed sleeps cost ~1ms of timer granularity on small
  // hosts; a yield perturbs lane interleaving nearly for free).
  // Exercises the determinism contract: arbitrary lane skew must never
  // change results.
  uint32_t worker_delay_us = 0;
  uint32_t worker_delay_every = 0;
  // Corrupt the next snapshot write: drop every byte from `truncate_at`
  // on, and/or XOR 0x01 into the byte at `flip_byte`. -1 disables.
  // Offsets are clamped into the written image, so any seed yields a
  // valid corruption.
  int64_t snapshot_truncate_at = -1;
  int64_t snapshot_flip_byte = -1;

  bool enabled() const {
    return exhaust_round != 0 || worker_delay_every != 0 ||
           snapshot_truncate_at >= 0 || snapshot_flip_byte >= 0;
  }

  // Parses a comma-separated spec, e.g.
  //   "exhaust=chase@3,delay-us=200,delay-every=2,snap-truncate=100,
  //    snap-flip=57"
  static Result<FaultPlan> Parse(std::string_view spec);
  std::string ToString() const;
};

// The process-global plan from GEREL_FAULT, or nullptr when the variable
// is unset or unparsable. Parsed once, thread-safe.
const FaultPlan* GlobalFaultPlan();

// Test hook: overrides GlobalFaultPlan() (nullptr restores the
// environment-derived plan). The pointee must outlive the override. Not
// thread-safe against concurrent GlobalFaultPlan callers mid-swap; tests
// install plans before spawning governed work.
void SetFaultPlanForTest(const FaultPlan* plan);

// Sleeps (or yields, when the plan's delay is 0µs) per `plan` when
// `unit` is a delay-selected work unit. Safe to call with a null plan
// (no-op). Called from the saturation lanes (transform/saturation.cc).
void MaybeInjectWorkerDelay(const FaultPlan* plan, uint64_t unit);

}  // namespace gerel

#endif  // GEREL_CORE_FAULT_H_
