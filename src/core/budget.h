// Resource governance for potentially non-terminating computations.
//
// The chase over weakly-guarded theories need not terminate, and even
// terminating runs can exceed any practical time or space envelope. An
// ExecutionBudget bounds a governed computation with a wall-clock
// deadline, an atom/term-count ceiling, and a cooperative cancel flag.
// Every governed round loop (chase rounds, saturation frontiers, the
// rewriting/grounding closures, Datalog evaluation passes) calls
// CheckRound() at round boundaries; tight inner loops call the amortized
// CheckPoint(); the saturation lanes poll the lock-free ExhaustedFast()
// between work units so they stop promptly while the deterministic merge
// still applies only completed units.
//
// Exhaustion is not an error: the governed engines stop cleanly, keep
// everything derived so far (which is sound — every derived atom is a
// certain consequence), and report a structured DegradationReason naming
// the stage and the limit that tripped. The service layer surfaces the
// reason through ServiceStats and the exit-3 "possibly incomplete" path.
#ifndef GEREL_CORE_BUDGET_H_
#define GEREL_CORE_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/fault.h"

namespace gerel {

// Which limit stopped a governed computation early.
enum class BudgetLimit : uint8_t {
  kNone = 0,    // Ran to completion.
  kDeadline,    // Wall-clock deadline passed.
  kAtoms,       // Atom/term-count ceiling reached.
  kCancelled,   // Cooperative cancellation requested.
  kSteps,       // Engine-local step cap (e.g. ChaseOptions::max_steps).
  kRules,       // Engine-local rule cap (saturation/rewriting closures).
  kFault,       // Forced by an injected FaultPlan.
  kDepth,       // Null-depth bound (ChaseOptions::max_null_depth).
};

const char* BudgetLimitName(BudgetLimit limit);

// Structured record of why (and where) a computation degraded. A default
// constructed reason means "did not degrade".
struct DegradationReason {
  GovernedStage stage = GovernedStage::kNone;
  BudgetLimit limit = BudgetLimit::kNone;
  // 1-based round/pass index at which the limit tripped; 0 when the
  // trip was not at a round boundary.
  uint64_t round = 0;

  bool degraded() const { return limit != BudgetLimit::kNone; }
  // "chase: deadline at round 7" / "none".
  std::string ToString() const;
  // {"stage":"chase","limit":"deadline","round":7} / null.
  std::string ToJson() const;
};

// User-facing knobs, kept separate from ExecutionBudget so callers can
// store them in options structs and arm a budget per operation.
struct BudgetLimits {
  // Wall-clock budget in milliseconds; <= 0 means no deadline.
  double timeout_ms = 0;
  // Ceiling on stored atoms (as reported by the governed stage); 0 means
  // no ceiling.
  uint64_t max_atoms = 0;

  bool unlimited() const { return timeout_ms <= 0 && max_atoms == 0; }
};

// A budget for one governed operation. Thread-compatible: one thread
// arms it, any number of worker threads poll ExhaustedFast()/CheckPoint()
// concurrently, and any thread may Cancel().
class ExecutionBudget {
 public:
  // An unlimited budget (still honors Cancel() and fault plans).
  ExecutionBudget() = default;
  explicit ExecutionBudget(const BudgetLimits& limits,
                           const FaultPlan* fault = nullptr) {
    Arm(limits, fault);
  }

  ExecutionBudget(const ExecutionBudget&) = delete;
  ExecutionBudget& operator=(const ExecutionBudget&) = delete;

  // Re-arms the budget for a new operation: the deadline restarts from
  // now and any recorded exhaustion is cleared. Must not race with
  // in-flight governed work.
  void Arm(const BudgetLimits& limits, const FaultPlan* fault = nullptr);

  // Requests cooperative cancellation; governed loops stop at the next
  // check with BudgetLimit::kCancelled.
  void Cancel() { cancel_.store(true, std::memory_order_relaxed); }

  // Lock-free exhaustion poll for worker lanes and per-tuple callbacks:
  // two relaxed loads, no clock sample. Becomes true only after a
  // CheckRound/CheckPoint on some thread observed a tripped limit (or
  // after Cancel()).
  bool ExhaustedFast() const {
    return exhausted_.load(std::memory_order_relaxed) ||
           cancel_.load(std::memory_order_relaxed);
  }

  // Round-boundary check: samples the clock, applies the atom ceiling to
  // `atoms`, and consults the fault plan. `round` is 1-based. Returns
  // true when the stage may continue.
  bool CheckRound(GovernedStage stage, uint64_t round, uint64_t atoms = 0);

  // Amortized inner-loop check: counts calls and samples the clock once
  // every 1024. Returns true when work may continue.
  bool CheckPoint(GovernedStage stage);

  bool exhausted() const {
    return exhausted_.load(std::memory_order_relaxed) ||
           cancel_.load(std::memory_order_relaxed);
  }
  // The first limit that tripped (sticky until re-Arm). A pure Cancel()
  // with no subsequent check reports kCancelled with stage kNone.
  DegradationReason reason() const;

  const FaultPlan* fault_plan() const { return fault_; }

 private:
  // Records the first trip; later trips are ignored.
  void Trip(GovernedStage stage, BudgetLimit limit, uint64_t round);
  bool DeadlinePassed() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  uint64_t max_atoms_ = 0;
  const FaultPlan* fault_ = nullptr;

  std::atomic<bool> cancel_{false};
  std::atomic<bool> exhausted_{false};
  std::atomic<uint32_t> ticks_{0};

  mutable std::mutex mu_;  // Guards reason_ (first-trip-wins).
  DegradationReason reason_;
};

}  // namespace gerel

#endif  // GEREL_CORE_BUDGET_H_
