#include "core/budget.h"

#include <cstdio>

namespace gerel {

const char* BudgetLimitName(BudgetLimit limit) {
  switch (limit) {
    case BudgetLimit::kNone:
      return "none";
    case BudgetLimit::kDeadline:
      return "deadline";
    case BudgetLimit::kAtoms:
      return "atoms";
    case BudgetLimit::kCancelled:
      return "cancelled";
    case BudgetLimit::kSteps:
      return "steps";
    case BudgetLimit::kRules:
      return "rules";
    case BudgetLimit::kFault:
      return "fault";
    case BudgetLimit::kDepth:
      return "depth";
  }
  return "unknown";
}

std::string DegradationReason::ToString() const {
  if (!degraded()) return "none";
  std::string out = GovernedStageName(stage);
  out += ": ";
  out += BudgetLimitName(limit);
  if (round != 0) {
    out += " at round ";
    out += std::to_string(round);
  }
  return out;
}

std::string DegradationReason::ToJson() const {
  if (!degraded()) return "null";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"stage\":\"%s\",\"limit\":\"%s\",\"round\":%llu}",
                GovernedStageName(stage), BudgetLimitName(limit),
                static_cast<unsigned long long>(round));
  return buf;
}

void ExecutionBudget::Arm(const BudgetLimits& limits, const FaultPlan* fault) {
  has_deadline_ = limits.timeout_ms > 0;
  if (has_deadline_) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        limits.timeout_ms));
  }
  max_atoms_ = limits.max_atoms;
  fault_ = fault;
  cancel_.store(false, std::memory_order_relaxed);
  exhausted_.store(false, std::memory_order_relaxed);
  ticks_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  reason_ = DegradationReason{};
}

void ExecutionBudget::Trip(GovernedStage stage, BudgetLimit limit,
                           uint64_t round) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!reason_.degraded()) {
      reason_.stage = stage;
      reason_.limit = limit;
      reason_.round = round;
    }
  }
  exhausted_.store(true, std::memory_order_relaxed);
}

bool ExecutionBudget::CheckRound(GovernedStage stage, uint64_t round,
                                 uint64_t atoms) {
  if (ExhaustedFast()) {
    if (cancel_.load(std::memory_order_relaxed)) {
      Trip(stage, BudgetLimit::kCancelled, round);
    }
    return false;
  }
  if (fault_ != nullptr && fault_->exhaust_round != 0 &&
      fault_->exhaust_stage == stage && round >= fault_->exhaust_round) {
    Trip(stage, BudgetLimit::kFault, round);
    return false;
  }
  if (max_atoms_ != 0 && atoms > max_atoms_) {
    Trip(stage, BudgetLimit::kAtoms, round);
    return false;
  }
  if (DeadlinePassed()) {
    Trip(stage, BudgetLimit::kDeadline, round);
    return false;
  }
  return true;
}

bool ExecutionBudget::CheckPoint(GovernedStage stage) {
  if (ExhaustedFast()) {
    if (cancel_.load(std::memory_order_relaxed)) {
      Trip(stage, BudgetLimit::kCancelled, 0);
    }
    return false;
  }
  // Sample the clock only once every 1024 calls: a steady_clock read is
  // tens of nanoseconds, which would dominate tight trigger loops.
  if ((ticks_.fetch_add(1, std::memory_order_relaxed) & 1023u) != 0) {
    return true;
  }
  if (DeadlinePassed()) {
    Trip(stage, BudgetLimit::kDeadline, 0);
    return false;
  }
  return true;
}

DegradationReason ExecutionBudget::reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (reason_.degraded()) return reason_;
  if (cancel_.load(std::memory_order_relaxed)) {
    DegradationReason r;
    r.limit = BudgetLimit::kCancelled;
    return r;
  }
  return reason_;
}

}  // namespace gerel
