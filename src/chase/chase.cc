#include "chase/chase.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/check.h"
#include "core/join_plan.h"
#include "core/substitution.h"

namespace gerel {

namespace {

// Delta atoms per enumeration unit. The per-unit step cap truncates at
// unit boundaries, so this constant is part of what a capped run
// derives.
constexpr size_t kDeltaChunk = 1024;

// A fired-trigger key: rule index plus the key variables' images, packed.
struct TriggerKey {
  std::vector<uint32_t> data;
  friend bool operator==(const TriggerKey& a, const TriggerKey& b) {
    return a.data == b.data;
  }
};

struct TriggerKeyHash {
  size_t operator()(const TriggerKey& k) const {
    size_t h = 0xC0FFEE;
    for (uint32_t v : k.data) {
      h ^= static_cast<size_t>(v) + 0x9E3779B97F4A7C15ull + (h << 6) +
           (h >> 2);
    }
    return h;
  }
};

struct PreparedRule {
  std::vector<Atom> body;
  std::vector<Atom> head;
  std::vector<Term> uvars;
  std::vector<Term> evars;
  std::vector<Term> fvars;
  // fvars as indices into uvars (the frontier is a subset of the
  // universals), for semi-oblivious trigger keys over image records.
  std::vector<uint32_t> fvar_slots;
  // plans[j] compiles the whole body with atom j pinned as level 0, to
  // be matched only against a delta atom (ExecuteSeeded). Compiled once;
  // the per-round `rest` pattern construction of the interpreted matcher
  // is gone.
  std::vector<JoinPlan> plans;
};

// The chase engine. Each round is two phases:
//
//  1. Enumeration — the round's triggers are enumerated against the
//     database as it stood at the round's start, [0, delta_end). The
//     work is split into units (rule, pinned body position, delta
//     chunk); each unit records the universal-variable images of its
//     matches into its own buffer. Nothing is inserted and no fresh
//     nulls are minted.
//
//  2. Merge — in unit order: dedup against the fired-trigger set, the
//     depth check, fresh-null creation, and head insertion.
//     Postings for the round's new atoms are then built before the next
//     round reads them.
class ChaseEngine {
 public:
  ChaseEngine(const Theory& theory, const Database& input,
              SymbolTable* symbols, const ChaseOptions& options)
      : symbols_(symbols), options_(options) {
    GEREL_CHECK(!theory.HasNegation());
    for (const Rule& r : theory.rules()) {
      PreparedRule p;
      p.body = r.PositiveBody();
      p.head = r.head;
      p.uvars = r.UVars();
      p.evars = r.EVars();
      p.fvars = r.FVars();
      for (Term f : p.fvars) {
        auto it = std::find(p.uvars.begin(), p.uvars.end(), f);
        GEREL_CHECK(it != p.uvars.end());
        p.fvar_slots.push_back(
            static_cast<uint32_t>(it - p.uvars.begin()));
      }
      p.plans.reserve(p.body.size());
      for (size_t j = 0; j < p.body.size(); ++j) {
        p.plans.emplace_back(p.body, std::vector<Term>(),
                             static_cast<int>(j));
      }
      rules_.push_back(std::move(p));
    }
    result_.database = input;
    if (options.populate_acdom) {
      PopulateAcdom(theory, symbols, &result_.database);
    }
  }

  ChaseResult Run() {
    size_t delta_begin = 0;
    bool first_round = true;
    uint64_t round = 0;
    while (true) {
      ++round;
      // Round-boundary budget check: deterministic for a given fault
      // plan / atom ceiling.
      if (options_.budget != nullptr &&
          !options_.budget->CheckRound(GovernedStage::kChase, round,
                                       result_.database.size())) {
        result_.saturated = false;
        break;
      }
      size_t delta_end = result_.database.size();
      BuildUnits(delta_begin, delta_end);
      Enumerate();
      bool limited = MergeRound(first_round);
      // Build postings for the atoms this round's merge appended; the
      // next round's enumeration (and any post-run AtomsOf) reads them.
      result_.database.IndexNewAtoms();
      first_round = false;
      if (limited) {
        result_.saturated = false;
        break;
      }
      if (result_.database.size() == delta_end) {
        // Nothing was added this round: every remaining trigger has
        // already fired, so this is a fixpoint (unless depth-limited
        // triggers were skipped, in which case the true chase continues).
        result_.saturated = !skipped_depth_limited_;
        if (skipped_depth_limited_) cap_limit_ = BudgetLimit::kDepth;
        break;
      }
      // The next round's delta is everything added this round.
      delta_begin = delta_end;
    }
    if (!result_.saturated) {
      if (options_.budget != nullptr && options_.budget->exhausted()) {
        result_.degradation = options_.budget->reason();
      } else {
        // Engine-local caps (max_steps/max_atoms/max_null_depth or a
        // unit the step cap truncated) stopped the run.
        result_.degradation.stage = GovernedStage::kChase;
        result_.degradation.limit = cap_limit_ != BudgetLimit::kNone
                                        ? cap_limit_
                                        : BudgetLimit::kSteps;
        result_.degradation.round = round;
      }
    }
    return std::move(result_);
  }

 private:
  // One enumeration unit: body atom `j` of rule `ri`, seeded from the
  // delta atoms [begin, end).
  struct Unit {
    uint32_t ri = 0;
    uint32_t j = 0;
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  // One trigger record: the images of the rule's uvars, in uvar order.
  struct TriggerRec {
    std::vector<Term> images;
  };

  void BuildUnits(size_t delta_begin, size_t delta_end) {
    units_.clear();
    for (uint32_t ri = 0; ri < rules_.size(); ++ri) {
      const PreparedRule& rule = rules_[ri];
      for (uint32_t j = 0; j < rule.body.size(); ++j) {
        for (size_t b = delta_begin; b < delta_end; b += kDeltaChunk) {
          units_.push_back(Unit{ri, j, static_cast<uint32_t>(b),
                                static_cast<uint32_t>(
                                    std::min(b + kDeltaChunk, delta_end))});
        }
      }
    }
    unit_triggers_.clear();
    unit_triggers_.resize(units_.size());
  }

  void Enumerate() {
    // Per-unit emission cap: with a step bound, no unit can contribute
    // more firings than the bound allows, so runaway joins stop early.
    size_t cap = options_.max_steps != 0
                     ? options_.max_steps + 1
                     : std::numeric_limits<size_t>::max();
    ExecutionBudget* budget = options_.budget;
    const Database& db = result_.database;
    for (size_t ui = 0; ui < units_.size(); ++ui) {
      // A tripped budget skips the remaining units; the merge then
      // replays only what was recorded.
      if (budget != nullptr && budget->exhausted()) {
        truncated_units_ = true;
        return;
      }
      const Unit& u = units_[ui];
      const PreparedRule& rule = rules_[u.ri];
      std::vector<TriggerRec>& out = unit_triggers_[ui];
      bool stopped = false;
      auto fire = [&](const JoinExecutor& e) {
        if (budget != nullptr &&
            !budget->CheckPoint(GovernedStage::kChase)) {
          stopped = true;
          return false;
        }
        TriggerRec rec;
        rec.images.reserve(rule.uvars.size());
        for (Term v : rule.uvars) rec.images.push_back(e.Value(v));
        out.push_back(std::move(rec));
        return out.size() < cap;
      };
      RelationId pred = rule.body[u.j].pred;
      for (size_t ai = u.begin; ai < u.end && out.size() < cap && !stopped;
           ++ai) {
        if (db.atom(ai).pred != pred) continue;
        exec_.ExecuteSeeded(rule.plans[u.j], db, db.atom(ai), fire,
                            /*db_grows=*/false);
      }
      if (out.size() >= cap || stopped) truncated_units_ = true;
    }
  }

  // Replays the round's trigger stream in deterministic order. Returns
  // true iff a limit stopped the merge (or truncated enumeration made
  // the stream incomplete). Buffered head atoms are always flushed
  // before returning, so callers observe the true database size.
  bool MergeRound(bool first_round) {
    bool limited = ReplayRound(first_round);
    FlushPending();
    return limited;
  }

  bool ReplayRound(bool first_round) {
    size_t ui = 0;
    for (uint32_t ri = 0; ri < rules_.size(); ++ri) {
      const PreparedRule& rule = rules_[ri];
      if (rule.body.empty()) {
        if (first_round) {
          if (LimitReached()) return true;
          Fire(ri, {});
        }
        continue;
      }
      for (; ui < units_.size() && units_[ui].ri == ri; ++ui) {
        for (const TriggerRec& rec : unit_triggers_[ui]) {
          if (LimitReached()) return true;
          Fire(ri, rec.images);
        }
      }
    }
    // A truncated unit means some of the round's triggers were never
    // recorded; the result is a bounded prefix, not a fixpoint.
    return LimitReached() || truncated_units_;
  }

  bool LimitReached() {
    if (options_.max_steps != 0 && result_.steps >= options_.max_steps) {
      cap_limit_ = BudgetLimit::kSteps;
      return true;
    }
    if (options_.max_atoms != 0 &&
        result_.database.size() + pending_atoms_.size() >=
            options_.max_atoms) {
      // The pending buffer over-approximates growth (it may hold
      // duplicates), so flush it and re-test against the exact size —
      // the stop decision ends up identical to per-trigger inserts.
      FlushPending();
      if (result_.database.size() >= options_.max_atoms) {
        cap_limit_ = BudgetLimit::kAtoms;
        return true;
      }
    }
    // Amortized deadline/cancel check while the merge replays a
    // (possibly huge) trigger stream.
    if (options_.budget != nullptr &&
        !options_.budget->CheckPoint(GovernedStage::kChase))
      return true;
    return false;
  }

  uint32_t TermDepth(Term t) const {
    if (!t.IsNull()) return 0;
    auto it = null_depth_.find(t.id());
    return it == null_depth_.end() ? 0 : it->second;
  }

  // Fires the trigger (rule ri, uvars ↦ images) if it has not fired
  // before. Returns true iff it fired.
  bool Fire(uint32_t ri, const std::vector<Term>& images) {
    const PreparedRule& rule = rules_[ri];
    TriggerKey key;
    if (options_.semi_oblivious) {
      key.data.reserve(rule.fvar_slots.size() + 1);
      key.data.push_back(ri);
      for (uint32_t s : rule.fvar_slots) key.data.push_back(images[s].bits());
    } else {
      key.data.reserve(images.size() + 1);
      key.data.push_back(ri);
      for (Term t : images) key.data.push_back(t.bits());
    }
    if (!fired_.insert(key).second) return false;
    // Null-depth bound: skip triggers that would create too-deep nulls.
    if (!rule.evars.empty() && options_.max_null_depth != 0) {
      uint32_t depth = 0;
      for (Term t : images) depth = std::max(depth, TermDepth(t));
      if (depth + 1 > options_.max_null_depth) {
        fired_.erase(key);  // The real chase still owes this trigger.
        skipped_depth_limited_ = true;
        return false;
      }
    }
    Substitution full;
    for (size_t i = 0; i < rule.uvars.size(); ++i) {
      full.Bind(rule.uvars[i], images[i]);
    }
    uint32_t new_depth = 1;
    for (Term t : images) {
      new_depth = std::max(new_depth, TermDepth(t) + 1);
    }
    for (Term e : rule.evars) {
      Term null = symbols_->FreshNull();
      null_depth_[null.id()] = new_depth;
      full.Bind(e, null);
    }
    ++result_.steps;
    std::vector<Term> frontier_image;
    frontier_image.reserve(rule.fvar_slots.size());
    for (uint32_t s : rule.fvar_slots) frontier_image.push_back(images[s]);
    for (const Atom& ha : rule.head) {
      pending_atoms_.push_back(
          PendingAtom{full.Apply(ha), ri, frontier_image});
    }
    return true;
  }

  // Inserts the buffered head atoms in candidate order and records a
  // derivation step for each one that was new.
  void FlushPending() {
    for (PendingAtom& p : pending_atoms_) {
      if (result_.database.InsertDeferIndex(p.atom)) {
        result_.derivation.push_back(
            ChaseStep{p.ri, std::move(p.atom), std::move(p.frontier)});
      }
    }
    pending_atoms_.clear();
  }

  SymbolTable* symbols_;
  ChaseOptions options_;
  std::vector<PreparedRule> rules_;
  JoinExecutor exec_;
  std::vector<Unit> units_;
  std::vector<std::vector<TriggerRec>> unit_triggers_;
  ChaseResult result_;
  // The merge's head-atom candidates, awaiting the flush.
  struct PendingAtom {
    Atom atom;
    uint32_t ri = 0;
    std::vector<Term> frontier;
  };
  std::vector<PendingAtom> pending_atoms_;
  std::unordered_set<TriggerKey, TriggerKeyHash> fired_;
  std::unordered_map<uint32_t, uint32_t> null_depth_;
  bool skipped_depth_limited_ = false;
  // Which engine-local cap (steps/atoms/depth) tripped, for the
  // degradation record; kNone when only the budget or a truncated unit
  // stopped us.
  BudgetLimit cap_limit_ = BudgetLimit::kNone;
  bool truncated_units_ = false;
};

}  // namespace

ChaseResult Chase(const Theory& theory, const Database& input,
                  SymbolTable* symbols, const ChaseOptions& options) {
  ChaseEngine engine(theory, input, symbols, options);
  return engine.Run();
}

std::set<std::vector<Term>> ChaseAnswers(const Theory& theory,
                                         const Database& input,
                                         RelationId output,
                                         SymbolTable* symbols,
                                         const ChaseOptions& options) {
  ChaseResult r = Chase(theory, input, symbols, options);
  std::set<std::vector<Term>> answers;
  for (uint32_t ai : r.database.AtomsOf(output)) {
    const Atom& a = r.database.atom(ai);
    if (a.IsGroundOverConstants()) answers.insert(a.args);
  }
  return answers;
}

}  // namespace gerel
