// Conjunctive query answering over databases enriched with existential
// rules (paper §7).
//
// A knowledge-base query is (Σ ∪ {α → Q(~x)}, Q) for a weakly
// frontier-guarded Σ; the CQ rule is made weakly frontier-guarded by
// guarding its answer variables with acdom. Answering follows the paper's
// five-step procedure:
//   1. rew(Σ) — weakly frontier-guarded → weakly guarded (Thm 2),
//      skipped when Σ is already weakly guarded;
//   2. pg(rew(Σ), D) — partial grounding; the result is guarded;
//   3. dat(·) — saturation into Datalog (Thm 3);
//   4./5. bottom-up Datalog evaluation over D (our semi-naive engine
//      performs the paper's grounding implicitly).
//
// For nearly frontier-guarded theories the database-independent PTime
// route (Prop 4 + Prop 6) is provided as well.
#ifndef GEREL_TRANSFORM_PIPELINE_H_
#define GEREL_TRANSFORM_PIPELINE_H_

#include <set>
#include <vector>

#include "core/database.h"
#include "core/rule.h"
#include "core/status.h"
#include "core/symbol_table.h"
#include "core/theory.h"
#include "transform/fg_to_ng.h"
#include "transform/grounding.h"
#include "transform/saturation.h"

namespace gerel {

struct KbQueryOptions {
  ExpansionOptions expansion;
  SaturationOptions saturation;
  GroundingOptions grounding;

  // Caps the rewrite, saturation and grounding stages at `max_rules`
  // rules each; 0 keeps the defaults.
  void CapRules(size_t max_rules) {
    if (max_rules == 0) return;
    expansion.max_rules = saturation.max_rules = grounding.max_rules =
        max_rules;
  }
};

struct KbQueryResult {
  std::set<std::vector<Term>> answers;
  // False when some stage hit a cap; answers are then sound but possibly
  // incomplete.
  bool complete = true;
  size_t rewritten_rules = 0;
  size_t grounded_rules = 0;
  size_t datalog_rules = 0;
};

// Turns a conjunctive query α → Q(~x) into a weakly frontier-guarded rule
// by adding acdom(x) for each answer variable (paper §7).
Rule GuardConjunctiveQuery(const Rule& cq, SymbolTable* symbols);

// Answers (Σ ∪ {cq}, Q) over `db` via the five-step §7 procedure. Σ must
// be weakly frontier-guarded and normal (Prop 1); `cq` is the raw CQ rule
// (it is acdom-guarded internally). Returns the set of answer tuples.
Result<KbQueryResult> AnswerKbQuery(const Theory& theory, const Rule& cq,
                                    const Database& db, SymbolTable* symbols,
                                    const KbQueryOptions& options =
                                        KbQueryOptions());

// Database-independent PTime route for nearly frontier-guarded theories:
// rew (Prop 4) then dat (Prop 6) then Datalog evaluation.
Result<KbQueryResult> AnswerKbQueryNearlyFrontierGuarded(
    const Theory& theory, const Rule& cq, const Database& db,
    SymbolTable* symbols, const KbQueryOptions& options = KbQueryOptions());

}  // namespace gerel

#endif  // GEREL_TRANSFORM_PIPELINE_H_
