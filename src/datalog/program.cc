#include "datalog/program.h"

#include <algorithm>
#include <unordered_map>

#include "core/check.h"
#include "core/join_plan.h"

namespace gerel {

namespace {

struct TermsHash {
  size_t operator()(const std::vector<Term>& ts) const {
    size_t h = 0xC0FFEE;
    for (Term t : ts) {
      h ^= TermHash()(t) + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    }
    return h;
  }
};

// One existential rule's share of the Skolem table: frontier image
// (FVars() order) -> nulls (EVars() order).
struct SkolemRule {
  std::vector<Term> fvars;
  size_t num_evars = 0;
  std::unordered_map<std::vector<Term>, std::vector<Term>, TermsHash> nulls;
};

// Evaluation of one rule given a delta window [delta_begin, delta_end) of
// the database; negative literals are checked against the full database
// (sound because their relations are fully computed in lower strata).
//
// All join plans are compiled once at construction: one plan over the
// whole positive body for naive/first rounds, and one per body-atom
// position j for semi-naive rounds, with atom j pinned as level 0 and
// matched only against delta atoms. Heads and negated atoms are compiled
// against each plan's slots, so firing a match is a slot lookup per term
// rather than a hash-map substitution.
class RuleEvaluator {
 public:
  // `rule_id` is the rule's index in the backing theory, recorded into
  // the optional SupportLog so retraction can rerun the rule later. An
  // existential rule passes its share of the Skolem table and the
  // symbol table its nulls are minted from; a Datalog rule passes null.
  RuleEvaluator(const Rule& rule, uint32_t rule_id, SkolemRule* skolem,
                SymbolTable* symbols)
      : rule_(&rule), rule_id_(rule_id), skolem_(skolem), symbols_(symbols) {
    for (const Literal& l : rule.body) {
      (l.negated ? negatives_ : positives_).push_back(l.atom);
    }
    // All plans compile on first use: translated programs carry hundreds
    // of rules whose body relations stay empty, and those never need one.
    seeded_.resize(positives_.size());
    if (skolem_ != nullptr) {
      // Where each head atom holds an existential variable: (flattened
      // position, index into EVars()).
      std::vector<Term> evars = rule.EVars();
      for (const Atom& h : rule.head) {
        std::vector<std::pair<uint32_t, uint32_t>> at;
        std::vector<Term> terms = h.AllTerms();
        for (uint32_t p = 0; p < terms.size(); ++p) {
          for (uint32_t k = 0; k < evars.size(); ++k) {
            if (terms[p] == evars[k]) at.emplace_back(p, k);
          }
        }
        evar_positions_.push_back(std::move(at));
      }
    }
  }

  // Fires the rule for every homomorphism with at least one positive atom
  // in the delta window. Heads are inserted into *db as they are derived
  // and become visible to the rest of the enumeration. Returns the
  // number of new atoms inserted. With `slog` set, every inserted atom
  // records a derivation support (matched positive body atom indices).
  size_t Evaluate(Database* db, size_t delta_begin, size_t delta_end,
                  bool restrict_to_delta, ExecutionBudget* budget,
                  SupportLog* slog) {
    return skolem_ == nullptr
               ? Run<false>(db, delta_begin, delta_end, restrict_to_delta,
                            budget, slog)
               : Run<true>(db, delta_begin, delta_end, restrict_to_delta,
                           budget, slog);
  }

  // DRed's rederivation through head atom `hi`: whether a match of the
  // positive body in `db` derives exactly the ground `goal`. The head's
  // variables take the goal's values; a Skolem head's existential
  // positions must hold the nulls the table gives the frontier image,
  // and a miss rules the head out before any join. On success `*body`
  // receives the first witness's matched atom indices.
  bool Rederive(const Database& db, const Atom& goal, size_t hi,
                std::vector<uint32_t>* body) {
    const Atom& head = rule_->head[hi];
    if (head.args.size() != goal.args.size() ||
        head.annotation.size() != goal.annotation.size()) {
      return false;
    }
    if (rederive_ == nullptr) {
      rederive_ = std::make_unique<JoinPlan>(positives_, rule_->FVars());
    }
    const JoinPlan& plan = *rederive_;
    exec_.Reset(plan);
    // Unify the head with the goal: a variable binds at its first
    // occurrence and must repeat its value later; an existential one has
    // no slot in the plan, so Bind ignores it.
    for (size_t p = 0; p < goal.arity(); ++p) {
      Term v = exec_.Value(head.TermAt(p));
      if (v.IsVariable()) {
        exec_.Bind(v, goal.TermAt(p));
      } else if (v != goal.TermAt(p)) {
        return false;
      }
    }
    if (skolem_ != nullptr) {
      frontier_.clear();
      for (Term v : skolem_->fvars) frontier_.push_back(exec_.Value(v));
      auto it = skolem_->nulls.find(frontier_);
      if (it == skolem_->nulls.end()) return false;
      for (auto [pos, k] : evar_positions_[hi]) {
        if (goal.TermAt(pos) != it->second[k]) return false;
      }
    }
    bool found = false;
    exec_.Execute(
        plan, db,
        [&](const JoinExecutor& e) {
          *body = e.MatchedAtomIndices();
          found = true;
          return false;  // The first witness suffices.
        },
        /*db_grows=*/false);
    return found;
  }

  // Returns the counters accumulated since the last call and resets them
  // (the program keeps evaluators alive across passes and maintains its
  // own cumulative totals).
  RuleStats TakeStats() {
    RuleStats out = stats_;
    stats_ = RuleStats();
    return out;
  }

 private:
  struct CompiledRule {
    JoinPlan plan;
    std::vector<CompiledAtom> heads;
    std::vector<CompiledAtom> negatives;
    bool ready = false;
  };

  // Evaluate's body. The existential-rule steps are compiled out of the
  // Datalog instantiation, so Datalog rules run no Skolem code at all.
  template <bool kSkolem>
  size_t Run(Database* db, size_t delta_begin, size_t delta_end,
             bool restrict_to_delta, ExecutionBudget* budget,
             SupportLog* slog) {
    size_t added = 0;
    const CompiledRule* firing = nullptr;
    auto fire = [&](const JoinExecutor& e) {
      // Amortized deadline/cancel check inside (possibly huge) joins.
      // Stopping mid-rule is sound: everything inserted so far is a
      // certain consequence.
      if (budget != nullptr &&
          !budget->CheckPoint(GovernedStage::kDatalog)) {
        return false;
      }
      ++stats_.matches;
      for (const CompiledAtom& neg : firing->negatives) {
        Atom ground = e.Apply(neg);
        GEREL_CHECK(ground.IsDatabaseAtom());  // Safety guarantees this.
        if (db->Contains(ground)) return true;  // Blocked; keep enumerating.
      }
      [[maybe_unused]] const std::vector<Term>* nulls = nullptr;
      if constexpr (kSkolem) nulls = &SkolemNulls(e);
      for (const CompiledAtom& head : firing->heads) {
        Atom derived = e.Apply(head);
        if constexpr (kSkolem) {
          for (auto [pos, k] : evar_positions_[&head - firing->heads.data()]) {
            derived.TermAt(pos) = (*nulls)[k];
          }
        }
        GEREL_CHECK(derived.IsDatabaseAtom());
        if (db->Insert(derived)) {
          ++added;
          ++stats_.derived;
          if (slog != nullptr) {
            const std::vector<uint32_t>& body = e.MatchedAtomIndices();
            slog->Record(db->size() - 1, rule_id_, body.data(), body.size());
          }
        }
      }
      return true;
    };
    if (!restrict_to_delta || positives_.empty()) {
      // A positive conjunctive body cannot match if any body relation has
      // no atoms at all; skip before paying for plan compilation.
      for (const Atom& a : positives_) {
        if (db->AtomsOf(a.pred).empty()) return 0;
      }
      if (!full_.ready) Compile(*rule_, &full_, /*pinned_first=*/-1);
      // An empty positive body compiles to a zero-level plan, which
      // visits exactly one (empty) match — the fact-rule case.
      firing = &full_;
      exec_.Reset(full_.plan);
      exec_.Execute(full_.plan, *db, fire, /*db_grows=*/true);
      return added;
    }
    for (size_t j = 0; j < positives_.size(); ++j) {
      RelationId pred = positives_[j].pred;
      for (size_t ai = delta_begin; ai < delta_end; ++ai) {
        if (db->atom(ai).pred != pred) continue;
        if (!seeded_[j].ready) {
          Compile(*rule_, &seeded_[j], static_cast<int>(j));
        }
        firing = &seeded_[j];
        // ExecuteSeeded matches plan level 0 (body atom j) against the
        // delta atom only; repeated-variable mismatches visit nothing.
        exec_.ExecuteSeeded(seeded_[j].plan, *db, db->atom(ai), fire,
                            /*db_grows=*/true, static_cast<uint32_t>(ai));
      }
    }
    return added;
  }

  // The nulls of the current firing: the Skolem table's entry for its
  // frontier image, minted on first sight.
  const std::vector<Term>& SkolemNulls(const JoinExecutor& e) {
    frontier_.clear();
    for (Term v : skolem_->fvars) frontier_.push_back(e.Value(v));
    auto it = skolem_->nulls.find(frontier_);
    if (it != skolem_->nulls.end()) return it->second;
    std::vector<Term> minted;
    minted.reserve(skolem_->num_evars);
    for (size_t k = 0; k < skolem_->num_evars; ++k) {
      minted.push_back(symbols_->FreshNull());
    }
    return skolem_->nulls.emplace(frontier_, std::move(minted)).first->second;
  }

  void Compile(const Rule& rule, CompiledRule* out, int pinned_first) {
    out->ready = true;
    out->plan.Recompile(positives_, {}, pinned_first);
    out->heads.reserve(rule.head.size());
    for (const Atom& a : rule.head) out->heads.push_back(out->plan.Compile(a));
    out->negatives.reserve(negatives_.size());
    for (const Atom& a : negatives_) {
      out->negatives.push_back(out->plan.Compile(a));
    }
  }

  const Rule* rule_;  // Backing theory rule; outlives the evaluator.
  uint32_t rule_id_ = 0;
  SkolemRule* skolem_ = nullptr;  // Owned by the program; null for Datalog.
  SymbolTable* symbols_ = nullptr;
  // Existential rules: per head atom, (position, evar index) pairs.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> evar_positions_;
  std::vector<Term> frontier_;  // Lookup scratch.
  std::vector<Atom> positives_;
  std::vector<Atom> negatives_;
  CompiledRule full_;
  std::vector<CompiledRule> seeded_;  // One per pinned body-atom position.
  // Rederive's plan: the positive body with the frontier pre-bound.
  std::unique_ptr<JoinPlan> rederive_;  // Compiled on first use.
  JoinExecutor exec_;
  RuleStats stats_;
};

}  // namespace

struct DatalogProgram::Rep {
  Theory theory;
  SymbolTable* symbols = nullptr;
  DatalogOptions options;
  Stratification strat;
  bool has_negation = false;
  std::vector<RuleStats> rule_stats;               // Cumulative.
  // The Skolem table, per rule index; null for Datalog rules. Evaluators
  // point into it, and it persists across passes.
  std::vector<std::unique_ptr<SkolemRule>> skolem;
  std::vector<std::vector<RuleEvaluator>> strata;  // Evaluators per stratum.
  // Each rule's evaluator, by rule index, and per head relation the
  // (rule, head atom) pairs that derive it, in rule order: where
  // rederivation looks for a goal.
  std::vector<RuleEvaluator*> evaluator_of;
  std::unordered_map<RelationId, std::vector<std::pair<uint32_t, uint32_t>>>
      heads_of;
  // Whether options.support_log licenses Retract (program.h).
  bool log_valid = false;

  // Runs all strata over *db. For a full pass the first round of each
  // stratum scans the whole database; for an incremental pass every
  // stratum starts semi-naive from [delta_begin, db->size()).
  EvalPassStats RunPass(Database* db, bool incremental, size_t delta_begin);
};

EvalPassStats DatalogProgram::Rep::RunPass(Database* db, bool incremental,
                                           size_t delta_begin) {
  EvalPassStats pass;
  size_t initial = db->size();
  ExecutionBudget* budget = options.budget;
  SupportLog* slog = options.support_log;
  for (size_t si = 0; si < strat.strata.size() && pass.complete; ++si) {
    const std::vector<uint32_t>& stratum = strat.strata[si];
    std::vector<RuleEvaluator>& evaluators = strata[si];
    size_t win_begin = incremental ? delta_begin : 0;
    bool first_round = true;
    while (true) {
      // Round-boundary budget check (pass-global round index, so a
      // fault plan's "exhaust at round r" is stratum-independent).
      if (budget != nullptr &&
          !budget->CheckRound(GovernedStage::kDatalog, pass.rounds + 1,
                              db->size())) {
        pass.complete = false;
        break;
      }
      size_t delta_end = db->size();
      size_t added = 0;
      bool restrict =
          incremental || (options.seminaive && !first_round);
      // In the first round of a full pass the whole database is "new"
      // from this stratum's perspective; in an incremental pass only the
      // delta window is.
      size_t begin = restrict ? win_begin : 0;
      for (RuleEvaluator& ev : evaluators) {
        added += ev.Evaluate(db, begin, delta_end, restrict, budget, slog);
      }
      ++pass.rounds;
      first_round = false;
      if (budget != nullptr && budget->exhausted()) pass.complete = false;
      if (!pass.complete || added == 0) break;
      win_begin = delta_end;
    }
    for (size_t k = 0; k < evaluators.size(); ++k) {
      RuleStats taken = evaluators[k].TakeStats();
      rule_stats[stratum[k]].matches += taken.matches;
      rule_stats[stratum[k]].derived += taken.derived;
    }
  }
  if (!pass.complete && budget != nullptr) {
    pass.degradation = budget->reason();
  }
  pass.derived_atoms = db->size() - initial;
  return pass;
}

Result<DatalogProgram> DatalogProgram::Compile(Theory theory,
                                               SymbolTable* symbols,
                                               const DatalogOptions& options) {
  const bool has_negation = theory.HasNegation();
  std::vector<std::unique_ptr<SkolemRule>> skolem(theory.rules().size());
  for (size_t ri = 0; ri < theory.rules().size(); ++ri) {
    const Rule& rule = theory.rules()[ri];
    Status s = rule.Validate(*symbols);
    if (!s.ok()) return s;
    std::vector<Term> evars = rule.EVars();
    if (evars.empty()) continue;
    // The Skolem reading is the semi-oblivious chase, which is
    // negation-free (chase.h): nothing certifies a model that mixes both.
    if (has_negation) {
      return Status::Error(
          "existential rules require a negation-free program");
    }
    skolem[ri] = std::make_unique<SkolemRule>();
    skolem[ri]->fvars = rule.FVars();
    skolem[ri]->num_evars = evars.size();
  }
  Result<Stratification> strat = Stratify(theory);
  if (!strat.ok()) return strat.status();

  auto rep = std::make_unique<Rep>();
  rep->theory = std::move(theory);
  rep->symbols = symbols;
  rep->options = options;
  rep->strat = std::move(strat).value();
  rep->has_negation = has_negation;
  rep->rule_stats.resize(rep->theory.rules().size());
  rep->skolem = std::move(skolem);
  rep->strata.reserve(rep->strat.strata.size());
  rep->evaluator_of.resize(rep->theory.rules().size());
  for (const std::vector<uint32_t>& stratum : rep->strat.strata) {
    std::vector<RuleEvaluator> evaluators;
    evaluators.reserve(stratum.size());
    for (uint32_t ri : stratum) {
      evaluators.emplace_back(rep->theory.rules()[ri], ri,
                              rep->skolem[ri].get(), symbols);
    }
    for (size_t k = 0; k < stratum.size(); ++k) {
      rep->evaluator_of[stratum[k]] = &evaluators[k];
    }
    rep->strata.push_back(std::move(evaluators));  // Keeps the addresses.
  }
  for (uint32_t ri = 0; ri < rep->theory.rules().size(); ++ri) {
    const std::vector<Atom>& head = rep->theory.rules()[ri].head;
    for (uint32_t hi = 0; hi < head.size(); ++hi) {
      rep->heads_of[head[hi].pred].emplace_back(ri, hi);
    }
  }
  return DatalogProgram(std::move(rep));
}

DatalogProgram::DatalogProgram(std::unique_ptr<Rep> rep)
    : rep_(std::move(rep)) {}
DatalogProgram::DatalogProgram(DatalogProgram&&) noexcept = default;
DatalogProgram& DatalogProgram::operator=(DatalogProgram&&) noexcept = default;
DatalogProgram::~DatalogProgram() = default;

Result<EvalPassStats> DatalogProgram::Materialize(Database* db) {
  // A full pass recomputes the fixpoint from the caller's base atoms;
  // any supports from a previous life of the database are stale.
  SupportLog* slog = rep_->options.support_log;
  if (slog != nullptr) slog->Clear();
  if (rep_->options.populate_acdom) {
    PopulateAcdom(rep_->theory, rep_->symbols, db);
  }
  EvalPassStats pass =
      rep_->RunPass(db, /*incremental=*/false, /*delta_begin=*/0);
  // The log licenses DRed only over a complete negation-free fixpoint: a
  // truncated pass may have skipped derivations whose absence a later
  // overdelete would misread.
  rep_->log_valid = slog != nullptr && !rep_->has_negation && pass.complete;
  return pass;
}

Result<EvalPassStats> DatalogProgram::ExtendWithDelta(Database* db,
                                                      size_t delta_begin) {
  if (rep_->has_negation) {
    return Status::Error(
        "ExtendWithDelta requires a negation-free program (new facts can "
        "invalidate derivations made through negation; re-Materialize)");
  }
  GEREL_CHECK(delta_begin <= db->size());
  EvalPassStats pass = rep_->RunPass(db, /*incremental=*/true, delta_begin);
  if (!pass.complete) rep_->log_valid = false;
  return pass;
}

RetractPassStats DatalogProgram::Retract(Database* db, const Database& base,
                                         const std::vector<Atom>& seeds) {
  if (!rep_->log_valid) return {};
  // Until this retract completes, *db and the log may be partly pruned.
  rep_->log_valid = false;
  SupportLog& log = *rep_->options.support_log;
  ExecutionBudget* budget = rep_->options.budget;
  auto round_ok = [&](uint64_t round, size_t atoms) {
    return budget == nullptr ||
           budget->CheckRound(GovernedStage::kDatalog, round, atoms);
  };
  auto point_ok = [&] {
    return budget == nullptr || budget->CheckPoint(GovernedStage::kDatalog);
  };
  const size_t n = db->size();
  std::vector<uint8_t> deleted(n, 0);
  size_t lowest_seed = n;
  size_t total_deleted = 0;
  for (const Atom& a : seeds) {
    int64_t i = db->Find(a);
    if (i < 0 || deleted[i]) continue;
    deleted[i] = 1;
    ++total_deleted;
    lowest_seed = std::min(lowest_seed, static_cast<size_t>(i));
  }
  const size_t seeded = total_deleted;

  // Overdelete: one forward pass from the lowest seed suffices because
  // supports are well-founded — every recorded body index precedes the
  // derived atom's index, so no atom below the lowest seed loses its
  // witness, and deleted[] is final for all support members by the time
  // atom i is visited.
  if (!round_ok(1, n)) return {};
  for (size_t i = lowest_seed; i < n; ++i) {
    if (deleted[i]) continue;
    if (!point_ok()) return {};
    SupportLog::Entry e = log.Of(i);
    if (e.rule == SupportLog::kNoRule) continue;  // Base fact.
    bool dead = false;
    for (uint32_t p = e.begin; p < e.end && !dead; ++p) {
      dead = deleted[log.pool[p]] != 0;
    }
    // An atom that is still a base fact survives its lost witness.
    if (!dead || base.Contains(db->atom(i))) continue;
    deleted[i] = 1;
    ++total_deleted;
  }
  RetractPassStats out;
  out.overdeleted_atoms = total_deleted - seeded;

  // Prune in place, after copying the candidates out. Survivors keep
  // their order; a surviving atom whose witness cites a deleted atom is
  // exactly the base-fact case above and becomes a base entry.
  std::vector<Atom> candidates;
  candidates.reserve(total_deleted);
  for (size_t i = lowest_seed; i < n; ++i) {
    if (deleted[i]) candidates.push_back(db->atom(i));
  }
  std::vector<uint32_t> remap;
  size_t first = db->Erase(deleted, &remap);
  log.Compact(first, remap);

  // Rederive: an overdeleted atom may still be entailed by the pruned
  // model (a second derivation the single-witness log did not record, or
  // via atoms rederived this round). Each round tries every candidate
  // not yet restored against the rules whose heads unify with it, until
  // a round restores nothing. This converges to exactly the least model
  // of `base`: every candidate is in the old model, so no new atoms can
  // appear, and any entailed candidate is eventually restored once its
  // body atoms are. Restored atoms are appended in candidate order.
  std::vector<char> restored(candidates.size(), 0);
  std::vector<uint32_t> body;
  auto rederive = [&](const Atom& goal, uint32_t* rule) {
    auto it = rep_->heads_of.find(goal.pred);
    if (it == rep_->heads_of.end()) return false;
    for (auto [ri, hi] : it->second) {
      *rule = ri;
      if (rep_->evaluator_of[ri]->Rederive(*db, goal, hi, &body)) return true;
    }
    return false;
  };
  uint64_t round = 1;
  bool progress = true;
  while (progress) {
    progress = false;
    if (!round_ok(++round, db->size())) return {};
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      if (restored[ci]) continue;
      if (!point_ok()) return {};
      uint32_t rule = 0;
      if (!rederive(candidates[ci], &rule)) continue;
      db->Insert(candidates[ci]);
      log.Record(db->size() - 1, rule, body.data(), body.size());
      restored[ci] = 1;
      ++out.rederived_atoms;
      progress = true;
    }
  }
  rep_->log_valid = true;
  out.applied = true;
  return out;
}

const Theory& DatalogProgram::theory() const { return rep_->theory; }
const Stratification& DatalogProgram::stratification() const {
  return rep_->strat;
}
const DatalogOptions& DatalogProgram::options() const { return rep_->options; }
bool DatalogProgram::has_negation() const { return rep_->has_negation; }
const std::vector<RuleStats>& DatalogProgram::rule_stats() const {
  return rep_->rule_stats;
}

Status DatalogProgram::SeedSkolem(uint32_t rule, std::vector<Term> frontier,
                                  std::vector<Term> nulls) {
  if (rule >= rep_->skolem.size() || rep_->skolem[rule] == nullptr) {
    return Status::Error("Skolem entry names no existential rule");
  }
  SkolemRule& sr = *rep_->skolem[rule];
  if (frontier.size() != sr.fvars.size() || nulls.size() != sr.num_evars) {
    return Status::Error(
        "Skolem entry does not fit its rule's frontier and existentials");
  }
  if (!sr.nulls.emplace(std::move(frontier), std::move(nulls)).second) {
    return Status::Error("duplicate Skolem entry");
  }
  return Status::Ok();
}

void DatalogProgram::ForEachSkolem(
    const std::function<void(uint32_t, const std::vector<Term>&,
                             const std::vector<Term>&)>& visit) const {
  for (uint32_t ri = 0; ri < rep_->skolem.size(); ++ri) {
    if (rep_->skolem[ri] == nullptr) continue;
    for (const auto& [frontier, nulls] : rep_->skolem[ri]->nulls) {
      visit(ri, frontier, nulls);
    }
  }
}

}  // namespace gerel
