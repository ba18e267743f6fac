#include "transform/saturation.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "core/check.h"
#include "core/classify.h"
#include "core/substitution.h"
#include "core/printer.h"
#include "transform/canonical.h"
#include "transform/parallel.h"
#include <cstdlib>
#include <cstdio>

namespace gerel {

namespace {

void AppendDistinct(const std::vector<Term>& in, std::vector<Term>* out) {
  for (Term t : in) {
    if (std::find(out->begin(), out->end(), t) == out->end())
      out->push_back(t);
  }
}

bool Contains(const std::vector<Term>& v, Term t) {
  return std::find(v.begin(), v.end(), t) != v.end();
}

// Sorts and deduplicates body literals and head atoms (conjunctions are
// sets; keeping them canonical keeps the closure small).
Rule TidyRule(Rule r) {
  std::sort(r.body.begin(), r.body.end(),
            [](const Literal& a, const Literal& b) {
              if (a.negated != b.negated) return a.negated < b.negated;
              return a.atom < b.atom;
            });
  r.body.erase(std::unique(r.body.begin(), r.body.end()), r.body.end());
  std::sort(r.head.begin(), r.head.end());
  r.head.erase(std::unique(r.head.begin(), r.head.end()), r.head.end());
  return r;
}

// The parallel saturator processes the closure in rounds. Every round
// takes the rules added by the previous round (the frontier), derives
// their Figure 3 consequences against an immutable snapshot of the
// closure on the worker pool — one task per frontier rule, each emitting
// (derived rule, canonical key) pairs into a private buffer — and then
// merges the buffers single-threaded in frontier order. Workers never
// touch the symbol table (canonical keys only read it) or the shared
// closure state, and the merged stream is identical for every thread
// count, so the closure, datalog translation, and inference count are
// byte-identical to the sequential run.
class Saturator {
 public:
  Saturator(const Theory& theory, SymbolTable* symbols,
            const SaturationOptions& options)
      : symbols_(symbols), options_(options) {
    for (const Rule& r : theory.rules()) {
      Rule tidy = TidyRule(r);
      Add(tidy, CanonicalRuleString(tidy, *symbols_));
    }
    if (options_.num_threads > 1) {
      pool_ = std::make_unique<WorkerPool>(options_.num_threads);
    }
    scratch_.resize(pool_ ? pool_->num_threads() : 1);
  }

  SaturationResult Run() {
    std::vector<size_t> frontier(rules_.size());
    for (size_t i = 0; i < frontier.size(); ++i) frontier[i] = i;
    uint64_t round = 0;
    ExecutionBudget* budget = options_.budget;
    const FaultPlan* fault = budget != nullptr ? budget->fault_plan() : nullptr;
    while (!frontier.empty() && result_.complete) {
      ++round;
      if (budget != nullptr &&
          !budget->CheckRound(GovernedStage::kSaturation, round,
                              rules_.size())) {
        result_.complete = false;
        break;
      }
      size_t snapshot = rules_.size();
      buffers_.clear();
      buffers_.resize(frontier.size());
      auto work = [&](size_t task, size_t lane) {
        // Workers observe the shared exhaustion flag between units; a
        // skipped unit marks its buffer overflowed so the merge records
        // the closure as incomplete.
        if (budget != nullptr && budget->ExhaustedFast()) {
          buffers_[task].overflow = true;
          return;
        }
        MaybeInjectWorkerDelay(fault, task);
        Derive(frontier[task], snapshot, &scratch_[lane], &buffers_[task]);
      };
      if (pool_) {
        pool_->RunIndexed(frontier.size(), work);
      } else {
        for (size_t t = 0; t < frontier.size(); ++t) work(t, 0);
      }
      // Deterministic merge: buffers in frontier order, emissions in
      // derivation order. A buffer that hit the body/head caps marks the
      // result incomplete at the position the sequential run would.
      size_t first_new = rules_.size();
      for (EmitBuffer& buf : buffers_) {
        for (auto& [rule, key] : buf.rules) {
          ++result_.inferences;
          Add(rule, key);
          if (!result_.complete) break;
        }
        if (buf.overflow) result_.complete = false;
        if (!result_.complete) break;
      }
      frontier.clear();
      for (size_t i = first_new; i < rules_.size(); ++i)
        frontier.push_back(i);
    }
    if (!result_.complete) {
      if (budget != nullptr && budget->exhausted()) {
        result_.degradation = budget->reason();
      } else {
        result_.degradation.stage = GovernedStage::kSaturation;
        result_.degradation.limit = BudgetLimit::kRules;
        result_.degradation.round = round;
      }
    }
    for (const Rule& r : rules_) {
      result_.closure.AddRule(r);
      if (r.EVars().empty()) result_.datalog.AddRule(r);
    }
    return std::move(result_);
  }

 private:
  // Derived rules of one frontier item, with precomputed canonical keys.
  struct EmitBuffer {
    std::vector<std::pair<Rule, std::string>> rules;
    // A derived rule exceeded max_body_atoms/max_head_atoms (or the
    // emission bound): derivation for this item stopped early and the
    // closure must be marked incomplete.
    bool overflow = false;
  };
  // Per-lane unification scratch (the sequential saturator kept these as
  // members; one instance per pool lane keeps workers allocation-warm
  // and independent).
  struct Scratch {
    std::vector<Atom> gamma1, gamma2;
    std::vector<Term> gamma1_vars;
    std::vector<Term> unbound, alpha_dom;
    std::map<Term, Term> bindings;
    std::vector<Term> trail;
  };

  // Emits every Figure 3 consequence of rules_[idx] paired against the
  // closure prefix [0, snapshot). Pure reader of shared state.
  void Derive(size_t idx, size_t snapshot, Scratch* s,
              EmitBuffer* out) const {
    const Rule& current = rules_[idx];
    if (options_.enable_projection) Project(current, out);
    if (options_.enable_renaming) Rename(current, out);
    if (!options_.enable_composition || out->overflow) return;
    // Compositions. Only *existential* left premises are composed: a
    // composition whose left premise is Datalog is an ordinary resolution
    // step that bottom-up evaluation of dat(Σ) performs anyway, whereas
    // inference through labeled nulls must be compiled into the
    // existential heads here (the paper's own σ6–σ12 derivation in
    // Example 7 uses exclusively existential left premises).
    bool idx_existential = existential_[idx];
    for (size_t j = 0; j < snapshot && !out->overflow; ++j) {
      if (existential_[j] == idx_existential) continue;
      if (idx_existential) {
        Compose(idx, j, s, out);
      } else {
        Compose(j, idx, s, out);
      }
    }
  }

  void Emit(Rule rule, EmitBuffer* out) const {
    // Bound a single item's emissions: past max_rules the merge is
    // certain to mark the closure incomplete, so stop deriving.
    if (out->rules.size() > options_.max_rules) {
      out->overflow = true;
      return;
    }
    // Amortized deadline/cancel check inside (possibly explosive)
    // derivation; an exhausted unit stops and reports overflow.
    if (options_.budget != nullptr &&
        !options_.budget->CheckPoint(GovernedStage::kSaturation)) {
      out->overflow = true;
      return;
    }
    std::string key = CanonicalRuleString(rule, *symbols_);
    out->rules.emplace_back(std::move(rule), std::move(key));
  }

  // (projection): α → β ∧ A ⟹ α → A for universal A.
  void Project(const Rule& rule, EmitBuffer* out) const {
    if (rule.head.size() <= 1) return;
    std::vector<Term> evars = rule.EVars();
    for (const Atom& a : rule.head) {
      if (out->overflow) return;
      bool universal = true;
      for (Term v : a.AllVars()) {
        if (Contains(evars, v)) {
          universal = false;
          break;
        }
      }
      if (universal) Emit(TidyRule(Rule(rule.body, {a})), out);
    }
  }

  // (renaming): g(α) → g(β) for total g : vars(α) → vars(α). Idempotent
  // merges (restricted-growth partitions) are enumerated; every other g
  // is a variable renaming of one of them, which canonical dedup absorbs.
  void Rename(const Rule& rule, EmitBuffer* out) const {
    std::vector<Term> vars = rule.UVars();
    if (vars.size() <= 1) return;
    std::vector<int> rep(vars.size(), -1);
    std::function<void(size_t)> rec = [&](size_t i) {
      if (out->overflow) return;
      if (i == vars.size()) {
        Substitution g;
        bool nontrivial = false;
        for (size_t j = 0; j < vars.size(); ++j) {
          if (rep[j] != static_cast<int>(j)) nontrivial = true;
          g.Bind(vars[j], vars[rep[j]]);
        }
        if (nontrivial) Emit(TidyRule(g.Apply(rule)), out);
        return;
      }
      for (size_t r = 0; r <= i; ++r) {
        if (r < i && rep[r] != static_cast<int>(r)) continue;  // Reps only.
        rep[i] = static_cast<int>(r == i ? i : r);
        rec(i + 1);
      }
    };
    rec(0);
  }

  // (composition): left = α → ∃ȳ.β, right = Datalog γ → δ. For every
  // split γ = γ1 ⊎ γ2 with γ2 ≠ ∅ and every unifier θ of γ2 with atoms
  // of β: derive θ(α) ∧ θ(γ1) → θ(β) ∧ θ(δ). The unifier may
  // specialize the *universal* variables of the left premise — binding
  // them to constants or merging them — but never its existentials (a
  // labeled null is not equal to any constant or frontier term). Plain
  // homomorphisms γ2 → β are the special case where θ fixes every left
  // variable; the specializing unifiers matter for (partially) grounded
  // theories, whose Datalog rules carry constants that must bind β's
  // universal variables for the resolution chain to go through.
  // Premises are addressed by rule index so their cached derived data
  // (uvars/evars, the renamed-apart right premise and its positive
  // body) is reused across the quadratically many pairings.
  void Compose(size_t left_idx, size_t right_idx, Scratch* s,
               EmitBuffer* out) const {
    const std::vector<Atom>& gamma = gamma_[right_idx];
    if (gamma.empty()) return;  // Fact rules compose trivially.

    size_t subsets = size_t{1} << gamma.size();
    for (size_t mask = 1; mask < subsets && !out->overflow; ++mask) {
      s->gamma1.clear();
      s->gamma2.clear();
      for (size_t i = 0; i < gamma.size(); ++i) {
        ((mask >> i) & 1 ? s->gamma2 : s->gamma1).push_back(gamma[i]);
      }
      s->gamma1_vars.clear();
      for (const Atom& a : s->gamma1) {
        AppendDistinct(a.AllVars(), &s->gamma1_vars);
      }
      s->bindings.clear();
      s->trail.clear();
      MatchGamma2(0, left_idx, right_idx, s, out);
    }
  }

  // Follows binding chains to the representative term. Chains are
  // acyclic: a variable is only ever bound to the representative of a
  // term whose chain does not pass through it.
  static Term Resolve(const Scratch& s, Term t) {
    while (t.IsVariable()) {
      auto it = s.bindings.find(t);
      if (it == s.bindings.end()) break;
      t = it->second;
    }
    return t;
  }

  static void BindVar(Scratch* s, Term v, Term t) {
    s->bindings[v] = t;
    s->trail.push_back(v);
  }

  static void UndoTo(Scratch* s, size_t mark) {
    while (s->trail.size() > mark) {
      s->bindings.erase(s->trail.back());
      s->trail.pop_back();
    }
  }

  // Unifies a γ2 term with a β term under the composition orientation:
  // the right premise's renamed-apart variables bind to anything, the
  // left premise's universal variables bind to constants or to each
  // other, its existential variables are rigid.
  static bool Unify(Scratch* s, Term a, Term b,
                    const std::vector<Term>& alpha_vars,
                    const std::vector<Term>& evars) {
    a = Resolve(*s, a);
    b = Resolve(*s, b);
    if (a == b) return true;
    // Right-premise variables: not the left rule's, by rename-apart.
    if (a.IsVariable() && !Contains(alpha_vars, a) && !Contains(evars, a)) {
      BindVar(s, a, b);
      return true;
    }
    if (b.IsVariable() && !Contains(alpha_vars, b) && !Contains(evars, b)) {
      BindVar(s, b, a);
      return true;
    }
    if (Contains(evars, a) || Contains(evars, b)) return false;
    if (a.IsVariable()) {  // Universal of the left premise.
      BindVar(s, a, b);
      return true;
    }
    if (b.IsVariable()) {
      BindVar(s, b, a);
      return true;
    }
    return false;  // Distinct constants.
  }

  // Matches γ2[gi..] against head atoms of the left premise (several γ2
  // atoms may share a head atom), emitting a composition per complete
  // unifier.
  void MatchGamma2(size_t gi, size_t left_idx, size_t right_idx, Scratch* s,
                   EmitBuffer* out) const {
    if (out->overflow) return;
    if (gi == s->gamma2.size()) {
      EmitMatches(left_idx, right_idx, s, out);
      return;
    }
    const Atom& g = s->gamma2[gi];
    const Rule& left = rules_[left_idx];
    for (const Atom& h : left.head) {
      if (h.pred != g.pred || h.args.size() != g.args.size()) continue;
      size_t mark = s->trail.size();
      bool ok = true;
      for (size_t k = 0; k < g.args.size() && ok; ++k) {
        ok = Unify(s, g.args[k], h.args[k], uvars_[left_idx],
                   evars_[left_idx]);
      }
      if (ok) MatchGamma2(gi + 1, left_idx, right_idx, s, out);
      UndoTo(s, mark);
      if (out->overflow) return;
    }
  }

  // One full unifier of γ2 into β is on the binding map: check the
  // γ1-side conditions, enumerate still-free γ1 variables over the
  // specialized α domain, and emit the derived rules.
  void EmitMatches(size_t left_idx, size_t right_idx, Scratch* s,
                   EmitBuffer* out) const {
    const Rule& left = rules_[left_idx];
    const Rule& right = renamed_[right_idx];
    const std::vector<Term>& alpha_vars = uvars_[left_idx];
    const std::vector<Term>& evars = evars_[left_idx];
    // The specialized α domain: resolved images of vars(α).
    s->alpha_dom.clear();
    for (Term v : alpha_vars) {
      Term r = Resolve(*s, v);
      if (!Contains(s->alpha_dom, r)) s->alpha_dom.push_back(r);
    }
    // Bound γ1/δ variables must not resolve onto β's existential
    // variables; unresolved ones are enumerated into the α domain so
    // θ(γ1) stays guarded by θ(α).
    s->unbound.clear();
    for (Term v : s->gamma1_vars) {
      Term r = Resolve(*s, v);
      if (!r.IsVariable()) continue;
      if (Contains(evars, r)) return;  // Mapped onto an existential of β.
      if (!Contains(alpha_vars, r) && !Contains(s->unbound, r)) {
        s->unbound.push_back(r);
      }
    }
    if (!s->unbound.empty() && s->alpha_dom.empty()) return;
    std::vector<size_t> pick(s->unbound.size(), 0);
    while (true) {
      size_t mark = s->trail.size();
      for (size_t i = 0; i < s->unbound.size(); ++i) {
        BindVar(s, s->unbound[i], s->alpha_dom[pick[i]]);
      }
      Substitution sub;
      for (Term v : alpha_vars) {
        Term r = Resolve(*s, v);
        if (r != v) sub.Bind(v, r);
      }
      for (Term v : rvars_[right_idx]) {
        Term r = Resolve(*s, v);
        if (r != v) sub.Bind(v, r);
      }
      UndoTo(s, mark);
      EmitComposition(left, right, s->gamma1, sub, out);
      if (out->overflow) return;
      // Advance the mixed-radix counter.
      size_t i = 0;
      for (; i < pick.size(); ++i) {
        if (++pick[i] < s->alpha_dom.size()) break;
        pick[i] = 0;
      }
      if (i == pick.size()) break;
    }
  }

  void EmitComposition(const Rule& left, const Rule& right,
                       const std::vector<Atom>& gamma1,
                       const Substitution& h, EmitBuffer* out) const {
    Rule spec = h.Apply(left);  // θ may specialize the left premise.
    Rule derived;
    derived.body = std::move(spec.body);
    for (const Atom& a : gamma1) {
      derived.body.emplace_back(h.Apply(a), /*negated=*/false);
    }
    derived.head = std::move(spec.head);
    bool head_grew = false;
    for (const Atom& a : right.head) {
      Atom img = h.Apply(a);
      if (std::find(derived.head.begin(), derived.head.end(), img) ==
          derived.head.end()) {
        head_grew = true;
      }
      derived.head.push_back(std::move(img));
    }
    // Without a new head atom, the derived rule has the same head and a
    // superset body: subsumed by the left premise.
    if (!head_grew) return;
    derived = TidyRule(std::move(derived));
    if (derived.body.size() > options_.max_body_atoms ||
        derived.head.size() > options_.max_head_atoms) {
      out->overflow = true;
      return;
    }
    if (getenv("GEREL_SAT_DEBUG") != nullptr) {
      fprintf(stderr, "compose\n  left: %s\n  right: %s\n  => %s\n",
              ToString(left, *symbols_).c_str(),
              ToString(right, *symbols_).c_str(),
              ToString(derived, *symbols_).c_str());
    }
    Emit(std::move(derived), out);
  }

  Term CompositionVar(size_t i) {
    while (composition_vars_.size() <= i) {
      composition_vars_.push_back(symbols_->Variable(
          "Cmp#" + std::to_string(composition_vars_.size())));
    }
    return composition_vars_[i];
  }

  // Adds a (tidied) rule under its canonical key. Merge-phase only: the
  // per-rule caches and the symbol table (CompositionVar) are mutated
  // here, never by workers.
  void Add(const Rule& rule, const std::string& key) {
    if (rules_.size() >= options_.max_rules) {
      result_.complete = false;
      return;
    }
    if (!seen_.insert(key).second) return;
    rules_.push_back(rule);
    std::vector<Term> ev = rule.EVars();
    bool ex = !ev.empty();
    existential_.push_back(ex);
    uvars_.push_back(rule.UVars());
    evars_.push_back(std::move(ev));
    // Precompute the right-premise role: the rule renamed apart with the
    // reserved composition variables, and its positive body γ. Only
    // Datalog rules ever stand on the right of (composition).
    Rule renamed;
    std::vector<Term> rv;
    if (!ex) {
      Substitution apart;
      std::vector<Term> rvars = rule.Vars();
      for (size_t i = 0; i < rvars.size(); ++i) {
        apart.Bind(rvars[i], CompositionVar(i));
        rv.push_back(CompositionVar(i));
      }
      renamed = apart.Apply(rule);
    }
    gamma_.push_back(renamed.PositiveBody());
    renamed_.push_back(std::move(renamed));
    rvars_.push_back(std::move(rv));
  }

  SymbolTable* symbols_;
  SaturationOptions options_;
  // Deques: Derive holds references across the merge phase's Add()s.
  std::deque<Rule> rules_;
  // Per-rule data cached at Add time (EVars()/UVars() recomputation and
  // the per-pairing rename-apart dominated the composition loop in the
  // seed).
  std::vector<bool> existential_;
  std::deque<std::vector<Term>> uvars_;
  std::deque<std::vector<Term>> evars_;
  std::deque<Rule> renamed_;
  std::deque<std::vector<Atom>> gamma_;
  std::deque<std::vector<Term>> rvars_;
  std::unordered_set<std::string> seen_;
  std::vector<Term> composition_vars_;
  SaturationResult result_;
  std::unique_ptr<WorkerPool> pool_;  // Null when num_threads <= 1.
  std::vector<Scratch> scratch_;      // One per pool lane.
  std::vector<EmitBuffer> buffers_;   // One per frontier item, per round.
};

}  // namespace

Result<SaturationResult> Saturate(const Theory& guarded_theory,
                                  SymbolTable* symbols,
                                  const SaturationOptions& options) {
  if (guarded_theory.HasNegation()) {
    return Status::Error("saturation requires a negation-free theory");
  }
  if (!Classify(guarded_theory).guarded) {
    return Status::Error("saturation requires a guarded theory (Def 19)");
  }
  Saturator saturator(guarded_theory, symbols, options);
  return saturator.Run();
}

Result<DatalogTranslation> NearlyGuardedToDatalog(
    const Theory& nearly_guarded, SymbolTable* symbols,
    const SaturationOptions& options) {
  PositionSet affected = AffectedPositions(nearly_guarded);
  Theory guarded_part, datalog_part;
  for (const Rule& rule : nearly_guarded.rules()) {
    if (IsGuardedRule(rule)) {
      guarded_part.AddRule(rule);
    } else if (UnsafeVars(rule, affected).empty() && rule.EVars().empty()) {
      datalog_part.AddRule(rule);
    } else {
      return Status::Error("theory is not nearly guarded (Def 3 fails)");
    }
  }
  Result<SaturationResult> sat = Saturate(guarded_part, symbols, options);
  if (!sat.ok()) return sat.status();
  DatalogTranslation out;
  out.complete = sat.value().complete;
  out.degradation = sat.value().degradation;
  out.datalog = std::move(sat.value().datalog);
  for (const Rule& r : datalog_part.rules()) out.datalog.AddRule(r);
  return out;
}

}  // namespace gerel
