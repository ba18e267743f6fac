#include "core/normalize.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/classify.h"
#include "core/substitution.h"

namespace gerel {

namespace {

// Distinct variables occurring in annotations of `atoms`.
std::vector<Term> AnnotationVars(const std::vector<Atom>& atoms) {
  std::vector<Term> out;
  for (const Atom& a : atoms) {
    for (Term t : a.annotation) {
      if (t.IsVariable() &&
          std::find(out.begin(), out.end(), t) == out.end()) {
        out.push_back(t);
      }
    }
  }
  return out;
}

// Step (iii): replace constants in non-fact rules by fresh variables bound
// via const#<c>(Xc) atoms, adding → const#<c>(c) fact rules.
void ExtractConstants(const Theory& in, SymbolTable* symbols, Theory* out) {
  std::vector<Term> fact_constants;
  for (const Rule& rule : in.rules()) {
    if (rule.IsFact() || rule.Constants().empty()) {
      out->AddRule(rule);
      continue;
    }
    Rule r = rule;
    for (Term c : rule.Constants()) {
      std::string cname = "const#" + symbols->ConstantName(c);
      RelationId crel = symbols->Relation(cname, 1);
      Term xc = symbols->FreshVariable("Xc");
      // Replace c by xc everywhere in the rule.
      auto replace = [&](Atom* a) {
        for (Term& t : a->args) {
          if (t == c) t = xc;
        }
        for (Term& t : a->annotation) {
          if (t == c) t = xc;
        }
      };
      for (Literal& l : r.body) replace(&l.atom);
      for (Atom& h : r.head) replace(&h);
      r.body.emplace_back(Atom(crel, {xc}), /*negated=*/false);
      if (std::find(fact_constants.begin(), fact_constants.end(), c) ==
          fact_constants.end()) {
        fact_constants.push_back(c);
        out->AddRule(Rule({}, {Atom(crel, {c})}));
      }
    }
    out->AddRule(std::move(r));
  }
}

// Step (i): split multi-atom heads through a fresh collector relation
// aux(fvars, evars) carrying the annotation variables of the head.
void SplitHeads(const Theory& in, SymbolTable* symbols, Theory* out) {
  for (const Rule& rule : in.rules()) {
    if (rule.head.size() <= 1) {
      out->AddRule(rule);
      continue;
    }
    std::vector<Term> fvars = rule.FVars();
    std::vector<Term> evars = rule.EVars();
    std::vector<Term> ann = AnnotationVars(rule.head);
    // Annotation vars that are universal go into the collector's
    // annotation; existential ones cannot occur in safe annotations.
    std::vector<Term> collector_args = fvars;
    // Remove annotation vars from args (they live in the annotation slot).
    collector_args.erase(
        std::remove_if(collector_args.begin(), collector_args.end(),
                       [&ann](Term v) {
                         return std::find(ann.begin(), ann.end(), v) !=
                                ann.end();
                       }),
        collector_args.end());
    for (Term e : evars) collector_args.push_back(e);
    RelationId aux = symbols->FreshRelation(
        "aux", static_cast<int>(collector_args.size() + ann.size()));
    Atom collector(aux, collector_args, ann);
    out->AddRule(Rule(rule.body, {collector}));
    for (const Atom& h : rule.head) {
      out->AddRule(Rule({Literal(collector)}, {h}));
    }
  }
}

// Step (ii): split unguarded existential rules σ into
//   body(σ) → aux(fvars)   and   aux(fvars) → ∃evars. head(σ).
void GuardExistentialRules(const Theory& in, SymbolTable* symbols,
                           Theory* out) {
  for (const Rule& rule : in.rules()) {
    if (rule.EVars().empty() || IsGuardedRule(rule)) {
      out->AddRule(rule);
      continue;
    }
    GEREL_CHECK(rule.head.size() == 1);  // SplitHeads ran first.
    std::vector<Term> fvars = rule.FVars();
    std::vector<Term> ann = AnnotationVars(rule.head);
    std::vector<Term> aux_args = fvars;
    aux_args.erase(std::remove_if(aux_args.begin(), aux_args.end(),
                                  [&ann](Term v) {
                                    return std::find(ann.begin(), ann.end(),
                                                     v) != ann.end();
                                  }),
                   aux_args.end());
    RelationId aux = symbols->FreshRelation(
        "aux", static_cast<int>(aux_args.size() + ann.size()));
    Atom bridge(aux, aux_args, ann);
    out->AddRule(Rule(rule.body, {bridge}));
    out->AddRule(Rule({Literal(bridge)}, rule.head));
  }
}

}  // namespace

Theory Normalize(const Theory& theory, SymbolTable* symbols,
                 const NormalizeOptions& options) {
  Theory stage = theory;
  if (options.extract_constants) {
    Theory next;
    ExtractConstants(stage, symbols, &next);
    stage = std::move(next);
  }
  if (options.split_heads) {
    Theory next;
    SplitHeads(stage, symbols, &next);
    stage = std::move(next);
  }
  Theory guarded;
  GuardExistentialRules(stage, symbols, &guarded);
  return guarded;
}

bool IsNormal(const Theory& theory) {
  for (const Rule& rule : theory.rules()) {
    if (rule.head.size() != 1) return false;
    if (!rule.EVars().empty() && !IsGuardedRule(rule)) return false;
    if (!rule.Constants().empty() && !rule.IsFact()) return false;
  }
  return true;
}

}  // namespace gerel
