#include "analyze/termination.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "chase/chase.h"
#include "core/database.h"

namespace gerel {

namespace {

// Σ*: positive part of the theory with every constant identified with
// the critical constant. Identifying constants is sound — the collapsing
// homomorphism maps any instance into the critical one, so termination
// on the collapsed theory implies termination on the original; dropping
// negative literals only adds triggers.
Theory CriticalTheory(const Theory& theory, Term critical) {
  auto collapse = [critical](Atom atom) {
    for (Term& t : atom.args) {
      if (t.IsConstant()) t = critical;
    }
    for (Term& t : atom.annotation) {
      if (t.IsConstant()) t = critical;
    }
    return atom;
  };
  Theory out;
  for (const Rule& rule : theory.rules()) {
    Rule nr;
    for (const Literal& l : rule.body) {
      if (l.negated) continue;
      nr.body.emplace_back(collapse(l.atom));
    }
    for (const Atom& h : rule.head) nr.head.push_back(collapse(h));
    out.AddRule(std::move(nr));
  }
  return out;
}

// D*: one all-critical atom per relation, shaped like the relation's
// first occurrence (args + annotation split).
Database CriticalInstance(const Theory& theory, Term critical) {
  Database db;
  std::unordered_set<RelationId> seen;
  auto note = [&](const Atom& a) {
    if (!seen.insert(a.pred).second) return;
    Atom fact;
    fact.pred = a.pred;
    fact.args.assign(a.args.size(), critical);
    fact.annotation.assign(a.annotation.size(), critical);
    db.Insert(fact);
  };
  for (const Rule& r : theory.rules()) {
    for (const Literal& l : r.body) note(l.atom);
    for (const Atom& h : r.head) note(h);
  }
  return db;
}

// Reconstructs the null-ancestry forest from the chase derivation and
// hunts for a cyclic Skolem term: a null of function f whose ancestor
// chain contains another f-null. Fills `cycle` with the closed function
// path realized by that chain and returns true if one exists.
bool FindCyclicTerm(const Theory& critical_theory,
                    const ExistentialDependencyGraph& graph,
                    const std::vector<ChaseStep>& derivation,
                    std::vector<size_t>* cycle) {
  // (rule, evar) → function index.
  std::unordered_map<uint64_t, size_t> function_index;
  for (size_t i = 0; i < graph.functions.size(); ++i) {
    function_index.emplace(
        (static_cast<uint64_t>(graph.functions[i].rule) << 32) |
            graph.functions[i].var.bits(),
        i);
  }
  struct NullInfo {
    size_t creator = 0;
    std::vector<Term> parents;          // Nulls in the frontier image.
    std::unordered_set<size_t> ancestry;  // Creator functions, transitively.
  };
  std::unordered_map<uint32_t, NullInfo> nulls;

  for (const ChaseStep& step : derivation) {
    const Rule& rule = critical_theory.rules()[step.rule_index];
    std::vector<Term> fvars = rule.FVars();
    std::vector<Term> parents;
    for (Term t : step.frontier_image) {
      if (t.IsNull()) parents.push_back(t);
    }
    // Which head atom produced this step's atom? Match pred/arity and
    // check consistency against the frontier image; existential
    // variables bind to the atom's terms.
    for (const Atom& h : rule.head) {
      if (h.pred != step.atom.pred || h.args.size() != step.atom.args.size() ||
          h.annotation.size() != step.atom.annotation.size()) {
        continue;
      }
      std::vector<Term> hterms = h.AllTerms();
      std::vector<Term> aterms = step.atom.AllTerms();
      std::unordered_map<uint32_t, Term> evar_image;
      bool match = true;
      for (size_t p = 0; p < hterms.size() && match; ++p) {
        Term ht = hterms[p];
        if (!ht.IsVariable()) {
          match = ht == aterms[p];
          continue;
        }
        auto fv = std::find(fvars.begin(), fvars.end(), ht);
        if (fv != fvars.end()) {
          match = step.frontier_image[fv - fvars.begin()] == aterms[p];
          continue;
        }
        auto [it, inserted] = evar_image.emplace(ht.bits(), aterms[p]);
        if (!inserted) match = it->second == aterms[p];
      }
      if (!match) continue;
      for (const auto& [evar_bits, image] : evar_image) {
        if (!image.IsNull() || nulls.count(image.bits()) > 0) continue;
        auto fit = function_index.find(
            (static_cast<uint64_t>(step.rule_index) << 32) | evar_bits);
        if (fit == function_index.end()) continue;
        NullInfo info;
        info.creator = fit->second;
        info.parents = parents;
        info.ancestry.insert(fit->second);
        for (Term parent : parents) {
          const NullInfo& pi = nulls.at(parent.bits());
          info.ancestry.insert(pi.ancestry.begin(), pi.ancestry.end());
        }
        bool cyclic = false;
        for (Term parent : parents) {
          if (nulls.at(parent.bits()).ancestry.count(info.creator) > 0) {
            cyclic = true;
          }
        }
        if (!cyclic) {
          nulls.emplace(image.bits(), std::move(info));
          continue;
        }
        // Walk the parent chain up to an ancestor created by the same
        // function; the creators along the chain, oldest first, form
        // the closed witness path f → ... → f.
        std::vector<Term> chain = {image};
        nulls.emplace(image.bits(), info);
        Term cur = image;
        while (nulls.at(cur.bits()).creator != info.creator ||
               chain.size() == 1) {
          for (Term parent : nulls.at(cur.bits()).parents) {
            const NullInfo& pi = nulls.at(parent.bits());
            if (pi.creator == info.creator ||
                pi.ancestry.count(info.creator) > 0) {
              cur = parent;
              break;
            }
          }
          chain.push_back(cur);
        }
        cycle->clear();
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
          cycle->push_back(nulls.at(it->bits()).creator);
        }
        return true;
      }
      break;  // First matching head atom wins.
    }
  }
  return false;
}

}  // namespace

const char* CertificateKindName(CertificateKind kind) {
  switch (kind) {
    case CertificateKind::kExistentialFree: return "existential-free";
    case CertificateKind::kWeaklyAcyclic: return "weakly-acyclic";
    case CertificateKind::kJointlyAcyclic: return "jointly-acyclic";
    case CertificateKind::kMfa: return "mfa";
    case CertificateKind::kRefuted: return "refuted";
    case CertificateKind::kInconclusive: return "inconclusive";
  }
  return "?";
}

std::string SkolemPathString(const ExistentialDependencyGraph& graph,
                             const std::vector<size_t>& path,
                             const SymbolTable& symbols) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += " -> ";
    out += SkolemFunctionName(graph.functions[path[i]], symbols);
  }
  return out;
}

TerminationCertificate AnalyzeTermination(const Theory& theory,
                                          const SymbolTable& symbols,
                                          const TerminationOptions& options) {
  TerminationCertificate cert;
  cert.graph = BuildExistentialDependencyGraph(theory);
  if (cert.graph.functions.empty()) {
    cert.kind = CertificateKind::kExistentialFree;
    return cert;
  }
  if (ExistentialTopoOrder(cert.graph, &cert.order, &cert.cycle)) {
    cert.kind = IsWeaklyAcyclic(theory) ? CertificateKind::kWeaklyAcyclic
                                        : CertificateKind::kJointlyAcyclic;
    return cert;
  }
  // The dependency graph is cyclic; fall through to the critical-
  // instance chase. Marnette: the semi-oblivious chase terminates on
  // every database iff it terminates on D*.
  SymbolTable scratch = symbols;
  Term critical = scratch.Constant("*");
  Theory critical_theory = CriticalTheory(theory, critical);
  Database critical_instance = CriticalInstance(critical_theory, critical);
  ChaseOptions copts;
  copts.max_steps = options.max_steps;
  copts.max_atoms = options.max_atoms;
  copts.semi_oblivious = true;
  copts.budget = options.budget;
  ChaseResult run =
      Chase(critical_theory, critical_instance, &scratch, copts);
  cert.critical_steps = run.steps;
  cert.critical_atoms = run.database.size();
  if (run.saturated) {
    cert.kind = CertificateKind::kMfa;
    cert.cycle.clear();
    return cert;
  }
  std::vector<size_t> mfa_cycle;
  if (FindCyclicTerm(critical_theory, cert.graph, run.derivation,
                     &mfa_cycle)) {
    cert.kind = CertificateKind::kRefuted;
    cert.cycle = std::move(mfa_cycle);
    return cert;
  }
  // Caps or budget ran out before either verdict; keep the dependency-
  // graph cycle as the provisional witness.
  cert.kind = CertificateKind::kInconclusive;
  cert.degradation = run.degradation;
  return cert;
}

}  // namespace gerel
