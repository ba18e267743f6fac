#include "transform/canonical.h"

#include <algorithm>
#include <map>
#include <vector>

namespace gerel {

namespace {

// Canonicalization by Weisfeiler–Leman-style refinement of variable
// signatures: each variable's signature is the multiset of its occurrence
// contexts (rule index, body/head, atom rendering under the current
// variable ranks, position); a few rounds of refinement distinguish
// variables that differ in any bounded-radius neighbourhood. Variables
// still tied afterwards are either automorphic (any order yields the same
// string) or pathological (order may depend on input order, costing a
// missed dedup but never a wrong merge: the output is always a consistent
// renaming of the input).
struct CanonicalForm {
  std::map<Term, int> naming;
  std::string text;
};

std::string RelName(RelationId pred, const SymbolTable& symbols,
                    const RelationRenames* renames) {
  if (renames != nullptr) {
    auto it = renames->find(pred);
    if (it != renames->end()) return it->second;
  }
  return symbols.RelationName(pred);
}

// Renders an atom with variables shown as "?<rank>"; unranked variables
// render as "?".
std::string RenderAtom(const Atom& atom, const SymbolTable& symbols,
                       const RelationRenames* renames,
                       const std::map<Term, int>& rank) {
  std::string out = RelName(atom.pred, symbols, renames);
  auto render_terms = [&](const std::vector<Term>& ts, char open,
                          char close) {
    out += open;
    for (size_t i = 0; i < ts.size(); ++i) {
      if (i > 0) out += ',';
      Term t = ts[i];
      if (!t.IsVariable()) {
        out += symbols.TermName(t);
        continue;
      }
      auto it = rank.find(t);
      out += '?';
      if (it != rank.end()) out += std::to_string(it->second);
    }
    out += close;
  };
  render_terms(atom.args, '(', ')');
  if (!atom.annotation.empty()) render_terms(atom.annotation, '[', ']');
  return out;
}

CanonicalForm Canonicalize(const std::vector<Rule>& rules,
                           const SymbolTable& symbols,
                           const RelationRenames* renames) {
  // Collect the variables.
  std::vector<Term> vars;
  auto note = [&vars](const Atom& a) {
    for (Term t : a.AllVars()) {
      if (std::find(vars.begin(), vars.end(), t) == vars.end()) {
        vars.push_back(t);
      }
    }
  };
  for (const Rule& r : rules) {
    for (const Literal& l : r.body) note(l.atom);
    for (const Atom& a : r.head) note(a);
  }

  // Refine variable signatures.
  std::map<Term, std::string> signature;
  for (Term v : vars) signature[v] = "";
  std::map<Term, int> rank;  // Rank shared by equal signatures.
  for (int round = 0; round < 4; ++round) {
    // Ranks from the current signatures.
    std::vector<std::string> keys;
    for (Term v : vars) keys.push_back(signature[v]);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    rank.clear();
    for (Term v : vars) {
      rank[v] = static_cast<int>(
          std::lower_bound(keys.begin(), keys.end(), signature[v]) -
          keys.begin());
    }
    if (keys.size() == vars.size()) break;  // Fully discriminated.
    // New signatures: sorted occurrence tokens.
    std::map<Term, std::vector<std::string>> tokens;
    for (size_t ri = 0; ri < rules.size(); ++ri) {
      auto scan = [&](const Atom& atom, const char* tag, bool negated) {
        std::string sig = std::to_string(ri) + "|" + tag +
                          (negated ? "!" : "") + "|" +
                          RenderAtom(atom, symbols, renames, rank) + "|";
        std::vector<Term> all = atom.AllTerms();
        for (size_t p = 0; p < all.size(); ++p) {
          if (all[p].IsVariable()) {
            tokens[all[p]].push_back(sig + std::to_string(p));
          }
        }
      };
      for (const Literal& l : rules[ri].body) scan(l.atom, "B", l.negated);
      for (const Atom& a : rules[ri].head) scan(a, "H", false);
    }
    for (Term v : vars) {
      std::vector<std::string>& ts = tokens[v];
      std::sort(ts.begin(), ts.end());
      std::string joined;
      for (const std::string& t : ts) {
        joined += t;
        joined += ';';
      }
      signature[v] = std::move(joined);
    }
  }

  // Final naming: order by (signature, occurrence order within signature
  // ties). Ties are automorphic or near-automorphic; any consistent
  // order is sound for dedup.
  std::vector<Term> ordered = vars;
  std::stable_sort(ordered.begin(), ordered.end(), [&](Term a, Term b) {
    if (signature[a] != signature[b]) return signature[a] < signature[b];
    return false;
  });
  CanonicalForm form;
  for (size_t i = 0; i < ordered.size(); ++i) {
    form.naming[ordered[i]] = static_cast<int>(i);
  }

  // Render with the final naming; bodies and heads are sets, so sort
  // their renderings.
  std::map<Term, int> final_rank = form.naming;
  for (const Rule& r : rules) {
    std::vector<std::string> body;
    for (const Literal& l : r.body) {
      body.push_back((l.negated ? std::string("!") : std::string()) +
                     RenderAtom(l.atom, symbols, renames, final_rank));
    }
    std::sort(body.begin(), body.end());
    std::vector<std::string> head;
    for (const Atom& a : r.head) {
      head.push_back(RenderAtom(a, symbols, renames, final_rank));
    }
    std::sort(head.begin(), head.end());
    for (const std::string& s : body) {
      form.text += s;
      form.text += ',';
    }
    form.text += "->";
    for (const std::string& s : head) {
      form.text += s;
      form.text += ',';
    }
    form.text += ';';
  }
  return form;
}

}  // namespace

std::string CanonicalRuleString(const Rule& rule, const SymbolTable& symbols,
                                const RelationRenames* renames) {
  return Canonicalize({rule}, symbols, renames).text;
}

std::string CanonicalRulesString(const std::vector<Rule>& rules,
                                 const SymbolTable& symbols,
                                 const RelationRenames* renames) {
  return Canonicalize(rules, symbols, renames).text;
}

}  // namespace gerel
