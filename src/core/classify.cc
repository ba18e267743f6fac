#include "core/classify.h"

#include <algorithm>

#include "core/check.h"

namespace gerel {

namespace {

// Calls fn(pred, flat_index, term) for each position of `atom`.
template <typename Fn>
void ForEachPosition(const Atom& atom, Fn fn) {
  uint32_t pos = 0;
  for (Term t : atom.args) fn(atom.pred, pos++, t);
  for (Term t : atom.annotation) fn(atom.pred, pos++, t);
}

// Distinct argument variables over the positive body.
std::vector<Term> PositiveBodyArgVars(const Rule& rule) {
  std::vector<Term> out;
  for (const Literal& l : rule.body) {
    if (l.negated) continue;
    for (Term v : l.atom.ArgVars()) {
      if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
    }
  }
  return out;
}

// Frontier variables relevant for guard checks: head argument variables
// that occur in the body.
std::vector<Term> FrontierArgVars(const Rule& rule) {
  std::vector<Term> body_vars = rule.UVars();
  std::vector<Term> out;
  for (const Atom& a : rule.head) {
    for (Term v : a.ArgVars()) {
      if (std::find(body_vars.begin(), body_vars.end(), v) !=
              body_vars.end() &&
          std::find(out.begin(), out.end(), v) == out.end()) {
        out.push_back(v);
      }
    }
  }
  return out;
}

// Whether some positive body atom's argument variables cover `vars`.
bool SomeAtomCovers(const Rule& rule, const std::vector<Term>& vars) {
  if (vars.empty()) return true;
  for (const Literal& l : rule.body) {
    if (l.negated) continue;
    std::vector<Term> avars = l.atom.ArgVars();
    bool covers = std::all_of(vars.begin(), vars.end(), [&avars](Term v) {
      return std::find(avars.begin(), avars.end(), v) != avars.end();
    });
    if (covers) return true;
  }
  return false;
}

std::vector<Term> Intersect(const std::vector<Term>& a,
                            const std::vector<Term>& b) {
  std::vector<Term> out;
  for (Term t : a) {
    if (std::find(b.begin(), b.end(), t) != b.end()) out.push_back(t);
  }
  return out;
}

}  // namespace

PositionSet AffectedPositions(const Theory& theory) {
  PositionSet affected;
  // (i) Positions of existential variables in heads.
  for (const Rule& rule : theory.rules()) {
    std::vector<Term> evars = rule.EVars();
    for (const Atom& a : rule.head) {
      ForEachPosition(a, [&](RelationId pred, uint32_t pos, Term t) {
        if (t.IsVariable() &&
            std::find(evars.begin(), evars.end(), t) != evars.end()) {
          affected.Insert(pred, pos);
        }
      });
    }
  }
  // (ii) Propagate universal variables whose body occurrences are all
  // affected.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : theory.rules()) {
      for (Term x : rule.UVars()) {
        bool all_affected = true;
        bool occurs = false;
        for (const Literal& l : rule.body) {
          if (l.negated) continue;
          ForEachPosition(l.atom, [&](RelationId pred, uint32_t pos, Term t) {
            if (t == x) {
              occurs = true;
              if (!affected.Contains(pred, pos)) all_affected = false;
            }
          });
        }
        if (!occurs || !all_affected) continue;
        for (const Atom& a : rule.head) {
          ForEachPosition(a, [&](RelationId pred, uint32_t pos, Term t) {
            if (t == x && !affected.Contains(pred, pos)) {
              affected.Insert(pred, pos);
              changed = true;
            }
          });
        }
      }
    }
  }
  return affected;
}

std::vector<Term> UnsafeVars(const Rule& rule, const PositionSet& affected) {
  std::vector<Term> out;
  for (Term x : rule.UVars()) {
    bool all_affected = true;
    bool occurs = false;
    for (const Literal& l : rule.body) {
      if (l.negated) continue;
      ForEachPosition(l.atom, [&](RelationId pred, uint32_t pos, Term t) {
        if (t == x) {
          occurs = true;
          if (!affected.Contains(pred, pos)) all_affected = false;
        }
      });
    }
    if (occurs && all_affected) out.push_back(x);
  }
  return out;
}

bool IsGuardedRule(const Rule& rule) {
  return SomeAtomCovers(rule, PositiveBodyArgVars(rule));
}

bool IsFrontierGuardedRule(const Rule& rule) {
  return SomeAtomCovers(rule, FrontierArgVars(rule));
}

bool IsWeaklyGuardedRule(const Rule& rule, const PositionSet& affected) {
  std::vector<Term> unsafe = UnsafeVars(rule, affected);
  return SomeAtomCovers(rule, Intersect(PositiveBodyArgVars(rule), unsafe));
}

bool IsWeaklyFrontierGuardedRule(const Rule& rule,
                                 const PositionSet& affected) {
  std::vector<Term> unsafe = UnsafeVars(rule, affected);
  return SomeAtomCovers(rule, Intersect(FrontierArgVars(rule), unsafe));
}

bool IsNearlyGuardedRule(const Rule& rule, const PositionSet& affected) {
  if (IsGuardedRule(rule)) return true;
  return UnsafeVars(rule, affected).empty() && rule.EVars().empty();
}

bool IsNearlyFrontierGuardedRule(const Rule& rule,
                                 const PositionSet& affected) {
  if (IsFrontierGuardedRule(rule)) return true;
  return UnsafeVars(rule, affected).empty() && rule.EVars().empty();
}

const Atom* FrontierGuardOrNull(const Rule& rule) {
  std::vector<Term> frontier = FrontierArgVars(rule);
  for (const Literal& l : rule.body) {
    if (l.negated) continue;
    std::vector<Term> avars = l.atom.ArgVars();
    bool covers =
        std::all_of(frontier.begin(), frontier.end(), [&avars](Term v) {
          return std::find(avars.begin(), avars.end(), v) != avars.end();
        });
    if (covers) return &l.atom;
  }
  return nullptr;
}

Classification Classify(const Theory& theory) {
  Classification c;
  PositionSet affected = AffectedPositions(theory);
  c.datalog = true;
  c.guarded = true;
  c.frontier_guarded = true;
  c.weakly_guarded = true;
  c.weakly_frontier_guarded = true;
  c.nearly_guarded = true;
  c.nearly_frontier_guarded = true;
  for (const Rule& rule : theory.rules()) {
    if (!rule.EVars().empty() || rule.HasNegation()) c.datalog = false;
    if (!IsGuardedRule(rule)) c.guarded = false;
    if (!IsFrontierGuardedRule(rule)) c.frontier_guarded = false;
    if (!IsWeaklyGuardedRule(rule, affected)) c.weakly_guarded = false;
    if (!IsWeaklyFrontierGuardedRule(rule, affected))
      c.weakly_frontier_guarded = false;
    if (!IsNearlyGuardedRule(rule, affected)) c.nearly_guarded = false;
    if (!IsNearlyFrontierGuardedRule(rule, affected))
      c.nearly_frontier_guarded = false;
  }
  return c;
}

namespace {

// Packed positive-body positions of `x`, args then annotations (the
// flattening used by the Ω sets of core/acyclicity.h).
std::vector<uint64_t> PositiveBodyPositionsOf(const Rule& rule, Term x) {
  std::vector<uint64_t> out;
  for (const Literal& l : rule.body) {
    if (l.negated) continue;
    uint32_t pos = 0;
    for (Term t : l.atom.args) {
      if (t == x) out.push_back(PackPosition(l.atom.pred, pos));
      ++pos;
    }
    for (Term t : l.atom.annotation) {
      if (t == x) out.push_back(PackPosition(l.atom.pred, pos));
      ++pos;
    }
  }
  return out;
}

// Whether `x` is attacked through Ω(f): it occurs in the positive body
// and every occurrence sits on an invadable position, so the chase can
// bind it to an f-null.
bool AttackedThrough(const Rule& rule, Term x,
                     const std::unordered_set<uint64_t>& omega) {
  std::vector<uint64_t> pos = PositiveBodyPositionsOf(rule, x);
  if (pos.empty()) return false;
  return std::all_of(pos.begin(), pos.end(),
                     [&omega](uint64_t p) { return omega.count(p) > 0; });
}

// Indices of positive body literals whose atom mentions `x`.
std::vector<size_t> PositiveAtomsWith(const Rule& rule, Term x) {
  std::vector<size_t> out;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Literal& l = rule.body[i];
    if (l.negated) continue;
    std::vector<Term> all = l.atom.AllTerms();
    if (std::find(all.begin(), all.end(), x) != all.end()) out.push_back(i);
  }
  return out;
}

}  // namespace

bool IsLinearRule(const Rule& rule) {
  size_t positive = 0;
  for (const Literal& l : rule.body) {
    if (!l.negated) ++positive;
  }
  return positive <= 1;
}

bool IsFrontierOneRule(const Rule& rule) {
  return rule.FVars().size() <= 1;
}

bool IsJoinlessRule(const Rule& rule) {
  for (Term x : rule.UVars()) {
    if (PositiveAtomsWith(rule, x).size() > 1) return false;
  }
  return true;
}

bool IsDomainRestrictedRule(const Rule& rule) {
  // Distinct variables of the positive body.
  std::vector<Term> body_vars;
  for (const Atom& a : rule.PositiveBody()) {
    for (Term v : a.AllVars()) {
      if (std::find(body_vars.begin(), body_vars.end(), v) ==
          body_vars.end()) {
        body_vars.push_back(v);
      }
    }
  }
  for (const Atom& h : rule.head) {
    std::vector<Term> head_vars = h.AllVars();
    size_t present = 0;
    for (Term v : body_vars) {
      if (std::find(head_vars.begin(), head_vars.end(), v) !=
          head_vars.end()) {
        ++present;
      }
    }
    if (present != 0 && present != body_vars.size()) return false;
  }
  return true;
}

bool IsShyRule(const Rule& rule, const ExistentialDependencyGraph& graph) {
  // (i) No variable joining two distinct positive body atoms is
  // attacked: nulls never need to propagate through a join.
  for (Term x : rule.UVars()) {
    if (PositiveAtomsWith(rule, x).size() < 2) continue;
    for (const std::unordered_set<uint64_t>& omega : graph.omega) {
      if (AttackedThrough(rule, x, omega)) return false;
    }
  }
  // (ii) No two distinct frontier variables lacking a common body atom
  // are attacked by the same function: the head never equates two
  // independently-invented nulls.
  std::vector<Term> frontier = rule.FVars();
  for (size_t a = 0; a < frontier.size(); ++a) {
    for (size_t b = a + 1; b < frontier.size(); ++b) {
      std::vector<size_t> atoms_a = PositiveAtomsWith(rule, frontier[a]);
      std::vector<size_t> atoms_b = PositiveAtomsWith(rule, frontier[b]);
      bool share_atom = false;
      for (size_t i : atoms_a) {
        if (std::find(atoms_b.begin(), atoms_b.end(), i) != atoms_b.end()) {
          share_atom = true;
        }
      }
      if (share_atom) continue;
      for (const std::unordered_set<uint64_t>& omega : graph.omega) {
        if (AttackedThrough(rule, frontier[a], omega) &&
            AttackedThrough(rule, frontier[b], omega)) {
          return false;
        }
      }
    }
  }
  return true;
}

ExtendedClassification ClassifyExtended(const Theory& theory) {
  ExtendedClassification c;
  c.linear = true;
  c.frontier_one = true;
  c.joinless = true;
  c.domain_restricted = true;
  c.shy = true;
  ExistentialDependencyGraph graph = BuildExistentialDependencyGraph(theory);
  for (const Rule& rule : theory.rules()) {
    if (!IsLinearRule(rule)) c.linear = false;
    if (!IsFrontierOneRule(rule)) c.frontier_one = false;
    if (!IsJoinlessRule(rule)) c.joinless = false;
    if (!IsDomainRestrictedRule(rule)) c.domain_restricted = false;
    if (!IsShyRule(rule, graph)) c.shy = false;
  }
  return c;
}

namespace {

// Argument arity of each relation as used in `theory` (annotation-free
// atoms assumed; MakeProper runs before annotation transforms).
std::unordered_map<RelationId, uint32_t> RelationArities(
    const Theory& theory) {
  std::unordered_map<RelationId, uint32_t> out;
  auto note = [&out](const Atom& a) {
    GEREL_CHECK(a.annotation.empty());
    auto [it, inserted] = out.emplace(a.pred, a.args.size());
    if (!inserted) GEREL_CHECK(it->second == a.args.size());
  };
  for (const Rule& r : theory.rules()) {
    for (const Literal& l : r.body) note(l.atom);
    for (const Atom& a : r.head) note(a);
  }
  return out;
}

}  // namespace

Atom ProperReordering::Apply(const Atom& atom) const {
  auto it = permutation.find(atom.pred);
  if (it == permutation.end()) return atom;
  const std::vector<uint32_t>& perm = it->second;
  GEREL_CHECK(perm.size() == atom.args.size() && atom.annotation.empty());
  Atom out;
  out.pred = atom.pred;
  out.args.resize(atom.args.size());
  for (size_t i = 0; i < perm.size(); ++i) out.args[i] = atom.args[perm[i]];
  return out;
}

Atom ProperReordering::Invert(const Atom& atom) const {
  auto it = permutation.find(atom.pred);
  if (it == permutation.end()) return atom;
  const std::vector<uint32_t>& perm = it->second;
  GEREL_CHECK(perm.size() == atom.args.size() && atom.annotation.empty());
  Atom out;
  out.pred = atom.pred;
  out.args.resize(atom.args.size());
  for (size_t i = 0; i < perm.size(); ++i) out.args[perm[i]] = atom.args[i];
  return out;
}

Database ProperReordering::Apply(const Database& db) const {
  Database out;
  for (const Atom& a : db.atoms()) out.Insert(Apply(a));
  return out;
}

Database ProperReordering::Invert(const Database& db) const {
  Database out;
  for (const Atom& a : db.atoms()) out.Insert(Invert(a));
  return out;
}

ProperReordering MakeProper(const Theory& theory) {
  PositionSet affected = AffectedPositions(theory);
  ProperReordering out;
  for (const auto& [pred, arity] : RelationArities(theory)) {
    std::vector<uint32_t> perm;
    perm.reserve(arity);
    for (uint32_t i = 0; i < arity; ++i) {
      if (affected.Contains(pred, i)) perm.push_back(i);
    }
    for (uint32_t i = 0; i < arity; ++i) {
      if (!affected.Contains(pred, i)) perm.push_back(i);
    }
    out.permutation.emplace(pred, std::move(perm));
  }
  for (const Rule& r : theory.rules()) {
    Rule nr;
    for (const Literal& l : r.body) {
      nr.body.emplace_back(out.Apply(l.atom), l.negated);
    }
    for (const Atom& a : r.head) nr.head.push_back(out.Apply(a));
    out.theory.AddRule(std::move(nr));
  }
  return out;
}

bool IsSafelyAnnotated(const Theory& theory) {
  for (const Rule& rule : theory.rules()) {
    // (i) annotation variables never occur as arguments in the rule.
    std::vector<Term> annotation_vars;
    std::vector<Term> argument_vars;
    auto scan = [&](const Atom& a) {
      for (Term t : a.annotation) {
        if (t.IsVariable()) annotation_vars.push_back(t);
      }
      for (Term t : a.args) {
        if (t.IsVariable()) argument_vars.push_back(t);
      }
    };
    for (const Literal& l : rule.body) scan(l.atom);
    for (const Atom& a : rule.head) scan(a);
    for (Term v : annotation_vars) {
      if (std::find(argument_vars.begin(), argument_vars.end(), v) !=
          argument_vars.end()) {
        return false;
      }
    }
    // (ii) head-annotation variables occur in some body annotation.
    std::vector<Term> body_annotation_vars;
    for (const Literal& l : rule.body) {
      for (Term t : l.atom.annotation) {
        if (t.IsVariable()) body_annotation_vars.push_back(t);
      }
    }
    for (const Atom& a : rule.head) {
      for (Term t : a.annotation) {
        if (t.IsVariable() &&
            std::find(body_annotation_vars.begin(),
                      body_annotation_vars.end(),
                      t) == body_annotation_vars.end()) {
          return false;
        }
      }
    }
  }
  return true;
}

bool IsProper(const Theory& theory) {
  PositionSet affected = AffectedPositions(theory);
  for (const auto& [pred, arity] : RelationArities(theory)) {
    bool seen_unaffected = false;
    for (uint32_t i = 0; i < arity; ++i) {
      if (!affected.Contains(pred, i)) {
        seen_unaffected = true;
      } else if (seen_unaffected) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace gerel
