#include "testing/generator.h"

#include <algorithm>
#include <string>

#include "core/check.h"
#include "core/classify.h"
#include "core/printer.h"

namespace gerel::testing {

namespace {

bool IsExtendedGenClass(GenClass cls) {
  switch (cls) {
    case GenClass::kLinear:
    case GenClass::kFrontierOne:
    case GenClass::kJoinless:
    case GenClass::kDomainRestricted:
    case GenClass::kShy:
      return true;
    default:
      return false;
  }
}

bool InClass(const Classification& c, GenClass cls) {
  switch (cls) {
    case GenClass::kDatalog: return c.datalog;
    case GenClass::kGuarded: return c.guarded;
    case GenClass::kFrontierGuarded: return c.frontier_guarded;
    case GenClass::kWeaklyGuarded: return c.weakly_guarded;
    case GenClass::kWeaklyFrontierGuarded: return c.weakly_frontier_guarded;
    case GenClass::kNearlyGuarded: return c.nearly_guarded;
    case GenClass::kNearlyFrontierGuarded: return c.nearly_frontier_guarded;
    default: return false;
  }
}

bool InExtendedClass(const ExtendedClassification& c, GenClass cls) {
  switch (cls) {
    case GenClass::kLinear: return c.linear;
    case GenClass::kFrontierOne: return c.frontier_one;
    case GenClass::kJoinless: return c.joinless;
    case GenClass::kDomainRestricted: return c.domain_restricted;
    case GenClass::kShy: return c.shy;
    default: return false;
  }
}

}  // namespace

const char* GenClassTag(GenClass cls) {
  switch (cls) {
    case GenClass::kDatalog: return "dlg";
    case GenClass::kGuarded: return "g";
    case GenClass::kFrontierGuarded: return "fg";
    case GenClass::kWeaklyGuarded: return "wg";
    case GenClass::kWeaklyFrontierGuarded: return "wfg";
    case GenClass::kNearlyGuarded: return "ng";
    case GenClass::kNearlyFrontierGuarded: return "nfg";
    case GenClass::kLinear: return "lin";
    case GenClass::kFrontierOne: return "f1";
    case GenClass::kJoinless: return "jl";
    case GenClass::kDomainRestricted: return "dr";
    case GenClass::kShy: return "shy";
  }
  return "?";
}

bool ParseGenClass(std::string_view tag, GenClass* out) {
  for (GenClass cls : AllGenClasses()) {
    if (tag == GenClassTag(cls)) {
      *out = cls;
      return true;
    }
  }
  for (GenClass cls : ExtendedGenClasses()) {
    if (tag == GenClassTag(cls)) {
      *out = cls;
      return true;
    }
  }
  return false;
}

const std::vector<GenClass>& AllGenClasses() {
  static const std::vector<GenClass> kAll = {
      GenClass::kDatalog,
      GenClass::kGuarded,
      GenClass::kFrontierGuarded,
      GenClass::kWeaklyGuarded,
      GenClass::kWeaklyFrontierGuarded,
      GenClass::kNearlyGuarded,
      GenClass::kNearlyFrontierGuarded,
  };
  return kAll;
}

const std::vector<GenClass>& ExtendedGenClasses() {
  static const std::vector<GenClass> kExtended = {
      GenClass::kLinear,
      GenClass::kFrontierOne,
      GenClass::kJoinless,
      GenClass::kDomainRestricted,
      GenClass::kShy,
  };
  return kExtended;
}

CaseGenerator::CaseGenerator(unsigned seed, SymbolTable* symbols,
                             const GenOptions& options)
    : seed_(seed), rng_(seed), symbols_(symbols), options_(options) {}

Term CaseGenerator::RandomConstantTerm() {
  return constants_[rng_() % constants_.size()];
}

Atom CaseGenerator::RandomAtom(const RelInfo& rel,
                               const std::vector<Term>& pool) {
  std::vector<Term> args;
  for (int i = 0; i < rel.arity; ++i) {
    args.push_back(pool[rng_() % pool.size()]);
  }
  std::vector<Term> ann;
  for (int i = 0; i < rel.annotations; ++i) {
    // Annotation terms in rules stay constant: annotation variables never
    // interact with guardedness ("safely annotated"), and constants keep
    // every class decision about the argument structure alone.
    ann.push_back(RandomConstantTerm());
  }
  return Atom(rel.id, std::move(args), std::move(ann));
}

Rule CaseGenerator::GenerateRule(GenClass cls, int rule_index) {
  bool want_existential =
      cls != GenClass::kDatalog &&
      (rng_() % 1000) < static_cast<unsigned>(options_.existential_prob * 1000);
  // ng/nfg: a mix of (frontier-)guarded existential rules and plain
  // unguarded Datalog rules — that mix *is* the class boundary (Def 3).
  bool datalog_member = (cls == GenClass::kNearlyGuarded ||
                         cls == GenClass::kNearlyFrontierGuarded) &&
                        rng_() % 2 == 0;
  if (datalog_member) want_existential = false;
  bool theory_guard =
      (rng_() % 1000) < static_cast<unsigned>(options_.theory_guard_prob * 1000);

  // Variable pool for this rule. Theory-relation guards restrict the pool
  // to the guard atom's arity so one body atom can cover it.
  std::vector<Term> pool = vars_;
  std::vector<Atom> body;
  bool guard_all = cls == GenClass::kGuarded ||
                   (cls == GenClass::kNearlyGuarded && !datalog_member);
  bool guard_frontier = cls == GenClass::kFrontierGuarded ||
                        (cls == GenClass::kNearlyFrontierGuarded &&
                         !datalog_member);
  if (guard_all && theory_guard) {
    // The first body atom is the guard: its distinct variables are the
    // whole pool. Guard relations live in the theory, so they can receive
    // derived atoms (and nulls) — deeper chases than EDB-only guards.
    const RelInfo& rel = relations_[rng_() % relations_.size()];
    pool.resize(std::max(1, rel.arity));
    std::vector<Term> args;
    for (int i = 0; i < rel.arity; ++i) args.push_back(pool[i % pool.size()]);
    std::vector<Term> ann;
    for (int i = 0; i < rel.annotations; ++i) ann.push_back(RandomConstantTerm());
    body.push_back(Atom(rel.id, std::move(args), std::move(ann)));
  }
  int extra = 1 + static_cast<int>(rng_() % options_.max_body_atoms);
  for (int i = 0; i < extra && static_cast<int>(body.size()) <
                                   options_.max_body_atoms + 1;
       ++i) {
    body.push_back(RandomAtom(relations_[rng_() % relations_.size()], pool));
  }
  // Variables actually used in the body arguments.
  std::vector<Term> used;
  for (const Atom& a : body) {
    for (Term v : a.ArgVars()) {
      if (std::find(used.begin(), used.end(), v) == used.end()) used.push_back(v);
    }
  }
  if (used.empty()) {
    // All-constant body (possible when annotations swallowed the draw):
    // re-draw the first atom over the pool to get at least one variable.
    body[0] = RandomAtom(relations_[rng_() % relations_.size()], pool);
    used = body[0].ArgVars();
    if (used.empty()) {
      body[0].args[0] = pool[0];
      used.push_back(pool[0]);
    }
  }

  // Head relation, with a layered bias (head index >= max body index)
  // that keeps most predicate graphs acyclic and most chases finite.
  size_t max_body_index = 0;
  for (const Atom& a : body) {
    for (size_t j = 0; j < relations_.size(); ++j) {
      if (relations_[j].id == a.pred) max_body_index = std::max(max_body_index, j);
    }
  }
  const RelInfo* head_rel;
  if ((rng_() % 1000) < static_cast<unsigned>(options_.layered_prob * 1000) &&
      max_body_index + 1 < relations_.size()) {
    head_rel = &relations_[max_body_index +
                           rng_() % (relations_.size() - max_body_index)];
  } else {
    head_rel = &relations_[rng_() % relations_.size()];
  }

  // Frontier guards restrict head variables to one body atom's variables,
  // making that atom the frontier guard (boundary case: no extra guard
  // atom at all).
  std::vector<Term> head_pool = used;
  if (guard_frontier && theory_guard) {
    const Atom& fg = body[rng_() % body.size()];
    head_pool = fg.ArgVars();
    if (head_pool.empty()) head_pool = used;
  }
  Term evar = symbols_->Variable(IndexedName("E", rule_index));
  std::vector<Term> head_args;
  size_t epos = rng_() % std::max(1, head_rel->arity);
  for (int i = 0; i < head_rel->arity; ++i) {
    if (want_existential && static_cast<size_t>(i) == epos) {
      head_args.push_back(evar);
    } else {
      head_args.push_back(head_pool[rng_() % head_pool.size()]);
    }
  }
  std::vector<Term> head_ann;
  for (int i = 0; i < head_rel->annotations; ++i) {
    head_ann.push_back(RandomConstantTerm());
  }
  Rule rule = Rule::Positive(
      body, {Atom(head_rel->id, std::move(head_args), std::move(head_ann))});

  // EDB-only wide guards for the classes that still need one.
  auto add_wide_guard = [&](const std::vector<Term>& targets) {
    std::vector<Term> guard_args = targets;
    if (guard_args.empty()) guard_args.push_back(used[0]);
    size_t n = guard_args.size();
    while (static_cast<int>(guard_args.size()) < wide_.arity) {
      guard_args.push_back(guard_args[guard_args.size() % n]);
    }
    guard_args.resize(wide_.arity);
    rule.body.emplace_back(Atom(wide_.id, guard_args));
  };
  if (guard_all && !theory_guard && !IsGuardedRule(rule)) {
    add_wide_guard(used);
  } else if (guard_frontier && !theory_guard && !IsFrontierGuardedRule(rule)) {
    add_wide_guard(rule.FVars());
  }
  // wg/wfg rules leave unsafe variables unguarded here on purpose; the
  // repair pass guards exactly the unsafe set (the class boundary).
  return rule;
}

Rule CaseGenerator::GenerateExtendedRule(GenClass cls, int rule_index) {
  bool want_existential =
      (rng_() % 1000) <
      static_cast<unsigned>(options_.existential_prob * 1000);

  std::vector<Atom> body;
  if (cls == GenClass::kLinear) {
    // Linear: exactly one positive body atom.
    body.push_back(RandomAtom(relations_[rng_() % relations_.size()], vars_));
  } else if (cls == GenClass::kJoinless || cls == GenClass::kShy) {
    // Disjoint per-atom variable pools: no variable spans two theory
    // atoms, so joinlessness holds by construction (and shy's "no
    // attacked variable is joined" is vacuous for theory-atom joins).
    int atoms = 1 + static_cast<int>(rng_() % options_.max_body_atoms);
    for (int i = 0; i < atoms; ++i) {
      std::vector<Term> pool;
      for (int j = 0; j < 2; ++j) {
        std::string name = IndexedName("X", rule_index);
        name += IndexedName("_", i);
        name += IndexedName("_", j);
        pool.push_back(symbols_->Variable(name));
      }
      body.push_back(RandomAtom(relations_[rng_() % relations_.size()], pool));
    }
  } else {
    int atoms = 1 + static_cast<int>(rng_() % options_.max_body_atoms);
    for (int i = 0; i < atoms; ++i) {
      body.push_back(RandomAtom(relations_[rng_() % relations_.size()], vars_));
    }
  }
  std::vector<Term> used;
  for (const Atom& a : body) {
    for (Term v : a.ArgVars()) {
      if (std::find(used.begin(), used.end(), v) == used.end()) {
        used.push_back(v);
      }
    }
  }
  if (used.empty()) {
    // All-constant body (annotation draws): force one variable.
    body[0].args[0] = vars_[0];
    used.push_back(vars_[0]);
  }

  std::vector<Term> head_pool = used;
  if (cls == GenClass::kFrontierOne) {
    // Frontier-one: at most one universal variable reaches the head.
    head_pool = {used[rng_() % used.size()]};
  } else if (cls == GenClass::kShy) {
    // Shy: draw the whole frontier from one theory atom, so any two
    // frontier variables share a body atom. Joins (sometimes added below
    // through the wide EDB relation) stay harmless: wide never occurs in
    // a head, so its positions are never affected and the joined
    // variables are never attacked.
    const Atom& fa = body[rng_() % body.size()];
    head_pool = fa.ArgVars();
    if (head_pool.empty()) head_pool = {used[0]};
    if (body.size() >= 2 && rng_() % 2 == 0) {
      std::vector<Term> wide_args;
      for (const Atom& a : body) {
        for (Term v : a.ArgVars()) wide_args.push_back(v);
      }
      if (!wide_args.empty()) {
        size_t n = wide_args.size();
        while (static_cast<int>(wide_args.size()) < wide_.arity) {
          wide_args.push_back(wide_args[wide_args.size() % n]);
        }
        wide_args.resize(wide_.arity);
        body.push_back(Atom(wide_.id, std::move(wide_args)));
      }
    }
  }

  // Head relation, layered like GenerateRule to keep most chases shallow.
  size_t max_body_index = 0;
  for (const Atom& a : body) {
    for (size_t j = 0; j < relations_.size(); ++j) {
      if (relations_[j].id == a.pred) {
        max_body_index = std::max(max_body_index, j);
      }
    }
  }
  const RelInfo* head_rel;
  if ((rng_() % 1000) < static_cast<unsigned>(options_.layered_prob * 1000) &&
      max_body_index + 1 < relations_.size()) {
    head_rel = &relations_[max_body_index +
                           rng_() % (relations_.size() - max_body_index)];
  } else {
    head_rel = &relations_[rng_() % relations_.size()];
  }

  Term evar = symbols_->Variable(IndexedName("E", rule_index));
  std::vector<Term> head_args;
  if (cls == GenClass::kDomainRestricted) {
    // Each head atom uses all body variables or none of them. "All"
    // needs head arity >= |used|; otherwise (or on a coin flip) the head
    // is variable-free: existential and constant positions only.
    bool all = static_cast<size_t>(head_rel->arity) >= used.size() &&
               rng_() % 2 == 0;
    for (int i = 0; i < head_rel->arity; ++i) {
      if (all) {
        head_args.push_back(static_cast<size_t>(i) < used.size()
                                ? used[i]
                                : (want_existential ? evar
                                                    : used[i % used.size()]));
      } else {
        head_args.push_back(want_existential && i == 0 ? evar
                                                       : RandomConstantTerm());
      }
    }
  } else {
    size_t epos = rng_() % std::max(1, head_rel->arity);
    for (int i = 0; i < head_rel->arity; ++i) {
      if (want_existential && static_cast<size_t>(i) == epos) {
        head_args.push_back(evar);
      } else {
        head_args.push_back(head_pool[rng_() % head_pool.size()]);
      }
    }
  }
  std::vector<Term> head_ann;
  for (int i = 0; i < head_rel->annotations; ++i) {
    head_ann.push_back(RandomConstantTerm());
  }
  return Rule::Positive(
      body, {Atom(head_rel->id, std::move(head_args), std::move(head_ann))});
}

void CaseGenerator::RepairClass(GenClass cls, Theory* theory) {
  // Guarding with the wide relation only ever shrinks ap(Σ) (wide never
  // occurs in a head, so its positions are unaffected and every variable
  // it touches gains an unaffected occurrence); one or two passes settle.
  for (int pass = 0; pass < 3; ++pass) {
    if (InClass(Classify(*theory), cls)) return;
    PositionSet ap = AffectedPositions(*theory);
    for (Rule& rule : theory->mutable_rules()) {
      std::vector<Term> targets;
      bool ok = true;
      switch (cls) {
        case GenClass::kDatalog:
          ok = rule.IsDatalog();
          targets = rule.UVars();
          break;
        case GenClass::kGuarded:
          ok = IsGuardedRule(rule);
          targets = rule.UVars();
          break;
        case GenClass::kFrontierGuarded:
          ok = IsFrontierGuardedRule(rule);
          targets = rule.FVars();
          break;
        case GenClass::kWeaklyGuarded:
          ok = IsWeaklyGuardedRule(rule, ap);
          targets = UnsafeVars(rule, ap);
          break;
        case GenClass::kWeaklyFrontierGuarded: {
          ok = IsWeaklyFrontierGuardedRule(rule, ap);
          std::vector<Term> fvars = rule.FVars();
          for (Term v : UnsafeVars(rule, ap)) {
            if (std::find(fvars.begin(), fvars.end(), v) != fvars.end()) {
              targets.push_back(v);
            }
          }
          break;
        }
        case GenClass::kNearlyGuarded:
          ok = IsNearlyGuardedRule(rule, ap);
          targets = rule.UVars();
          break;
        case GenClass::kNearlyFrontierGuarded:
          ok = IsNearlyFrontierGuardedRule(rule, ap);
          targets = pass == 0 ? rule.FVars() : rule.UVars();
          break;
        default:  // Extended classes repair via RepairExtended.
          break;
      }
      if (ok) continue;
      GEREL_CHECK(cls != GenClass::kDatalog);  // dlg is correct by construction.
      std::vector<Term> guard_args = targets;
      if (guard_args.empty()) guard_args = rule.UVars();
      if (guard_args.empty()) continue;
      size_t n = guard_args.size();
      while (static_cast<int>(guard_args.size()) < wide_.arity) {
        guard_args.push_back(guard_args[guard_args.size() % n]);
      }
      guard_args.resize(wide_.arity);
      rule.body.emplace_back(Atom(wide_.id, guard_args));
    }
  }
  GEREL_CHECK(InClass(Classify(*theory), cls));
}

void CaseGenerator::RepairExtended(GenClass cls, Theory* theory) {
  // Extended membership is per-rule for linear/frontier-one/joinless/
  // domain-restricted but global for shy (it reads the Ω sets of the
  // whole theory), so off-class draws are *replaced* by an identity
  // projection rule — a member of every extended class — instead of
  // being guarded. Replacement only removes Skolem functions and Ω
  // entries, so rules already in class stay in class and one pass
  // settles (the second pass is a safety net).
  for (int pass = 0; pass < 2; ++pass) {
    if (InExtendedClass(ClassifyExtended(*theory), cls)) return;
    ExistentialDependencyGraph graph = BuildExistentialDependencyGraph(*theory);
    std::vector<Rule>& rules = theory->mutable_rules();
    for (size_t i = 0; i < rules.size(); ++i) {
      bool ok = true;
      switch (cls) {
        case GenClass::kLinear: ok = IsLinearRule(rules[i]); break;
        case GenClass::kFrontierOne: ok = IsFrontierOneRule(rules[i]); break;
        case GenClass::kJoinless: ok = IsJoinlessRule(rules[i]); break;
        case GenClass::kDomainRestricted:
          ok = IsDomainRestrictedRule(rules[i]);
          break;
        case GenClass::kShy: ok = IsShyRule(rules[i], graph); break;
        default: break;
      }
      if (ok) continue;
      const RelInfo& rel = relations_[i % relations_.size()];
      std::vector<Term> args(static_cast<size_t>(rel.arity), vars_[0]);
      std::vector<Term> ann;
      for (int j = 0; j < rel.annotations; ++j) ann.push_back(constants_[0]);
      Atom atom(rel.id, args, ann);
      rules[i] = Rule::Positive({atom}, {atom});
    }
  }
  GEREL_CHECK(InExtendedClass(ClassifyExtended(*theory), cls));
}

Rule CaseGenerator::GenerateQuery() {
  int atoms = 1 + static_cast<int>(rng_() % 2);
  std::vector<Term> qvars;
  for (int i = 0; i < 3; ++i) {
    qvars.push_back(symbols_->Variable(IndexedName("Q", i)));
  }
  Rule cq;
  std::vector<Term> used;
  for (int i = 0; i < atoms; ++i) {
    const RelInfo& rel = relations_[rng_() % relations_.size()];
    std::vector<Term> args;
    for (int j = 0; j < rel.arity; ++j) {
      if ((rng_() % 1000) <
          static_cast<unsigned>(options_.query_constant_prob * 1000)) {
        args.push_back(RandomConstantTerm());
      } else {
        Term v = qvars[rng_() % qvars.size()];
        args.push_back(v);
        if (std::find(used.begin(), used.end(), v) == used.end()) {
          used.push_back(v);
        }
      }
    }
    std::vector<Term> ann;
    for (int j = 0; j < rel.annotations; ++j) ann.push_back(RandomConstantTerm());
    cq.body.emplace_back(Atom(rel.id, std::move(args), std::move(ann)));
  }
  if (used.empty()) {
    // Force at least one variable so the query has answer positions.
    cq.body[0].atom.args[0] = qvars[0];
    used.push_back(qvars[0]);
  }
  int head_arity = 1 + static_cast<int>(rng_() % 2);
  std::vector<Term> head_args;
  for (int i = 0; i < head_arity; ++i) {
    head_args.push_back(used[rng_() % used.size()]);
  }
  if ((rng_() % 1000) <
      static_cast<unsigned>(options_.free_head_var_prob * 1000)) {
    head_args[0] = symbols_->Variable("F0");
  }
  std::string prefix =
      case_index_ == 0 ? "" : IndexedName("c", case_index_) + "_";
  RelationId q = symbols_->Relation(prefix + "q", head_arity);
  cq.head.push_back(Atom(q, std::move(head_args)));
  return cq;
}

Database CaseGenerator::GenerateDatabase() {
  Database db;
  for (int i = 0; i < options_.num_facts; ++i) {
    const RelInfo& rel =
        rng_() % 3 == 0 ? wide_ : relations_[rng_() % relations_.size()];
    std::vector<Term> args;
    for (int j = 0; j < rel.arity; ++j) args.push_back(RandomConstantTerm());
    std::vector<Term> ann;
    for (int j = 0; j < rel.annotations; ++j) ann.push_back(RandomConstantTerm());
    db.Insert(Atom(rel.id, std::move(args), std::move(ann)));
  }
  return db;
}

GeneratedCase CaseGenerator::Next(GenClass cls) {
  std::string prefix =
      case_index_ == 0 ? "" : IndexedName("c", case_index_) + "_";
  relations_.clear();
  for (int i = 0; i < options_.num_relations; ++i) {
    RelInfo rel;
    rel.arity = 1 + static_cast<int>(rng_() % options_.max_arity);
    rel.annotations =
        (rng_() % 1000) <
                static_cast<unsigned>(options_.annotation_prob * 1000)
            ? 1
            : 0;
    rel.id = symbols_->Relation(prefix + "p" + std::to_string(i),
                                rel.arity + rel.annotations);
    relations_.push_back(rel);
  }
  wide_ = {symbols_->Relation(prefix + "w", options_.num_vars),
           options_.num_vars, 0};
  vars_.clear();
  for (int i = 0; i < options_.num_vars; ++i) {
    vars_.push_back(symbols_->Variable(IndexedName("X", i)));
  }
  constants_.clear();
  for (int i = 0; i < options_.num_constants; ++i) {
    bool quoted = (rng_() % 1000) <
                  static_cast<unsigned>(options_.quoted_constant_prob * 1000);
    std::string name = quoted
                           ? "Quoted " + prefix + "k " + std::to_string(i)
                           : prefix + "k" + std::to_string(i);
    constants_.push_back(symbols_->Constant(name));
  }
  GeneratedCase out;
  out.seed = seed_;
  out.cls = cls;
  bool extended = IsExtendedGenClass(cls);
  for (int i = 0; i < options_.num_rules; ++i) {
    out.theory.AddRule(extended ? GenerateExtendedRule(cls, i)
                                : GenerateRule(cls, i));
  }
  if (extended) {
    RepairExtended(cls, &out.theory);
  } else {
    RepairClass(cls, &out.theory);
  }
  out.query = GenerateQuery();
  out.database = GenerateDatabase();
  ++case_index_;
  return out;
}

std::string CaseToString(const GeneratedCase& c, const SymbolTable& symbols) {
  std::string out = "% gerel fuzz repro: class=";
  out += GenClassTag(c.cls);
  out += " seed=" + std::to_string(c.seed) + "\n";
  out += ToString(c.theory, symbols);
  out += ToString(c.database, symbols);
  out += "% query: " + ToString(c.query, symbols) + "\n";
  return out;
}

}  // namespace gerel::testing
