// Random theory/database generators for the property-based tests (now part of gerel_testing; see generator.h for the class-targeted generator).
#ifndef GEREL_TESTING_RANDOM_THEORIES_H_
#define GEREL_TESTING_RANDOM_THEORIES_H_

#include <random>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/rule.h"
#include "core/symbol_table.h"
#include "core/theory.h"

namespace gerel::testing {

struct RandomParams {
  int num_relations = 4;
  int max_arity = 2;
  int num_rules = 4;
  int max_body_atoms = 3;
  int num_vars = 4;
  // Probability that a rule gets an existential head variable.
  double existential_prob = 0.3;
  // Force every rule to be guarded (adds a wide guard atom when needed).
  bool force_guarded = false;
  // Force every rule to be frontier-guarded (adds a frontier guard).
  bool force_frontier_guarded = false;
};

class RandomTheoryGen {
 public:
  RandomTheoryGen(unsigned seed, SymbolTable* symbols)
      : rng_(seed), symbols_(symbols) {}

  Theory Theory_(const RandomParams& p) {
    relations_.clear();
    for (int i = 0; i < p.num_relations; ++i) {
      int arity = 1 + static_cast<int>(rng_() % p.max_arity);
      relations_.push_back(
          {symbols_->Relation(IndexedName("p", i), arity), arity});
    }
    // A wide relation able to guard any rule of this generator.
    wide_ = {symbols_->Relation("wide", p.num_vars), p.num_vars};
    vars_.clear();
    for (int i = 0; i < p.num_vars; ++i) {
      vars_.push_back(symbols_->Variable(IndexedName("R", i)));
    }
    Theory out;
    for (int i = 0; i < p.num_rules; ++i) out.AddRule(Rule_(p));
    return out;
  }

  // A database over the generator's relations (including `wide`).
  Database Database_(int num_atoms, int num_constants) {
    std::vector<Term> constants;
    for (int i = 0; i < num_constants; ++i) {
      constants.push_back(symbols_->Constant(IndexedName("k", i)));
    }
    Database db;
    for (int i = 0; i < num_atoms; ++i) {
      const RelInfo& rel = (rng_() % 4 == 0 && wide_.arity > 0)
                               ? wide_
                               : relations_[rng_() % relations_.size()];
      std::vector<Term> args;
      for (int j = 0; j < rel.arity; ++j) {
        args.push_back(constants[rng_() % constants.size()]);
      }
      db.Insert(Atom(rel.id, args));
    }
    return db;
  }

  std::mt19937& rng() { return rng_; }

 private:
  struct RelInfo {
    RelationId id = 0;
    int arity = 0;
  };

  Atom RandomAtom(const std::vector<Term>& pool) {
    const RelInfo& rel = relations_[rng_() % relations_.size()];
    std::vector<Term> args;
    for (int i = 0; i < rel.arity; ++i) {
      args.push_back(pool[rng_() % pool.size()]);
    }
    return Atom(rel.id, args);
  }

  Rule Rule_(const RandomParams& p) {
    int body_atoms = 1 + static_cast<int>(rng_() % p.max_body_atoms);
    std::vector<Atom> body;
    std::vector<Term> used;
    for (int i = 0; i < body_atoms; ++i) {
      Atom a = RandomAtom(vars_);
      for (Term v : a.AllVars()) {
        if (std::find(used.begin(), used.end(), v) == used.end()) {
          used.push_back(v);
        }
      }
      body.push_back(std::move(a));
    }
    // Head over body variables, possibly with one existential variable.
    const RelInfo& head_rel = relations_[rng_() % relations_.size()];
    bool existential =
        (rng_() % 1000) < static_cast<unsigned>(p.existential_prob * 1000);
    Term evar = symbols_->Variable("E0");
    std::vector<Term> head_args;
    for (int i = 0; i < head_rel.arity; ++i) {
      if (existential && i == 0) {
        head_args.push_back(evar);
      } else {
        head_args.push_back(used[rng_() % used.size()]);
      }
    }
    Rule rule = Rule::Positive(body, {Atom(head_rel.id, head_args)});
    if (p.force_guarded) {
      // Guard with the wide relation over all body variables.
      std::vector<Term> guard_args = used;
      while (static_cast<int>(guard_args.size()) < wide_.arity) {
        guard_args.push_back(used[rng_() % used.size()]);
      }
      guard_args.resize(wide_.arity);
      // If the rule has more distinct vars than wide's arity, drop the
      // extras by merging them into guard vars (regenerate the body over
      // the guard vars instead — simplest: restrict used set).
      rule.body.emplace_back(Atom(wide_.id, guard_args));
      // Re-check: if some variable is outside the guard, substitute it.
      // (Only possible when used.size() > wide arity, which the params
      // prevent: num_vars == wide arity.)
    } else if (p.force_frontier_guarded) {
      std::vector<Term> frontier;
      for (Term v : rule.head[0].AllVars()) {
        if (std::find(used.begin(), used.end(), v) != used.end()) {
          frontier.push_back(v);
        }
      }
      if (!frontier.empty()) {
        std::vector<Term> guard_args = frontier;
        while (static_cast<int>(guard_args.size()) < wide_.arity) {
          guard_args.push_back(frontier[rng_() % frontier.size()]);
        }
        guard_args.resize(wide_.arity);
        rule.body.emplace_back(Atom(wide_.id, guard_args));
      }
    }
    return rule;
  }

  std::mt19937 rng_;
  SymbolTable* symbols_;
  std::vector<RelInfo> relations_;
  RelInfo wide_;
  std::vector<Term> vars_;
};

}  // namespace gerel::testing

#endif  // GEREL_TESTING_RANDOM_THEORIES_H_
