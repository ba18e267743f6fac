// Atoms R(t1, ..., tn) and annotated atoms R[~a](~t) (paper §2).
//
// An annotated relation name R[~a] carries a tuple of terms in its name;
// the paper uses annotations to stash terms occurring in non-affected
// positions while translating weakly frontier-guarded theories (§5.2).
// We represent the annotation as a second term vector on the atom. The
// relation's declared arity counts args + annotation so that a(Σ)/a⁻(Σ)
// (Defs 17, 18) are inverse re-partitionings of the same positions.
#ifndef GEREL_CORE_ATOM_H_
#define GEREL_CORE_ATOM_H_

#include <cstdint>
#include <vector>

#include "core/symbol_table.h"
#include "core/term.h"

namespace gerel {

// An atom over a relation, with argument terms and an optional annotation.
struct Atom {
  RelationId pred = 0;
  std::vector<Term> args;
  std::vector<Term> annotation;

  Atom() = default;
  Atom(RelationId p, std::vector<Term> a) : pred(p), args(std::move(a)) {}
  Atom(RelationId p, std::vector<Term> a, std::vector<Term> ann)
      : pred(p), args(std::move(a)), annotation(std::move(ann)) {}

  size_t arity() const { return args.size() + annotation.size(); }

  // True iff all argument and annotation terms are constants. (Atoms over
  // constants and nulls are "database atoms"; see Atom::IsDatabaseAtom.)
  bool IsGroundOverConstants() const;
  // True iff no term is a variable (constants and nulls allowed).
  bool IsDatabaseAtom() const;

  // All terms: args then annotation, in position order.
  std::vector<Term> AllTerms() const;
  // The term at position `pos` of that order.
  Term& TermAt(size_t pos) {
    return pos < args.size() ? args[pos] : annotation[pos - args.size()];
  }
  Term TermAt(size_t pos) const {
    return pos < args.size() ? args[pos] : annotation[pos - args.size()];
  }
  // Distinct variables among the argument positions only. Guard and
  // frontier checks use argument variables (annotation terms never count
  // as "occurring in" an atom for guardedness; see Def "safely annotated").
  std::vector<Term> ArgVars() const;
  // Distinct variables among args and annotation.
  std::vector<Term> AllVars() const;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.pred == b.pred && a.args == b.args &&
           a.annotation == b.annotation;
  }
  friend bool operator!=(const Atom& a, const Atom& b) { return !(a == b); }
  friend bool operator<(const Atom& a, const Atom& b);
};

struct AtomHash {
  size_t operator()(const Atom& a) const;
};

// A body literal: an atom, possibly negated (stratified theories, §8).
struct Literal {
  Atom atom;
  bool negated = false;

  Literal() = default;
  explicit Literal(Atom a, bool neg = false)
      : atom(std::move(a)), negated(neg) {}

  friend bool operator==(const Literal& a, const Literal& b) {
    return a.negated == b.negated && a.atom == b.atom;
  }
  friend bool operator!=(const Literal& a, const Literal& b) {
    return !(a == b);
  }
};

}  // namespace gerel

#endif  // GEREL_CORE_ATOM_H_
