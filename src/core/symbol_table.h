// Interning of relation, constant, and variable names, and generation of
// fresh symbols (labeled nulls, auxiliary relations, fresh variables).
//
// A SymbolTable is shared by every theory/database that must agree on
// symbol identity. It also records the arity of each relation (counting
// both argument and annotation positions, see Atom) and checks consistency.
#ifndef GEREL_CORE_SYMBOL_TABLE_H_
#define GEREL_CORE_SYMBOL_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/term.h"

namespace gerel {

using RelationId = uint32_t;

// Interns names and hands out fresh ids. Not thread-safe.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = default;
  SymbolTable& operator=(const SymbolTable&) = default;

  // --- Relations ---------------------------------------------------------

  // Returns the id for `name`, interning it if new. `arity` (if >= 0) is
  // recorded on first sight and GEREL_CHECKed against later uses.
  RelationId Relation(std::string_view name, int arity = -1);
  const std::string& RelationName(RelationId id) const;
  // Arity of the relation (args + annotation positions), or -1 if not yet
  // recorded.
  int RelationArity(RelationId id) const;
  size_t NumRelations() const { return relation_names_.size(); }
  // Fresh relation derived from `base`, guaranteed unique ("base#k").
  RelationId FreshRelation(std::string_view base, int arity);

  // --- Constants ---------------------------------------------------------

  Term Constant(std::string_view name);
  const std::string& ConstantName(Term t) const;
  size_t NumConstants() const { return constant_names_.size(); }

  // --- Variables ---------------------------------------------------------

  Term Variable(std::string_view name);
  const std::string& VariableName(Term t) const;
  size_t NumVariables() const { return variable_names_.size(); }
  // Fresh variable derived from `base`, guaranteed unique ("Base#k").
  Term FreshVariable(std::string_view base);

  // --- Labeled nulls -----------------------------------------------------

  // Returns a fresh labeled null. Nulls are anonymous; they print as
  // "_n<k>".
  Term FreshNull() { return Term::Null(next_null_++); }
  // Interns a named null appearing in an input database file.
  Term NamedNull(std::string_view name);
  uint32_t NumNulls() const { return next_null_; }
  // Raises the null counter to at least `n`, so nulls with ids < n loaded
  // from a persisted snapshot never collide with future FreshNull calls.
  void RestoreNullCounter(uint32_t n) {
    if (n > next_null_) next_null_ = n;
  }
  // The (name, id) pairs NamedNull interned, sorted by id.
  std::vector<std::pair<std::string, uint32_t>> NamedNulls() const;
  // Re-interns a persisted named null at its original id. False, and no
  // change, when the name is already interned or `id` is not below the
  // null counter (restore the counter first).
  bool RestoreNamedNull(const std::string& name, uint32_t id);

  // Human-readable rendering of any ground or non-ground term.
  std::string TermName(Term t) const;

  // --- Find-only lookups (never intern) ----------------------------------

  // A name the table lacks maps to the kUnknown* stand-in of its kind.
  RelationId FindRelation(const std::string& name) const;
  Term FindConstant(const std::string& name) const;
  Term FindNamedNull(const std::string& name) const;
  // The name a NamedNull call interned null `t` under; empty for FreshNull
  // nulls. Linear in the named nulls: meant for a query's own small table.
  std::string NamedNullName(Term t) const;

 private:
  std::unordered_map<std::string, RelationId> relation_ids_;
  std::vector<std::string> relation_names_;
  std::vector<int> relation_arities_;

  std::unordered_map<std::string, uint32_t> constant_ids_;
  std::vector<std::string> constant_names_;

  std::unordered_map<std::string, uint32_t> variable_ids_;
  std::vector<std::string> variable_names_;

  std::unordered_map<std::string, uint32_t> named_nulls_;
  uint32_t next_null_ = 0;
  uint32_t fresh_counter_ = 0;
};

// Stand-ins for unknown names: the largest id of their kind, which a
// table would only issue after 2^30 - 1 names, so no atom holds them.
inline constexpr RelationId kUnknownRelation = ~RelationId{0};
inline const Term kUnknownConstant = Term::Constant((1u << 30) - 1);
inline const Term kUnknownNull = Term::Null((1u << 30) - 1);

// `prefix` followed by the decimal `index` ("k3"): how generators and
// translations name the constants, variables and relations they mint.
// Built by appending: GCC 12 flags the equivalent `"k" + std::to_string(i)`
// with a false-positive -Wrestrict at -O3.
std::string IndexedName(std::string_view prefix, uint64_t index);

}  // namespace gerel

#endif  // GEREL_CORE_SYMBOL_TABLE_H_
