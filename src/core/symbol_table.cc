#include "core/symbol_table.h"

#include <algorithm>
#include <string>

#include "core/check.h"

namespace gerel {

RelationId SymbolTable::Relation(std::string_view name, int arity) {
  auto it = relation_ids_.find(std::string(name));
  if (it != relation_ids_.end()) {
    if (arity >= 0) {
      int& recorded = relation_arities_[it->second];
      if (recorded < 0) {
        recorded = arity;
      } else {
        GEREL_CHECK(recorded == arity);
      }
    }
    return it->second;
  }
  RelationId id = static_cast<RelationId>(relation_names_.size());
  relation_ids_.emplace(std::string(name), id);
  relation_names_.emplace_back(name);
  relation_arities_.push_back(arity);
  return id;
}

const std::string& SymbolTable::RelationName(RelationId id) const {
  GEREL_CHECK(id < relation_names_.size());
  return relation_names_[id];
}

int SymbolTable::RelationArity(RelationId id) const {
  GEREL_CHECK(id < relation_arities_.size());
  return relation_arities_[id];
}

RelationId SymbolTable::FreshRelation(std::string_view base, int arity) {
  std::string candidate;
  do {
    candidate = std::string(base) + "#" + std::to_string(fresh_counter_++);
  } while (relation_ids_.count(candidate) > 0);
  return Relation(candidate, arity);
}

Term SymbolTable::Constant(std::string_view name) {
  auto it = constant_ids_.find(std::string(name));
  if (it != constant_ids_.end()) return Term::Constant(it->second);
  uint32_t id = static_cast<uint32_t>(constant_names_.size());
  constant_ids_.emplace(std::string(name), id);
  constant_names_.emplace_back(name);
  return Term::Constant(id);
}

const std::string& SymbolTable::ConstantName(Term t) const {
  GEREL_CHECK(t.IsConstant() && t.id() < constant_names_.size());
  return constant_names_[t.id()];
}

Term SymbolTable::Variable(std::string_view name) {
  auto it = variable_ids_.find(std::string(name));
  if (it != variable_ids_.end()) return Term::Variable(it->second);
  uint32_t id = static_cast<uint32_t>(variable_names_.size());
  variable_ids_.emplace(std::string(name), id);
  variable_names_.emplace_back(name);
  return Term::Variable(id);
}

const std::string& SymbolTable::VariableName(Term t) const {
  GEREL_CHECK(t.IsVariable() && t.id() < variable_names_.size());
  return variable_names_[t.id()];
}

Term SymbolTable::FreshVariable(std::string_view base) {
  std::string candidate;
  do {
    candidate = std::string(base) + "#" + std::to_string(fresh_counter_++);
  } while (variable_ids_.count(candidate) > 0);
  return Variable(candidate);
}

Term SymbolTable::NamedNull(std::string_view name) {
  auto it = named_nulls_.find(std::string(name));
  if (it != named_nulls_.end()) return Term::Null(it->second);
  uint32_t id = next_null_++;
  named_nulls_.emplace(std::string(name), id);
  return Term::Null(id);
}

std::vector<std::pair<std::string, uint32_t>> SymbolTable::NamedNulls()
    const {
  std::vector<std::pair<std::string, uint32_t>> out(named_nulls_.begin(),
                                                    named_nulls_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return out;
}

bool SymbolTable::RestoreNamedNull(const std::string& name, uint32_t id) {
  if (id >= next_null_) return false;
  return named_nulls_.emplace(name, id).second;
}

std::string SymbolTable::TermName(Term t) const {
  switch (t.kind()) {
    case TermKind::kConstant:
      return ConstantName(t);
    case TermKind::kVariable:
      return VariableName(t);
    case TermKind::kNull:
      // Named nulls print by their id too: names are only used to merge
      // occurrences at parse time.
      return "_n" + std::to_string(t.id());
  }
  GEREL_CHECK(false);
  return "";
}

RelationId SymbolTable::FindRelation(const std::string& name) const {
  auto it = relation_ids_.find(name);
  return it == relation_ids_.end() ? kUnknownRelation : it->second;
}

Term SymbolTable::FindConstant(const std::string& name) const {
  auto it = constant_ids_.find(name);
  return it == constant_ids_.end() ? kUnknownConstant
                                   : Term::Constant(it->second);
}

Term SymbolTable::FindNamedNull(const std::string& name) const {
  auto it = named_nulls_.find(name);
  return it == named_nulls_.end() ? kUnknownNull : Term::Null(it->second);
}

std::string SymbolTable::NamedNullName(Term t) const {
  for (const auto& [name, id] : named_nulls_) {
    if (id == t.id()) return name;
  }
  return "";
}

std::string IndexedName(std::string_view prefix, uint64_t index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

}  // namespace gerel
