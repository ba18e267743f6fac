#include "capture/string_database.h"

#include <cmath>
#include <map>

#include "core/check.h"

namespace gerel {

Result<StringDatabase> MakeStringDatabase(const std::vector<int>& word,
                                          const StringSignature& signature,
                                          SymbolTable* symbols) {
  int k = signature.degree;
  if (k < 1) return Status::Error("degree must be >= 1");
  if (word.empty()) return Status::Error("word must be non-empty");
  // Find n with n^k == |word| (Def 20 requires at least two constants).
  size_t n = 2;
  auto power = [&](size_t base) {
    size_t p = 1;
    for (int i = 0; i < k; ++i) p *= base;
    return p;
  };
  while (power(n) < word.size()) ++n;
  if (power(n) != word.size()) {
    return Status::Error("word length " + std::to_string(word.size()) +
                         " is not n^" + std::to_string(k) +
                         " for any n >= 2");
  }
  StringDatabase out;
  out.signature = signature;
  for (size_t i = 0; i < n; ++i) {
    out.domain.push_back(symbols->Constant(IndexedName("d", i)));
  }
  std::vector<RelationId> symbol_rels;
  for (const std::string& name : signature.alphabet) {
    symbol_rels.push_back(symbols->Relation(name, k));
  }
  // Symbol facts in lexicographic tuple order.
  auto tuple_at = [&](size_t index) {
    std::vector<Term> t(k);
    for (int i = k - 1; i >= 0; --i) {
      t[i] = out.domain[index % n];
      index /= n;
    }
    return t;
  };
  for (size_t i = 0; i < word.size(); ++i) {
    int sym = word[i];
    if (sym < 0 || sym >= static_cast<int>(symbol_rels.size())) {
      return Status::Error("symbol index out of range");
    }
    out.db.Insert(Atom(symbol_rels[sym], tuple_at(i)));
  }
  AppendLexTupleOrderFacts(out.domain, k, symbols, &out.db, signature.order);
  return out;
}

Result<std::vector<int>> ExtractWord(const Database& db,
                                     const StringSignature& signature,
                                     SymbolTable* symbols) {
  int k = signature.degree;
  RelationId firstk =
      symbols->Relation(signature.order.first + std::to_string(k), k);
  RelationId nextk =
      symbols->Relation(signature.order.next + std::to_string(k), 2 * k);
  RelationId lastk =
      symbols->Relation(signature.order.last + std::to_string(k), k);
  std::vector<RelationId> symbol_rels;
  for (const std::string& name : signature.alphabet) {
    symbol_rels.push_back(symbols->Relation(name, k));
  }
  if (db.AtomsOf(firstk).size() != 1 || db.AtomsOf(lastk).size() != 1) {
    return Status::Error("not a string database: first/last not unique");
  }
  // Successor map over tuples.
  std::map<std::vector<Term>, std::vector<Term>> successor;
  for (uint32_t i : db.AtomsOf(nextk)) {
    const Atom& a = db.atom(i);
    std::vector<Term> from(a.args.begin(), a.args.begin() + k);
    std::vector<Term> to(a.args.begin() + k, a.args.end());
    auto [it, inserted] = successor.emplace(std::move(from), std::move(to));
    if (!inserted) {
      return Status::Error("not a string database: branching next chain");
    }
  }
  auto symbol_of = [&](const std::vector<Term>& tuple) -> int {
    int found = -1;
    for (size_t s = 0; s < symbol_rels.size(); ++s) {
      if (db.Contains(Atom(symbol_rels[s], tuple))) {
        if (found >= 0) return -2;  // More than one symbol.
        found = static_cast<int>(s);
      }
    }
    return found;
  };
  std::vector<int> word;
  std::vector<Term> cur = db.atom(db.AtomsOf(firstk)[0]).args;
  const std::vector<Term> last = db.atom(db.AtomsOf(lastk)[0]).args;
  while (true) {
    int s = symbol_of(cur);
    if (s == -1) return Status::Error("tuple carries no symbol");
    if (s == -2) return Status::Error("tuple carries several symbols");
    word.push_back(s);
    if (cur == last) break;
    auto it = successor.find(cur);
    if (it == successor.end()) {
      return Status::Error("next chain does not reach last");
    }
    cur = it->second;
    if (word.size() > db.size()) {
      return Status::Error("next chain has a cycle");
    }
  }
  // The walk must consume the whole successor relation: stray edges mean
  // next<k> is not the successor relation of a total order (Def 20).
  if (successor.size() != word.size() - 1) {
    return Status::Error("next chain has edges outside the first-to-last "
                         "walk");
  }
  return word;
}

}  // namespace gerel
