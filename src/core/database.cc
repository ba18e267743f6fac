#include "core/database.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "core/theory.h"

namespace gerel {

namespace {
const std::vector<uint32_t> kEmptyPostings;
}  // namespace

void Database::CopyFrom(const Database& other) {
  segments_.clear();
  segments_.reserve(other.segments_.size());
  for (const auto& seg : other.segments_) {
    segments_.push_back(std::make_unique<Segment>(*seg));
  }
  size_ = other.size_;
  set_ = other.set_;
  by_relation_ = other.by_relation_;
  by_position_ = other.by_position_;
  indexed_upto_ = other.indexed_upto_;
}

void Database::MoveFrom(Database* other) {
  segments_ = std::move(other->segments_);
  size_ = std::exchange(other->size_, 0);
  set_ = std::move(other->set_);
  by_relation_ = std::move(other->by_relation_);
  by_position_ = std::move(other->by_position_);
  indexed_upto_ = std::exchange(other->indexed_upto_, 0);
  other->segments_.clear();
  other->set_.clear();
  other->by_relation_.clear();
  other->by_position_.clear();
}

Database& Database::operator=(const Database& other) {
  if (this != &other) CopyFrom(other);
  return *this;
}

Database& Database::operator=(Database&& other) noexcept {
  if (this != &other) MoveFrom(&other);
  return *this;
}

bool Database::Insert(const Atom& atom) {
  if (!InsertDeferIndex(atom)) return false;
  IndexNewAtoms();
  return true;
}

bool Database::InsertDeferIndex(const Atom& atom) {
  GEREL_CHECK(atom.IsDatabaseAtom());
  if (!set_.insert(atom).second) return false;
  if ((size_ >> kSegmentBits) == segments_.size()) {
    segments_.push_back(std::make_unique<Segment>());
  }
  (*segments_[size_ >> kSegmentBits])[size_ & kSegmentMask] = atom;
  ++size_;
  return true;
}

void Database::IndexNewAtoms() {
  for (; indexed_upto_ < size_; ++indexed_upto_) {
    const Atom& a = atom(indexed_upto_);
    uint32_t index = static_cast<uint32_t>(indexed_upto_);
    by_relation_[a.pred].push_back(index);
    uint32_t pos = 0;
    for (Term t : a.args) {
      by_position_[PositionKey(a.pred, pos++, t)].push_back(index);
    }
    for (Term t : a.annotation) {
      by_position_[PositionKey(a.pred, pos++, t)].push_back(index);
    }
  }
}

bool Database::Contains(const Atom& atom) const {
  return set_.count(atom) > 0;
}

int64_t Database::Find(const Atom& atom) const {
  const std::vector<uint32_t>* postings = &AtomsOf(atom.pred);
  if (!atom.args.empty()) {
    const std::vector<uint32_t>& cand = AtomsAt(atom.pred, 0, atom.args[0]);
    if (cand.size() < postings->size()) postings = &cand;
  }
  for (uint32_t ai : *postings) {
    if (this->atom(ai) == atom) return ai;
  }
  return -1;
}

size_t Database::Erase(const std::vector<uint8_t>& erase,
                       std::vector<uint32_t>* remap) {
  GEREL_CHECK(erase.size() == size_);
  GEREL_CHECK(indexed_upto_ == size_);  // No deferred postings pending.
  remap->clear();
  const size_t first = static_cast<size_t>(
      std::find_if(erase.begin(), erase.end(),
                   [](uint8_t e) { return e != 0; }) -
      erase.begin());
  if (first == size_) return first;
  // Number the survivors and collect the position keys of every atom from
  // `first` on: only those postings lists hold indices that move.
  remap->resize(size_ - first);
  std::vector<PositionKey> keys;
  uint32_t next = static_cast<uint32_t>(first);
  for (size_t i = first; i < size_; ++i) {
    const Atom& a = atom(i);
    if (erase[i]) {
      (*remap)[i - first] = kErased;
      set_.erase(a);
    } else {
      (*remap)[i - first] = next++;
    }
    uint32_t pos = 0;
    for (Term t : a.args) keys.emplace_back(a.pred, pos++, t);
    for (Term t : a.annotation) keys.emplace_back(a.pred, pos++, t);
  }
  // Postings ascend, so each list is rewritten from `first` on; the
  // remap is monotone on survivors, so the rewritten lists still ascend.
  auto rewrite = [&](std::vector<uint32_t>* postings) {
    auto out = std::lower_bound(postings->begin(), postings->end(),
                                static_cast<uint32_t>(first));
    for (auto it = out; it != postings->end(); ++it) {
      uint32_t to = (*remap)[*it - first];
      if (to != kErased) *out++ = to;
    }
    postings->erase(out, postings->end());
  };
  for (auto it = by_relation_.begin(); it != by_relation_.end();) {
    rewrite(&it->second);
    it = it->second.empty() ? by_relation_.erase(it) : std::next(it);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const PositionKey& k : keys) {
    auto it = by_position_.find(k);
    rewrite(&it->second);
    if (it->second.empty()) by_position_.erase(it);
  }
  for (size_t i = first; i < size_; ++i) {
    uint32_t to = (*remap)[i - first];
    if (to != kErased && to != i) slot(to) = std::move(slot(i));
  }
  for (size_t i = next; i < size_; ++i) slot(i) = Atom();  // Frees args.
  size_ = next;
  indexed_upto_ = next;
  segments_.resize((size_ + kSegmentMask) >> kSegmentBits);
  return first;
}

std::vector<Atom> Database::AtomsVector() const {
  std::vector<Atom> out;
  size_t n = size();
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(atom(i));
  return out;
}

const std::vector<uint32_t>& Database::AtomsOf(RelationId pred) const {
  GEREL_CHECK(indexed_upto_ == size());  // IndexNewAtoms owed first.
  auto it = by_relation_.find(pred);
  return it == by_relation_.end() ? kEmptyPostings : it->second;
}

const std::vector<uint32_t>& Database::AtomsAt(RelationId pred, uint32_t pos,
                                               Term term) const {
  GEREL_CHECK(indexed_upto_ == size());  // IndexNewAtoms owed first.
  auto it = by_position_.find(PositionKey(pred, pos, term));
  return it == by_position_.end() ? kEmptyPostings : it->second;
}

std::vector<Term> Database::ActiveTerms(RelationId except) const {
  std::vector<Term> out;
  std::unordered_set<uint32_t> seen;
  for (const Atom& a : atoms()) {
    if (a.pred == except) continue;
    for (Term t : a.AllTerms()) {
      if (seen.insert(t.bits()).second) out.push_back(t);
    }
  }
  return out;
}

std::vector<Term> Database::ActiveTerms() const {
  return ActiveTerms(static_cast<RelationId>(-1));
}

std::vector<Term> Database::ActiveConstants() const {
  std::vector<Term> out;
  std::unordered_set<uint32_t> seen;
  for (const Atom& a : atoms()) {
    for (Term t : a.AllTerms()) {
      if (t.IsConstant() && seen.insert(t.bits()).second) out.push_back(t);
    }
  }
  return out;
}

bool operator==(const Database& a, const Database& b) {
  if (a.size() != b.size()) return false;
  for (const Atom& atom : a.atoms()) {
    if (!b.Contains(atom)) return false;
  }
  return true;
}

RelationId AcdomRelation(SymbolTable* symbols) {
  return symbols->Relation(kAcdomName, 1);
}

void PopulateAcdom(const Theory& theory, SymbolTable* symbols, Database* db) {
  RelationId acdom = AcdomRelation(symbols);
  for (Term t : db->ActiveTerms(acdom)) {
    db->Insert(Atom(acdom, {t}));
  }
  for (Term c : theory.Constants()) {
    db->Insert(Atom(acdom, {c}));
  }
}

}  // namespace gerel
