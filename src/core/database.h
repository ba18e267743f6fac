// Databases: sets of atoms over constants and labeled nulls (paper §2),
// with per-relation and per-(relation, position, term) indexes used by the
// homomorphism matcher, the chase, and the Datalog engine.
//
// Storage layout: atoms live in fixed-size segments behind a slot
// directory, so inserting never moves a stored atom.
// JoinExecutor::ExecuteSeeded holds a reference to db.atom(i) as its seed
// while a db_grows visitor inserts into the same database. Erase does move
// atoms, so it must never run while a join reads the database.
//
// Threading contract: a Database has a single owner. All mutation goes
// through one thread; concurrent readers are safe only while no thread
// mutates. No engine reads a Database from several threads (the
// saturation lanes work on rules, not facts).
#ifndef GEREL_CORE_DATABASE_H_
#define GEREL_CORE_DATABASE_H_

#include <array>
#include <cstdint>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/atom.h"
#include "core/symbol_table.h"
#include "core/term.h"

namespace gerel {

class Theory;

// A set of database atoms (ground over constants/nulls). Atom identities
// are dense indices [0, size()); insertion order is preserved, which the
// chase relies on for fairness. Erase removes a batch of atoms and keeps
// the survivors in that order.
class Database {
 public:
  // Erase's remap value for a removed atom.
  static constexpr uint32_t kErased = 0xffffffffu;

  Database() = default;
  Database(const Database& other) { CopyFrom(other); }
  Database& operator=(const Database& other);
  Database(Database&& other) noexcept { MoveFrom(&other); }
  Database& operator=(Database&& other) noexcept;

  // Inserts `atom`; returns true if it was new. CHECK-fails on atoms
  // containing variables.
  bool Insert(const Atom& atom);
  // Like Insert, but postings-index maintenance is deferred; call
  // IndexNewAtoms before the next AtomsOf/AtomsAt. Lets the chase merge
  // append a whole round and index it once at the round boundary.
  bool InsertDeferIndex(const Atom& atom);
  // Builds postings for all atoms inserted since the last build.
  void IndexNewAtoms();

  bool Contains(const Atom& atom) const;
  // The index of `atom`, found through its postings (its relation's, or
  // its first position's when that list is shorter); -1 if absent.
  // CHECK-fails while postings are deferred.
  int64_t Find(const Atom& atom) const;

  // Removes every atom i with erase[i] != 0 (erase.size() == size()) and
  // returns `first`, the lowest removed index (size() if none). Survivors
  // keep their relative order: atoms below `first` keep their index, and
  // (*remap)[i - first] is the new index of atom i >= first, or kErased.
  // Removed atoms leave the dedup set and the postings (a re-insert
  // appends them at the end). CHECK-fails while postings are deferred.
  size_t Erase(const std::vector<uint8_t>& erase,
               std::vector<uint32_t>* remap);

  size_t size() const { return size_; }
  bool empty() const { return size() == 0; }
  const Atom& atom(size_t i) const {
    return (*segments_[i >> kSegmentBits])[i & kSegmentMask];
  }

  // A lightweight view over the atoms in insertion order (the segmented
  // store has no single contiguous vector to expose).
  class AtomIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Atom;
    using difference_type = std::ptrdiff_t;
    using pointer = const Atom*;
    using reference = const Atom&;

    AtomIterator(const Database* db, size_t i) : db_(db), i_(i) {}
    reference operator*() const { return db_->atom(i_); }
    pointer operator->() const { return &db_->atom(i_); }
    AtomIterator& operator++() {
      ++i_;
      return *this;
    }
    AtomIterator operator++(int) {
      AtomIterator tmp = *this;
      ++i_;
      return tmp;
    }
    friend bool operator==(const AtomIterator& a, const AtomIterator& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const AtomIterator& a, const AtomIterator& b) {
      return a.i_ != b.i_;
    }

   private:
    const Database* db_;
    size_t i_;
  };
  class AtomRange {
   public:
    AtomRange(const Database* db, size_t n) : db_(db), n_(n) {}
    AtomIterator begin() const { return AtomIterator(db_, 0); }
    AtomIterator end() const { return AtomIterator(db_, n_); }
    size_t size() const { return n_; }

   private:
    const Database* db_;
    size_t n_;
  };
  // Lvalue-only: iterating the atoms of a *temporary* database would
  // dangle (the classic range-for-over-member pitfall), so it is a
  // compile error.
  AtomRange atoms() const& { return AtomRange(this, size()); }
  AtomRange atoms() const&& = delete;
  // Materialized copy, for callers that need a real vector.
  std::vector<Atom> AtomsVector() const;

  // Indices of atoms with the given relation.
  const std::vector<uint32_t>& AtomsOf(RelationId pred) const;
  // Indices of atoms with `term` at flattened position `pos` of `pred`
  // (argument positions first, then annotation positions).
  const std::vector<uint32_t>& AtomsAt(RelationId pred, uint32_t pos,
                                       Term term) const;

  // Distinct ground terms occurring in atoms (constants and nulls), in
  // first-occurrence order. Excludes atoms of `except` (pass the acdom
  // relation to get the active domain).
  std::vector<Term> ActiveTerms(RelationId except) const;
  std::vector<Term> ActiveTerms() const;
  // Distinct constants occurring in atoms.
  std::vector<Term> ActiveConstants() const;

  friend bool operator==(const Database& a, const Database& b);

 private:
  static constexpr size_t kSegmentBits = 9;  // 512 atoms per segment.
  static constexpr size_t kSegmentSize = size_t{1} << kSegmentBits;
  static constexpr size_t kSegmentMask = kSegmentSize - 1;

  using Segment = std::array<Atom, kSegmentSize>;

  // A (relation, position, term) index key. The seed packed all three
  // into 64 bits as (pred << 40) ^ (pos << 32) ^ term.bits(), which let
  // any position >= 256 bleed into the relation bits (a high-arity atom
  // could alias another relation's postings); the full 96 bits are kept
  // collision-free here.
  struct PositionKey {
    uint64_t pred_pos = 0;  // pred << 32 | pos
    uint32_t term = 0;

    PositionKey() = default;
    PositionKey(RelationId pred, uint32_t pos, Term t)
        : pred_pos((static_cast<uint64_t>(pred) << 32) | pos),
          term(t.bits()) {}

    friend bool operator==(const PositionKey& a, const PositionKey& b) {
      return a.pred_pos == b.pred_pos && a.term == b.term;
    }
    friend bool operator<(const PositionKey& a, const PositionKey& b) {
      return a.pred_pos != b.pred_pos ? a.pred_pos < b.pred_pos
                                      : a.term < b.term;
    }
  };
  struct PositionKeyHash {
    size_t operator()(const PositionKey& k) const {
      uint64_t h = (k.pred_pos + 0x9E3779B97F4A7C15ull) * 0xBF58476D1CE4E5B9ull;
      h ^= (static_cast<uint64_t>(k.term) + 0x94D049BB133111EBull) *
           0xC2B2AE3D27D4EB4Full;
      return static_cast<size_t>(h ^ (h >> 31));
    }
  };

  void CopyFrom(const Database& other);
  void MoveFrom(Database* other);
  Atom& slot(size_t i) {
    return (*segments_[i >> kSegmentBits])[i & kSegmentMask];
  }

  std::vector<std::unique_ptr<Segment>> segments_;
  size_t size_ = 0;
  std::unordered_set<Atom, AtomHash> set_;
  std::unordered_map<RelationId, std::vector<uint32_t>> by_relation_;
  std::unordered_map<PositionKey, std::vector<uint32_t>, PositionKeyHash>
      by_position_;
  // Atoms [0, indexed_upto_) have postings; InsertDeferIndex leaves the
  // tail unindexed until IndexNewAtoms.
  size_t indexed_upto_ = 0;
};

// The name of the built-in active-constant-domain relation (paper §2,
// "Further Notions").
inline constexpr char kAcdomName[] = "acdom";

// Interns and returns the acdom relation id.
RelationId AcdomRelation(SymbolTable* symbols);

// Adds acdom(t) for every term occurring in a non-acdom atom of `db` and
// for every constant of `theory` (theory constants materialize as → R(c)
// facts in the chase root, so they belong to the active domain).
void PopulateAcdom(const Theory& theory, SymbolTable* symbols, Database* db);

}  // namespace gerel

#endif  // GEREL_CORE_DATABASE_H_
