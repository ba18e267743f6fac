// An LRU cache of answer sets keyed by the canonicalized conjunctive
// query (DESIGN.md §7).
//
// Single owner, like the PreparedKb that holds it: no lock, and callers
// serialize every call. Invalidation is dependency-aware: every entry
// carries the set of predicates its compiled join read (body relations
// plus any appended acdom guards), and a write (Assert/Retract) evicts,
// via EvictReading, only the entries whose read-set intersects the
// dependency closure of the changed predicates — cached answers over
// unrelated predicates survive the write. Clear() remains for program recompilation, where
// the rule set itself (and hence every read-set's meaning) changes.
#ifndef GEREL_SERVICE_ANSWER_CACHE_H_
#define GEREL_SERVICE_ANSWER_CACHE_H_

#include <list>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/symbol_table.h"
#include "core/term.h"

namespace gerel {

class AnswerCache {
 public:
  struct Entry {
    std::set<std::vector<Term>> answers;
    bool complete = true;
    // Predicates the answering join read, sorted and deduplicated by the
    // caller; the invalidation key for EvictReading.
    std::vector<RelationId> reads;
  };

  // `capacity` = maximum number of cached queries; 0 disables the cache
  // (Lookup always misses, Insert is a no-op).
  explicit AnswerCache(size_t capacity) : capacity_(capacity) {}

  // On hit, copies the entry into *out, promotes the key to
  // most-recently-used, and returns true.
  bool Lookup(const std::string& key, Entry* out);

  // Inserts the entry for a key that is not cached (callers insert after
  // a Lookup miss), evicting the least-recently-used key when over
  // capacity.
  void Insert(const std::string& key, Entry entry);

  // Drops every entry whose read-set intersects `preds` (the dependency
  // closure of a write). Returns the number of entries evicted; when
  // `retained` is non-null it receives the number of entries that
  // survived the sweep (the selectivity counters in ServiceStats).
  size_t EvictReading(const std::unordered_set<RelationId>& preds,
                      size_t* retained = nullptr);

  // Drops every entry (program recompiled).
  void Clear();

  size_t size() const { return lru_.size(); }

 private:
  using LruList = std::list<std::pair<std::string, Entry>>;

  const size_t capacity_;
  LruList lru_;  // Front = most recently used.
  std::unordered_map<std::string, LruList::iterator> index_;
};

}  // namespace gerel

#endif  // GEREL_SERVICE_ANSWER_CACHE_H_
