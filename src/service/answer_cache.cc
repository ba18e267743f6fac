#include "service/answer_cache.h"

#include "core/check.h"

namespace gerel {

bool AnswerCache::Lookup(const std::string& key, Entry* out) {
  if (capacity_ == 0) return false;
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->second;
  return true;
}

void AnswerCache::Insert(const std::string& key, Entry entry) {
  if (capacity_ == 0) return;
  lru_.emplace_front(key, std::move(entry));
  GEREL_CHECK(index_.emplace(key, lru_.begin()).second);
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

size_t AnswerCache::EvictReading(const std::unordered_set<RelationId>& preds,
                                 size_t* retained) {
  size_t evicted = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    bool affected = false;
    for (RelationId p : it->second.reads) {
      if (preds.count(p) != 0) {
        affected = true;
        break;
      }
    }
    if (affected) {
      index_.erase(it->first);
      it = lru_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  if (retained != nullptr) *retained = lru_.size();
  return evicted;
}

void AnswerCache::Clear() {
  lru_.clear();
  index_.clear();
}

}  // namespace gerel
