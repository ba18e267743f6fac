// Per-atom derivation supports for incremental retraction (DRed).
//
// While a DatalogProgram materializes or extends a fixpoint it can
// record, for every atom it inserts, one witnessing derivation: the rule
// that fired and the database indices of the matched positive body
// atoms. Atoms inserted by the caller (EDB facts, acdom population,
// assert deltas) keep the default no-rule entry and count as base facts.
// Every recorded body index is strictly smaller than the derived atom's
// own index (a body matches atoms already stored), so a single forward
// pass in index order settles overdeletion (DatalogProgram::Retract).
// Database::Erase keeps the survivors in order, so a log compacted with
// its remap (Compact) stays well-founded. The program alone reads the
// log and decides when it is valid; its owner only supplies it.
//
// One support per atom is enough for soundness: overdeletion with a
// single witness may delete more than a multi-support variant would,
// but the rederivation phase restores exactly the surviving least-model
// atoms, so the final model is independent of which witness was kept.
#ifndef GEREL_DATALOG_SUPPORT_H_
#define GEREL_DATALOG_SUPPORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/check.h"
#include "core/database.h"

namespace gerel {

struct SupportLog {
  static constexpr uint32_t kNoRule = 0xffffffffu;

  struct Entry {
    uint32_t rule = kNoRule;  // Theory rule index, kNoRule for base facts.
    uint32_t begin = 0;       // [begin, end) into pool: body atom indices.
    uint32_t end = 0;
  };

  // entries[i] supports database atom i; indices past the recorded range
  // are base facts. pool holds the flattened body index groups.
  std::vector<Entry> entries;
  std::vector<uint32_t> pool;

  void Clear() {
    entries.clear();
    pool.clear();
  }

  // Records a witness for the atom at `atom_index`, which must be the
  // newest atom recorded so far (callers record the atom they just
  // inserted), so pool ranges ascend with atom index. The first recorded
  // derivation wins; an entry left at kNoRule (caller-inserted atom)
  // stays a base fact and is never overdeleted by support propagation.
  void Record(size_t atom_index, uint32_t rule, const uint32_t* body,
              size_t body_len) {
    GEREL_CHECK(atom_index + 1 >= entries.size());
    if (entries.size() <= atom_index) entries.resize(atom_index + 1);
    Entry& e = entries[atom_index];
    if (e.rule != kNoRule) return;
    e.rule = rule;
    e.begin = static_cast<uint32_t>(pool.size());
    pool.insert(pool.end(), body, body + body_len);
    e.end = static_cast<uint32_t>(pool.size());
  }

  Entry Of(size_t atom_index) const {
    return atom_index < entries.size() ? entries[atom_index] : Entry();
  }

  // Follows a Database::Erase of the supported atoms, given the `first`
  // and `remap` it returned. Entries below `first` stay as they are:
  // their bodies precede them. A survivor whose witness cites an erased
  // atom becomes a base entry. The pool is cut at the first recorded
  // entry from `first` on, and the survivors' bodies are rewritten there.
  void Compact(size_t first, const std::vector<uint32_t>& remap) {
    size_t i = first;
    while (i < entries.size() && entries[i].rule == kNoRule) ++i;
    if (i >= entries.size()) {  // Nothing recorded from `first` on.
      if (first < entries.size()) entries.resize(first);
      return;
    }
    // Writes never overtake reads: `tail` starts at the first range read
    // and each survivor writes at most what it read.
    uint32_t tail = entries[i].begin;
    uint32_t read_end = tail;
    size_t out = first;
    for (i = first; i < entries.size(); ++i) {
      Entry e = entries[i];
      if (e.rule != kNoRule) {
        GEREL_CHECK(e.begin >= read_end);  // Pool ranges ascend.
        read_end = e.end;
      }
      if (remap[i - first] == Database::kErased) continue;
      Entry kept;
      if (e.rule != kNoRule) {
        kept = {e.rule, tail, tail};
        for (uint32_t p = e.begin; p < e.end; ++p) {
          uint32_t b = pool[p];
          if (b >= first) b = remap[b - first];
          if (b == Database::kErased) {
            kept = Entry();  // Stale witness: a surviving base fact.
            break;
          }
          pool[kept.end++] = b;
        }
        if (kept.rule != kNoRule) tail = kept.end;
      }
      entries[out++] = kept;
    }
    entries.resize(out);
    pool.resize(tail);
  }
};

}  // namespace gerel

#endif  // GEREL_DATALOG_SUPPORT_H_
