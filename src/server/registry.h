// Multi-tenant registry: named PreparedKb instances served by one
// process (DESIGN.md §10).
//
// Each tenant owns its PreparedKb *and its SymbolTable*, neither of which
// locks itself. One mutex per tenant serializes the requests on it: each
// Dispatcher op, Drop and SaveDirty takes it once, for the whole
// operation. A served query takes two locks, the registry map's and the
// tenant's, and only reads the tenant's table (DESIGN.md §10).
//
// Replication cursor: every tenant carries (epoch, seq). epoch starts
// at 1 on prepare or snapshot load and bumps — resetting seq to 0 —
// whenever the model is rebuilt from the EDB (a re-materializing
// assert or retract). seq increments once per delta-path assert batch
// and once per DRed-path retract batch. A replica
// that applies batches in seq order within an epoch and resyncs on an
// epoch bump reconstructs the primary's model exactly (DESIGN.md §10);
// the cursor is already on the wire so replication needs no protocol
// break.
#ifndef GEREL_SERVER_REGISTRY_H_
#define GEREL_SERVER_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/symbol_table.h"
#include "service/prepared_kb.h"

namespace gerel {
namespace server {

struct Tenant {
  std::string name;
  // Set when the registry prepared/loaded the KB itself; Adopt leaves
  // them null and points the raw aliases at caller-owned objects.
  std::unique_ptr<SymbolTable> owned_symbols;
  std::unique_ptr<PreparedKb> owned_kb;
  SymbolTable* symbols = nullptr;
  PreparedKb* kb = nullptr;
  // The tenant's only lock (see header comment): guards kb, symbols and
  // the fields below. Never take the registry map lock while holding it.
  std::mutex mu;
  // Replication cursor; guarded by mu.
  uint64_t epoch = 1;
  uint64_t seq = 0;
  // Mutated since the last snapshot save; guarded by mu.
  bool dirty = false;
  // FNV-1a fingerprint of the source program ("" text → unchecked).
  uint64_t fingerprint = 0;
  // Default snapshot target (snapshot_dir/<name>.snap); empty when the
  // registry has no snapshot directory.
  std::string snapshot_path;
};

class TenantRegistry {
 public:
  struct Config {
    // Options applied to every Prepare/LoadSnapshot (budget, threads,
    // caps, cache size).
    PreparedKbOptions kb_options;
    // Warm-restart directory; tenants save to <dir>/<name>.snap. Empty
    // disables persistence.
    std::string snapshot_dir;
    size_t max_tenants = 64;
  };

  explicit TenantRegistry(Config config) : config_(std::move(config)) {}

  // Creates tenant `name` from `program_text`. With a snapshot dir, a
  // matching-fingerprint snapshot is loaded instead of re-materializing
  // (warm start) and a fresh prepare saves one for next time.
  // `max_rules` != 0 caps the rewrite/grounding/saturation stages for
  // this tenant only. Fails with kb_exists/bad_name/parse-style
  // messages (the dispatcher maps them to wire codes).
  struct PrepareInfo {
    bool loaded_snapshot = false;
  };
  Result<std::shared_ptr<Tenant>> Prepare(const std::string& name,
                                          const std::string& program_text,
                                          size_t max_rules,
                                          PrepareInfo* info);

  // Registers an externally-owned KB (the CLI serve path and tests).
  // `kb` and `symbols` must outlive the tenant.
  Result<std::shared_ptr<Tenant>> Adopt(const std::string& name,
                                        PreparedKb* kb,
                                        SymbolTable* symbols,
                                        const std::string& snapshot_path);

  std::shared_ptr<Tenant> Find(const std::string& name) const;
  // All tenants, name-sorted.
  std::vector<std::shared_ptr<Tenant>> All() const;

  // Unregisters `name`, saving first when dirty and persistent. Requests
  // already holding the tenant shared_ptr finish safely.
  Status Drop(const std::string& name);

  // Saves every dirty tenant with a snapshot path (graceful shutdown).
  // Returns the first error, after attempting all.
  Status SaveDirty();

  // Tenant names: [A-Za-z0-9_.-]+, no leading dot (they become file
  // names under the snapshot dir).
  static bool ValidName(const std::string& name);

  // FNV-1a over program text; never returns 0 (0 = unchecked).
  static uint64_t FingerprintText(const std::string& text);

 private:
  Config config_;
  mutable std::mutex map_mu_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
};

}  // namespace server
}  // namespace gerel

#endif  // GEREL_SERVER_REGISTRY_H_
