#include "server/registry.h"

#include "core/parser.h"

namespace gerel {
namespace server {

bool TenantRegistry::ValidName(const std::string& name) {
  if (name.empty() || name.size() > 128 || name.front() == '.') {
    return false;
  }
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

uint64_t TenantRegistry::FingerprintText(const std::string& text) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  // 0 means "unchecked"; avoid colliding with it.
  return h == 0 ? 1 : h;
}

Result<std::shared_ptr<Tenant>> TenantRegistry::Prepare(
    const std::string& name, const std::string& program_text,
    size_t max_rules, PrepareInfo* info) {
  if (!ValidName(name)) {
    return Status::Error("invalid kb name \"" + name + "\"");
  }
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    if (tenants_.count(name) > 0) {
      return Status::Error("kb \"" + name + "\" already exists");
    }
    if (tenants_.size() >= config_.max_tenants) {
      return Status::Error("tenant limit reached (" +
                           std::to_string(config_.max_tenants) + ")");
    }
  }
  PreparedKbOptions options = config_.kb_options;
  options.pipeline.CapRules(max_rules);
  auto tenant = std::make_shared<Tenant>();
  tenant->name = name;
  tenant->fingerprint = FingerprintText(program_text);
  if (!config_.snapshot_dir.empty()) {
    tenant->snapshot_path = config_.snapshot_dir + "/" + name + ".snap";
  }
  // Warm start: a snapshot whose stored fingerprint matches this
  // program text restores the materialized model without re-running the
  // pipeline. Any mismatch or corruption falls back to a fresh prepare.
  if (!tenant->snapshot_path.empty()) {
    auto symbols = std::make_unique<SymbolTable>();
    auto loaded = PreparedKb::LoadSnapshot(tenant->snapshot_path,
                                           symbols.get(), options,
                                           tenant->fingerprint);
    if (loaded.ok()) {
      tenant->owned_symbols = std::move(symbols);
      tenant->owned_kb = std::move(loaded).value();
      if (info != nullptr) info->loaded_snapshot = true;
    }
  }
  if (tenant->owned_kb == nullptr) {
    auto symbols = std::make_unique<SymbolTable>();
    auto program = ParseProgram(program_text, symbols.get());
    if (!program.ok()) return program.status();
    auto prepared =
        PreparedKb::Prepare(program.value().theory,
                            program.value().database, symbols.get(),
                            options);
    if (!prepared.ok()) return prepared.status();
    tenant->owned_symbols = std::move(symbols);
    tenant->owned_kb = std::move(prepared).value();
    tenant->owned_kb->set_snapshot_fingerprint(tenant->fingerprint);
    if (!tenant->snapshot_path.empty()) {
      // Best effort: a failed save leaves the tenant serving; the next
      // graceful shutdown retries via SaveDirty.
      tenant->dirty = !tenant->owned_kb->SaveSnapshot(tenant->snapshot_path)
                           .ok();
    }
  }
  tenant->symbols = tenant->owned_symbols.get();
  tenant->kb = tenant->owned_kb.get();
  std::lock_guard<std::mutex> lock(map_mu_);
  // Re-check: a racing prepare for the same name may have won while the
  // pipeline ran outside the map lock.
  auto [it, inserted] = tenants_.emplace(name, tenant);
  if (!inserted) {
    return Status::Error("kb \"" + name + "\" already exists");
  }
  return tenant;
}

Result<std::shared_ptr<Tenant>> TenantRegistry::Adopt(
    const std::string& name, PreparedKb* kb, SymbolTable* symbols,
    const std::string& snapshot_path) {
  if (!ValidName(name)) {
    return Status::Error("invalid kb name \"" + name + "\"");
  }
  auto tenant = std::make_shared<Tenant>();
  tenant->name = name;
  tenant->kb = kb;
  tenant->symbols = symbols;
  tenant->snapshot_path = snapshot_path;
  tenant->fingerprint = kb->snapshot_fingerprint();
  std::lock_guard<std::mutex> lock(map_mu_);
  auto [it, inserted] = tenants_.emplace(name, tenant);
  if (!inserted) {
    return Status::Error("kb \"" + name + "\" already exists");
  }
  return tenant;
}

std::shared_ptr<Tenant> TenantRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Tenant>> TenantRegistry::All() const {
  std::lock_guard<std::mutex> lock(map_mu_);
  std::vector<std::shared_ptr<Tenant>> out;
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) out.push_back(tenant);
  return out;
}

Status TenantRegistry::Drop(const std::string& name) {
  std::shared_ptr<Tenant> tenant;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      return Status::Error("unknown kb \"" + name + "\"");
    }
    tenant = std::move(it->second);
    tenants_.erase(it);
  }
  // In-flight requests still hold the shared_ptr; the final save waits
  // for them at the tenant lock.
  std::lock_guard<std::mutex> lock(tenant->mu);
  if (tenant->dirty && !tenant->snapshot_path.empty()) {
    Status s = tenant->kb->SaveSnapshot(tenant->snapshot_path);
    if (!s.ok()) return s;
    tenant->dirty = false;
  }
  return Status::Ok();
}

Status TenantRegistry::SaveDirty() {
  Status first = Status::Ok();
  for (const std::shared_ptr<Tenant>& tenant : All()) {
    std::lock_guard<std::mutex> lock(tenant->mu);
    if (!tenant->dirty || tenant->snapshot_path.empty()) continue;
    Status s = tenant->kb->SaveSnapshot(tenant->snapshot_path);
    if (s.ok()) {
      tenant->dirty = false;
    } else if (first.ok()) {
      first = s;
    }
  }
  return first;
}

}  // namespace server
}  // namespace gerel
