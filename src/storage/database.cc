#include "storage/database.h"

#include <mutex>
#include <thread>

#include "common/hash.h"
#include "common/strings.h"

namespace eqsql::storage {

Database::Database(DatabaseOptions options) {
  shard_count_ = options.shard_count;
  if (shard_count_ == 0) {
    shard_count_ = std::thread::hardware_concurrency();
    if (shard_count_ == 0) shard_count_ = 1;
  }
}

Result<Table*> Database::CreateTable(const std::string& name,
                                     catalog::Schema schema) {
  std::string key = AsciiToLower(name);
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  if (tables_.count(key) > 0) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  auto table =
      std::make_shared<Table>(name, std::move(schema), shard_count_, &txns_);
  Table* raw = table.get();
  tables_.emplace(std::move(key), std::move(table));
  return raw;
}

Result<Table*> Database::GetTable(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = tables_.find(AsciiToLower(name));
  if (it == tables_.end()) return Status::NotFound("table not found: " + name);
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = tables_.find(AsciiToLower(name));
  if (it == tables_.end()) return Status::NotFound("table not found: " + name);
  return static_cast<const Table*>(it->second.get());
}

std::shared_ptr<const Table> Database::SnapshotTable(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = tables_.find(AsciiToLower(name));
  if (it == tables_.end()) return nullptr;
  return it->second;
}

std::shared_ptr<Table> Database::SnapshotTable(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = tables_.find(AsciiToLower(name));
  if (it == tables_.end()) return nullptr;
  return it->second;
}

bool Database::HasTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  return tables_.count(AsciiToLower(name)) > 0;
}

void Database::Vacuum() {
  std::lock_guard<std::mutex> pass(vacuum_mu_);
  VacuumLocked();
}

Status Database::Commit(Transaction* txn) {
  Status status = txns_.Commit(txn);
  if (!status.ok() || txns_.dead_versions() < vacuum_threshold()) {
    return status;
  }
  std::unique_lock<std::mutex> pass(vacuum_mu_, std::try_to_lock);
  if (pass.owns_lock()) VacuumLocked();
  return status;
}

void Database::VacuumLocked() {
  txns_.TakeDeadVersions();
  // Collect table references under the registry lock, then vacuum
  // without it (registry_mu_ is a leaf lock and must not be held while
  // shard write locks are taken).
  std::vector<std::shared_ptr<Table>> tables;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    tables.reserve(tables_.size());
    for (const auto& [key, table] : tables_) tables.push_back(table);
  }
  size_t rows = 0;
  const Ts watermark = txns_.Watermark();
  for (const auto& table : tables) {
    table->Vacuum(watermark, &txns_);
    rows += table->row_count();
  }
  txns_.SweepRetired();
  vacuum_threshold_.store(kVacuumMinDead + rows / kVacuumRowsPerDead,
                          std::memory_order_relaxed);
}

uint64_t Database::StatsEpoch() const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  // tables_ is an ordered map keyed by lowercase name, so the fold is
  // deterministic for a given registry state.
  uint64_t h = Fnv1a("stats-epoch");
  for (const auto& [key, table] : tables_) {
    h = SplitMix64(h ^ Fnv1a(key));
    h = SplitMix64(h ^ static_cast<uint64_t>(table->row_count()));
    h = SplitMix64(h ^ static_cast<uint64_t>(table->byte_count()));
    h = SplitMix64(h ^ static_cast<uint64_t>(table->ready_index_count()));
  }
  return h;
}

std::vector<std::string> Database::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
}

}  // namespace eqsql::storage
