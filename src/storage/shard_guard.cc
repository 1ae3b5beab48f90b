#include "storage/shard_guard.h"

#include <algorithm>
#include <chrono>

#include "common/strings.h"
#include "obs/trace.h"
#include "storage/txn.h"

namespace eqsql::storage {

namespace {

/// Lowercase names, one per distinct name, in first-mention order: the
/// guard's slots.
std::vector<std::string> SlotKeys(const std::vector<std::string>& tables) {
  std::vector<std::string> keys;
  keys.reserve(tables.size());
  for (const std::string& t : tables) {
    std::string key = AsciiToLower(t);
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

}  // namespace

ReadGuard ReadGuard::Acquire(const Database& db,
                             const std::vector<std::string>& tables,
                             obs::MetricsRegistry* metrics) {
  obs::ScopedSpan span("snapshot-pin");
  // Resolve the histogram handle first (leaf-lock rule: the registry
  // mutex never nests inside storage synchronization).
  obs::Histogram* lock_wait =
      metrics == nullptr ? nullptr : metrics->histogram("storage.lock_wait_ns");
  const auto t0 = std::chrono::steady_clock::now();

  ReadGuard guard;
  guard.PinTables(db, tables);
  // Pin after the registry snapshot: the pin reads the commit clock
  // under the manager's mutex, so every version committed at or before
  // snapshot().ts is fully stamped by the time we read it.
  TxnManager* mgr = db.txn_manager();
  guard.snap_ = Snapshot{mgr->PinSnapshot(), 0};
  guard.pinned_in_ = mgr;

  if (lock_wait != nullptr) {
    lock_wait->Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  return guard;
}

ReadGuard ReadGuard::AcquireAt(const Database& db,
                               const std::vector<std::string>& tables,
                               Snapshot snap) {
  obs::ScopedSpan span("snapshot-pin");
  ReadGuard guard;
  guard.PinTables(db, tables);
  guard.snap_ = snap;  // the owning transaction holds the lifetime pin
  return guard;
}

void ReadGuard::PinTables(const Database& db,
                          const std::vector<std::string>& tables) {
  keys_ = SlotKeys(tables);
  tables_.reserve(keys_.size());
  // An absent table keeps its (empty) slot; execution reports kNotFound.
  for (const std::string& key : keys_) tables_.push_back(db.SnapshotTable(key));
}

bool ReadGuard::empty() const {
  for (const auto& t : tables_) {
    if (t != nullptr) return false;
  }
  return true;
}

void ReadGuard::Release() {
  if (pinned_in_ != nullptr) {
    pinned_in_->Unpin(snap_.ts);
    pinned_in_ = nullptr;
  }
}

std::optional<size_t> ReadGuard::SlotOf(const std::string& name) const {
  const std::string key = AsciiToLower(name);
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return i;
  }
  return std::nullopt;
}

}  // namespace eqsql::storage
