#ifndef EQSQL_STORAGE_SHARD_GUARD_H_
#define EQSQL_STORAGE_SHARD_GUARD_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "storage/database.h"
#include "storage/mvcc.h"

namespace eqsql::storage {

/// Pins a read-consistent view of a set of tables for the duration of a
/// query: an owning snapshot of each table object (so a concurrent DROP
/// cannot free it) plus a pinned MVCC snapshot timestamp. Execution
/// resolves row visibility against snapshot(); no shard lock is taken
/// or held, so a query never blocks a writer and a writer never blocks
/// a query — at any shard count. The pin registers with the database's
/// TxnManager so version GC cannot reclaim anything this reader can
/// still see.
///
/// The guard keeps one slot per distinct (case-insensitive) name, in
/// the order the names are given, so a bound plan addresses its tables
/// by slot. A table named but absent from the database leaves its slot
/// empty: execution then reports its usual kNotFound error at the scan
/// that reads it.
class ReadGuard {
 public:
  /// Snapshots `tables` (any case, duplicates fine) from `db` and pins
  /// a fresh snapshot at the current commit clock. With a registry, the
  /// (now lock-free) acquisition time still lands in the
  /// storage.lock_wait_ns histogram so existing dashboards keep their
  /// series.
  static ReadGuard Acquire(const Database& db,
                           const std::vector<std::string>& tables,
                           obs::MetricsRegistry* metrics = nullptr);

  /// Snapshots `tables` but reads at `snap` instead of pinning a fresh
  /// timestamp — used inside an open transaction, whose own lifetime
  /// pin already protects the snapshot from GC.
  static ReadGuard AcquireAt(const Database& db,
                             const std::vector<std::string>& tables,
                             Snapshot snap);

  ReadGuard() = default;
  ReadGuard(ReadGuard&& other) noexcept { *this = std::move(other); }
  ReadGuard& operator=(ReadGuard&& other) noexcept {
    if (this != &other) {
      Release();
      keys_ = std::move(other.keys_);
      tables_ = std::move(other.tables_);
      snap_ = other.snap_;
      pinned_in_ = std::exchange(other.pinned_in_, nullptr);
    }
    return *this;
  }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;
  ~ReadGuard() { Release(); }

  /// The slot of this (case-insensitive) name, or nullopt if it was
  /// not among the names given at acquisition.
  std::optional<size_t> SlotOf(const std::string& name) const;

  /// The table pinned in slot `slot` (the slot-th distinct name given
  /// at acquisition), or nullptr when it was absent.
  const Table* table(size_t slot) const { return tables_[slot].get(); }
  size_t slot_count() const { return tables_.size(); }

  /// The snapshot every read through this guard resolves against.
  const Snapshot& snapshot() const { return snap_; }

  /// True when no named table was present.
  bool empty() const;

 private:
  void Release();
  /// Fills the slots: one per distinct name, null when absent.
  void PinTables(const Database& db, const std::vector<std::string>& tables);

  /// Lowercase names, parallel to tables_ (null = absent).
  std::vector<std::string> keys_;
  std::vector<std::shared_ptr<const Table>> tables_;
  Snapshot snap_ = Snapshot::Latest();
  /// Non-null while this guard owns a pin in the manager.
  TxnManager* pinned_in_ = nullptr;
};

}  // namespace eqsql::storage

#endif  // EQSQL_STORAGE_SHARD_GUARD_H_
