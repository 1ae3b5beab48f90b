#ifndef EQSQL_STORAGE_DATABASE_H_
#define EQSQL_STORAGE_DATABASE_H_

#include <cstddef>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "storage/table.h"
#include "storage/txn.h"

namespace eqsql::storage {

struct DatabaseOptions {
  /// Number of hash partitions per table. 0 means "use the hardware
  /// concurrency" (at least 1). Every table created through this
  /// database gets this many shards.
  size_t shard_count = 0;
};

/// The server-side table registry (the catalog). Table names are
/// case-insensitive, as in MySQL's default configuration (the paper's
/// evaluation server). Tables are only ever added: batching's parameter
/// tables live in the session that uploaded them (storage::SessionTables
/// in net::TxnContext), never here, so statistics, table names and the
/// stats epoch see only the catalog.
///
/// Concurrency discipline (registry lock + per-shard table locks):
///
///  * The *registry* — the name → Table map — is internally
///    synchronized: every method takes registry_mu_ (shared for
///    lookups, exclusive for create). registry_mu_ is a leaf lock: it
///    is never held while acquiring any table shard lock.
///  * Table *contents* are guarded by the table's own per-shard
///    reader-writer locks (see Table's class comment). There is no
///    database-wide data lock anymore: a writer touching table T's
///    shard 3 excludes only readers of that shard, not the rest of the
///    database.
///  * Tables are held by shared_ptr, so a query pins the tables it
///    reads (storage::ReadGuard) the same way whether they come from
///    the catalog or from its session.
///  * The database owns the TxnManager: the commit clock, transaction
///    ids, snapshot pins and the version retire list are database-wide,
///    so snapshots are consistent across tables.
class Database {
 public:
  Database() = default;
  explicit Database(DatabaseOptions options);
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// The resolved per-table shard count (options.shard_count, or the
  /// hardware concurrency when that was 0).
  size_t shard_count() const { return shard_count_; }

  /// Creates an empty table with shard_count() shards; errors if the
  /// name is taken.
  Result<Table*> CreateTable(const std::string& name, catalog::Schema schema);

  /// Looks up a table; errors with kNotFound.
  Result<Table*> GetTable(const std::string& name);
  Result<const Table*> GetTable(const std::string& name) const;

  /// Looks up a table and returns an owning reference, the form a
  /// reader pins. nullptr if absent.
  std::shared_ptr<const Table> SnapshotTable(const std::string& name) const;
  std::shared_ptr<Table> SnapshotTable(const std::string& name);

  bool HasTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Database-wide statistics fingerprint: a deterministic fold over
  /// exactly what the selector prices -- every table's name, committed
  /// row count, committed byte total and ready-index count, O(tables).
  /// A commit that changes a table's rows or bytes, an index becoming
  /// ready, and a table create change the value, so a cached extraction
  /// plan stamped with an older epoch is re-priced (a table growing 10x
  /// can flip the chosen alternative). Not a version counter: a write
  /// that leaves every priced statistic as it was (a same-width UPDATE)
  /// folds to the same value and keeps plan caches warm.
  uint64_t StatsEpoch() const;

  /// The database-wide transaction coordinator. Const-qualified callers
  /// (read guards pinning snapshots) still need to mutate pin state,
  /// hence the mutable member behind a const accessor.
  TxnManager* txn_manager() const { return &txns_; }

  /// One version-GC pass: computes the watermark once, vacuums every
  /// table, then frees retired versions no pinned reader can reach.
  /// Safe to run concurrently with readers and writers. Passes run one
  /// at a time (a second caller waits for the first); commits through
  /// Commit() start them, and anyone may call it.
  void Vacuum();

  /// Commits `txn` (TxnManager::Commit). Once the commit succeeds and
  /// the versions superseded or aborted since the last pass
  /// (TxnManager::dead_versions) reach vacuum_threshold(), the
  /// committing thread runs one Vacuum pass, outside the commit lock;
  /// if a pass is already running it does not wait for it.
  Status Commit(Transaction* txn);

  /// The vacuum trigger: kVacuumMinDead dead versions, plus one per
  /// kVacuumRowsPerDead committed rows as of the last pass, so a pass's
  /// walk over every slot is paid once per that many dead versions.
  static constexpr size_t kVacuumMinDead = 1024;
  static constexpr size_t kVacuumRowsPerDead = 8;
  size_t vacuum_threshold() const {
    return vacuum_threshold_.load(std::memory_order_relaxed);
  }

  /// Resolves storage.mvcc.* counter handles on the TxnManager.
  void set_metrics(obs::MetricsRegistry* metrics) {
    txns_.set_metrics(metrics);
  }

 private:
  /// Guards tables_ itself (leaf lock; never held while acquiring any
  /// table shard lock).
  mutable std::shared_mutex registry_mu_;
  /// Keyed by lowercase name; Table::name() preserves original spelling.
  std::map<std::string, std::shared_ptr<Table>> tables_;
  size_t shard_count_ = 1;
  mutable TxnManager txns_;
  /// Held for a whole GC pass: one pass at a time.
  std::mutex vacuum_mu_;
  std::atomic<size_t> vacuum_threshold_{kVacuumMinDead};

  /// Vacuum's body; the caller holds vacuum_mu_.
  void VacuumLocked();
};

}  // namespace eqsql::storage

#endif  // EQSQL_STORAGE_DATABASE_H_
