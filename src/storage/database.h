#ifndef EQSQL_STORAGE_DATABASE_H_
#define EQSQL_STORAGE_DATABASE_H_

#include <cstddef>
#include <map>
#include <memory>
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

/// The server-side table registry. Table names are case-insensitive, as
/// in MySQL's default configuration (the paper's evaluation server).
///
/// Concurrency discipline (registry lock + per-shard table locks):
///
///  * The *registry* — the name → Table map — is internally
///    synchronized: every method takes registry_mu_ (shared for
///    lookups, exclusive for create/drop/publish). registry_mu_ is a
///    leaf lock: it is never held while acquiring any table shard lock.
///  * Table *contents* are guarded by the table's own per-shard
///    reader-writer locks (see Table's class comment). There is no
///    database-wide data lock anymore: a writer touching table T's
///    shard 3 excludes only readers of that shard, not the rest of the
///    database.
///  * Tables are held by shared_ptr so a query can pin a consistent
///    snapshot (storage::ReadGuard) while another session drops or
///    replaces the registry entry; the dropped table stays alive until
///    the last in-flight reader releases it.
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

  /// Looks up a table and returns an owning reference, so the caller
  /// can keep reading it even if the registry entry is dropped or
  /// replaced concurrently (temp-table churn). nullptr if absent.
  std::shared_ptr<const Table> SnapshotTable(const std::string& name) const;
  std::shared_ptr<Table> SnapshotTable(const std::string& name);

  /// Atomically registers `table` under its name, replacing any
  /// existing entry. Used by temp-table upload: the table is built
  /// fully offline (no locks needed — nobody can see it yet) and then
  /// published in one registry write. In-flight readers of a replaced
  /// table keep their snapshot.
  void PublishTable(std::shared_ptr<Table> table);

  bool HasTable(const std::string& name) const;

  /// Drops a table if present (temporary parameter tables in batching).
  /// Purely a registry erase; in-flight readers keep their snapshot.
  void DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;

  /// Database-wide statistics fingerprint: a deterministic fold over
  /// every table's name, mutation epoch and index count. Any write that
  /// changes visible rows, any CREATE INDEX, and any table create/drop
  /// changes the value, so a cached extraction plan stamped with an
  /// older epoch is re-priced (a table growing 10x can flip the chosen
  /// alternative). Not a version counter — an unchanged database always
  /// folds to the same value, which keeps plan caches warm across
  /// read-only traffic.
  uint64_t StatsEpoch() const;

  /// The database-wide transaction coordinator. Const-qualified callers
  /// (read guards pinning snapshots) still need to mutate pin state,
  /// hence the mutable member behind a const accessor.
  TxnManager* txn_manager() const { return &txns_; }

  /// One version-GC pass: computes the watermark once, vacuums every
  /// table, then frees retired versions no pinned reader can reach.
  /// Safe to run concurrently with readers and writers; callers
  /// serialize multiple GC threads externally (net::Server runs one).
  void Vacuum();

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
};

}  // namespace eqsql::storage

#endif  // EQSQL_STORAGE_DATABASE_H_
