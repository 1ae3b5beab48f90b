#ifndef EQSQL_STORAGE_TXN_H_
#define EQSQL_STORAGE_TXN_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"
#include "obs/metrics.h"
#include "storage/mvcc.h"

namespace eqsql::storage {

class Table;
struct TableSlot;

/// One write a transaction performed: the slot it touched, the version
/// it installed (`created`, null for a pure DELETE) and/or superseded
/// (`superseded`, null for an INSERT). At commit the created version's
/// row joins the table's committed statistics and the superseded one's
/// leaves them. `pin` keeps the table alive across registry drops; it
/// is null only for stack-allocated tables in tests.
struct WriteRecord {
  std::shared_ptr<Table> pin;
  Table* table = nullptr;
  std::shared_ptr<TableSlot> slot;
  Version* created = nullptr;
  Version* superseded = nullptr;
};

/// One unique-key value a transaction READ: a keyed UPDATE/DELETE's
/// probe (hit or miss) or a keyed INSERT's duplicate-key outcome.
/// `key_epoch` is the table's Table::key_epoch() when it was read.
struct KeyRead {
  std::shared_ptr<Table> pin;
  Table* table = nullptr;
  catalog::Value key;
  uint64_t key_epoch = 0;
};

/// A snapshot-isolation transaction: a pinned snapshot, a write set,
/// and what it READ -- whole tables (scans, SELECTs, UPDATE/DELETE
/// match sets without a key binding) and single unique keys (keyed
/// UPDATE/DELETE, duplicate-key INSERTs) -- which commit-time
/// validation checks so that committed transactions are serializable
/// in commit order. Write-write conflicts are caught per version
/// (first-writer-wins), so blind writes to one table never conflict at
/// this level. Not internally synchronized: the session owning the
/// transaction executes its statements one at a time (net::Session
/// serializes them via the transaction context mutex).
class Transaction {
 public:
  uint64_t id() const { return id_; }
  const Snapshot& snapshot() const { return snapshot_; }
  bool active() const { return active_; }
  /// Commit timestamp (0 until committed; unchanged by rollback).
  Ts commit_ts() const { return commit_ts_; }
  /// Commit sequence number for replay ordering: monotone across every
  /// committed transaction, including read-only ones (which do not
  /// advance the version clock).
  uint64_t commit_seq() const { return commit_seq_; }

  /// Records that this transaction READ `table` (a scan, or an
  /// UPDATE/DELETE's visible-row walk). Validation aborts the commit if
  /// any recorded table was committed to after this transaction's
  /// snapshot.
  void RecordAccess(const std::shared_ptr<Table>& table);
  void RecordAccess(Table* table);

  /// Records that this transaction READ one unique key (Table::MutateKey
  /// and InsertTxn call it). Validation aborts the commit if that key's
  /// slot was committed to after this transaction's snapshot.
  void RecordKeyRead(KeyRead read);

  /// Called by Table write paths to log an installed/superseded version.
  void RecordWrite(WriteRecord record);

  size_t write_count() const { return writes_.size(); }

 private:
  friend class TxnManager;

  uint64_t id_ = 0;
  Snapshot snapshot_;
  bool active_ = true;
  Ts commit_ts_ = 0;
  uint64_t commit_seq_ = 0;
  std::vector<WriteRecord> writes_;
  /// Keyed by table identity (one table object per name per registry
  /// epoch); the shared_ptr keeps dropped tables alive until resolution.
  std::map<Table*, std::shared_ptr<Table>> accessed_;
  std::vector<KeyRead> key_reads_;
};

/// The database-wide transaction coordinator: the commit clock, the
/// transaction-id allocator, the active-snapshot pin set (whose minimum
/// is the GC watermark), and the retire list of unlinked versions that
/// may still be reachable by in-flight readers.
///
/// Locking: `commit_mu_` linearizes commits (validate, stamp, publish
/// the clock); `mu_` guards pins and the retire list and is a leaf
/// lock. Readers pin/unpin through `mu_` only — they never touch
/// `commit_mu_`, so a long-running commit never blocks a reader and a
/// long scan never blocks a commit.
class TxnManager {
 public:
  TxnManager() = default;
  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;
  ~TxnManager();

  /// Starts a transaction: allocates an id, pins a snapshot.
  std::shared_ptr<Transaction> Begin();

  /// Validates and commits. On a conflict the transaction is rolled
  /// back internally and kTxnConflict is returned — the caller must not
  /// roll back again. Commit order is the serialization order.
  Status Commit(Transaction* txn);

  /// Reverts every write (installed versions become aborted, superseded
  /// versions live again) and releases the snapshot pin. Idempotent on
  /// an already-finished transaction.
  void Rollback(Transaction* txn);

  /// Pins a read-only snapshot at the current clock (storage::ReadGuard
  /// holds one for the duration of a query). Must be released with
  /// Unpin(same value).
  Ts PinSnapshot();
  void Unpin(Ts ts);

  /// Newest committed timestamp.
  Ts clock() const { return clock_.load(std::memory_order_acquire); }

  /// Oldest snapshot any live reader or transaction can observe; GC may
  /// reclaim versions dead at or below this point. Equals clock() when
  /// nothing is pinned.
  Ts Watermark() const;

  /// Takes ownership of versions GC unlinked from chains. They are
  /// freed by SweepRetired() once every pin that predates the unlink is
  /// released (pins and retires are ordered through mu_, so a reader
  /// pinned after a retire can no longer reach the unlinked version).
  void Retire(std::vector<Version*> versions);

  /// Frees retired versions no live pin can still be traversing.
  void SweepRetired();

  /// Number of versions currently parked on the retire list (test hook).
  size_t retired_count() const;

  /// Resolves storage.mvcc.* counter handles (leaf-lock rule: handles
  /// are cached here; hot paths never touch the registry mutex).
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Counts a version installed by a write path (storage.mvcc.versions).
  void NoteVersionInstalled();

  /// Counts a first-writer-wins conflict (storage.mvcc.write_conflicts).
  void NoteWriteConflict();

  /// Versions superseded by a commit or aborted by a rollback since the
  /// last TakeDeadVersions: what a GC pass could reclaim once no pinned
  /// snapshot sees them (Database::Commit's vacuum trigger).
  size_t dead_versions() const {
    return dead_versions_.load(std::memory_order_relaxed);
  }
  /// Returns dead_versions() and restarts the count: a GC pass begins.
  size_t TakeDeadVersions() {
    return dead_versions_.exchange(0, std::memory_order_relaxed);
  }

 private:
  void RollbackLocked(Transaction* txn);
  void UnpinLocked(Ts ts);

  std::atomic<Ts> clock_{1};
  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<size_t> dead_versions_{0};
  /// Linearizes commit validation + stamping + clock publication.
  std::mutex commit_mu_;
  uint64_t next_commit_seq_ = 0;  // guarded by commit_mu_

  mutable std::mutex mu_;  // pins_ and retired_ (leaf lock)
  std::multiset<Ts> pins_;
  struct Retired {
    Version* version;
    Ts retire_ts;
  };
  std::vector<Retired> retired_;

  obs::Counter* m_begins_ = nullptr;
  obs::Counter* m_commits_ = nullptr;
  obs::Counter* m_validation_conflicts_ = nullptr;
  obs::Counter* m_write_conflicts_ = nullptr;
  obs::Counter* m_rollbacks_ = nullptr;
  obs::Counter* m_versions_ = nullptr;
  obs::Counter* m_gc_reclaimed_ = nullptr;
};

}  // namespace eqsql::storage

#endif  // EQSQL_STORAGE_TXN_H_
