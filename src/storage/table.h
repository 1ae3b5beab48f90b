#ifndef EQSQL_STORAGE_TABLE_H_
#define EQSQL_STORAGE_TABLE_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "storage/mvcc.h"

namespace eqsql::storage {

class SecondaryIndex;
class Transaction;
class TxnManager;

/// One logical row: a table-wide insertion sequence number plus a
/// newest-first chain of versions. The chain head is atomic so readers
/// resolve their visible version without any lock; writers install new
/// versions under the owning shard's write mutex. A slot whose chain
/// has no live version is a tombstone until GC removes it; readers that
/// pinned the slot (shared_ptr) before removal keep traversing safely.
struct TableSlot {
  size_t seq = 0;
  std::atomic<Version*> head{nullptr};

  TableSlot() = default;
  explicit TableSlot(size_t s) : seq(s) {}
  TableSlot(const TableSlot&) = delete;
  TableSlot& operator=(const TableSlot&) = delete;
  ~TableSlot();  // frees the remaining chain

  /// The single version of this row visible to `snap`, or nullptr.
  const Version* VisibleVersion(const Snapshot& snap) const;
  /// Convenience: the visible version's row, or nullptr.
  const catalog::Row* VisibleRow(const Snapshot& snap) const;
};

/// An in-memory multi-version heap table, hash-partitioned across N
/// shards. Each logical row is a TableSlot holding a chain of versions
/// stamped with begin/end commit timestamps; a scan materializes the
/// versions visible to a snapshot and orders them by insertion
/// sequence, so the observable row order is insertion order regardless
/// of the shard count (the paper's π operator preserves input order,
/// and tests/shard_invariance_test.cc proves results identical at 1, 2
/// and 8 shards). Sequence numbers are sparse once DELETE exists: order
/// comparisons are by seq value, never by seq-as-index.
///
/// Placement: when a unique key is declared, a row lives in the shard
/// its key value hashes to (uniqueness checkable per shard, point
/// lookup touches one shard); otherwise rows are placed round-robin by
/// sequence number.
///
/// Concurrency discipline (readers never block writers, writers never
/// block readers):
///  * Readers take no long-lived locks. PinShard copies a shard's slot
///    pointers under a brief shared structural lock, then visibility
///    resolution walks version chains lock-free via atomics. A reader's
///    consistency comes from its pinned Snapshot, not from excluding
///    writers.
///  * Writers serialize per shard on the shard's write mutex
///    (write_mu), held for the statement's validate+install on that
///    shard. Slot-vector/index mutations additionally take the shard's
///    structural lock (struct_mu) exclusively for the few instructions
///    that publish a new slot.
///  * The topology lock guards the shards_ vector itself: shared on
///    every access path, exclusive while SetShardCount /
///    DeclareUniqueKey rebuild it. Lock order within a shard is
///    write_mu, then struct_mu; shards are taken in ascending order;
///    topology before any shard lock.
///  * Version garbage collection (Vacuum) runs under the shard write
///    locks and unlinks only versions dead to the TxnManager watermark;
///    unlinked versions park on the manager's retire list until no
///    pinned reader can still be traversing them.
class Table : public std::enable_shared_from_this<Table> {
 public:
  using Slot = TableSlot;

  Table(std::string name, catalog::Schema schema, size_t shard_count = 1,
        TxnManager* txns = nullptr)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        shards_(std::max<size_t>(1, shard_count)),
        txns_(txns) {
    for (auto& s : shards_) s = std::make_unique<Shard>();
  }

  const std::string& name() const { return name_; }
  const catalog::Schema& schema() const { return schema_; }
  size_t shard_count() const { return shards_.size(); }
  /// The committed statistics the planner prices: live rows and the
  /// sum of their catalog::RowWireSize. Kept as counters that change
  /// only where committed rows do -- Insert, and the commit loop
  /// through NoteCommit -- so reading them is O(1). Each is exact when
  /// quiescent; under concurrent commits the two may come from
  /// different commits. Snapshot-exact figures come from rows(snap).
  size_t row_count() const { return size_.load(std::memory_order_acquire); }
  size_t byte_count() const { return bytes_.load(std::memory_order_acquire); }

  /// Rows visible to `snap`, in insertion-sequence order.
  std::vector<catalog::Row> rows(const Snapshot& snap) const;
  /// Every committed live row (Snapshot::Latest()).
  std::vector<catalog::Row> rows() const { return rows(Snapshot::Latest()); }

  /// Setup/bulk append: installs a committed version stamped at the
  /// current clock in one step. Not snapshot-consistent under
  /// concurrency (a mid-bulk reader sees a prefix) — transactional
  /// writers must use InsertTxn. Errors on arity mismatch or duplicate
  /// key.
  Status Insert(catalog::Row row);

  /// Transactional insert: installs a version pending under `txn`,
  /// invisible to others until commit. Duplicate-key checks run against
  /// txn's snapshot plus its own writes; a row inserted or deleted by
  /// an uncommitted peer raises kTxnConflict (first-writer-wins).
  Status InsertTxn(Transaction* txn, catalog::Row row);

  /// An UPDATE/DELETE's match test and replacement row (see MutateRows).
  using RowPredicate = std::function<Result<bool>(const catalog::Row&)>;
  using RowMutation = std::function<Result<catalog::Row>(const catalog::Row&)>;

  /// Transactional UPDATE/DELETE over the rows visible to `txn`,
  /// shard by shard in ascending order. For each visible row where
  /// `pred` returns true: with `mutate` null the row is deleted
  /// (tombstone: the visible version's end becomes pending); otherwise
  /// `mutate` produces the replacement row installed as a new pending
  /// version in the same slot. A concurrent writer on any matched row
  /// raises kTxnConflict (first-writer-wins); evaluation errors abort
  /// the statement mid-way (statement-level, like the paper's MyISAM
  /// evaluation default) with prior writes staying in the txn's write
  /// set. Returns the number of rows written.
  Result<size_t> MutateRows(Transaction* txn, const RowPredicate& pred,
                            const RowMutation& mutate);

  /// The one-slot form of MutateRows for a keyed UPDATE/DELETE: visits
  /// only the slot unique key value `key` maps to, under the topology
  /// lock shared and that key's shard write mutex alone, with the same
  /// per-slot body (`pred` is the residual the caller checks on the
  /// hit). First records the key read in `txn` -- even when the key is
  /// absent, `pred` rejects the row, or the statement fails -- so
  /// commit validation checks this key instead of the whole table.
  /// Returns the rows written (0 or 1). kNotFound, with nothing read or
  /// written, when `key_column` is no longer the table's unique key.
  Result<size_t> MutateKey(Transaction* txn, const std::string& key_column,
                           const catalog::Value& key, const RowPredicate& pred,
                           const RowMutation& mutate);

  /// Declares column `column` as a unique key, re-partitions rows by
  /// key hash, and builds per-shard indexes. Errors if live data
  /// violates uniqueness. Rule T4.1/T5.2 require the outer query's
  /// relation to have a key (paper Sec. 5.1).
  Status DeclareUniqueKey(const std::string& column);

  std::optional<std::string> unique_key() const { return unique_key_; }

  /// Bumped by every successful DeclareUniqueKey. A key read records it,
  /// so commit validation can tell the key it read still names the
  /// same slot (SetShardCount moves whole slots and keeps it).
  uint64_t key_epoch() const {
    return key_epoch_.load(std::memory_order_acquire);
  }

  /// Commit validation of a key read taken at `key_epoch`: true when
  /// the slot `key` maps to carries a committed begin or end stamp
  /// newer than `ts`. Sound because a key keeps one slot for life
  /// (delete and reinsert stack versions in it), Vacuum never unlinks
  /// a version stamped after a pinned snapshot, and Repartition moves
  /// whole chains. If the unique key was redeclared since the read, it
  /// answers at table grain: whether any commit is newer than `ts`.
  bool KeyWrittenSince(const catalog::Value& key, uint64_t key_epoch,
                       Ts ts) const;

  /// Point lookup via the unique-key index; returns the live row's
  /// insertion sequence (an ordering token — seqs are sparse, not
  /// positions) or nullopt. Takes the shard's structural lock briefly.
  std::optional<size_t> LookupByKey(const catalog::Value& key) const;

  /// Point lookup via the unique-key index: the row with key value
  /// `key` visible to `snap`, borrowed from its version, or nullptr
  /// (absent, or no key declared). Visibility resolves under the
  /// shard's structural lock, which Vacuum takes to erase a dead slot,
  /// so the chain walk never outlives its slot; the row lives while
  /// `snap` stays pinned, as a scan's borrowed rows do.
  const catalog::Row* ProbeKey(const catalog::Value& key,
                               const Snapshot& snap) const;
  /// ProbeKey for `n` keys at once: rows[i] for *keys[i], nullptr for a
  /// miss or a null keys[i]. One hold of the topology lock and of every
  /// shard's structural lock covers the batch, so no lock operation --
  /// a full barrier -- separates one probe's cache misses from the
  /// next, and the probes overlap. For short batches: writers that
  /// publish a slot wait for it.
  void ProbeKeys(const catalog::Value* const* keys, size_t n,
                 const Snapshot& snap, const catalog::Row** rows) const;

  /// ProbeKey's row, copied (every committed row with the one-argument
  /// form); nullopt if absent / no key declared.
  std::optional<catalog::Row> GetByKey(const catalog::Value& key) const {
    return GetByKey(key, Snapshot::Latest());
  }
  std::optional<catalog::Row> GetByKey(const catalog::Value& key,
                                       const Snapshot& snap) const {
    const catalog::Row* row = ProbeKey(key, snap);
    if (row == nullptr) return std::nullopt;
    return *row;
  }

  /// Re-partitions existing rows across `n` shards (shard-count change
  /// at runtime, e.g. rebalancing a long-lived temp table). Slots move
  /// wholesale — chains, pending versions and all; in-flight
  /// transactions keep their slot references.
  Status SetShardCount(size_t n);

  /// The shard a row with key value `key` lives in (key-hash placement).
  size_t ShardOfKey(const catalog::Value& key) const;

  /// Copies shard `i`'s slot pointers (brief shared structural lock).
  /// Callers resolve visibility per slot against their snapshot; the
  /// shared_ptrs keep slots safe across concurrent GC removal.
  std::vector<std::shared_ptr<const Slot>> PinShard(size_t i) const;

  /// Timestamp of the last committed write to this table (0 if none).
  /// Commit validation compares it against a txn's snapshot.
  Ts last_commit_ts() const {
    return last_commit_ts_.load(std::memory_order_acquire);
  }

  /// Called by TxnManager under the commit lock after stamping this
  /// table's versions: publishes the commit timestamp and adds the
  /// commit's net change to the committed row and byte counters.
  void NoteCommit(Ts commit_ts, int64_t row_delta, int64_t byte_delta);

  /// Unlinks versions dead at `watermark` (aborted, or superseded with
  /// a committed end <= watermark), removes fully dead slots and their
  /// index entries, and parks unlinked versions on `txns`'s retire
  /// list. Never touches a version with a pending stamp.
  void Vacuum(Ts watermark, TxnManager* txns);

  TxnManager* txn_manager() const { return txns_; }

  /// Runs a batch of independent build tasks; Table::CreateIndex hands
  /// one task per shard to it. Injected by the caller (net::Connection
  /// wraps the server's exec::WorkerPool) so storage does not depend on
  /// exec; null runs the backfill serially on the calling thread.
  using IndexTaskRunner =
      std::function<void(std::vector<std::function<void()>>)>;

  /// Creates and backfills a secondary hash index over `columns`
  /// (CREATE INDEX name ON table (col, ...)). The index registers
  /// before the backfill starts — concurrent writers maintain it from
  /// that moment, and AddEntry's idempotence makes the overlap safe —
  /// then backfills one task per shard through `runner` and publishes
  /// atomically (SecondaryIndex::MarkReady), so probes never see a
  /// half-built index. Errors on a duplicate index name or an unknown
  /// column; on error nothing is registered.
  Status CreateIndex(const std::string& name,
                     const std::vector<std::string>& columns,
                     const IndexTaskRunner& runner = nullptr);

  /// The first ready index whose column list is exactly `columns`
  /// (order-sensitive, table-schema spelling), or nullptr. The returned
  /// pointer stays valid for the table's lifetime (indexes are never
  /// dropped, matching the paper's evaluation schemas).
  std::shared_ptr<const SecondaryIndex> FindIndex(
      const std::vector<std::string>& columns) const;

  /// A ready index covering exactly the column *set* `columns` in any
  /// order, or nullptr (the join planner matches unordered conjunct
  /// sets against index definitions).
  std::shared_ptr<const SecondaryIndex> FindIndexForColumnSet(
      const std::vector<std::string>& columns) const;

  /// Ready-index column lists, for planner statistics (CostEstimator's
  /// TableStats::table_indexes) and EXPLAIN.
  std::vector<std::vector<std::string>> IndexedColumnLists() const;

  /// Number of registered indexes (ready or building).
  size_t index_count() const {
    return index_count_.load(std::memory_order_acquire);
  }

  /// Number of ready indexes: the ones IndexedColumnLists reports and
  /// the planner prices. Raised after a backfill's MarkReady.
  size_t ready_index_count() const {
    return ready_index_count_.load(std::memory_order_acquire);
  }

 private:
  struct Shard {
    /// Serializes writers (and GC) on this shard; held for a
    /// statement's validate+install. Acquired before struct_mu.
    std::mutex write_mu;
    /// Guards the slots vector and index containers themselves (not
    /// version chains): shared for the brief pointer copy readers do,
    /// exclusive while a writer publishes or GC removes a slot.
    mutable std::shared_mutex struct_mu;
    std::vector<std::shared_ptr<Slot>> slots;
    /// key value -> slot (only when a unique key is declared; keys
    /// hash-place into exactly one shard). A key maps to one slot for
    /// its whole life: delete + reinsert stack versions in that slot.
    std::unordered_map<catalog::Value, std::shared_ptr<Slot>,
                       catalog::ValueHash>
        index;
  };

  /// First version in `slot`'s chain that is not aborted (the newest
  /// write that may matter), or nullptr.
  static Version* NewestMeaningful(const Slot& slot);

  /// First-writer-wins check for writing over `slot` under its write
  /// lock: OK when the newest meaningful version is dead to everyone or
  /// is `expected` (the version the writer resolved against its
  /// snapshot); kTxnConflict when an uncommitted peer owns it or it was
  /// committed after the snapshot.
  Status CheckWritable(const Slot& slot, const Version* expected,
                       const Transaction& txn) const;

  /// kTxnConflict with `what`, counted as a write-write conflict.
  Status WriteConflict(const std::string& what) const;

  /// The body MutateRows and MutateKey share for one slot: resolves the
  /// version visible to `txn`, tests `pred`, checks first-writer-wins,
  /// installs the replacement (or tombstone), notes it to the indexes
  /// and records the write. Returns whether it wrote. Caller holds the
  /// slot's shard write_mu.
  Result<bool> MutateSlot(Transaction* txn, const std::shared_ptr<Slot>& slot,
                          const RowPredicate& pred, const RowMutation& mutate);

  /// Installs `row` as a version stamped `begin` in a fresh slot with
  /// sequence `seq`, appended to `shard` (index entry added when `key`
  /// is non-null). Caller holds the shard's write_mu.
  std::shared_ptr<Slot> InstallNewSlot(Shard* shard, catalog::Row row, Ts begin,
                                       const catalog::Value* key, size_t seq);

  /// Re-places every row under the exclusive topology lock. Validates
  /// placement (including uniqueness over live versions) before moving
  /// any slot, so a failure leaves the table untouched. `new_count` of
  /// 0 keeps the current shard count (used by DeclareUniqueKey).
  Status Repartition(size_t new_count, const std::string* new_key);

  /// Notes a freshly installed version with `row` in `slot` to every
  /// registered secondary index. Called at each version-install site
  /// while the shard's write_mu is held; index locks (index_mu_ shared,
  /// then a bucket lock) are leaves below it. DELETE (an end-stamp
  /// flip), commit and rollback install no version and need no note —
  /// lookup-time revalidation handles them.
  void NoteVersionForIndexes(const catalog::Row& row,
                             const std::shared_ptr<Slot>& slot);

  std::string name_;
  catalog::Schema schema_;
  /// Guards the shards_ vector itself (not row data): shared by every
  /// path that dereferences shards_, exclusive while Repartition
  /// rebuilds it and frees the old Shard objects. Acquired before any
  /// shard lock.
  mutable std::shared_mutex topology_mu_;
  /// unique_ptr keeps Shard addresses (and their mutexes) stable if the
  /// vector itself is rebuilt by SetShardCount.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::optional<std::string> unique_key_;
  size_t key_index_col_ = 0;
  std::atomic<uint64_t> key_epoch_{0};
  /// Next insertion sequence number. Sparse: DELETE leaves holes and
  /// aborted inserts burn numbers; seq is an ordering token only.
  std::atomic<size_t> next_seq_{0};
  std::atomic<size_t> size_{0};
  std::atomic<size_t> bytes_{0};
  std::atomic<Ts> last_commit_ts_{0};
  TxnManager* txns_ = nullptr;
  /// Guards indexes_ itself (a leaf lock, taken after any shard
  /// write_mu but never together with struct_mu). index_count_ mirrors
  /// indexes_.size() so the no-index fast path skips the lock.
  mutable std::shared_mutex index_mu_;
  std::vector<std::shared_ptr<SecondaryIndex>> indexes_;
  std::atomic<size_t> index_count_{0};
  std::atomic<size_t> ready_index_count_{0};
};

/// Orders `rows`, runs of (seq, row) pairs where run r ends at
/// `run_ends[r]` (the last end is rows->size()), by seq: the scan's
/// insertion order. Each run is one shard's rows in slot order, which
/// is ascending in seq except where concurrent keyless inserts
/// published their slots out of seq order (Table::Insert takes the seq
/// before the shard lock). So a run that fails the check is sorted on
/// its own, and then the runs merge pairwise.
template <typename T>
void OrderSeqRuns(std::vector<std::pair<size_t, T>>* rows,
                  std::vector<size_t> run_ends) {
  const auto by_seq = [](const std::pair<size_t, T>& a,
                         const std::pair<size_t, T>& b) {
    return a.first < b.first;
  };
  const auto at = [rows](size_t i) { return rows->begin() + i; };
  size_t begin = 0;
  for (size_t end : run_ends) {
    if (!std::is_sorted(at(begin), at(end), by_seq)) {
      std::sort(at(begin), at(end), by_seq);
    }
    begin = end;
  }
  while (run_ends.size() > 1) {
    std::vector<size_t> merged;
    for (size_t r = 0; r < run_ends.size(); r += 2) {
      if (r + 1 < run_ends.size()) {
        std::inplace_merge(at(r == 0 ? 0 : run_ends[r - 1]), at(run_ends[r]),
                           at(run_ends[r + 1]), by_seq);
      }
      merged.push_back(run_ends[std::min(r + 1, run_ends.size() - 1)]);
    }
    run_ends = std::move(merged);
  }
}

/// Batch-producing MVCC scan over one shard: pins the shard's slots
/// once, then hands out the versions visible to `snap` a chunk at a
/// time (the vectorized engine's scan source; exec/batch.h sizes the
/// chunks). Rows are borrowed, not copied: each is a pointer into its
/// visible version, valid while `snap` stays pinned in the TxnManager
/// (a ReadGuard's pin, or an open transaction's). Vacuum never unlinks
/// a version a pinned snapshot can see, and a version it unlinks waits
/// on the retire list until every older pin is released, so a borrowed
/// row outlives the cursor and lives exactly as long as the pin.
/// Visibility is resolved at chunk granularity against the cursor's
/// fixed snapshot, which makes every chunk of one cursor mutually
/// consistent: the pinned slot list plus per-version begin/end stamps
/// mean a row committed, deleted, or tombstoned after the pin never
/// flickers in or out between chunks.
class ShardScanCursor {
 public:
  ShardScanCursor(const Table& table, size_t shard, Snapshot snap)
      : slots_(table.PinShard(shard)), snap_(snap) {}

  /// Appends up to `max_rows` visible rows (with their insertion seqs,
  /// adding each version's stored wire size into *wire_bytes) and
  /// returns how many were produced; 0 means the shard is exhausted.
  /// Output order is slot order, NOT seq order — callers merge-sort by
  /// seq across shards.
  size_t Next(size_t max_rows, std::vector<size_t>* seqs,
              std::vector<const catalog::Row*>* rows, size_t* wire_bytes);

 private:
  std::vector<std::shared_ptr<const TableSlot>> slots_;
  Snapshot snap_;
  size_t pos_ = 0;  // next slot to visit
};

}  // namespace eqsql::storage

#endif  // EQSQL_STORAGE_TABLE_H_
