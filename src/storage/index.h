#ifndef EQSQL_STORAGE_INDEX_H_
#define EQSQL_STORAGE_INDEX_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "storage/table.h"

namespace eqsql::storage {

/// A secondary hash index over one or more columns of a Table.
///
/// Entries map a key tuple (the indexed columns' values) to the
/// TableSlots that have *ever* held a version with those values — the
/// index is append-only: DELETE, UPDATE and rollback never remove
/// entries. Correctness comes from lookup-time revalidation instead:
/// a probe returns candidate slots, and the reader resolves each
/// slot's visible version against its own MVCC snapshot and re-checks
/// that the indexed columns still equal the probe key. A stale entry
/// (old key after an UPDATE, rolled-back insert, deleted row) is
/// therefore filtered exactly the way a full scan would have filtered
/// it, so an index read can never surface a version the equivalent
/// scan would not.
///
/// That append-only design is what makes MVCC maintenance free:
/// commit and rollback are begin/end stamp flips on versions already
/// chained into their slot, so the index needs no commit or rollback
/// hooks at all — only a note at every version-install site
/// (Table::NoteVersionForIndexes).
///
/// Layout independence: entries hold shared_ptr<const TableSlot>, not
/// shard positions, so Repartition / SetShardCount (which move slots
/// wholesale between shards) leave the index valid with no rebuild.
/// The index never touches the table's shard vector or shard locks —
/// it is built from pinned slots the Table hands it, which is also
/// what scripts/verify.sh's topology-lock grep gate enforces.
///
/// Concurrency: keys hash-partition across a fixed set of buckets,
/// each with its own reader-writer lock (a leaf lock: writers call
/// AddEntry while holding their shard's write mutex, readers hold no
/// table lock at all). Build protocol (Table::CreateIndex): register
/// first so concurrent writers maintain the index from that point on,
/// backfill per shard (possibly in parallel), then MarkReady — AddEntry
/// de-duplicates slots per key, so the backfill racing a writer's note
/// is idempotent. Probes only serve ready indexes.
class SecondaryIndex {
 public:
  SecondaryIndex(std::string name, std::vector<std::string> columns,
                 std::vector<size_t> column_indexes, size_t buckets);

  const std::string& name() const { return name_; }
  /// Indexed column names, in index key order (table-schema spelling).
  const std::vector<std::string>& columns() const { return columns_; }
  /// Positions of the indexed columns in the table schema.
  const std::vector<size_t>& column_indexes() const {
    return column_indexes_;
  }

  /// True once the backfill has completed and probes may be served.
  bool ready() const { return ready_.load(std::memory_order_acquire); }
  void MarkReady() { ready_.store(true, std::memory_order_release); }

  /// Records that `slot` holds (or once held) a version whose indexed
  /// columns equal `row`'s. Key tuples containing NULL are not indexed:
  /// SQL equality never matches NULL, so a full scan could not return
  /// such a row for any probe key either. Idempotent per (key, slot).
  void AddEntry(const catalog::Row& row,
                std::shared_ptr<const TableSlot> slot);

  /// Candidate slots for `key`, ordered by insertion sequence (the
  /// table's observable scan order). Keys containing NULL match
  /// nothing. Callers MUST revalidate: visible version against their
  /// snapshot, indexed columns against the probe key.
  std::vector<std::shared_ptr<const TableSlot>> Probe(
      const std::vector<catalog::Value>& key) const;

  /// Drops entries whose slot chain is fully gone (head == nullptr),
  /// releasing the slot's memory. Called from Table::Vacuum.
  void PruneDeadSlots();

  /// Total (key, slot) entries across all buckets (tests, stats).
  size_t entry_count() const;

  /// Distinct key tuples with at least one entry: the planner divides
  /// the table's rows by it for the candidates one probe finds
  /// (core::TableStats::index_keys). Entries are append-only, so a key
  /// every row has left still counts until Vacuum prunes its slots.
  size_t distinct_keys() const;

 private:
  struct KeyHash {
    size_t operator()(const std::vector<catalog::Value>& key) const;
  };
  struct KeyEq {
    bool operator()(const std::vector<catalog::Value>& a,
                    const std::vector<catalog::Value>& b) const;
  };
  struct Bucket {
    mutable std::shared_mutex mu;
    std::unordered_map<std::vector<catalog::Value>,
                       std::vector<std::shared_ptr<const TableSlot>>, KeyHash,
                       KeyEq>
        map;
  };

  Bucket& BucketFor(const std::vector<catalog::Value>& key) const;

  std::string name_;
  std::vector<std::string> columns_;
  std::vector<size_t> column_indexes_;
  std::vector<std::unique_ptr<Bucket>> buckets_;
  std::atomic<bool> ready_{false};
};

}  // namespace eqsql::storage

#endif  // EQSQL_STORAGE_INDEX_H_
