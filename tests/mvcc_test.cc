// MVCC transaction semantics at the storage layer: snapshot isolation
// (readers pin a commit point; uncommitted and later-committed writes
// are invisible), first-writer-wins write-write conflicts, exact
// rollback, DELETE tombstones with key-slot reuse on reinsert, and the
// GC safety contract (Vacuum never reclaims a version any pinned
// snapshot can still see). Concurrency claims are exercised under TSan
// via scripts/verify.sh. The end-to-end counterpart is the fuzzer's
// "txn" family (commit-order replay differential oracle); session-level
// BEGIN/COMMIT/ROLLBACK wiring is covered in tests/net_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "storage/database.h"
#include "storage/mvcc.h"
#include "storage/shard_guard.h"
#include "storage/table.h"
#include "storage/txn.h"

namespace eqsql::storage {
namespace {

using catalog::DataType;
using catalog::Row;
using catalog::Value;

catalog::Schema KV() {
  return catalog::Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}});
}

/// A table wired to `mgr`, keyed on "id", holding (i, i*10) for i<n.
std::shared_ptr<Table> MakeKeyed(TxnManager* mgr, int n, size_t shards = 2) {
  auto t = std::make_shared<Table>("t", KV(), shards, mgr);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(t->Insert({Value::Int(i), Value::Int(i * 10)}).ok());
  }
  EXPECT_TRUE(t->DeclareUniqueKey("id").ok());
  return t;
}

Result<size_t> UpdateValue(Table* t, Transaction* txn, int64_t id,
                           int64_t value) {
  return t->MutateRows(
      txn,
      [id](const Row& row) -> Result<bool> {
        return row[0] == Value::Int(id);
      },
      [value](const Row& row) -> Result<Row> {
        Row updated = row;
        updated[1] = Value::Int(value);
        return updated;
      });
}

Result<size_t> DeleteValue(Table* t, Transaction* txn, int64_t id) {
  return t->MutateRows(
      txn,
      [id](const Row& row) -> Result<bool> {
        return row[0] == Value::Int(id);
      },
      nullptr);
}

/// A keyed UPDATE as Connection::DmlImpl runs `UPDATE t SET v = value
/// WHERE id = <id> AND v > <above>`: only key `id`'s slot is visited,
/// the residual `v > above` is checked on the hit, and the key read is
/// recorded for validation.
Result<size_t> KeyedUpdate(Table* t, Transaction* txn, int64_t id,
                           int64_t value, int64_t above = INT64_MIN) {
  return t->MutateKey(
      txn, "id", Value::Int(id),
      [above](const Row& row) -> Result<bool> {
        return row[1].AsInt() > above;
      },
      [value](const Row& row) -> Result<Row> {
        Row updated = row;
        updated[1] = Value::Int(value);
        return updated;
      });
}

/// Commits a one-statement transaction writing v = `value` to key `id`.
void CommitKeyedUpdate(TxnManager* mgr, Table* t, int64_t id, int64_t value) {
  auto w = mgr->Begin();
  Result<size_t> n = KeyedUpdate(t, w.get(), id, value);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(*n, 1u);
  ASSERT_TRUE(mgr->Commit(w.get()).ok());
}

TEST(MvccTest, SnapshotReadersSeeNeitherPendingNorLaterCommits) {
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 4);

  // Reader pins its snapshot before the writer commits.
  auto reader = mgr.Begin();
  auto writer = mgr.Begin();
  ASSERT_TRUE(UpdateValue(t.get(), writer.get(), 2, 777).ok());
  ASSERT_TRUE(t->InsertTxn(writer.get(), {Value::Int(100), Value::Int(1)})
                  .ok());

  // Pending writes: invisible to the reader, visible to the writer
  // itself (read-your-own-writes).
  auto before = t->GetByKey(Value::Int(2), reader->snapshot());
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ((*before)[1].AsInt(), 20);
  EXPECT_FALSE(t->GetByKey(Value::Int(100), reader->snapshot()).has_value());
  auto own = t->GetByKey(Value::Int(2), writer->snapshot());
  ASSERT_TRUE(own.has_value());
  EXPECT_EQ((*own)[1].AsInt(), 777);
  EXPECT_TRUE(t->GetByKey(Value::Int(100), writer->snapshot()).has_value());

  ASSERT_TRUE(mgr.Commit(writer.get()).ok());

  // Still invisible to the pinned reader after the commit; a fresh
  // snapshot sees both writes.
  auto after = t->GetByKey(Value::Int(2), reader->snapshot());
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ((*after)[1].AsInt(), 20);
  EXPECT_FALSE(t->GetByKey(Value::Int(100), reader->snapshot()).has_value());
  EXPECT_EQ(t->rows(reader->snapshot()).size(), 4u);

  auto fresh = mgr.Begin();
  auto now = t->GetByKey(Value::Int(2), fresh->snapshot());
  ASSERT_TRUE(now.has_value());
  EXPECT_EQ((*now)[1].AsInt(), 777);
  EXPECT_EQ(t->rows(fresh->snapshot()).size(), 5u);
  ASSERT_TRUE(mgr.Commit(reader.get()).ok());
  ASSERT_TRUE(mgr.Commit(fresh.get()).ok());
}

TEST(MvccTest, WriteWriteConflictIsFirstWriterWins) {
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 4);

  // Pending-vs-pending: the second writer over the same row loses
  // immediately.
  auto first = mgr.Begin();
  auto second = mgr.Begin();
  ASSERT_TRUE(UpdateValue(t.get(), first.get(), 1, 111).ok());
  Result<size_t> clash = UpdateValue(t.get(), second.get(), 1, 222);
  ASSERT_FALSE(clash.ok());
  EXPECT_EQ(clash.status().code(), StatusCode::kTxnConflict);
  mgr.Rollback(second.get());
  ASSERT_TRUE(mgr.Commit(first.get()).ok());

  // Committed-after-snapshot: a writer whose snapshot predates a commit
  // to the same row also loses (DELETE is a write for this purpose).
  auto stale = mgr.Begin();
  auto quick = mgr.Begin();
  ASSERT_TRUE(DeleteValue(t.get(), quick.get(), 3).ok());
  ASSERT_TRUE(mgr.Commit(quick.get()).ok());
  Result<size_t> late = UpdateValue(t.get(), stale.get(), 3, 999);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kTxnConflict);
  mgr.Rollback(stale.get());

  // The surviving writer's value stands.
  auto row = t->GetByKey(Value::Int(1));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].AsInt(), 111);
  EXPECT_FALSE(t->GetByKey(Value::Int(3)).has_value());
}

TEST(MvccTest, ReadValidationAbortsCommitAfterConflictingWrite) {
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 4);

  // Txn A reads the table (recording the access, as Connection's query
  // path does), then txn B commits a write to it. A's commit must fail
  // validation: its reads are no longer what a serial execution at its
  // commit point would see.
  auto a = mgr.Begin();
  EXPECT_EQ(t->rows(a->snapshot()).size(), 4u);
  a->RecordAccess(t);
  ASSERT_TRUE(t->InsertTxn(a.get(), {Value::Int(50), Value::Int(5)}).ok());

  auto b = mgr.Begin();
  ASSERT_TRUE(UpdateValue(t.get(), b.get(), 0, 42).ok());
  ASSERT_TRUE(mgr.Commit(b.get()).ok());

  Status commit = mgr.Commit(a.get());
  ASSERT_FALSE(commit.ok());
  EXPECT_EQ(commit.code(), StatusCode::kTxnConflict);
  // The failed commit rolled A back: its insert never became visible.
  EXPECT_FALSE(t->GetByKey(Value::Int(50)).has_value());
}

TEST(MvccTest, KeyedWritersOfDifferentKeysBothCommit) {
  // Each keyed UPDATE reads only its own key, so two transactions
  // updating different rows of one table are serializable either way
  // and both commit (table-grain validation aborted the second with
  // "serialization conflict: table t").
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 4);
  auto a = mgr.Begin();
  auto b = mgr.Begin();
  ASSERT_EQ(*KeyedUpdate(t.get(), a.get(), 1, 111), 1u);
  ASSERT_EQ(*KeyedUpdate(t.get(), b.get(), 2, 222), 1u);
  ASSERT_TRUE(mgr.Commit(b.get()).ok());
  Status commit = mgr.Commit(a.get());
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  EXPECT_EQ((*t->GetByKey(Value::Int(1)))[1].AsInt(), 111);
  EXPECT_EQ((*t->GetByKey(Value::Int(2)))[1].AsInt(), 222);
}

TEST(MvccTest, PhantomInsertOfAReadKeyAbortsTheReader) {
  // A's keyed UPDATE of absent key 9 matches nothing; B then inserts
  // key 9 and commits. Serially after B, A would have updated a row,
  // so A's commit must fail.
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 4);
  auto a = mgr.Begin();
  ASSERT_EQ(*KeyedUpdate(t.get(), a.get(), 9, 90), 0u);
  auto b = mgr.Begin();
  ASSERT_TRUE(t->InsertTxn(b.get(), {Value::Int(9), Value::Int(1)}).ok());
  ASSERT_TRUE(mgr.Commit(b.get()).ok());
  Status commit = mgr.Commit(a.get());
  ASSERT_FALSE(commit.ok());
  EXPECT_EQ(commit.code(), StatusCode::kTxnConflict);
  EXPECT_NE(commit.message().find("key 9 of table t"), std::string::npos)
      << commit.message();
}

TEST(MvccTest, ResidualRejectedKeyIsStillARead) {
  // `id = 2 AND v > 1000` matches 0 rows, but it read key 2: a later
  // commit to key 2 aborts A, a commit to key 3 does not.
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 4);
  auto a = mgr.Begin();
  ASSERT_EQ(*KeyedUpdate(t.get(), a.get(), 2, 5, /*above=*/1000), 0u);
  CommitKeyedUpdate(&mgr, t.get(), 2, 5000);
  Status commit = mgr.Commit(a.get());
  ASSERT_FALSE(commit.ok());
  EXPECT_EQ(commit.code(), StatusCode::kTxnConflict);

  auto a2 = mgr.Begin();
  ASSERT_EQ(*KeyedUpdate(t.get(), a2.get(), 2, 5, /*above=*/10000), 0u);
  CommitKeyedUpdate(&mgr, t.get(), 3, 3000);
  commit = mgr.Commit(a2.get());
  EXPECT_TRUE(commit.ok()) << commit.ToString();
}

TEST(MvccTest, DeleteAndReinsertOfAReadKeyAbortsAcrossVacuum) {
  // B deletes A's key and reinserts it after A's snapshot. The versions
  // stack in the key's one slot, so A's key check sees them -- and a
  // Vacuum in between cannot unlink them while A's snapshot is pinned.
  for (bool vacuum : {false, true}) {
    SCOPED_TRACE(vacuum ? "with vacuum" : "without vacuum");
    TxnManager mgr;
    auto t = MakeKeyed(&mgr, 4);
    auto a = mgr.Begin();
    ASSERT_EQ(*KeyedUpdate(t.get(), a.get(), 1, 5, /*above=*/1000), 0u);
    auto del = mgr.Begin();
    ASSERT_EQ(*DeleteValue(t.get(), del.get(), 1), 1u);
    ASSERT_TRUE(mgr.Commit(del.get()).ok());
    auto ins = mgr.Begin();
    ASSERT_TRUE(t->InsertTxn(ins.get(), {Value::Int(1), Value::Int(10)}).ok());
    ASSERT_TRUE(mgr.Commit(ins.get()).ok());
    if (vacuum) {
      t->Vacuum(mgr.Watermark(), &mgr);
      mgr.SweepRetired();
    }
    Status commit = mgr.Commit(a.get());
    ASSERT_FALSE(commit.ok());
    EXPECT_EQ(commit.code(), StatusCode::kTxnConflict);
  }
}

TEST(MvccTest, WriteSkewThroughSelectsStillAbortsOneSide) {
  // Each side reads the whole table (a SELECT, which stays at table
  // grain) and then updates a different key. Committing both would be
  // write skew; the second committer must abort.
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 4);
  auto a = mgr.Begin();
  auto b = mgr.Begin();
  EXPECT_EQ(t->rows(a->snapshot()).size(), 4u);
  a->RecordAccess(t);
  EXPECT_EQ(t->rows(b->snapshot()).size(), 4u);
  b->RecordAccess(t);
  ASSERT_EQ(*KeyedUpdate(t.get(), a.get(), 0, 1), 1u);
  ASSERT_EQ(*KeyedUpdate(t.get(), b.get(), 3, 1), 1u);
  ASSERT_TRUE(mgr.Commit(a.get()).ok());
  Status commit = mgr.Commit(b.get());
  ASSERT_FALSE(commit.ok());
  EXPECT_EQ(commit.code(), StatusCode::kTxnConflict);
}

TEST(MvccTest, KeyReadsStayConservativeAcrossTopologyChanges) {
  // SetShardCount moves whole slots, so the key check stays exact: a
  // write to the read key aborts the reader, one to another key does
  // not.
  for (bool same_key : {true, false}) {
    SCOPED_TRACE(same_key ? "write to the read key" : "write to another key");
    TxnManager mgr;
    auto t = MakeKeyed(&mgr, 6);
    auto a = mgr.Begin();
    ASSERT_EQ(*KeyedUpdate(t.get(), a.get(), 2, 5, /*above=*/1000), 0u);
    ASSERT_TRUE(t->SetShardCount(8).ok());
    CommitKeyedUpdate(&mgr, t.get(), same_key ? 2 : 3, 7);
    ASSERT_TRUE(t->SetShardCount(3).ok());
    EXPECT_EQ(mgr.Commit(a.get()).ok(), !same_key);
  }
  // A redeclared unique key may map the read value to another slot, so
  // the read falls back to table grain: any later commit aborts it.
  for (bool any_commit : {true, false}) {
    SCOPED_TRACE(any_commit ? "a commit after the redeclare" : "no commit");
    TxnManager mgr;
    auto t = MakeKeyed(&mgr, 6);
    auto a = mgr.Begin();
    ASSERT_EQ(*KeyedUpdate(t.get(), a.get(), 2, 5, /*above=*/1000), 0u);
    ASSERT_TRUE(t->DeclareUniqueKey("id").ok());
    if (any_commit) CommitKeyedUpdate(&mgr, t.get(), 3, 7);
    EXPECT_EQ(mgr.Commit(a.get()).ok(), !any_commit);
  }
  // A keyed write whose key column is no longer the unique key reads
  // and writes nothing; the caller falls back to the scan.
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 3);
  ASSERT_TRUE(t->DeclareUniqueKey("v").ok());
  auto a = mgr.Begin();
  Result<size_t> stale = KeyedUpdate(t.get(), a.get(), 1, 5);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(a->write_count(), 0u);
  mgr.Rollback(a.get());
}

TEST(MvccTest, RollbackRestoresExactPreTransactionState) {
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 6);
  const std::vector<Row> before = t->rows();
  const size_t count_before = t->row_count();

  auto txn = mgr.Begin();
  ASSERT_TRUE(UpdateValue(t.get(), txn.get(), 1, -1).ok());
  ASSERT_TRUE(DeleteValue(t.get(), txn.get(), 4).ok());
  ASSERT_TRUE(t->InsertTxn(txn.get(), {Value::Int(60), Value::Int(6)}).ok());
  // Write over this txn's own pending version, then roll everything
  // back: the chain-unwind must restore the committed version, not the
  // intermediate pending one.
  ASSERT_TRUE(UpdateValue(t.get(), txn.get(), 1, -2).ok());
  mgr.Rollback(txn.get());

  EXPECT_EQ(t->rows(), before);
  EXPECT_EQ(t->row_count(), count_before);
  auto restored = t->GetByKey(Value::Int(1));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ((*restored)[1].AsInt(), 10);
  EXPECT_TRUE(t->GetByKey(Value::Int(4)).has_value());
  EXPECT_FALSE(t->GetByKey(Value::Int(60)).has_value());
}

TEST(MvccTest, DeleteThenReinsertStacksVersionsInTheKeySlot) {
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 3);

  auto del = mgr.Begin();
  ASSERT_TRUE(DeleteValue(t.get(), del.get(), 1).ok());
  ASSERT_TRUE(mgr.Commit(del.get()).ok());
  EXPECT_FALSE(t->GetByKey(Value::Int(1)).has_value());
  EXPECT_EQ(t->row_count(), 2u);

  // Reinsert under the same key: the key maps back to one slot, and the
  // new version stacks on the tombstoned chain.
  auto ins = mgr.Begin();
  ASSERT_TRUE(t->InsertTxn(ins.get(), {Value::Int(1), Value::Int(11)}).ok());
  ASSERT_TRUE(mgr.Commit(ins.get()).ok());
  auto row = t->GetByKey(Value::Int(1));
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].AsInt(), 11);
  EXPECT_EQ(t->row_count(), 3u);

  // A duplicate reinsert is rejected again (uniqueness is over live
  // versions, not slots).
  auto dup = mgr.Begin();
  Status status = t->InsertTxn(dup.get(), {Value::Int(1), Value::Int(12)});
  EXPECT_FALSE(status.ok());
  mgr.Rollback(dup.get());

  // Delete + reinsert inside ONE transaction: both land at commit.
  auto both = mgr.Begin();
  ASSERT_TRUE(DeleteValue(t.get(), both.get(), 2).ok());
  ASSERT_TRUE(t->InsertTxn(both.get(), {Value::Int(2), Value::Int(22)}).ok());
  ASSERT_TRUE(mgr.Commit(both.get()).ok());
  auto swapped = t->GetByKey(Value::Int(2));
  ASSERT_TRUE(swapped.has_value());
  EXPECT_EQ((*swapped)[1].AsInt(), 22);
  EXPECT_EQ(t->row_count(), 3u);
}

/// Expects `t`'s committed statistics counters to equal a walk of its
/// committed rows: their number and their summed wire size.
void ExpectCountersMatchWalk(const Table& t, const std::string& when) {
  size_t bytes = 0;
  const std::vector<Row> rows = t.rows();
  for (const Row& row : rows) bytes += catalog::RowWireSize(row);
  EXPECT_EQ(t.row_count(), rows.size()) << when;
  EXPECT_EQ(t.byte_count(), bytes) << when;
}

/// UPDATE t SET s = `text` WHERE id = `id`, over a scan.
Result<size_t> SetText(Table* t, Transaction* txn, int64_t id,
                       const std::string& text) {
  return t->MutateRows(
      txn,
      [id](const Row& row) -> Result<bool> {
        return row[0] == Value::Int(id);
      },
      [text](const Row& row) -> Result<Row> {
        Row updated = row;
        updated[1] = Value::String(text);
        return updated;
      });
}

// The committed row and byte counters change only where committed rows
// do, and by exactly what changed: every kind of write, committed or
// rolled back, leaves them equal to a walk of the committed rows. Each
// (id INT, s STRING) row is 8 + 4 + len(s) wire bytes.
TEST(MvccTest, CommittedStatisticsFollowEveryWrite) {
  TxnManager mgr;
  Table t("t",
          catalog::Schema({{"id", DataType::kInt64}, {"s", DataType::kString}}),
          2, &mgr);
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i), Value::String("ab")}).ok());
  }
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_EQ(t.byte_count(), 3u * 14);
  ExpectCountersMatchWalk(t, "setup");

  auto commit = [&](const std::function<void(Transaction*)>& writes) {
    auto txn = mgr.Begin();
    writes(txn.get());
    ASSERT_TRUE(mgr.Commit(txn.get()).ok());
  };
  commit([&](Transaction* txn) {
    ASSERT_TRUE(t.InsertTxn(txn, {Value::Int(3), Value::String("xyz")}).ok());
  });
  EXPECT_EQ(t.row_count(), 4u);
  EXPECT_EQ(t.byte_count(), 3u * 14 + 15);
  ExpectCountersMatchWalk(t, "insert");

  commit([&](Transaction* txn) {
    ASSERT_EQ(*SetText(&t, txn, 0, "abcdef"), 1u);
  });
  EXPECT_EQ(t.byte_count(), 3u * 14 + 15 + 4);
  ExpectCountersMatchWalk(t, "wider update");

  commit([&](Transaction* txn) { ASSERT_EQ(*SetText(&t, txn, 1, ""), 1u); });
  EXPECT_EQ(t.byte_count(), 3u * 14 + 15 + 4 - 2);
  ExpectCountersMatchWalk(t, "narrower update");

  commit([&](Transaction* txn) { ASSERT_EQ(*DeleteValue(&t, txn, 2), 1u); });
  EXPECT_EQ(t.row_count(), 3u);
  EXPECT_EQ(t.byte_count(), 2u * 14 + 15 + 4 - 2);
  ExpectCountersMatchWalk(t, "delete");
  const size_t rows = t.row_count();
  const size_t bytes = t.byte_count();

  // Pending writes count nothing, and a rollback leaves nothing behind.
  auto rolled = mgr.Begin();
  ASSERT_TRUE(t.InsertTxn(rolled.get(), {Value::Int(9), Value::String("q")})
                  .ok());
  ASSERT_EQ(*SetText(&t, rolled.get(), 0, "much wider text"), 1u);
  ASSERT_EQ(*DeleteValue(&t, rolled.get(), 3), 1u);
  EXPECT_EQ(t.row_count(), rows);
  EXPECT_EQ(t.byte_count(), bytes);
  mgr.Rollback(rolled.get());
  EXPECT_EQ(t.row_count(), rows);
  EXPECT_EQ(t.byte_count(), bytes);
  ExpectCountersMatchWalk(t, "rollback");

  // A row inserted, widened and deleted inside one transaction nets to
  // nothing; one inserted then updated counts at its final width.
  commit([&](Transaction* txn) {
    ASSERT_TRUE(t.InsertTxn(txn, {Value::Int(7), Value::String("a")}).ok());
    ASSERT_EQ(*SetText(&t, txn, 7, "abcdefgh"), 1u);
    ASSERT_EQ(*DeleteValue(&t, txn, 7), 1u);
  });
  EXPECT_EQ(t.row_count(), rows);
  EXPECT_EQ(t.byte_count(), bytes);
  ExpectCountersMatchWalk(t, "insert, update, delete");
  commit([&](Transaction* txn) {
    ASSERT_TRUE(t.InsertTxn(txn, {Value::Int(8), Value::String("a")}).ok());
    ASSERT_EQ(*SetText(&t, txn, 8, "abc"), 1u);
  });
  EXPECT_EQ(t.row_count(), rows + 1);
  EXPECT_EQ(t.byte_count(), bytes + 15);
  ExpectCountersMatchWalk(t, "insert, update");

  // Vacuum reclaims dead versions and changes no committed statistic.
  t.Vacuum(mgr.Watermark(), &mgr);
  ExpectCountersMatchWalk(t, "vacuum");
}

TEST(MvccTest, VacuumNeverReclaimsLiveVisibleVersions) {
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 4);

  // Pin a snapshot that sees the original values, then commit three
  // generations of updates over row 0 and delete row 3.
  auto pinned = mgr.Begin();
  for (int64_t gen = 1; gen <= 3; ++gen) {
    auto w = mgr.Begin();
    ASSERT_TRUE(UpdateValue(t.get(), w.get(), 0, gen).ok());
    ASSERT_TRUE(mgr.Commit(w.get()).ok());
  }
  auto del = mgr.Begin();
  ASSERT_TRUE(DeleteValue(t.get(), del.get(), 3).ok());
  ASSERT_TRUE(mgr.Commit(del.get()).ok());

  // Vacuum at the watermark: the pinned snapshot caps it, so the
  // version that snapshot reads (and the deleted row it still sees)
  // must survive; the intermediate generations may go.
  t->Vacuum(mgr.Watermark(), &mgr);
  mgr.SweepRetired();
  auto old_row = t->GetByKey(Value::Int(0), pinned->snapshot());
  ASSERT_TRUE(old_row.has_value());
  EXPECT_EQ((*old_row)[1].AsInt(), 0);
  EXPECT_TRUE(t->GetByKey(Value::Int(3), pinned->snapshot()).has_value());
  EXPECT_EQ(t->rows(pinned->snapshot()).size(), 4u);

  // Release the pin: now everything dead to the latest snapshot is
  // reclaimable, including the deleted row's slot.
  ASSERT_TRUE(mgr.Commit(pinned.get()).ok());
  t->Vacuum(mgr.Watermark(), &mgr);
  mgr.SweepRetired();
  EXPECT_EQ(mgr.retired_count(), 0u);
  auto latest = t->GetByKey(Value::Int(0));
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ((*latest)[1].AsInt(), 3);
  EXPECT_FALSE(t->GetByKey(Value::Int(3)).has_value());
  EXPECT_EQ(t->rows().size(), 3u);

  // A pin taken after the sweep cannot resurrect anything.
  auto after = mgr.Begin();
  EXPECT_EQ(t->rows(after->snapshot()).size(), 3u);
  ASSERT_TRUE(mgr.Commit(after.get()).ok());
}

TEST(MvccTest, ConcurrentReadersScanWhileWritersCommit) {
  // Readers pin snapshots and scan while writers update and vacuum runs;
  // every scan must observe a consistent generation (all rows from one
  // commit point — the per-generation marker makes torn reads visible).
  // TSan (scripts/verify.sh runs this suite under it) checks the
  // lock-free chain traversal; the assertions check snapshot atomicity.
  TxnManager mgr;
  auto t = std::make_shared<Table>("g", KV(), 4, &mgr);
  constexpr int kRows = 32;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(0)}).ok());
  }
  ASSERT_TRUE(t->DeclareUniqueKey("id").ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int64_t gen = 1; gen <= 40; ++gen) {
      auto w = mgr.Begin();
      auto written = t->MutateRows(
          w.get(),
          [](const Row&) -> Result<bool> { return true; },
          [gen](const Row& row) -> Result<Row> {
            Row updated = row;
            updated[1] = Value::Int(gen);
            return updated;
          });
      EXPECT_TRUE(written.ok());
      EXPECT_TRUE(mgr.Commit(w.get()).ok());
      t->Vacuum(mgr.Watermark(), &mgr);
      mgr.SweepRetired();
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto txn = mgr.Begin();
        std::vector<Row> rows = t->rows(txn->snapshot());
        EXPECT_EQ(rows.size(), static_cast<size_t>(kRows));
        if (!rows.empty()) {
          const int64_t gen = rows[0][1].AsInt();
          for (const Row& row : rows) {
            EXPECT_EQ(row[1].AsInt(), gen) << "torn snapshot read";
          }
        }
        EXPECT_TRUE(mgr.Commit(txn.get()).ok());
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();

  t->Vacuum(mgr.Watermark(), &mgr);
  mgr.SweepRetired();
  for (const Row& row : t->rows()) EXPECT_EQ(row[1].AsInt(), 40);
}

TEST(MvccTest, ReadGuardPinsAndReleasesSnapshots) {
  Database db(DatabaseOptions{2});
  ASSERT_TRUE(db.CreateTable("t", KV()).ok());
  auto t = db.SnapshotTable("t");
  ASSERT_NE(t, nullptr);
  ASSERT_TRUE(t->Insert({Value::Int(1), Value::Int(10)}).ok());

  const Ts before = db.txn_manager()->Watermark();
  {
    ReadGuard guard = ReadGuard::Acquire(db, {"t"});
    ASSERT_FALSE(guard.empty());
    // The guard's pin holds the GC watermark at its snapshot.
    EXPECT_LE(db.txn_manager()->Watermark(), guard.snapshot().ts);

    auto writer = db.txn_manager()->Begin();
    ASSERT_TRUE(
        t->InsertTxn(writer.get(), {Value::Int(2), Value::Int(20)}).ok());
    ASSERT_TRUE(db.txn_manager()->Commit(writer.get()).ok());
    // Guard still reads at its pinned point.
    EXPECT_EQ(t->rows(guard.snapshot()).size(), 1u);
  }
  // Guard released: the watermark moves forward with the clock again.
  EXPECT_GE(db.txn_manager()->Watermark(), before);
  EXPECT_EQ(t->rows().size(), 2u);
}

}  // namespace
}  // namespace eqsql::storage
