// Storage-layer sharding tests: hash placement, insertion-order scans,
// writer/reader independence under MVCC versioning, runtime
// rebalancing, empty/single-row partitions, and ReadGuard's
// snapshot-pinning across a concurrent DROP. The cross-layer
// counterpart is tests/shard_invariance_test.cc, which proves
// whole-engine results identical at 1, 2, and 8 shards; transaction
// semantics proper live in tests/mvcc_test.cc.

#include <gtest/gtest.h>

#include <algorithm>

#include <chrono>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "storage/database.h"
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

void FillKeyed(Table* t, int n) {
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(i * 10)}).ok());
  }
  ASSERT_TRUE(t->DeclareUniqueKey("id").ok());
}

TEST(ShardTest, ScanOrderIsInsertionOrderAtEveryShardCount) {
  std::vector<Row> reference;
  for (size_t shards : {1u, 2u, 3u, 8u}) {
    Table t("t", KV(), shards);
    ASSERT_EQ(t.shard_count(), shards);
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(t.Insert({Value::Int(i * 7 % 25), Value::Int(i)}).ok());
    }
    std::vector<Row> got = t.rows();
    ASSERT_EQ(got.size(), 25u);
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference) << "shard_count=" << shards;
    }
  }
}

TEST(ShardTest, KeyedPlacementLookupAndDuplicates) {
  Table t("t", KV(), 4);
  FillKeyed(&t, 20);
  for (int i = 0; i < 20; ++i) {
    auto seq = t.LookupByKey(Value::Int(i));
    ASSERT_TRUE(seq.has_value()) << i;
    EXPECT_EQ(t.rows()[*seq][0].AsInt(), i);
    auto row = t.GetByKey(Value::Int(i));
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ((*row)[1].AsInt(), i * 10);
    // The row really lives in the shard its key hashes to.
    size_t shard = t.ShardOfKey(Value::Int(i));
    bool found = false;
    for (const auto& slot : t.PinShard(shard)) {
      const Row* visible = slot->VisibleRow(Snapshot::Latest());
      if (visible != nullptr && (*visible)[0] == Value::Int(i)) found = true;
    }
    EXPECT_TRUE(found) << "key " << i << " not in shard " << shard;
  }
  EXPECT_FALSE(t.GetByKey(Value::Int(99)).has_value());
  // Duplicate key: rejected, row count unchanged.
  EXPECT_FALSE(t.Insert({Value::Int(3), Value::Int(0)}).ok());
  EXPECT_EQ(t.row_count(), 20u);
}

TEST(ShardTest, SetShardCountRebalancesWithoutReordering) {
  Table t("t", KV(), 1);
  FillKeyed(&t, 30);
  std::vector<Row> before = t.rows();
  for (size_t n : {4u, 8u, 2u, 1u}) {
    ASSERT_TRUE(t.SetShardCount(n).ok());
    EXPECT_EQ(t.shard_count(), n);
    EXPECT_EQ(t.rows(), before) << "shard_count=" << n;
    // Key index is rebuilt against the new placement.
    auto row = t.GetByKey(Value::Int(17));
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ((*row)[1].AsInt(), 170);
    // Every row is findable in its newly computed home shard.
    size_t total = 0;
    for (size_t i = 0; i < n; ++i) total += t.PinShard(i).size();
    EXPECT_EQ(total, 30u);
  }
  EXPECT_FALSE(t.SetShardCount(0).ok());
  // Inserts keep working after a rebalance.
  ASSERT_TRUE(t.Insert({Value::Int(1000), Value::Int(1)}).ok());
  EXPECT_TRUE(t.GetByKey(Value::Int(1000)).has_value());
}

TEST(ShardTest, EmptyAndSingleRowPartitions) {
  Table empty("e", KV(), 8);
  EXPECT_EQ(empty.rows().size(), 0u);
  EXPECT_EQ(empty.row_count(), 0u);

  Table one("o", KV(), 8);
  ASSERT_TRUE(one.Insert({Value::Int(42), Value::Int(7)}).ok());
  ASSERT_TRUE(one.DeclareUniqueKey("id").ok());
  EXPECT_EQ(one.rows().size(), 1u);
  // Exactly one of the eight shards holds the row; the other seven are
  // empty partitions every scan/fold path must tolerate.
  size_t nonempty = 0;
  for (size_t i = 0; i < 8; ++i) {
    if (!one.PinShard(i).empty()) ++nonempty;
  }
  EXPECT_EQ(nonempty, 1u);
  EXPECT_TRUE(one.GetByKey(Value::Int(42)).has_value());
}

// An uncommitted writer must not block readers anywhere — under MVCC a
// writer parks a pending version in its slot and holds no locks between
// statements, so readers on the written shard (and every other shard)
// proceed against their snapshot and see the pre-image.
TEST(ShardTest, UncommittedWriterDoesNotBlockReaders) {
  TxnManager mgr;
  Table t("t", KV(), 2, &mgr);
  FillKeyed(&t, 16);
  // A resident key on shard 1, and a fresh key that will insert there.
  int64_t key_b = -1;
  for (int i = 0; i < 16; ++i) {
    if (t.ShardOfKey(Value::Int(i)) == 1) { key_b = i; break; }
  }
  ASSERT_GE(key_b, 0);
  int64_t new_key = 1000;
  while (t.ShardOfKey(Value::Int(new_key)) != 1) ++new_key;

  // Park an uncommitted UPDATE over key_b's row (a pending version in
  // shard 1).
  std::shared_ptr<Transaction> writer = mgr.Begin();
  auto written = t.MutateRows(
      writer.get(),
      [&](const Row& row) -> Result<bool> {
        return row[0] == Value::Int(key_b);
      },
      [](const Row& row) -> Result<Row> {
        Row updated = row;
        updated[1] = Value::Int(-1);
        return updated;
      });
  ASSERT_TRUE(written.ok());
  ASSERT_EQ(*written, 1u);

  // A reader and an inserter on the SAME shard must both complete while
  // the write is pending, and the reader sees the pre-image.
  auto other_work = std::async(std::launch::async, [&] {
    auto row = t.GetByKey(Value::Int(key_b));
    bool ok = row.has_value() && (*row)[1].AsInt() == key_b * 10;
    return ok && t.Insert({Value::Int(new_key), Value::Int(0)}).ok();
  });
  // Generous timeout: under TSan "instant" can be slow, but a deadlock
  // would hang forever.
  ASSERT_EQ(other_work.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(other_work.get());

  ASSERT_TRUE(mgr.Commit(writer.get()).ok());
  auto committed = t.GetByKey(Value::Int(key_b));
  ASSERT_TRUE(committed.has_value());
  EXPECT_EQ((*committed)[1].AsInt(), -1);
  EXPECT_TRUE(t.Insert({Value::Int(2000), Value::Int(0)}).ok());
}

TEST(ShardTest, ConcurrentInsertsSurviveRepartition) {
  // Insert races SetShardCount: the topology lock must keep a
  // repartition from freeing a shard an inserter picked (or is blocked
  // on), and every insert must land in a live shard — no row may
  // vanish into an orphaned one. TSan checks the memory claims; the
  // final count and scan check the no-lost-row claim.
  Table t("t", KV(), 2);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 200;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&t, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        // EXPECT (not ASSERT): fatal assertions must stay on the main
        // thread in gtest.
        EXPECT_TRUE(
            t.Insert({Value::Int(w * kPerWriter + i), Value::Int(i)}).ok());
      }
    });
  }
  std::thread rebalancer([&t] {
    for (size_t n : {1u, 8u, 3u, 2u, 8u}) {
      EXPECT_TRUE(t.SetShardCount(n).ok());
    }
  });
  for (std::thread& w : writers) w.join();
  rebalancer.join();

  EXPECT_EQ(t.row_count(), static_cast<size_t>(kWriters * kPerWriter));
  EXPECT_EQ(t.rows().size(), static_cast<size_t>(kWriters * kPerWriter));
}

TEST(ReadGuardTest, PinsSnapshotAcrossConcurrentDrop) {
  Database db(DatabaseOptions{4});
  auto created = db.CreateTable("pinned", KV());
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE((*created)->Insert({Value::Int(1), Value::Int(5)}).ok());
  // A session table shadows the catalog table of the same name.
  auto own = std::make_shared<Table>("pinned", KV(), db.shard_count(),
                                     db.txn_manager());
  ASSERT_TRUE(own->Insert({Value::Int(2), Value::Int(7)}).ok());
  SessionTables session = {{"pinned", own}};

  ReadGuard guard = ReadGuard::Acquire(db, {"Pinned", "missing_tbl"},
                                       /*metrics=*/nullptr, &session);
  ASSERT_EQ(guard.SlotOf("pinned"), std::optional<size_t>(0));
  const Table* pinned = guard.table(0);
  ASSERT_EQ(pinned, own.get());
  // An absent table keeps an empty slot.
  ASSERT_EQ(guard.SlotOf("missing_tbl"), std::optional<size_t>(1));
  EXPECT_EQ(guard.table(1), nullptr);

  // The session drops its table; the guard's pin outlives it.
  session.clear();
  own.reset();
  EXPECT_EQ(pinned->rows().size(), 1u);
  EXPECT_EQ(pinned->rows()[0][1].AsInt(), 7);
  // Without the session table the name resolves in the catalog.
  ReadGuard catalog = ReadGuard::Acquire(db, {"pinned"});
  EXPECT_EQ(catalog.table(0)->rows()[0][1].AsInt(), 5);
}

TEST(ReadGuardTest, ConcurrentGuardsShareTheLocks) {
  Database db(DatabaseOptions{2});
  ASSERT_TRUE(db.CreateTable("shared", KV()).ok());
  ReadGuard g1 = ReadGuard::Acquire(db, {"shared"});
  // A second reader acquires the same shard locks shared without
  // blocking; do it on another thread so a regression deadlocks the
  // future, not the test binary.
  auto second = std::async(std::launch::async, [&] {
    ReadGuard g2 = ReadGuard::Acquire(db, {"shared"});
    const std::optional<size_t> slot = g2.SlotOf("shared");
    return slot.has_value() && g2.table(*slot) != nullptr;
  });
  ASSERT_EQ(second.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_TRUE(second.get());
}

TEST(DatabaseTest, ShardCountResolves) {
  Database db(DatabaseOptions{3});
  EXPECT_EQ(db.shard_count(), 3u);
  auto created = db.CreateTable("t", KV());
  ASSERT_TRUE(created.ok());
  EXPECT_EQ((*created)->shard_count(), 3u);

  // shard_count 0 resolves to the hardware concurrency, at least 1.
  Database def(DatabaseOptions{0});
  EXPECT_GE(def.shard_count(), 1u);
}

// The scan's ordering step: each shard's run is checked, sorted only
// if it is out of seq order, and the runs merge -- giving exactly a full
// sort by seq, whether the runs are in order, one is not, or some are
// empty, over 1, 2 and 8 runs.
TEST(ShardTest, OrderSeqRunsSortsAnOutOfOrderRunAndMerges) {
  for (size_t runs : {1, 2, 8}) {
    SCOPED_TRACE("runs=" + std::to_string(runs));
    std::vector<std::pair<size_t, int>> rows;
    std::vector<size_t> run_ends;
    // Seq s goes to run s % runs (round-robin placement); run 0 is
    // written backwards, as racing inserters could leave it, and with
    // more than two runs the last stays empty.
    const size_t filled = runs > 2 ? runs - 1 : runs;
    for (size_t r = 0; r < runs; ++r) {
      std::vector<size_t> seqs;
      for (size_t s = r; r < filled && s < 40; s += filled) seqs.push_back(s);
      if (r == 0) std::reverse(seqs.begin(), seqs.end());
      for (size_t s : seqs) rows.emplace_back(s, static_cast<int>(s) * 10);
      run_ends.push_back(rows.size());
    }
    std::vector<std::pair<size_t, int>> want = rows;
    std::sort(want.begin(), want.end());
    OrderSeqRuns(&rows, run_ends);
    EXPECT_EQ(rows, want);
  }
}

}  // namespace
}  // namespace eqsql::storage
