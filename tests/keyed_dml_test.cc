// Keyed UPDATE/DELETE: a predicate binding the unique key takes
// SELECT's KeyLookup path (one slot probed, one row charged, one key
// read recorded) and must answer exactly as the scan does. Every
// statement runs twice on identical tables -- keyed (`id = ...`) and
// forced to the scan (`id + 0 = ...`) -- at 1, 2 and 8 shards, and the
// affected counts, final contents, error codes and error texts must
// match. ROADMAP item 7's two divergences (a residual that errors on a
// row the key skips, a probe the key cannot be compared with) are
// checked against SELECT instead: writes answer as reads do.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "net/api.h"
#include "net/connection.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "storage/table.h"

namespace eqsql {
namespace {

using catalog::DataType;
using catalog::Schema;
using catalog::Value;

/// One statement of a script; `{K}` stands for the key reference.
struct Step {
  std::string sql;
  std::vector<Value> params;
};

/// What one statement observably did.
struct Observed {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  std::string message;
  int64_t rows = 0;

  bool operator==(const Observed& o) const {
    return ok == o.ok && code == o.code && message == o.message &&
           rows == o.rows;
  }
};

std::ostream& operator<<(std::ostream& out, const Observed& o) {
  if (o.ok) return out << "ok rows=" << o.rows;
  return out << "error " << static_cast<int>(o.code) << ": " << o.message;
}

Observed Perform(net::Connection* conn, const std::string& sql,
                 std::vector<Value> params = {}) {
  net::Outcome out =
      conn->Perform(net::Request::Statement(sql, std::move(params)));
  Observed o;
  o.ok = out.ok();
  if (!o.ok) {
    o.code = out.status.code();
    o.message = out.status.message();
  } else if (out.kind == net::Outcome::Kind::kRowCount) {
    o.rows = out.row_count;
  } else {
    o.rows = static_cast<int64_t>(out.rows.rows.size());
  }
  return o;
}

std::string Substitute(std::string sql, const std::string& key) {
  for (size_t at = sql.find("{K}"); at != std::string::npos;
       at = sql.find("{K}", at + key.size())) {
    sql.replace(at, 3, key);
  }
  return sql;
}

/// t(id key, v, s) over `shards` shards: (i, 10 i, "s<i>") for i < n,
/// then (n, NULL, "null").
std::unique_ptr<storage::Database> MakeDb(size_t shards, int64_t n = 10) {
  auto db = std::make_unique<storage::Database>(
      storage::DatabaseOptions{shards});
  storage::Table* t = *db->CreateTable(
      "t", Schema({{"id", DataType::kInt64},
                   {"v", DataType::kInt64},
                   {"s", DataType::kString}}));
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(t->Insert({Value::Int(i), Value::Int(10 * i),
                           Value::String("s" + std::to_string(i))})
                    .ok());
  }
  EXPECT_TRUE(
      t->Insert({Value::Int(n), Value::Null(), Value::String("null")}).ok());
  EXPECT_TRUE(t->DeclareUniqueKey("id").ok());
  return db;
}

std::vector<catalog::Row> Contents(storage::Database* db) {
  return (*db->GetTable("t"))->rows();
}

class KeyedDmlTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KeyedDmlTest, KeyedStatementsAnswerAsTheScan) {
  const std::vector<std::vector<Step>> scripts = {
      // A NULL probe matches nothing, literal or parameter.
      {{"UPDATE t SET v = 1 WHERE {K} = NULL"}},
      {{"UPDATE t SET v = 1 WHERE {K} = ?", {Value::Null()}}},
      {{"DELETE FROM t WHERE {K} = NULL"}},
      // An absent key.
      {{"UPDATE t SET v = 1 WHERE {K} = 99"}},
      {{"DELETE FROM t WHERE {K} = ?", {Value::Int(99)}}},
      // A present key, on either side, by literal and by parameter.
      {{"UPDATE t SET v = v + 1 WHERE {K} = 3"}},
      {{"UPDATE t SET v = v + 1, s = 'x' WHERE 4 = {K}"}},
      {{"UPDATE t SET v = ? WHERE {K} = ?", {Value::Int(-1), Value::Int(5)}}},
      {{"DELETE FROM t WHERE {K} = 6"}},
      // A residual that is true, false, NULL or erroring on the hit,
      // after and before the key conjunct.
      {{"UPDATE t SET v = 7 WHERE {K} = 3 AND v > 5"}},
      {{"UPDATE t SET v = 7 WHERE v > 5 AND {K} = 3"}},
      {{"UPDATE t SET v = 7 WHERE {K} = 3 AND v > 500"}},
      {{"DELETE FROM t WHERE {K} = 3 AND v > 500"}},
      {{"DELETE FROM t WHERE {K} = 10 AND v > 5"}},
      {{"UPDATE t SET v = 7 WHERE {K} = 3 AND s > 5"}},
      {{"DELETE FROM t WHERE s > 5 AND {K} = 3"}},
      // An assignment that errors on the hit.
      {{"UPDATE t SET v = s + 1 WHERE {K} = 3"}},
      // Rejected before any access path.
      {{"UPDATE t SET id = 50 WHERE {K} = 3"}},
      {{"UPDATE t SET nope = 1 WHERE {K} = 3"}},
      // Two key conjuncts: the first binds, the second is residual.
      {{"UPDATE t SET v = 1 WHERE {K} = 3 AND {K} = 4"}},
      {{"UPDATE t SET v = 1 WHERE {K} = 3 AND {K} = 3"}},
      // No key binding in either form.
      {{"UPDATE t SET v = v * 2 WHERE {K} > 6"}},
      {{"DELETE FROM t WHERE {K} = 2 OR {K} = 3"}},
      // DELETE then reinsert in one transaction, then update the
      // reinserted row.
      {{"BEGIN"},
       {"DELETE FROM t WHERE {K} = 2"},
       {"UPDATE t SET v = 0 WHERE {K} = 2"},
       {"INSERT INTO t VALUES (2, 7, 'again')"},
       {"UPDATE t SET v = v + 1 WHERE {K} = 2"},
       {"SELECT * FROM t AS r WHERE {K} = 2 AND v = 8"},
       {"COMMIT"}},
      // Update and delete a row the same transaction inserted.
      {{"BEGIN"},
       {"INSERT INTO t VALUES (50, 1, 'new')"},
       {"UPDATE t SET v = 9 WHERE {K} = 50"},
       {"DELETE FROM t WHERE {K} = 50 AND v = 9"},
       {"UPDATE t SET v = 1 WHERE {K} = 50"},
       {"INSERT INTO t VALUES (50, 2, 'newer')"},
       {"COMMIT"}},
      // A failed statement leaves the transaction open; ROLLBACK undoes
      // the keyed writes around it.
      {{"BEGIN"},
       {"UPDATE t SET v = 0 WHERE {K} = 4"},
       {"UPDATE t SET v = s + 1 WHERE {K} = 5"},
       {"DELETE FROM t WHERE {K} = 6"},
       {"ROLLBACK"},
       {"UPDATE t SET v = 0 WHERE {K} = 1"}},
  };
  for (const std::vector<Step>& script : scripts) {
    SCOPED_TRACE(script.size() == 1 ? script[0].sql : script[1].sql);
    std::unique_ptr<storage::Database> keyed_db = MakeDb(GetParam());
    std::unique_ptr<storage::Database> scan_db = MakeDb(GetParam());
    net::Connection keyed(keyed_db.get());
    net::Connection scan(scan_db.get());
    for (const Step& step : script) {
      const Observed by_key =
          Perform(&keyed, Substitute(step.sql, "id"), step.params);
      const Observed by_scan =
          Perform(&scan, Substitute(step.sql, "id + 0"), step.params);
      EXPECT_EQ(by_key, by_scan) << step.sql;
    }
    EXPECT_EQ(Contents(keyed_db.get()), Contents(scan_db.get()));
  }
}

TEST_P(KeyedDmlTest, UpdateAffectsWhatSelectReturns) {
  const std::vector<std::string> predicates = {
      "id = 3", "id = 99", "id = NULL", "3 = id",
      "id = 3 AND v > 5", "id = 3 AND v > 500", "v > 25 AND id = 4",
      "id = 10 AND v > 5", "id + 0 = 3", "id > 6",
      // ROADMAP item 7: the probe cannot be compared with the key, and
      // a residual that errors on every row the key skips. The scan
      // fails on both; the key path, for reads and writes alike,
      // answers 0 rows.
      "id = 'abc'", "s > 5 AND id = 99"};
  for (const std::string& pred : predicates) {
    SCOPED_TRACE(pred);
    std::unique_ptr<storage::Database> db = MakeDb(GetParam());
    net::Connection conn(db.get());
    const Observed selected =
        Perform(&conn, "SELECT * FROM t AS r WHERE " + pred);
    const Observed updated =
        Perform(&conn, "UPDATE t SET v = v WHERE " + pred);
    EXPECT_EQ(selected.ok, updated.ok) << selected << " vs " << updated;
    EXPECT_EQ(selected.code, updated.code);
    EXPECT_EQ(selected.rows, updated.rows);
  }
}

TEST_P(KeyedDmlTest, KeyedUpdateProbesOneRow) {
  // On a 5,000-row table a keyed UPDATE examines and charges one row,
  // where the scan examines all of them.
  std::unique_ptr<storage::Database> db = MakeDb(GetParam(), 4999);
  obs::MetricsRegistry metrics;
  net::Connection conn(db.get());
  conn.set_metrics(&metrics);
  auto counter = [&](const std::string& name) {
    return metrics.counter(name)->Value();
  };

  Observed keyed = Perform(&conn, "UPDATE t SET v = v + 1 WHERE id = 1234");
  ASSERT_TRUE(keyed.ok) << keyed;
  EXPECT_EQ(keyed.rows, 1);
  EXPECT_EQ(counter("storage.dml.key_probes"), 1);
  EXPECT_EQ(counter("storage.dml.scans"), 0);
  EXPECT_EQ(counter("exec.rows_processed"), 1);

  Observed scanned =
      Perform(&conn, "UPDATE t SET v = v + 1 WHERE id + 0 = 1234");
  ASSERT_TRUE(scanned.ok) << scanned;
  EXPECT_EQ(scanned.rows, 1);
  EXPECT_EQ(counter("storage.dml.key_probes"), 1);
  EXPECT_EQ(counter("storage.dml.scans"), 1);
  EXPECT_EQ(counter("exec.rows_processed"), 1 + 5000);
}

TEST_P(KeyedDmlTest, CountersSplitConflictsAndAccessPaths) {
  // One first-writer-wins conflict, one commit-validation conflict, and
  // statements on both access paths, each in its own counter.
  std::unique_ptr<storage::Database> db = MakeDb(GetParam());
  obs::MetricsRegistry metrics;
  db->set_metrics(&metrics);
  net::Connection a(db.get());
  net::Connection b(db.get());
  a.set_metrics(&metrics);
  b.set_metrics(&metrics);
  auto counter = [&](const std::string& name) {
    return metrics.counter(name)->Value();
  };

  // Write-write: B's keyed UPDATE meets A's pending version of key 1.
  ASSERT_TRUE(Perform(&a, "BEGIN").ok);
  ASSERT_TRUE(Perform(&a, "UPDATE t SET v = 1 WHERE id = 1").ok);
  const Observed clash = Perform(&b, "UPDATE t SET v = 2 WHERE id = 1");
  EXPECT_EQ(clash.code, StatusCode::kTxnConflict) << clash;
  ASSERT_TRUE(Perform(&a, "COMMIT").ok);
  EXPECT_EQ(counter("storage.mvcc.write_conflicts"), 1);
  EXPECT_EQ(counter("storage.mvcc.validation_conflicts"), 0);

  // Validation: A's SELECT reads the whole table, B commits a keyed
  // write to it, and A's COMMIT fails.
  ASSERT_TRUE(Perform(&a, "BEGIN").ok);
  ASSERT_TRUE(Perform(&a, "SELECT * FROM t AS r").ok);
  ASSERT_TRUE(Perform(&b, "UPDATE t SET v = 3 WHERE id = 2").ok);
  ASSERT_TRUE(Perform(&a, "UPDATE t SET v = 4 WHERE id = 5").ok);
  const Observed stale = Perform(&a, "COMMIT");
  EXPECT_EQ(stale.code, StatusCode::kTxnConflict) << stale;
  EXPECT_EQ(counter("storage.mvcc.write_conflicts"), 1);
  EXPECT_EQ(counter("storage.mvcc.validation_conflicts"), 1);

  // The scan path: no key binding.
  ASSERT_TRUE(Perform(&b, "DELETE FROM t WHERE v < 0").ok);
  EXPECT_EQ(counter("storage.dml.key_probes"), 4);
  EXPECT_EQ(counter("storage.dml.scans"), 1);
}

INSTANTIATE_TEST_SUITE_P(Shards, KeyedDmlTest, ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace eqsql
