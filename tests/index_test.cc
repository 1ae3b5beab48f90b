// Secondary-index suite (PR 8): parallel build correctness against a
// serial reference (empty table, single row, skewed key distribution),
// MVCC snapshot visibility *through index lookups* (the index must
// never surface a version the equivalent scan would hide), DELETE +
// reinsert version chains, exact rollback, layout independence across
// Repartition/SetShardCount, a concurrent-writers-during-build race
// (exercised under TSan via scripts/verify.sh), and the end-to-end
// acceptance paths: CREATE INDEX through the server, index counters in
// SHOW METRICS, and EXPLAIN EXTRACTION pricing index-nested-loop
// against the parallel full scan on a T4-extracted equi-join.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "core/optimizer.h"
#include "exec/executor.h"
#include "exec/worker_pool.h"
#include "net/api.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "storage/index.h"
#include "storage/mvcc.h"
#include "storage/table.h"
#include "storage/txn.h"

namespace eqsql {
namespace {

using catalog::DataType;
using catalog::Row;
using catalog::Schema;
using catalog::Value;
using storage::SecondaryIndex;
using storage::Snapshot;
using storage::Table;
using storage::Transaction;
using storage::TxnManager;

Schema KV() {
  return Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}});
}

/// A table wired to `mgr`, keyed on "id", holding (i, v(i)) for i<n.
std::shared_ptr<Table> MakeKeyed(TxnManager* mgr, int n,
                                 int64_t (*value)(int64_t),
                                 size_t shards = 2) {
  auto t = std::make_shared<Table>("t", KV(), shards, mgr);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(t->Insert({Value::Int(i), Value::Int(value(i))}).ok());
  }
  EXPECT_TRUE(t->DeclareUniqueKey("id").ok());
  return t;
}

/// What the executor's index-scan operator does: probe, resolve each
/// candidate's visible version against `snap`, and re-check that the
/// indexed columns still equal the probe key (filters stale entries
/// exactly like a full scan would).
std::vector<Row> ProbeVisible(const SecondaryIndex& idx,
                              const std::vector<Value>& key,
                              const Snapshot& snap) {
  std::vector<Row> out;
  for (const std::shared_ptr<const storage::TableSlot>& slot :
       idx.Probe(key)) {
    const Row* row = slot->VisibleRow(snap);
    if (row == nullptr) continue;
    bool match = true;
    for (size_t i = 0; i < key.size(); ++i) {
      match = match && (*row)[idx.column_indexes()[i]] == key[i];
    }
    if (match) out.push_back(*row);
  }
  return out;
}

Table::IndexTaskRunner PoolRunner(exec::WorkerPool* pool) {
  return [pool](std::vector<std::function<void()>> tasks) {
    pool->Run(std::move(tasks));
  };
}

// ---------------------------------------------------------------------------
// Build
// ---------------------------------------------------------------------------

// The parallel per-shard backfill must produce an index answering every
// probe exactly like a serially built one, including under a skewed key
// distribution (most rows share three values, a few are unique).
TEST(IndexBuild, ParallelBackfillMatchesSerialOnSkewedKeys) {
  auto skewed = [](int64_t i) { return i < 180 ? i % 3 : i; };
  TxnManager mgr_a, mgr_b;
  auto serial = MakeKeyed(&mgr_a, 200, skewed, /*shards=*/4);
  auto parallel = MakeKeyed(&mgr_b, 200, skewed, /*shards=*/4);
  ASSERT_TRUE(serial->CreateIndex("iv", {"v"}).ok());
  exec::WorkerPool pool(4);
  ASSERT_TRUE(parallel->CreateIndex("iv", {"v"}, PoolRunner(&pool)).ok());

  auto si = serial->FindIndex({"v"});
  auto pi = parallel->FindIndex({"v"});
  ASSERT_NE(si, nullptr);
  ASSERT_NE(pi, nullptr);
  EXPECT_TRUE(si->ready());
  EXPECT_TRUE(pi->ready());
  EXPECT_EQ(si->entry_count(), pi->entry_count());
  for (int64_t v = 0; v < 200; ++v) {
    std::vector<Row> s = ProbeVisible(*si, {Value::Int(v)}, Snapshot::Latest());
    std::vector<Row> p = ProbeVisible(*pi, {Value::Int(v)}, Snapshot::Latest());
    ASSERT_EQ(s.size(), p.size()) << "v=" << v;
    for (size_t i = 0; i < s.size(); ++i) EXPECT_EQ(s[i], p[i]) << "v=" << v;
  }
  // The hot value really is skewed and fully indexed.
  EXPECT_EQ(ProbeVisible(*pi, {Value::Int(0)}, Snapshot::Latest()).size(), 60u);
}

// Building over an empty table publishes a ready, empty index that
// writers maintain from then on; a single-row table builds one entry.
TEST(IndexBuild, EmptyAndSingleRowTables) {
  TxnManager mgr;
  exec::WorkerPool pool(2);
  auto empty = MakeKeyed(&mgr, 0, nullptr);
  ASSERT_TRUE(empty->CreateIndex("iv", {"v"}, PoolRunner(&pool)).ok());
  auto idx = empty->FindIndex({"v"});
  ASSERT_NE(idx, nullptr);
  EXPECT_TRUE(idx->ready());
  EXPECT_EQ(idx->entry_count(), 0u);
  EXPECT_TRUE(
      ProbeVisible(*idx, {Value::Int(7)}, Snapshot::Latest()).empty());
  // Maintenance after the (empty) build: a later insert is indexed.
  ASSERT_TRUE(empty->Insert({Value::Int(1), Value::Int(7)}).ok());
  auto hit = ProbeVisible(*idx, {Value::Int(7)}, Snapshot::Latest());
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0][0].AsInt(), 1);

  auto one = MakeKeyed(&mgr, 1, [](int64_t) -> int64_t { return 42; });
  ASSERT_TRUE(one->CreateIndex("iv", {"v"}, PoolRunner(&pool)).ok());
  auto oi = one->FindIndex({"v"});
  ASSERT_NE(oi, nullptr);
  EXPECT_EQ(
      ProbeVisible(*oi, {Value::Int(42)}, Snapshot::Latest()).size(), 1u);
}

// Duplicate names and unknown columns refuse without registering
// anything; NULL key tuples are never indexed and match no probe.
TEST(IndexBuild, RefusalsAndNullKeys) {
  TxnManager mgr;
  auto t = std::make_shared<Table>(
      "t", Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}), 2,
      &mgr);
  ASSERT_TRUE(t->Insert({Value::Int(1), Value::Null()}).ok());
  ASSERT_TRUE(t->Insert({Value::Int(2), Value::Int(5)}).ok());
  ASSERT_TRUE(t->CreateIndex("iv", {"v"}).ok());
  EXPECT_FALSE(t->CreateIndex("iv", {"v"}).ok());  // duplicate name
  EXPECT_FALSE(t->CreateIndex("ix", {"nope"}).ok());
  EXPECT_EQ(t->index_count(), 1u);
  auto idx = t->FindIndex({"v"});
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->entry_count(), 1u);  // the NULL row is not indexed
  EXPECT_TRUE(
      ProbeVisible(*idx, {Value::Null()}, Snapshot::Latest()).empty());
}

// ---------------------------------------------------------------------------
// MVCC visibility through the index
// ---------------------------------------------------------------------------

// The ISSUE's named case: a reader whose snapshot predates the writer's
// commit must never see the new version via the index — not while the
// write is pending and not after it commits — while the writer reads
// its own write and a fresh snapshot sees the committed state.
TEST(IndexMvcc, PinnedReaderNeverSeesLaterCommitThroughIndex) {
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 4, [](int64_t i) { return i * 10; });
  ASSERT_TRUE(t->CreateIndex("iv", {"v"}).ok());
  auto idx = t->FindIndex({"v"});
  ASSERT_NE(idx, nullptr);

  auto reader = mgr.Begin();
  auto writer = mgr.Begin();
  ASSERT_TRUE(t->MutateRows(
                   writer.get(),
                   [](const Row& r) -> Result<bool> {
                     return r[0] == Value::Int(2);
                   },
                   [](const Row& r) -> Result<Row> {
                     Row u = r;
                     u[1] = Value::Int(777);
                     return u;
                   })
                  .ok());

  // Pending: invisible to the reader, visible to the writer itself.
  EXPECT_TRUE(ProbeVisible(*idx, {Value::Int(777)}, reader->snapshot())
                  .empty());
  EXPECT_EQ(
      ProbeVisible(*idx, {Value::Int(20)}, reader->snapshot()).size(), 1u);
  EXPECT_EQ(
      ProbeVisible(*idx, {Value::Int(777)}, writer->snapshot()).size(), 1u);
  EXPECT_TRUE(
      ProbeVisible(*idx, {Value::Int(20)}, writer->snapshot()).empty());

  ASSERT_TRUE(mgr.Commit(writer.get()).ok());

  // Committed: the pinned reader still sees the old world through the
  // index; a fresh snapshot sees the new one.
  EXPECT_TRUE(ProbeVisible(*idx, {Value::Int(777)}, reader->snapshot())
                  .empty());
  EXPECT_EQ(
      ProbeVisible(*idx, {Value::Int(20)}, reader->snapshot()).size(), 1u);
  EXPECT_EQ(
      ProbeVisible(*idx, {Value::Int(777)}, Snapshot::Latest()).size(), 1u);
  EXPECT_TRUE(
      ProbeVisible(*idx, {Value::Int(20)}, Snapshot::Latest()).empty());
  mgr.Rollback(reader.get());
}

// DELETE then reinsert under the same key stacks versions in one slot;
// probes must resolve each snapshot to exactly its own version.
TEST(IndexMvcc, DeleteAndReinsertChains) {
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 3, [](int64_t i) { return i * 10; });
  ASSERT_TRUE(t->CreateIndex("iv", {"v"}).ok());
  auto idx = t->FindIndex({"v"});
  ASSERT_NE(idx, nullptr);

  auto before_delete = mgr.Begin();
  auto del = mgr.Begin();
  ASSERT_TRUE(t->MutateRows(
                   del.get(),
                   [](const Row& r) -> Result<bool> {
                     return r[0] == Value::Int(1);
                   },
                   nullptr)
                  .ok());
  ASSERT_TRUE(mgr.Commit(del.get()).ok());
  EXPECT_TRUE(
      ProbeVisible(*idx, {Value::Int(10)}, Snapshot::Latest()).empty());
  EXPECT_EQ(ProbeVisible(*idx, {Value::Int(10)}, before_delete->snapshot())
                .size(),
            1u);

  auto re = mgr.Begin();
  ASSERT_TRUE(t->InsertTxn(re.get(), {Value::Int(1), Value::Int(55)}).ok());
  ASSERT_TRUE(mgr.Commit(re.get()).ok());
  auto hit = ProbeVisible(*idx, {Value::Int(55)}, Snapshot::Latest());
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0][0].AsInt(), 1);
  EXPECT_TRUE(
      ProbeVisible(*idx, {Value::Int(10)}, Snapshot::Latest()).empty());
  // The pinned pre-delete snapshot still resolves the original version.
  EXPECT_EQ(ProbeVisible(*idx, {Value::Int(10)}, before_delete->snapshot())
                .size(),
            1u);
  EXPECT_TRUE(ProbeVisible(*idx, {Value::Int(55)}, before_delete->snapshot())
                  .empty());
  mgr.Rollback(before_delete.get());
}

// Rollback must restore the observable index state exactly: the
// append-only entries a doomed txn added stay physically present but
// revalidation filters every one of them.
TEST(IndexMvcc, RollbackRestoresObservableIndexStateExactly) {
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 4, [](int64_t i) { return i * 10; });
  ASSERT_TRUE(t->CreateIndex("iv", {"v"}).ok());
  auto idx = t->FindIndex({"v"});
  ASSERT_NE(idx, nullptr);

  std::map<int64_t, std::vector<Row>> before;
  for (int64_t v : {0, 10, 20, 30, 55, 777}) {
    before[v] = ProbeVisible(*idx, {Value::Int(v)}, Snapshot::Latest());
  }

  auto txn = mgr.Begin();
  ASSERT_TRUE(t->InsertTxn(txn.get(), {Value::Int(100), Value::Int(55)}).ok());
  ASSERT_TRUE(t->MutateRows(
                   txn.get(),
                   [](const Row& r) -> Result<bool> {
                     return r[0] == Value::Int(2);
                   },
                   [](const Row& r) -> Result<Row> {
                     Row u = r;
                     u[1] = Value::Int(777);
                     return u;
                   })
                  .ok());
  mgr.Rollback(txn.get());

  for (const auto& [v, rows] : before) {
    std::vector<Row> now =
        ProbeVisible(*idx, {Value::Int(v)}, Snapshot::Latest());
    ASSERT_EQ(now.size(), rows.size()) << "v=" << v;
    for (size_t i = 0; i < now.size(); ++i) EXPECT_EQ(now[i], rows[i]);
  }
  EXPECT_EQ(t->rows().size(), 4u);
}

// ---------------------------------------------------------------------------
// Layout independence
// ---------------------------------------------------------------------------

// Entries hold slot pointers, not shard positions, so repartitioning
// (1 -> 8 -> 2 shards) must leave every probe answer bit-identical and
// keep maintenance working afterwards, with no rebuild.
TEST(IndexLayout, SurvivesRepartition) {
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, 50, [](int64_t i) { return i % 7; },
                     /*shards=*/1);
  ASSERT_TRUE(t->CreateIndex("iv", {"v"}).ok());
  auto idx = t->FindIndex({"v"});
  ASSERT_NE(idx, nullptr);
  std::map<int64_t, std::vector<Row>> before;
  for (int64_t v = 0; v < 7; ++v) {
    before[v] = ProbeVisible(*idx, {Value::Int(v)}, Snapshot::Latest());
    EXPECT_FALSE(before[v].empty());
  }

  for (size_t shards : {8u, 2u}) {
    ASSERT_TRUE(t->SetShardCount(shards).ok());
    EXPECT_EQ(t->FindIndex({"v"}), idx);  // same object, no rebuild
    for (int64_t v = 0; v < 7; ++v) {
      std::vector<Row> now =
          ProbeVisible(*idx, {Value::Int(v)}, Snapshot::Latest());
      ASSERT_EQ(now.size(), before[v].size()) << shards << " shards, v=" << v;
      for (size_t i = 0; i < now.size(); ++i) EXPECT_EQ(now[i], before[v][i]);
    }
  }
  ASSERT_TRUE(t->Insert({Value::Int(100), Value::Int(3)}).ok());
  EXPECT_EQ(ProbeVisible(*idx, {Value::Int(3)}, Snapshot::Latest()).size(),
            before[3].size() + 1);
}

// ---------------------------------------------------------------------------
// Build racing writers (the TSan case)
// ---------------------------------------------------------------------------

// CreateIndex registers the index before backfilling, so writers that
// run during the build maintain it concurrently with the backfill
// workers; AddEntry's (key, slot) idempotence makes the overlap safe.
// Every row inserted before or during the build must be probeable
// exactly once afterwards. scripts/verify.sh runs this under TSan.
TEST(IndexConcurrency, WritersDuringParallelBuildAllIndexedOnce) {
  constexpr int kBase = 256;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  TxnManager mgr;
  auto t = MakeKeyed(&mgr, kBase, [](int64_t i) { return i * 10; },
                     /*shards=*/8);

  exec::WorkerPool pool(4);
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&t, w] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t id = kBase + w * kPerThread + i;
        EXPECT_TRUE(t->Insert({Value::Int(id), Value::Int(id * 10)}).ok());
      }
    });
  }
  ASSERT_TRUE(t->CreateIndex("iv", {"v"}, PoolRunner(&pool)).ok());
  for (std::thread& w : writers) w.join();

  auto idx = t->FindIndex({"v"});
  ASSERT_NE(idx, nullptr);
  ASSERT_TRUE(idx->ready());
  const int total = kBase + kThreads * kPerThread;
  for (int64_t id = 0; id < total; ++id) {
    std::vector<Row> hit =
        ProbeVisible(*idx, {Value::Int(id * 10)}, Snapshot::Latest());
    ASSERT_EQ(hit.size(), 1u) << "id=" << id;
    EXPECT_EQ(hit[0][0].AsInt(), id);
  }
}

// ---------------------------------------------------------------------------
// End to end: server DDL, counters, plan choice
// ---------------------------------------------------------------------------

/// Sums `metric` across a SHOW METRICS result (0 when absent).
int64_t Metric(net::Session* session, const std::string& metric) {
  net::Outcome out =
      session->Execute(net::Request::Statement("SHOW METRICS"));
  EXPECT_TRUE(out.ok()) << out.status.ToString();
  size_t mi = *out.rows.schema->IndexOf("metric");
  size_t vi = *out.rows.schema->IndexOf("value");
  for (const Row& row : out.rows.rows) {
    if (row[mi].AsString() == metric) return row[vi].AsInt();
  }
  return 0;
}

// CREATE INDEX through the server: same SELECT answers before and
// after, and the index-scan operator's counters tick. The bill moves
// with the path: the scan bills its 40 rows plus the 8 it keeps, the
// index path its probe, its 8 visible candidates and the 8 kept.
TEST(IndexServer, CreateIndexKeepsAnswersAndTicksCounters) {
  net::ServerOptions options;
  options.scheduler_workers = 2;
  net::Server server(std::move(options));
  auto t = *server.db()->CreateTable("items", KV());
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(i % 5)}).ok());
  }
  std::unique_ptr<net::Session> session = server.Connect();

  net::Request probe = net::Request::Query(
      "SELECT * FROM items AS i WHERE i.v = ?", {Value::Int(3)});
  auto billed = [&session](const net::Request& req, net::Outcome* out) {
    const int64_t rows = Metric(session.get(), "exec.rows_processed");
    *out = session->Execute(req);
    return Metric(session.get(), "exec.rows_processed") - rows;
  };
  net::Outcome before;
  EXPECT_EQ(billed(probe, &before), 40 + 8);
  ASSERT_TRUE(before.ok()) << before.status.ToString();
  ASSERT_EQ(before.rows.rows.size(), 8u);
  EXPECT_EQ(Metric(session.get(), "storage.index.probes"), 0);

  net::Outcome ddl = session->Execute(
      net::Request::Statement("CREATE INDEX items_v ON items (v)"));
  ASSERT_TRUE(ddl.ok()) << ddl.status.ToString();

  net::Outcome after;
  EXPECT_EQ(billed(probe, &after), 1 + 8 + 8);
  ASSERT_TRUE(after.ok()) << after.status.ToString();
  ASSERT_EQ(after.rows.rows.size(), before.rows.rows.size());
  for (size_t i = 0; i < after.rows.rows.size(); ++i) {
    EXPECT_EQ(after.rows.rows[i], before.rows.rows[i]);
  }
  EXPECT_GE(Metric(session.get(), "storage.index.probes"), 1);
  EXPECT_GE(Metric(session.get(), "exec.index.scans"), 1);
  EXPECT_GE(Metric(session.get(), "storage.index.rows"), 8);
}

// The acceptance criterion: EXPLAIN EXTRACTION on a T4-extracted
// equi-join with an index on the inner join column must surface the
// index-nested-loop plan with both alternatives' estimated costs, and
// name the join path EXPLAIN ANALYZE of the same SQL shows: the
// executor probes the index whenever one covers the join's right key
// columns, whichever estimate is lower. Without the index the line is
// absent entirely. Two shapes: a selective join (few outer rows, many
// inner rows), and a wide one (500 outer rows, 12 inner rows). The
// index side is priced as probes plus the join's estimated matches, so
// under the estimator's containment guess the scan is priced cheaper
// in both.
TEST(IndexServer, ExplainExtractionPricesIndexNestedLoopAgainstScan) {
  const char* src = R"(
    func userRoles() {
      result = list();
      users = executeQuery("SELECT * FROM wuser AS u");
      roles = executeQuery("SELECT * FROM role AS r");
      for (u : users) {
        for (r : roles) {
          if (u.role_id == r.id) {
            result.append(pair(u.login, r.name));
          }
        }
      }
      return result;
    }
  )";
  struct Shape {
    int64_t users;
    int64_t roles;
    int64_t role_stride;  // user i holds role (i * role_stride) % roles
  };
  for (const Shape& shape : {Shape{4, 200, 50}, Shape{500, 12, 1}}) {
    SCOPED_TRACE(std::to_string(shape.users) + " users x " +
                 std::to_string(shape.roles) + " roles");
    net::ServerOptions options;
    options.scheduler_workers = 2;
    options.optimize.transform.table_keys = {{"wuser", "id"}, {"role", "id"}};
    net::Server server(std::move(options));
    auto wuser = *server.db()->CreateTable(
        "wuser", Schema({{"id", DataType::kInt64},
                         {"login", DataType::kString},
                         {"role_id", DataType::kInt64}}));
    auto role = *server.db()->CreateTable(
        "role",
        Schema({{"id", DataType::kInt64}, {"name", DataType::kString}}));
    for (int64_t i = 0; i < shape.users; ++i) {
      ASSERT_TRUE(wuser
                      ->Insert({Value::Int(i),
                                Value::String("u" + std::to_string(i)),
                                Value::Int((i * shape.role_stride) %
                                           shape.roles)})
                      .ok());
    }
    for (int64_t i = 0; i < shape.roles; ++i) {
      ASSERT_TRUE(
          role->Insert({Value::Int(i), Value::String("r" + std::to_string(i))})
              .ok());
    }
    std::unique_ptr<net::Session> session = server.Connect();

    auto plain = session->Execute(net::Request::ExplainExtraction(src,
                                                                  "userRoles"))
                     .TakeExplain();
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    EXPECT_EQ(plain->text.find("physical plan:"), std::string::npos)
        << plain->text;

    ASSERT_TRUE(session
                    ->Execute(net::Request::Statement(
                        "CREATE INDEX role_id_idx ON role (id)"))
                    .ok());
    auto indexed = session->Execute(net::Request::ExplainExtraction(
                                        src, "userRoles"))
                       .TakeExplain();
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    EXPECT_NE(
        indexed->text.find("physical plan: index-nested-loop on role(id)"),
        std::string::npos)
        << indexed->text;
    EXPECT_NE(indexed->text.find(" ms vs scan "), std::string::npos)
        << indexed->text;
    EXPECT_NE(indexed->text.find("(index "), std::string::npos)
        << indexed->text;
    // A probe of role(id) finds role's rows over its distinct ids: one
    // candidate. With 4 users the index is priced below the scan of 200
    // roles, as the runs bill 8 rows against the scan's 200.
    if (shape.users == 4) {
      double index_ms = 0;
      double scan_ms = 0;
      const size_t at = indexed->text.find("(index ");
      ASSERT_NE(at, std::string::npos);
      ASSERT_EQ(std::sscanf(indexed->text.c_str() + at,
                            "(index %lf ms vs scan %lf ms)", &index_ms,
                            &scan_ms),
                2)
          << indexed->text;
      EXPECT_LT(index_ms, scan_ms) << indexed->text;
    }

    // EXPLAIN ANALYZE of the extracted join runs the path the line named.
    auto optimized = session->OptimizeCached(src, "userRoles");
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    std::string join_sql;
    for (const core::VarOutcome& o : (*optimized)->outcomes) {
      if (o.extracted && !o.sql.empty()) join_sql = o.sql.front();
    }
    ASSERT_FALSE(join_sql.empty());
    auto analyzed = session->Execute(net::Request::Statement(
                                         "EXPLAIN ANALYZE " + join_sql))
                        .TakeExplain();
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    EXPECT_NE(analyzed->text.find("IndexNestedLoopJoin"), std::string::npos)
        << analyzed->text;
  }
}

// ---------------------------------------------------------------------------
// Cross-path equivalence
// ---------------------------------------------------------------------------

// A Select(Scan) runs as a unique-key lookup, a secondary-index scan or
// a scan; an equi-join runs as an index nested-loop join or a hash
// join. Each statement runs over the same rows in four setups -- no key
// or index, a unique key on d.aid, a secondary index on d.aid, both.
// Rows and status must equal the plain setup's everywhere, and each
// setup must keep its own access path (profile labels) and charges
// (rows_processed, storage.scan.rows). An index path bills one row per
// probe plus each visible candidate it hands the residual, then its
// rows out, and never a scan. A filter fused with its scan shows no
// Scan child.

enum class PathSetup { kPlain, kKey, kIndex, kBoth };

constexpr PathSetup kPathSetups[] = {PathSetup::kPlain, PathSetup::kKey,
                                     PathSetup::kIndex, PathSetup::kBoth};

const char* PathSetupName(PathSetup setup) {
  switch (setup) {
    case PathSetup::kPlain: return "plain";
    case PathSetup::kKey: return "key";
    case PathSetup::kIndex: return "index";
    case PathSetup::kBoth: return "both";
  }
  return "?";
}

struct PathCase {
  const char* name;
  const char* sql;
  /// Per setup (plain, key, index, both): the run as "<profile labels>
  /// rp=<rows_processed> scan=<storage.scan.rows>".
  std::array<const char*, 4> expect;
};

/// One execution: the answer (status, or rows in result order) and how
/// it was reached.
struct PathRun {
  std::string answer;
  std::string path;
};

void RenderLabels(const obs::ProfileNode& n, std::string* out) {
  *out += n.label;
  if (n.children.empty()) return;
  *out += "(";
  for (size_t i = 0; i < n.children.size(); ++i) {
    if (i > 0) *out += ",";
    RenderLabels(*n.children[i], out);
  }
  *out += ")";
}

/// x(id, aid) is the outer table: an unmatched id (42), a NULL id, and
/// id 0, the one row the mixed probe value x.id + aid matches. d(id,
/// aid, phone) holds unique, non-NULL aids 1..8 and string phones.
/// Every statement runs with `?` bound to 3.
PathRun RunPath(const std::string& sql, PathSetup setup) {
  storage::Database db;
  Table* x = *db.CreateTable(
      "x", Schema({{"id", DataType::kInt64}, {"aid", DataType::kInt64}}));
  const Value kNull = Value::Null();
  const std::vector<Row> xs = {
      {Value::Int(0), Value::Int(1)},  {Value::Int(1), Value::Int(5)},
      {Value::Int(2), kNull},          {kNull, Value::Int(3)},
      {Value::Int(42), Value::Int(7)}, {Value::Int(7), Value::Int(7)},
      {Value::Int(3), Value::Int(2)}};
  for (const Row& r : xs) EXPECT_TRUE(x->Insert(r).ok());
  Table* d = *db.CreateTable("d", Schema({{"id", DataType::kInt64},
                                          {"aid", DataType::kInt64},
                                          {"phone", DataType::kString}}));
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(d->Insert({Value::Int(i), Value::Int(i + 1),
                           Value::String("p" + std::to_string(i + 1))})
                    .ok());
  }
  if (setup == PathSetup::kKey || setup == PathSetup::kBoth) {
    EXPECT_TRUE(d->DeclareUniqueKey("aid").ok());
  }
  if (setup == PathSetup::kIndex || setup == PathSetup::kBoth) {
    EXPECT_TRUE(d->CreateIndex("d_aid", {"aid"}).ok());
  }

  obs::MetricsRegistry metrics;
  obs::Profile profile;
  exec::Executor ex(&db);
  ex.set_metrics(&metrics);
  ex.set_profile(&profile);
  Result<ra::RaNodePtr> plan = sql::ParseSql(sql);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return {};
  Result<exec::ResultSet> rs = ex.Execute(*plan, {Value::Int(3)});

  PathRun run;
  if (rs.ok()) {
    for (const Row& r : rs->rows) run.answer += catalog::RowToString(r);
  } else {
    run.answer = rs.status().ToString();
  }
  if (!profile.empty()) RenderLabels(*profile.root(), &run.path);
  run.path += " rp=" + std::to_string(ex.last_rows_processed()) +
              " scan=" +
              std::to_string(metrics.counter("storage.scan.rows")->Value());
  return run;
}

const PathCase kPathCases[] = {
    // d.aid = literal / parameter / NULL / outer column, at the top
    // level, inside OUTER APPLY and inside EXISTS.
    {"literal", "SELECT d.id AS i FROM d WHERE d.aid = 7",
     {"Project(Select) rp=10 scan=8",
      "Project(KeyLookup) rp=2 scan=0",
      "Project(IndexScan) rp=4 scan=0",
      "Project(KeyLookup) rp=2 scan=0"}},
    {"parameter", "SELECT d.id AS i FROM d WHERE d.aid = ?",
     {"Project(Select) rp=10 scan=8",
      "Project(KeyLookup) rp=2 scan=0",
      "Project(IndexScan) rp=4 scan=0",
      "Project(KeyLookup) rp=2 scan=0"}},
    {"literal_apply",
     "SELECT x.id AS i, oa0 AS p FROM x OUTER APPLY "
     "(SELECT d.phone AS oa0 FROM d WHERE d.aid = 7)",
     {"Project(OuterApply(Scan,Project(Select))) rp=91 scan=63",
      "Project(OuterApply(Scan,Project(KeyLookup))) rp=35 scan=7",
      "Project(OuterApply(Scan,Project(IndexScan))) rp=49 scan=7",
      "Project(OuterApply(Scan,Project(KeyLookup))) rp=35 scan=7"}},
    {"parameter_apply",
     "SELECT x.id AS i, oa0 AS p FROM x OUTER APPLY "
     "(SELECT d.phone AS oa0 FROM d WHERE d.aid = ?)",
     {"Project(OuterApply(Scan,Project(Select))) rp=91 scan=63",
      "Project(OuterApply(Scan,Project(KeyLookup))) rp=35 scan=7",
      "Project(OuterApply(Scan,Project(IndexScan))) rp=49 scan=7",
      "Project(OuterApply(Scan,Project(KeyLookup))) rp=35 scan=7"}},
    {"null_apply",
     "SELECT x.id AS i, oa0 AS p FROM x OUTER APPLY "
     "(SELECT d.phone AS oa0 FROM d WHERE d.aid = NULL)",
     {"Project(OuterApply(Scan,Project(Select))) rp=77 scan=63",
      "Project(OuterApply(Scan,Project(KeyLookup))) rp=28 scan=7",
      "Project(OuterApply(Scan,Project(IndexScan))) rp=28 scan=7",
      "Project(OuterApply(Scan,Project(KeyLookup))) rp=28 scan=7"}},
    {"outer_apply",
     "SELECT x.id AS i, oa0 AS p FROM x OUTER APPLY "
     "(SELECT d.phone AS oa0 FROM d WHERE d.aid = x.aid)",
     {"Project(OuterApply(Scan,Project(Select))) rp=89 scan=63",
      "Project(OuterApply(Scan,Project(KeyLookup))) rp=34 scan=7",
      "Project(OuterApply(Scan,Project(Select))) rp=89 scan=63",
      "Project(OuterApply(Scan,Project(KeyLookup))) rp=34 scan=7"}},
    {"literal_exists",
     "SELECT x.id AS i FROM x WHERE EXISTS "
     "(SELECT d.id AS j FROM d WHERE d.aid = 7)",
     {"Project(Select(Scan,Project(Select))) rp=91 scan=63",
      "Project(Select(Scan,Project(KeyLookup))) rp=35 scan=7",
      "Project(Select(Scan,Project(IndexScan))) rp=49 scan=7",
      "Project(Select(Scan,Project(KeyLookup))) rp=35 scan=7"}},
    {"parameter_exists",
     "SELECT x.id AS i FROM x WHERE EXISTS "
     "(SELECT d.id AS j FROM d WHERE d.aid = ?)",
     {"Project(Select(Scan,Project(Select))) rp=91 scan=63",
      "Project(Select(Scan,Project(KeyLookup))) rp=35 scan=7",
      "Project(Select(Scan,Project(IndexScan))) rp=49 scan=7",
      "Project(Select(Scan,Project(KeyLookup))) rp=35 scan=7"}},
    {"null_exists",
     "SELECT x.id AS i FROM x WHERE EXISTS "
     "(SELECT d.id AS j FROM d WHERE d.aid = NULL)",
     {"Project(Select(Scan,Project(Select))) rp=63 scan=63",
      "Project(Select(Scan,Project(KeyLookup))) rp=14 scan=7",
      "Project(Select(Scan,Project(IndexScan))) rp=14 scan=7",
      "Project(Select(Scan,Project(KeyLookup))) rp=14 scan=7"}},
    {"outer_exists",
     "SELECT x.id AS i FROM x WHERE EXISTS "
     "(SELECT d.id AS j FROM d WHERE d.aid = x.aid)",
     {"Project(Select(Scan,Project(Select))) rp=87 scan=63",
      "Project(Select(Scan,Project(KeyLookup))) rp=32 scan=7",
      "Project(Select(Scan,Project(Select))) rp=87 scan=63",
      "Project(Select(Scan,Project(KeyLookup))) rp=32 scan=7"}},
    // The probe value names a scan column (aid is d.aid, the innermost
    // scope), so it binds nothing: only x.id = 0 matches, every d row.
    {"mixed_value_apply",
     "SELECT x.id AS i, oa0 AS p FROM x OUTER APPLY "
     "(SELECT d.phone AS oa0 FROM d WHERE d.aid = x.id + aid)",
     {"Project(OuterApply(Scan,Project(Select))) rp=107 scan=63",
      "Project(OuterApply(Scan,Project(Select))) rp=107 scan=63",
      "Project(OuterApply(Scan,Project(Select))) rp=107 scan=63",
      "Project(OuterApply(Scan,Project(Select))) rp=107 scan=63"}},
    // The residual keeps predicate order: d.id = 3 is false on the one
    // d.aid = 7 row, so d.phone < 5 (a type error) is never evaluated.
    {"residual_order",
     "SELECT d.id AS i FROM d WHERE d.aid = 7 AND d.id = 3 AND d.phone < 5",
     {"Project(Select) rp=8 scan=8",
      "Project(KeyLookup) rp=1 scan=0",
      "Project(IndexScan) rp=2 scan=0",
      "Project(KeyLookup) rp=1 scan=0"}},
    {"duplicate_binding",
     "SELECT d.id AS i FROM d WHERE d.aid = 7 AND d.aid = 8",
     {"Project(Select) rp=8 scan=8",
      "Project(KeyLookup) rp=1 scan=0",
      "Project(IndexScan) rp=2 scan=0",
      "Project(KeyLookup) rp=1 scan=0"}},
    {"group_by_key",
     "SELECT COUNT(*) AS n FROM d WHERE d.aid = 7",
     {"Project(GroupBy) rp=11 scan=8",
      "Project(GroupBy(KeyLookup)) rp=3 scan=0",
      "Project(GroupBy(IndexScan)) rp=5 scan=0",
      "Project(GroupBy(KeyLookup)) rp=3 scan=0"}},
    {"join", "SELECT x.id AS i, d.id AS j FROM x JOIN d ON x.id = d.aid",
     {"Project(Join(Scan,Scan)) rp=23 scan=15",
      "Project(Join(Scan,Scan)) rp=23 scan=15",
      "Project(IndexNestedLoopJoin(Scan)) rp=25 scan=7",
      "Project(IndexNestedLoopJoin(Scan)) rp=25 scan=7"}},
    {"join_residual",
     "SELECT x.id AS i, d.id AS j FROM x JOIN d "
     "ON x.id = d.aid AND x.aid <= d.id + 1",
     {"Project(Join(Scan,Scan)) rp=19 scan=15",
      "Project(Join(Scan,Scan)) rp=19 scan=15",
      "Project(IndexNestedLoopJoin(Scan)) rp=21 scan=7",
      "Project(IndexNestedLoopJoin(Scan)) rp=21 scan=7"}},
    {"left_join",
     "SELECT x.id AS i, d.id AS j FROM x LEFT OUTER JOIN d "
     "ON x.id = d.aid",
     {"Project(LeftOuterJoin(Scan,Scan)) rp=29 scan=15",
      "Project(LeftOuterJoin(Scan,Scan)) rp=29 scan=15",
      "Project(IndexNestedLoopJoin(Scan)) rp=31 scan=7",
      "Project(IndexNestedLoopJoin(Scan)) rp=31 scan=7"}},
    {"left_join_residual",
     "SELECT x.id AS i, d.id AS j FROM x LEFT OUTER JOIN d "
     "ON x.id = d.aid AND x.aid <= d.id + 1",
     {"Project(LeftOuterJoin(Scan,Scan)) rp=29 scan=15",
      "Project(LeftOuterJoin(Scan,Scan)) rp=29 scan=15",
      "Project(IndexNestedLoopJoin(Scan)) rp=31 scan=7",
      "Project(IndexNestedLoopJoin(Scan)) rp=31 scan=7"}},
    {"non_equi_join",
     "SELECT x.id AS i, d.id AS j FROM x LEFT OUTER JOIN d "
     "ON x.id > d.aid + 4",
     {"Project(LeftOuterJoin(Scan,Scan)) rp=45 scan=15",
      "Project(LeftOuterJoin(Scan,Scan)) rp=45 scan=15",
      "Project(LeftOuterJoin(Scan,Scan)) rp=45 scan=15",
      "Project(LeftOuterJoin(Scan,Scan)) rp=45 scan=15"}},
};

// A unique-keyed table may hold a row whose key is NULL. NULL = NULL is
// not true, so `d.aid = NULL`, and `d.aid = ?` bound to NULL, select
// nothing on every path; the key lookup treats a NULL probe as a miss
// and charges what any other miss charges.
TEST(IndexKeyLookup, NullProbeIsAMiss) {
  for (const bool keyed : {false, true}) {
    SCOPED_TRACE(keyed ? "keyed" : "unkeyed");
    storage::Database db;
    Table* d = *db.CreateTable("d", Schema({{"id", DataType::kInt64},
                                            {"aid", DataType::kInt64}}));
    ASSERT_TRUE(d->Insert({Value::Int(0), Value::Null()}).ok());
    ASSERT_TRUE(d->Insert({Value::Int(1), Value::Int(1)}).ok());
    if (keyed) {
      ASSERT_TRUE(d->DeclareUniqueKey("aid").ok());
    }
    exec::Executor ex(&db);
    auto run = [&](const std::string& sql, Value param) {
      Result<ra::RaNodePtr> plan = sql::ParseSql(sql);
      EXPECT_TRUE(plan.ok()) << plan.status().ToString();
      Result<exec::ResultSet> rs = ex.Execute(*plan, {std::move(param)});
      EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
      EXPECT_TRUE(rs.ok() && rs->rows.empty()) << sql;
      return ex.last_rows_processed();
    };
    const size_t miss =
        run("SELECT d.id AS i FROM d WHERE d.aid = 42", Value::Null());
    EXPECT_EQ(
        run("SELECT d.id AS i FROM d WHERE d.aid = NULL", Value::Null()),
        miss);
    EXPECT_EQ(run("SELECT d.id AS i FROM d WHERE d.aid = ?", Value::Null()),
              miss);
  }
}

class CrossPath
    : public ::testing::TestWithParam<std::tuple<size_t, PathSetup>> {};

TEST_P(CrossPath, SameAnswerAndOwnPath) {
  const PathCase& c = kPathCases[std::get<0>(GetParam())];
  const PathSetup setup = std::get<1>(GetParam());
  const PathRun reference = RunPath(c.sql, PathSetup::kPlain);
  const PathRun run = RunPath(c.sql, setup);
  EXPECT_EQ(run.answer, reference.answer);
  EXPECT_EQ(run.path, c.expect[static_cast<size_t>(setup)]);
}

INSTANTIATE_TEST_SUITE_P(
    Index, CrossPath,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(kPathCases)),
                       ::testing::ValuesIn(kPathSetups)),
    [](const ::testing::TestParamInfo<CrossPath::ParamType>& info) {
      return std::string(kPathCases[std::get<0>(info.param)].name) + "_" +
             PathSetupName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace eqsql
