// EXPLAIN ANALYZE and the operator-profile instrumentation.
//
// The core claim under test is counter agreement: the actual values a
// profile tree reports are not estimates of what happened but the SAME
// charges the metrics registry saw — summing rows_in over the tree
// reproduces storage.scan.rows exactly, and summing batches reproduces
// exec.batch.batches, at 1, 2, and 8 shards, with the
// partition-parallel operators forced on. The surfaces ride on
// top: EXPLAIN ANALYZE (direct Connection and Session::Submit, forced
// kind and keyword-classified), SHOW PROFILES / SHOW TRACES through the
// scheduler with sampling on, and the per-shard breakdown slots.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "exec/worker_pool.h"
#include "net/api.h"
#include "net/connection.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "storage/database.h"
#include "storage/table.h"
#include "workloads/benchmark_apps.h"

namespace eqsql {
namespace {

using catalog::DataType;
using catalog::Schema;
using catalog::Value;

constexpr size_t kShardCounts[] = {1, 2, 8};

/// `t(id, g, v)`, 200 rows, partitioned across `shards`.
std::unique_ptr<storage::Database> MakeDb(size_t shards) {
  storage::DatabaseOptions dbo;
  dbo.shard_count = shards;
  auto db = std::make_unique<storage::Database>(dbo);
  auto table = *db->CreateTable("t", Schema({{"id", DataType::kInt64},
                                             {"g", DataType::kInt64},
                                             {"v", DataType::kInt64}}));
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(table
                    ->Insert({Value::Int(i), Value::Int(i % 5),
                              Value::Int(i * 7 % 100)})
                    .ok());
  }
  return db;
}

int64_t SumRowsIn(const obs::ProfileNode* n) {
  if (n == nullptr) return 0;
  int64_t total = n->rows_in.load(std::memory_order_relaxed);
  for (const auto& child : n->children) total += SumRowsIn(child.get());
  return total;
}

int64_t SumBatches(const obs::ProfileNode* n) {
  if (n == nullptr) return 0;
  int64_t total = n->batches.load(std::memory_order_relaxed);
  for (const auto& child : n->children) total += SumBatches(child.get());
  return total;
}

/// Depth-first search for a node whose shard-slot vector is populated.
const obs::ProfileNode* FindSharded(const obs::ProfileNode* n) {
  if (n == nullptr) return nullptr;
  if (!n->shards.empty()) return n;
  for (const auto& child : n->children) {
    if (const obs::ProfileNode* hit = FindSharded(child.get())) return hit;
  }
  return nullptr;
}

// The counter-agreement grid: for every query, the profile's summed
// rows_in equals the storage.scan.rows the registry recorded for that
// statement, and summed batches equals exec.batch.batches — exactly,
// per statement, in every shard-count cell. exec.batch.* counts the
// batches scans stream and compiled expressions evaluate, so the join
// chains (a join with a computed item, and JobPortal's four keyed
// applies), whose levels and Project run row at a time, count only
// their scans' batches, in the profile and the registry alike.
TEST(ExplainAnalyzeTest, ProfileActualsMatchRegistryCountersAcrossGrid) {
  const char* kQueries[] = {
      "SELECT * FROM t AS t0",
      "SELECT t0.id AS id FROM t AS t0 WHERE t0.v < 50",
      "SELECT t0.g, COUNT(*) AS c, MAX(t0.v) AS mx FROM t AS t0 "
      "GROUP BY t0.g",
      "SELECT a.id AS id FROM t AS a JOIN t AS b ON a.id = b.id",
      "SELECT a.id + b.v AS s FROM t AS a JOIN t AS b ON a.id = b.id",
      "SELECT t0.id AS id FROM t AS t0 ORDER BY t0.v DESC LIMIT 10",
      "SELECT a.id AS id, oa0 AS c1, oa1 AS c2, oa2 AS c3, oa3 AS c4 "
      "FROM applicants AS a "
      "OUTER APPLY (SELECT d.phone AS oa0 FROM details AS d "
      "WHERE (d.aid = a.id)) "
      "OUTER APPLY (SELECT f.verdict AS oa1 FROM feedback1 AS f "
      "WHERE (f.aid = a.id)) "
      "OUTER APPLY (SELECT f.verdict AS oa2 FROM feedback2 AS f "
      "WHERE (f.aid = a.id)) "
      "OUTER APPLY (SELECT e.degree AS oa3 FROM education AS e "
      "WHERE (e.aid = a.id) AND (a.mode = 'online'))",
  };
  for (size_t shards : kShardCounts) {
    std::unique_ptr<storage::Database> db = MakeDb(shards);
    ASSERT_TRUE(workloads::SetupJobPortalDatabase(db.get(), 30).ok());
    obs::MetricsRegistry reg;
    net::Connection conn(db.get());
    conn.set_metrics(&reg);
    std::unique_ptr<exec::WorkerPool> pool;
    if (shards > 1) {
      pool = std::make_unique<exec::WorkerPool>(2);
      conn.set_worker_pool(pool.get());
      conn.set_parallel_threshold(0);  // force the parallel operators
    }
    for (const char* sql : kQueries) {
      obs::MetricsSnapshot before = reg.Snapshot();
      obs::Profile profile;
      conn.set_profile(&profile);
      net::Outcome out = conn.Perform(net::Request::Query(sql));
      conn.set_profile(nullptr);
      ASSERT_TRUE(out.ok()) << sql << ": " << out.status.ToString();
      obs::MetricsSnapshot after = reg.Snapshot();

      ASSERT_FALSE(profile.empty()) << sql;
      const int64_t scan_delta = after.counters.at("storage.scan.rows") -
                                 (before.counters.count("storage.scan.rows")
                                      ? before.counters.at("storage.scan.rows")
                                      : 0);
      const int64_t batch_delta =
          after.counters.at("exec.batch.batches") -
          (before.counters.count("exec.batch.batches")
               ? before.counters.at("exec.batch.batches")
               : 0);
      EXPECT_EQ(SumRowsIn(profile.root()), scan_delta)
          << sql << " shards=" << shards;
      EXPECT_EQ(SumBatches(profile.root()), batch_delta)
          << sql << " shards=" << shards;
      EXPECT_GT(batch_delta, 0) << sql << " shards=" << shards;
      // The root operator's reported output is the statement's actual
      // result cardinality.
      EXPECT_EQ(profile.root()->rows_out,
                static_cast<int64_t>(out.rows.rows.size()))
          << sql;
    }
  }
}

// Pooled fan-out fills the per-shard breakdown: one slot per shard,
// each written by exactly one task, and the slots reconcile with the
// tree's rows_in total (the slot rows live on the scanned plan node,
// the registry charge posts wherever the executor attributes it — the
// TREE totals are the contract, per-node attribution is presentation).
TEST(ExplainAnalyzeTest, ShardSlotsReconcileWithNodeTotals) {
  std::unique_ptr<storage::Database> db = MakeDb(8);
  net::Connection conn(db.get());
  exec::WorkerPool pool(2);
  conn.set_worker_pool(&pool);
  conn.set_parallel_threshold(0);
  // Profile charges ride the same RecordScan/RecordBatch calls as the
  // registry counters, so wire metrics exactly as the server stack does.
  obs::MetricsRegistry reg;
  conn.set_metrics(&reg);

  obs::Profile profile;
  conn.set_profile(&profile);
  net::Outcome out = conn.Perform(net::Request::Query("SELECT * FROM t AS t0"));
  conn.set_profile(nullptr);
  ASSERT_TRUE(out.ok()) << out.status.ToString();

  const obs::ProfileNode* scan = FindSharded(profile.root());
  ASSERT_NE(scan, nullptr) << "no operator recorded shard slots";
  ASSERT_EQ(scan->shards.size(), 8u);
  int64_t slot_rows = 0;
  for (const auto& slot : scan->shards) slot_rows += slot.rows;
  EXPECT_EQ(slot_rows, SumRowsIn(profile.root()));
  EXPECT_EQ(slot_rows, 200);
  // The rendered report carries the breakdown, one line per shard.
  std::string text = profile.ToText();
  EXPECT_NE(text.find("[shard 0]"), std::string::npos) << text;
  EXPECT_NE(text.find("[shard 7]"), std::string::npos) << text;
}

// EXPLAIN ANALYZE on a direct Connection: executes the statement once,
// renders the operator tree with the estimator's numbers beside the
// actuals, and leaves the data unchanged.
TEST(ExplainAnalyzeTest, DirectConnectionRendersEstimatesBesideActuals) {
  std::unique_ptr<storage::Database> db = MakeDb(1);
  net::Connection conn(db.get());

  net::Outcome out = conn.Perform(net::Request::ExplainAnalyze(
      "EXPLAIN ANALYZE SELECT t0.g, COUNT(*) AS c FROM t AS t0 "
      "WHERE t0.v < 50 GROUP BY t0.g"));
  ASSERT_EQ(out.kind, net::Outcome::Kind::kExplain)
      << out.status.ToString();
  EXPECT_EQ(out.explain.kind, net::Explain::Kind::kAnalyze);
  const std::string& report = out.explain.text;
  // Header names the actual result cardinality.
  EXPECT_NE(report.find("EXPLAIN ANALYZE (rows=5)"), std::string::npos)
      << report;
  // Every operator line carries estimated and actual columns; the
  // estimator annotated every executed node, so no "-" placeholders.
  EXPECT_NE(report.find("act_rows="), std::string::npos) << report;
  EXPECT_NE(report.find("rows_in="), std::string::npos) << report;
  EXPECT_NE(report.find("execs="), std::string::npos) << report;
  EXPECT_EQ(report.find("est_rows=-"), std::string::npos) << report;
  EXPECT_EQ(report.find("est_ms=-"), std::string::npos) << report;
  // The machine-readable form rides in the payload's json field now,
  // not inline in the text.
  EXPECT_NE(out.explain.json.find("\"profile\":{\"op\":"), std::string::npos)
      << out.explain.json;

  // Parameters flow through like any query.
  net::Outcome param = conn.Perform(net::Request::ExplainAnalyze(
      "EXPLAIN ANALYZE SELECT * FROM t AS t0 WHERE t0.id = ?",
      {Value::Int(7)}));
  ASSERT_EQ(param.kind, net::Outcome::Kind::kExplain);
  EXPECT_NE(param.explain.text.find("rows=1)"), std::string::npos)
      << param.explain.text;

  // Side-effect-free: the analyzed SELECT changed nothing.
  net::Outcome count = conn.Perform(
      net::Request::Query("SELECT COUNT(*) AS n FROM t AS t0"));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.rows.rows[0][0].AsInt(), 200);
}

// The keyword classifier routes a plain Statement beginning with
// EXPLAIN ANALYZE to the same path as the forced kind, and the request
// travels through Session::Submit / a scheduler worker like any other.
TEST(ExplainAnalyzeTest, SessionSubmitAndKeywordClassification) {
  net::ServerOptions options;
  options.scheduler_workers = 2;
  net::Server server(std::move(options));
  {
    auto t = *server.db()->CreateTable(
        "items", Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}));
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(i % 4)}).ok());
    }
  }
  std::unique_ptr<net::Session> session = server.Connect();

  // Keyword-classified: a bare Statement, no forced kind.
  net::Outcome classified = session->Execute(net::Request::Statement(
      "  explain   analyze SELECT * FROM items AS i WHERE i.v = 1"));
  ASSERT_EQ(classified.kind, net::Outcome::Kind::kExplain)
      << classified.status.ToString();
  EXPECT_NE(classified.explain.text.find("rows=5)"), std::string::npos)
      << classified.explain.text;

  // Forced kind through the async path.
  std::future<net::Outcome> fut = session->Submit(
      net::Request::ExplainAnalyze(
          "EXPLAIN ANALYZE SELECT i.v, COUNT(*) AS c FROM items AS i "
          "GROUP BY i.v"));
  net::Outcome async = fut.get();
  ASSERT_EQ(async.kind, net::Outcome::Kind::kExplain)
      << async.status.ToString();
  EXPECT_NE(async.explain.text.find("EXPLAIN ANALYZE ("), std::string::npos);
  EXPECT_NE(async.explain.text.find("act_rows=4"), std::string::npos)
      << async.explain.text;

  // A malformed target surfaces the parse error, not a crash.
  net::Outcome bad = session->Execute(
      net::Request::Statement("EXPLAIN ANALYZE SELEC nonsense"));
  EXPECT_EQ(bad.kind, net::Outcome::Kind::kError);
}

// SHOW PROFILES / SHOW TRACES expose the sampled-request ring through
// the ordinary query surface when sampling is on.
TEST(ExplainAnalyzeTest, ShowProfilesAndTracesExposeSampledRequests) {
  net::ServerOptions options;
  options.scheduler_workers = 2;
  options.trace_sample = 1;  // sample everything
  net::Server server(std::move(options));
  {
    auto t = *server.db()->CreateTable(
        "items", Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}));
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(i)}).ok());
    }
  }
  std::unique_ptr<net::Session> session = server.Connect();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session
                    ->Execute(net::Request::Query(
                        "SELECT * FROM items AS i WHERE i.v >= ?",
                        {Value::Int(i)}))
                    .ok());
  }

  net::Outcome profiles =
      session->Execute(net::Request::Statement("SHOW PROFILES"));
  ASSERT_TRUE(profiles.ok()) << profiles.status.ToString();
  ASSERT_EQ(profiles.kind, net::Outcome::Kind::kExplain);
  EXPECT_EQ(profiles.explain.kind, net::Explain::Kind::kIntrospection);
  const std::string& prof_text = profiles.explain.text;
  EXPECT_NE(prof_text.find("SHOW PROFILES:"), std::string::npos) << prof_text;
  EXPECT_NE(prof_text.find("sampled request(s)"), std::string::npos);
  // The sampled SELECTs carry their operator profiles.
  EXPECT_NE(prof_text.find("SELECT * FROM items"), std::string::npos)
      << prof_text;
  EXPECT_NE(prof_text.find("rows_in="), std::string::npos) << prof_text;
  // The JSON form lists the same records with ascending trace ids.
  EXPECT_NE(profiles.explain.json.find("\"trace_id\":"), std::string::npos);
  EXPECT_NE(profiles.explain.json.find("\"profile\":"), std::string::npos);

  net::Outcome traces =
      session->Execute(net::Request::Statement("SHOW TRACES"));
  ASSERT_TRUE(traces.ok()) << traces.status.ToString();
  ASSERT_EQ(traces.kind, net::Outcome::Kind::kExplain);
  EXPECT_EQ(traces.explain.kind, net::Explain::Kind::kIntrospection);
  const std::string& trace_text = traces.explain.text;
  EXPECT_NE(trace_text.find("SHOW TRACES:"), std::string::npos) << trace_text;
  // The span tree covers the request's full path: admission queue,
  // worker dispatch, execution.
  EXPECT_NE(trace_text.find("\"spans\""), std::string::npos) << trace_text;
  EXPECT_NE(trace_text.find("scheduler.enqueue"), std::string::npos);
  EXPECT_NE(trace_text.find("scheduler.dispatch"), std::string::npos);
  EXPECT_NE(trace_text.find("\"execute\""), std::string::npos);
  EXPECT_NE(traces.explain.json.find("\"trace\":"), std::string::npos);
}

// With sampling off (the default) the surfaces stay queryable and
// empty instead of erroring.
TEST(ExplainAnalyzeTest, ShowProfilesIsEmptyWithoutSampling) {
  net::Server server;
  std::unique_ptr<net::Session> session = server.Connect();
  net::Outcome profiles =
      session->Execute(net::Request::Statement("SHOW PROFILES"));
  ASSERT_TRUE(profiles.ok()) << profiles.status.ToString();
  EXPECT_NE(profiles.explain.text.find("0 sampled request(s)"),
            std::string::npos)
      << profiles.explain.text;
  net::Outcome traces =
      session->Execute(net::Request::Statement("SHOW TRACES"));
  ASSERT_TRUE(traces.ok()) << traces.status.ToString();
  EXPECT_NE(traces.explain.text.find("0 sampled request(s)"),
            std::string::npos)
      << traces.explain.text;
}

}  // namespace
}  // namespace eqsql
