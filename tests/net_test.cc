#include <gtest/gtest.h>

#include "net/connection.h"
#include "net/server.h"

namespace eqsql::net {
namespace {

using catalog::DataType;
using catalog::Schema;
using catalog::Value;

// The unified request API is verbose for one-liner assertions; these
// helpers keep the tests readable while exercising Perform/Execute —
// the legacy ExecuteSql/ExecuteDml entry points no longer exist.
Result<exec::ResultSet> Query(Connection& conn, std::string sql,
                              std::vector<Value> params = {}) {
  return conn.Perform(Request::Query(std::move(sql), std::move(params)))
      .TakeResultSet();
}

Result<int64_t> Dml(Connection& conn, std::string sql,
                    std::vector<Value> params = {}) {
  return conn.Perform(Request::Dml(std::move(sql), std::move(params)))
      .TakeRowCount();
}

Result<exec::ResultSet> Query(Session& session, std::string sql,
                              std::vector<Value> params = {}) {
  return session.Execute(Request::Query(std::move(sql), std::move(params)))
      .TakeResultSet();
}

class ConnectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = *db_.CreateTable("items", Schema({{"id", DataType::kInt64},
                                               {"v", DataType::kInt64}}));
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(i * 10)}).ok());
    }
  }
  storage::Database db_;
};

TEST_F(ConnectionTest, ExecuteSqlCountsRoundTripsAndBytes) {
  Connection conn(&db_);
  auto rs = Query(conn, "SELECT i.v AS v FROM items AS i WHERE i.id < 3");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 3u);
  EXPECT_EQ(conn.stats().queries_executed, 1);
  EXPECT_EQ(conn.stats().round_trips, 1);
  EXPECT_EQ(conn.stats().rows_transferred, 3);
  EXPECT_GT(conn.stats().bytes_transferred, 0);
  EXPECT_GT(conn.stats().simulated_ms, 0.0);
}

// A 15,000-term operator chain (deep enough to overflow the stack of
// the passes behind the parser) comes back as a parse error outcome,
// as a query and under EXPLAIN ANALYZE, and the connection still
// serves the next query.
TEST_F(ConnectionTest, LongOperatorChainIsAParseErrorNotACrash) {
  std::string chain = "1";
  for (int i = 1; i < 15000; ++i) chain += "+1";
  const std::string sql = "SELECT " + chain + " AS x FROM items AS i";
  Connection conn(&db_);
  for (const std::string& text : {sql, "EXPLAIN ANALYZE " + sql}) {
    Outcome out = conn.Perform(Request::Statement(text));
    ASSERT_EQ(out.kind, Outcome::Kind::kError) << text.substr(0, 40);
    EXPECT_EQ(out.status.code(), StatusCode::kParseError)
        << out.status.ToString();
  }
  EXPECT_TRUE(Query(conn, "SELECT i.v AS v FROM items AS i").ok());
}

TEST_F(ConnectionTest, SimulatedTimeIsDeterministic) {
  double first = 0, second = 0;
  for (double* slot : {&first, &second}) {
    Connection conn(&db_);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(Query(conn, "SELECT i.v AS v FROM items AS i").ok());
    }
    *slot = conn.stats().simulated_ms;
  }
  EXPECT_DOUBLE_EQ(first, second);
}

TEST_F(ConnectionTest, EachQueryPaysLatency) {
  Connection conn(&db_);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(Query(conn,
                    "SELECT i.v AS v FROM items AS i WHERE "
                                "i.id = ?",
                                {Value::Int(i)})
                    .ok());
  }
  EXPECT_EQ(conn.stats().round_trips, 4);
  EXPECT_GE(conn.stats().simulated_ms,
            4 * conn.cost_model().round_trip_latency_ms);
}

TEST_F(ConnectionTest, PrefetchModeOverlapsLatency) {
  Connection plain(&db_);
  Connection prefetch(&db_);
  prefetch.set_prefetch_mode(true);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(Query(plain, "SELECT i.v AS v FROM items AS i").ok());
    ASSERT_TRUE(Query(prefetch, "SELECT i.v AS v FROM items AS i").ok());
  }
  // Prefetch pays latency only on the first query.
  EXPECT_EQ(prefetch.stats().round_trips, 1);
  EXPECT_LT(prefetch.stats().simulated_ms, plain.stats().simulated_ms);
  // Data volume is unchanged: prefetching does not reduce transfer.
  EXPECT_EQ(prefetch.stats().bytes_transferred,
            plain.stats().bytes_transferred);
}

TEST_F(ConnectionTest, TempTableForBatching) {
  Connection conn(&db_);
  Schema schema({{"pid", DataType::kInt64}});
  std::vector<catalog::Row> rows = {{Value::Int(1)}, {Value::Int(2)}};
  ASSERT_TRUE(conn.CreateTempTable("tmp_params", schema, rows).ok());
  EXPECT_TRUE(db_.HasTable("tmp_params"));
  EXPECT_GE(conn.stats().simulated_ms,
            conn.cost_model().param_table_overhead_ms);
  auto rs = Query(conn, 
      "SELECT i.v AS v FROM items AS i JOIN tmp_params AS p ON i.id = p.pid");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 2u);
  conn.DropTempTable("tmp_params");
  EXPECT_FALSE(db_.HasTable("tmp_params"));
}

TEST_F(ConnectionTest, TempTableReplacesExisting) {
  Connection conn(&db_);
  Schema schema({{"pid", DataType::kInt64}});
  ASSERT_TRUE(conn.CreateTempTable("tmp", schema, {{Value::Int(1)}}).ok());
  ASSERT_TRUE(conn.CreateTempTable("tmp", schema, {{Value::Int(2)}}).ok());
  auto t = db_.GetTable("tmp");
  ASSERT_TRUE(t.ok());
  ASSERT_EQ((*t)->row_count(), 1u);
  EXPECT_EQ((*t)->rows()[0][0].AsInt(), 2);
}

TEST_F(ConnectionTest, ParseErrorPropagates) {
  Connection conn(&db_);
  auto rs = Query(conn, "SELEC nonsense");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kParseError);
  EXPECT_EQ(conn.stats().queries_executed, 0);
}

TEST_F(ConnectionTest, AggregationReducesBytesVsFullScan) {
  Connection full(&db_), agg(&db_);
  ASSERT_TRUE(Query(full, "SELECT i.v AS v FROM items AS i").ok());
  ASSERT_TRUE(Query(agg, "SELECT MAX(i.v) AS m FROM items AS i").ok());
  EXPECT_LT(agg.stats().rows_transferred, full.stats().rows_transferred);
}

TEST_F(ConnectionTest, ExecuteDmlInsertWithParams) {
  Connection conn(&db_);
  auto n = Dml(conn, "INSERT INTO items VALUES (?, ?)",
                           {Value::Int(100), Value::Int(7)});
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1);
  EXPECT_EQ(conn.stats().round_trips, 1);
  auto rs = Query(conn, 
      "SELECT i.v AS v FROM items AS i WHERE i.id = ?", {Value::Int(100)});
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].AsInt(), 7);

  // Arity mismatch is rejected before any row lands.
  EXPECT_FALSE(Dml(conn, "INSERT INTO items VALUES (1)").ok());
}

TEST_F(ConnectionTest, ExecuteDmlUpdateCountsAndFilters) {
  Connection conn(&db_);
  // Blanket update touches all 10 rows; filtered update only some.
  auto all = Dml(conn, "UPDATE items SET v = v + 1");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(*all, 10);
  auto some = Dml(conn, "UPDATE items SET v = 0 WHERE id > 6");
  ASSERT_TRUE(some.ok());
  EXPECT_EQ(*some, 3);
  auto rs = Query(conn, "SELECT SUM(i.v) AS s FROM items AS i");
  ASSERT_TRUE(rs.ok());
  // Rows 0..6 hold i*10+1; rows 7..9 hold 0.
  EXPECT_EQ(rs->rows[0][0].AsInt(), 217);
}

TEST_F(ConnectionTest, ExecuteDmlRejectsSubqueries) {
  Connection conn(&db_);
  // DML expressions evaluate inside the exclusive shard section with
  // no ReadGuard, so subqueries are rejected as kParseError — the
  // interpreter's signal to fall back to cost-only simulation.
  auto pred = Dml(conn, 
      "UPDATE items SET v = 0 WHERE EXISTS (SELECT p.id AS id FROM items AS p)");
  ASSERT_FALSE(pred.ok());
  EXPECT_EQ(pred.status().code(), StatusCode::kParseError);
  auto assign = Dml(conn, 
      "UPDATE items SET v = CASE WHEN EXISTS (SELECT p.id AS id FROM items AS p) THEN 1 ELSE 0 END");
  ASSERT_FALSE(assign.ok());
  EXPECT_EQ(assign.status().code(), StatusCode::kParseError);
  // Nothing was mutated by the rejected statements.
  auto rs = Query(conn, "SELECT SUM(i.v) AS s FROM items AS i");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 450);  // rows hold i*10, i in 0..9
}

TEST_F(ConnectionTest, ExecuteDmlRejectsKeyUpdateAndUnknownStatements) {
  ASSERT_TRUE((*db_.GetTable("items"))->DeclareUniqueKey("id").ok());
  Connection conn(&db_);
  // The key index maps key values to slots; rewriting keys in place
  // would corrupt it, so the engine refuses.
  EXPECT_FALSE(Dml(conn, "UPDATE items SET id = id + 1").ok());
  // Outside the INSERT/UPDATE/DELETE grammar: kParseError, the signal
  // the interpreter uses to fall back to cost-only simulation.
  auto trunc = Dml(conn, "TRUNCATE TABLE items");
  ASSERT_FALSE(trunc.ok());
  EXPECT_EQ(trunc.status().code(), StatusCode::kParseError);
  // Unknown table: kNotFound, same fallback contract.
  auto missing = Dml(conn, "UPDATE ghosts SET v = 1");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // Nothing was mutated by any of the rejected statements.
  auto rs = Query(conn, "SELECT SUM(i.v) AS s FROM items AS i");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows[0][0].AsInt(), 450);

  // DELETE is real DML now: filtered deletes remove exactly the
  // matching rows and report the affected count.
  auto del = Dml(conn, "DELETE FROM items WHERE v >= 50");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(*del, 5);
  auto after = Query(conn, "SELECT SUM(i.v) AS s FROM items AS i");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows[0][0].AsInt(), 100);  // 0+10+20+30+40
}

// Regression test: Server::stats() must include work done by sessions
// that are still open. The original implementation folded a session's
// counters only in its destructor, so a monitoring thread polling
// stats() mid-run always saw zero queries.
TEST(ServerLiveStatsTest, StatsFoldLiveSessions) {
  Server server;
  {
    auto t = *server.db()->CreateTable(
        "items", Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}));
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(i * 10)}).ok());
    }
  }

  std::unique_ptr<Session> session = server.Connect();
  ServerStats before = server.stats();
  EXPECT_EQ(before.totals.queries_executed, 0);

  ASSERT_TRUE(Query(*session, "SELECT i.v AS v FROM items AS i").ok());
  ServerStats live = server.stats();
  EXPECT_EQ(live.sessions_opened, 1);
  EXPECT_EQ(live.sessions_closed, 0);
  EXPECT_EQ(live.totals.queries_executed, 1);
  EXPECT_EQ(live.totals.rows_transferred, 10);
  EXPECT_GT(live.totals.bytes_transferred, 0);
  EXPECT_GT(live.totals.simulated_ms, 0.0);

  // Closing must not double-count: the exact totals replace the live
  // snapshot, they do not add to it.
  session.reset();
  ServerStats done = server.stats();
  EXPECT_EQ(done.sessions_closed, 1);
  EXPECT_EQ(done.totals.queries_executed, 1);
  EXPECT_EQ(done.totals.rows_transferred, 10);
}

// SHOW METRICS answers from the server registry without touching
// storage; counters like net.queries and plan_cache.misses are visible
// through the ordinary query surface.
TEST(ServerLiveStatsTest, ShowMetricsQuery) {
  Server server;
  {
    auto t = *server.db()->CreateTable(
        "items", Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}));
    ASSERT_TRUE(t->Insert({Value::Int(1), Value::Int(10)}).ok());
  }
  std::unique_ptr<Session> session = server.Connect();
  ASSERT_TRUE(Query(*session, "SELECT i.v AS v FROM items AS i").ok());

  auto rs = Query(*session, "  show metrics ; ");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->schema->size(), 2u);
  int64_t net_queries = -1;
  bool saw_plan_cache = false;
  for (const auto& row : rs->rows) {
    if (row[0].AsString() == "net.queries") net_queries = row[1].AsInt();
    if (row[0].AsString() == "plan_cache.misses") saw_plan_cache = true;
  }
  EXPECT_EQ(net_queries, 1);
  EXPECT_TRUE(saw_plan_cache);
}

// The Result<int64_t> vs Result<exec::ResultSet> asymmetry is gone:
// every statement comes back as one Outcome whose kind says what it
// carries, and the whole error taxonomy lives in StatusCode.
TEST_F(ConnectionTest, PerformUnifiesQueryAndDmlOutcomes) {
  Connection conn(&db_);
  // kStatement classifies by first keyword.
  Outcome q = conn.Perform(
      Request::Statement("SELECT i.v AS v FROM items AS i WHERE i.id < 3"));
  ASSERT_EQ(q.kind, Outcome::Kind::kResultSet);
  EXPECT_TRUE(q.ok());
  EXPECT_EQ(q.rows.rows.size(), 3u);

  Outcome ins = conn.Perform(Request::Statement(
      "INSERT INTO items VALUES (?, ?)", {Value::Int(50), Value::Int(5)}));
  ASSERT_EQ(ins.kind, Outcome::Kind::kRowCount);
  EXPECT_EQ(ins.row_count, 1);

  // Forced kinds keep the legacy strictness: DML text down the query
  // path is a parse error, not a surprise write.
  Outcome forced = conn.Perform(Request::Query("UPDATE items SET v = 0"));
  ASSERT_EQ(forced.kind, Outcome::Kind::kError);
  EXPECT_EQ(forced.status.code(), StatusCode::kParseError);

  // Narrowing to the wrong shape is an error, not a default value.
  Outcome q2 = conn.Perform(
      Request::Query("SELECT i.v AS v FROM items AS i"));
  Result<int64_t> wrong = std::move(q2).TakeRowCount();
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  // Simulated DML charges the clock without touching data.
  const double before_ms = conn.stats().simulated_ms;
  Outcome sim = conn.Perform(Request::SimulatedDml("DELETE FROM items"));
  ASSERT_EQ(sim.kind, Outcome::Kind::kRowCount);
  EXPECT_GT(conn.stats().simulated_ms, before_ms);
  Outcome count = conn.Perform(
      Request::Query("SELECT COUNT(*) AS n FROM items AS i"));
  ASSERT_EQ(count.kind, Outcome::Kind::kResultSet);
  EXPECT_EQ(count.rows.rows[0][0].AsInt(), 11);  // 10 seeded + 1 insert
}

// DML through the session API lands on a scheduler worker and still
// returns Outcome::kRowCount; reads from another request observe it.
TEST(ServerLiveStatsTest, DmlThroughSchedulerReturnsRowCount) {
  Server server;
  {
    auto t = *server.db()->CreateTable(
        "items", Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}));
    for (int64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(i)}).ok());
    }
  }
  std::unique_ptr<Session> session = server.Connect();
  Outcome upd = session->Execute(
      Request::Statement("UPDATE items SET v = v + 10 WHERE id < 2"));
  ASSERT_EQ(upd.kind, Outcome::Kind::kRowCount) << upd.status.ToString();
  EXPECT_EQ(upd.row_count, 2);
  auto sum = Query(*session, "SELECT SUM(i.v) AS s FROM items AS i");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->rows[0][0].AsInt(), 26);  // 0+1+2+3 + 2*10
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.totals.queries_executed, 2);
}

}  // namespace
}  // namespace eqsql::net
