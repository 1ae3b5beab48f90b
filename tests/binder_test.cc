// SQL binding: names resolve once, per cached plan, and the bound plan
// answers exactly as name lookup at run time did. Deferred errors keep
// their laziness and text; sibling scopes that reuse an alias stay
// apart; outer references read the same slot on every access path; a
// cached bound plan follows a republished table's new columns; sessions
// share one bound plan; and a warm re-execution resolves no name.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "exec/executor.h"
#include "net/api.h"
#include "net/connection.h"
#include "net/server.h"
#include "obs/profile.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "workloads/benchmark_apps.h"

namespace eqsql {
namespace {

using catalog::DataType;
using catalog::Schema;
using catalog::Value;

constexpr int kApplicants = 500;

/// jobportal's extracted query (Fig. 11): rule T7 turns each per-row
/// scalar lookup into an OUTER APPLY. The two feedback lookups alias
/// their scans `f` alike.
constexpr const char* kJobPortalSql =
    "SELECT a.id AS id, oa0 AS c1, oa1 AS c2, oa2 AS c3, oa3 AS c4 "
    "FROM applicants AS a "
    "OUTER APPLY (SELECT d.phone AS oa0 FROM details AS d "
    "WHERE (d.aid = a.id)) "
    "OUTER APPLY (SELECT f.verdict AS oa1 FROM feedback1 AS f "
    "WHERE (f.aid = a.id)) "
    "OUTER APPLY (SELECT f.verdict AS oa2 FROM feedback2 AS f "
    "WHERE (f.aid = a.id)) "
    "OUTER APPLY (SELECT e.degree AS oa3 FROM education AS e "
    "WHERE (e.aid = a.id) AND (a.mode = 'online'))";

Result<exec::ResultSet> Query(net::Client* client, const std::string& sql) {
  return client->Perform(net::Request::Query(sql)).TakeResultSet();
}

/// `id -> verdict` of one feedback table, read with a plain scan.
std::map<int64_t, std::string> Verdicts(net::Connection* conn,
                                        const std::string& table) {
  std::map<int64_t, std::string> out;
  Result<exec::ResultSet> rs =
      Query(conn, "SELECT x.aid AS aid, x.verdict AS v FROM " + table +
                      " AS x");
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();
  if (!rs.ok()) return out;
  for (const catalog::Row& row : rs->rows) {
    out[row[0].AsInt()] = row[1].AsString();
  }
  return out;
}

/// The suite's one instantiation keeps the name and parameter it had
/// while the executor also had a row-at-a-time engine, so its test
/// names stay stable.
enum class Engine : int32_t { kVector = 1 };

class BinderTest : public ::testing::TestWithParam<Engine> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(workloads::SetupJobPortalDatabase(&db_, kApplicants).ok());
  }

  /// A bare connection to the fixture's database.
  std::unique_ptr<net::Connection> Connect() {
    return std::make_unique<net::Connection>(&db_);
  }

  /// `t(id, v)` with `rows` rows and `u(id, v)` with one row.
  void AddPair(int rows) {
    auto t = *db_.CreateTable("t", Schema({{"id", DataType::kInt64},
                                           {"v", DataType::kInt64}}));
    for (int i = 0; i < rows; ++i) {
      ASSERT_TRUE(t->Insert({Value::Int(i), Value::Int(i * 10)}).ok());
    }
    auto u = *db_.CreateTable("u", Schema({{"id", DataType::kInt64},
                                           {"v", DataType::kInt64}}));
    ASSERT_TRUE(u->Insert({Value::Int(1), Value::Int(7)}).ok());
  }

  storage::Database db_;
};

TEST_P(BinderTest, UnresolvedNameIsLazyOverEmptyInput) {
  auto empty = *db_.CreateTable("empty_t", Schema({{"id", DataType::kInt64}}));
  (void)empty;
  auto conn = Connect();
  // Over an empty table the bad name is never evaluated: 0 rows.
  Result<exec::ResultSet> rs =
      Query(conn.get(), "SELECT x.id AS id FROM empty_t AS x WHERE x.nope = 1");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs->rows.empty());
  // Over rows it fails with the name lookup's own text.
  rs = Query(conn.get(),
             "SELECT a.id AS id FROM applicants AS a WHERE a.nope = 1");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rs.status().message(), "unresolved column: a.nope");
  // A short-circuited AND never evaluates it either.
  rs = Query(conn.get(),
             "SELECT a.id AS id FROM applicants AS a "
             "WHERE a.id < 0 AND a.nope = 1");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_TRUE(rs->rows.empty());
}

TEST_P(BinderTest, AmbiguousInnerNameNeverFallsThroughToOuterFrame) {
  AddPair(3);
  auto conn = Connect();
  // Inside the apply, `v` names both t2.v and u.v: ambiguous there. The
  // outer row's a.v would match it too, but an ambiguous name never
  // falls through to an outer frame.
  Result<exec::ResultSet> rs = Query(
      conn.get(),
      "SELECT a.id AS id, w AS w FROM t AS a "
      "OUTER APPLY (SELECT v AS w FROM t AS t2 JOIN u AS u ON t2.id = a.id)");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rs.status().message(), "ambiguous column: v");
}

TEST_P(BinderTest, SiblingAppliesWithSharedAliasBindInOwnScopes) {
  auto conn = Connect();
  Result<exec::ResultSet> rs = Query(conn.get(), kJobPortalSql);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), static_cast<size_t>(kApplicants));
  const std::map<int64_t, std::string> f1 = Verdicts(conn.get(), "feedback1");
  const std::map<int64_t, std::string> f2 = Verdicts(conn.get(), "feedback2");
  for (const catalog::Row& row : rs->rows) {
    const int64_t id = row[0].AsInt();
    EXPECT_EQ(row[2].AsString(), f1.at(id)) << "applicant " << id;
    EXPECT_EQ(row[3].AsString(), f2.at(id)) << "applicant " << id;
  }
}

TEST_P(BinderTest, ExistsInsideApplyReadsTwoLevelsOut) {
  AddPair(4);
  auto conn = Connect();
  // The EXISTS runs inside the apply's Select over t, so `a.id` sits two
  // frames out: applicants, then t.
  Result<exec::ResultSet> rs = Query(
      conn.get(),
      "SELECT a.id AS id, hit AS hit FROM applicants AS a "
      "OUTER APPLY (SELECT t.v AS hit FROM t AS t WHERE t.id = 1 AND "
      "EXISTS (SELECT u.id AS k FROM u AS u WHERE u.id = a.id))");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), static_cast<size_t>(kApplicants));
  for (const catalog::Row& row : rs->rows) {
    if (row[0].AsInt() == 1) {
      EXPECT_EQ(row[1], Value::Int(10));
    } else {
      EXPECT_TRUE(row[1].is_null()) << "applicant " << row[0].AsInt();
    }
  }
}

TEST_P(BinderTest, ExistsOutsidePredicatesPinsItsTable) {
  AddPair(3);
  // An EXISTS may sit in a sort key, a group key or an aggregate
  // argument; the table it scans gets a guard slot like any other.
  const std::vector<std::pair<std::string, std::vector<catalog::Row>>> cases =
      {{"SELECT t.id AS id FROM t AS t ORDER BY EXISTS "
        "(SELECT u.id AS k FROM u AS u WHERE u.id = t.id)",
        {{Value::Int(0)}, {Value::Int(2)}, {Value::Int(1)}}},
       {"SELECT COUNT(*) AS n FROM t AS t GROUP BY EXISTS "
        "(SELECT u.id AS k FROM u AS u WHERE u.id = t.id)",
        {{Value::Int(2)}, {Value::Int(1)}}},
       {"SELECT SUM(CASE WHEN EXISTS (SELECT u.id AS k FROM u AS u) "
        "THEN 1 ELSE 0 END) AS s FROM t AS t",
        {{Value::Int(3)}}},
       {"SELECT SUM(CASE WHEN EXISTS (SELECT u.id AS k FROM u AS u "
        "WHERE u.id = t.id) THEN t.v ELSE 0 END) AS s FROM t AS t",
        {{Value::Int(10)}}}};
  auto conn = Connect();
  exec::Executor one_shot(&db_);
  for (const auto& [sql, want] : cases) {
    for (int run = 0; run < 2; ++run) {  // binds, then reuses the binding
      Result<exec::ResultSet> rs = Query(conn.get(), sql);
      ASSERT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
      EXPECT_EQ(rs->rows, want) << sql;
    }
    Result<exec::ResultSet> direct = one_shot.Execute(*sql::ParseSql(sql));
    ASSERT_TRUE(direct.ok()) << sql << ": " << direct.status().ToString();
    EXPECT_EQ(direct->rows, want) << sql;
  }
}

TEST_P(BinderTest, ExistsInSortKeyIsATransactionRead) {
  AddPair(3);
  auto reader = Connect();
  auto writer = Connect();
  // The transaction reads u only through its sort key, then writes t.
  ASSERT_TRUE(reader->Perform(net::Request::Begin()).ok());
  Result<exec::ResultSet> rs = Query(
      reader.get(),
      "SELECT t.id AS id FROM t AS t ORDER BY EXISTS "
      "(SELECT u.id AS k FROM u AS u WHERE u.id = t.id)");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_TRUE(
      reader->Perform(net::Request::Dml("UPDATE t SET v = 5 WHERE id = 0"))
          .ok());
  // A concurrent commit to u invalidates that read.
  ASSERT_TRUE(
      writer->Perform(net::Request::Dml("UPDATE u SET v = 8 WHERE id = 1"))
          .ok());
  net::Outcome commit = reader->Perform(net::Request::Commit());
  EXPECT_EQ(commit.status.code(), StatusCode::kTxnConflict)
      << commit.status.ToString();
}

TEST_P(BinderTest, KeyPathAndScanPathReadTheSameOuterSlot) {
  // Same rows, with and without the unique key on `aid`: the keyed copy
  // answers through the key lookup, the other through the scan.
  storage::Database keyed;
  ASSERT_TRUE(workloads::SetupJobPortalDatabase(&keyed, 40).ok());
  // The same tables and rows, every key but details' redeclared.
  storage::Database plain;
  for (const std::string& name : keyed.TableNames()) {
    const storage::Table* source = *keyed.GetTable(name);
    storage::Table* copy = *plain.CreateTable(name, source->schema());
    for (const catalog::Row& row : source->rows()) {
      ASSERT_TRUE(copy->Insert(row).ok());
    }
    if (source->unique_key().has_value() && name != "details") {
      ASSERT_TRUE(copy->DeclareUniqueKey(*source->unique_key()).ok());
    }
  }

  const std::string sql =
      "SELECT a.id AS id, p AS p FROM applicants AS a "
      "OUTER APPLY (SELECT d.phone AS p FROM details AS d "
      "WHERE d.aid = a.id AND d.phone <> 'x')";
  ra::RaNodePtr plan = *sql::ParseSql(sql);
  auto run = [&](storage::Database* db, std::string* label) {
    exec::Executor ex(db);
    obs::Profile profile;
    ex.set_profile(&profile);
    Result<exec::ResultSet> rs = ex.Execute(plan);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    std::function<void(const obs::ProfileNode*)> find =
        [&](const obs::ProfileNode* n) {
          if (n == nullptr) return;
          if (!n->label.empty()) *label = n->label;
          for (const auto& c : n->children) find(c.get());
        };
    find(profile.root());
    return rs.ok() ? rs->rows : std::vector<catalog::Row>{};
  };
  std::string keyed_label;
  std::string plain_label;
  const std::vector<catalog::Row> via_key = run(&keyed, &keyed_label);
  const std::vector<catalog::Row> via_scan = run(&plain, &plain_label);
  EXPECT_EQ(keyed_label, "KeyLookup");
  EXPECT_NE(plain_label, "KeyLookup");
  ASSERT_EQ(via_key.size(), 40u);
  EXPECT_EQ(via_key, via_scan);
}

TEST_P(BinderTest, CachedBoundPlanRebindsWhenTableIsRepublished) {
  net::ServerOptions options;
  net::Server server(options);
  std::unique_ptr<net::Session> session = server.Connect();
  net::Connection* conn = session->connection();
  Schema ab({{"a", DataType::kInt64}, {"b", DataType::kString}});
  ASSERT_TRUE(conn->CreateTempTable(
                      "tt", ab,
                      {{Value::Int(1), Value::String("one")},
                       {Value::Int(2), Value::String("two")}})
                  .ok());
  const std::string sql = "SELECT t.a AS x, t.b AS y FROM tt AS t";
  Result<exec::ResultSet> first = Query(conn, sql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->rows[0][0], Value::Int(1));

  // Same name, columns in the other order; the raw connection call does
  // not invalidate the cache line, so the next query hits it and must
  // bind again against the new columns.
  Schema ba({{"b", DataType::kString}, {"a", DataType::kInt64}});
  ASSERT_TRUE(conn->CreateTempTable(
                      "tt", ba,
                      {{Value::String("ten"), Value::Int(10)},
                       {Value::String("twenty"), Value::Int(20)}})
                  .ok());
  const int64_t hits = server.plan_cache()->stats().hits;
  Result<exec::ResultSet> second = Query(conn, sql);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(server.plan_cache()->stats().hits, hits + 1);
  ASSERT_EQ(second->rows.size(), 2u);
  EXPECT_EQ(second->rows[0][0], Value::Int(10));
  EXPECT_EQ(second->rows[0][1], Value::String("ten"));
  EXPECT_EQ(second->rows[1][0], Value::Int(20));
  EXPECT_EQ(second->schema->column(0).type, DataType::kInt64);
}

TEST_P(BinderTest, ConcurrentSessionsShareOneBoundPlan) {
  auto reference_conn = Connect();
  Result<exec::ResultSet> reference = Query(reference_conn.get(),
                                            kJobPortalSql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  net::ServerOptions options;
  options.scheduler_workers = 4;
  net::Server server(options);
  ASSERT_TRUE(
      workloads::SetupJobPortalDatabase(server.db(), kApplicants).ok());
  constexpr int kSessions = 4;
  constexpr int kRounds = 5;
  std::vector<std::vector<std::vector<catalog::Row>>> answers(kSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      std::unique_ptr<net::Session> session = server.Connect();
      for (int r = 0; r < kRounds; ++r) {
        Result<exec::ResultSet> rs = Query(session.get(), kJobPortalSql);
        answers[s].push_back(rs.ok() ? rs->rows : std::vector<catalog::Row>{});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_EQ(answers[s].size(), static_cast<size_t>(kRounds));
    for (const std::vector<catalog::Row>& rows : answers[s]) {
      EXPECT_EQ(rows, reference->rows) << "session " << s;
    }
  }
}

TEST_P(BinderTest, WarmReexecutionResolvesNoNames) {
  auto conn = Connect();
  const uint64_t before = catalog::FindCallsOnThisThread();
  Result<exec::ResultSet> cold = Query(conn.get(), kJobPortalSql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const uint64_t bound = catalog::FindCallsOnThisThread();
  EXPECT_GT(bound, before);  // the first execution binds
  Result<exec::ResultSet> warm = Query(conn.get(), kJobPortalSql);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(catalog::FindCallsOnThisThread(), bound);
  EXPECT_EQ(warm->rows, cold->rows);
}

INSTANTIATE_TEST_SUITE_P(Modes, BinderTest, ::testing::Values(Engine::kVector),
                         [](const auto&) { return std::string("vector"); });

}  // namespace
}  // namespace eqsql
