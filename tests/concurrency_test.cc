// Concurrency stress tests for the multi-session server stack: the
// shared PlanCache, the Connection thread-ownership latch, and N worker
// threads driving Sessions against one reader-writer-locked Database
// with mixed query reads and temp-table churn. Run these under the
// `tsan` preset (scripts/verify.sh does) to prove the locking
// discipline race-free; the functional assertions here hold in any
// build: every thread's results must be identical to a serial replay.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/value.h"
#include "core/optimizer.h"
#include "core/plan_cache.h"
#include "exec/executor.h"
#include "exec/worker_pool.h"
#include "frontend/parser.h"
#include "interp/interpreter.h"
#include "net/connection.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "sql/parser.h"
#include "workloads/benchmark_apps.h"

namespace eqsql::net {
namespace {

using catalog::DataType;
using catalog::Value;

// Queries go through the scheduler-backed session API; the legacy
// ExecuteSql overloads were retired outright.
Result<exec::ResultSet> SessionQuery(Session* session, std::string sql,
                                     std::vector<Value> params = {}) {
  return session->Execute(Request::Query(std::move(sql), std::move(params)))
      .TakeResultSet();
}

/// Forwards a program's requests to a session, counting them.
class CountingClient : public Client {
 public:
  explicit CountingClient(Session* session) : session_(session) {}
  Outcome Perform(Request req) override {
    ++performed;
    return session_->Perform(std::move(req));
  }
  void ChargeClientOps(int64_t ops) override {
    session_->ChargeClientOps(ops);
  }
  Status CreateTempTable(const std::string& name, catalog::Schema schema,
                         std::vector<catalog::Row> rows) override {
    return session_->CreateTempTable(name, std::move(schema),
                                     std::move(rows));
  }
  void DropTempTable(const std::string& name) override {
    session_->DropTempTable(name);
  }

  int performed = 0;

 private:
  Session* session_;
};

// ---------------------------------------------------------------------------
// PlanCache unit behaviour (single-threaded).

TEST(PlanCacheTest, HitsMissesAndLru) {
  core::PlanCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);

  auto p1 = cache.GetOrParseSql("SELECT * FROM t1 AS r");
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  auto p1_again = cache.GetOrParseSql("SELECT * FROM t1 AS r");
  ASSERT_TRUE(p1_again.ok());
  // The cached plan is shared, not re-parsed.
  EXPECT_EQ(p1->get(), p1_again->get());

  core::PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.insertions, 1);
  EXPECT_EQ(s.evictions, 0);

  // Fill past capacity; the LRU line ("t2") must be evicted: touch
  // "t1" to promote it first.
  ASSERT_TRUE(cache.GetOrParseSql("SELECT * FROM t2 AS r").ok());
  ASSERT_TRUE(cache.GetOrParseSql("SELECT * FROM t1 AS r").ok());  // promote
  ASSERT_TRUE(cache.GetOrParseSql("SELECT * FROM t3 AS r").ok());  // evict t2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  ASSERT_TRUE(cache.GetOrParseSql("SELECT * FROM t1 AS r").ok());
  EXPECT_EQ(cache.stats().hits, 3);  // "t1" survived the eviction
  auto p2 = cache.GetOrParseSql("SELECT * FROM t2 AS r");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(cache.stats().misses, 4);  // "t2" did not
}

TEST(PlanCacheTest, ParseErrorsAreNotCached) {
  core::PlanCache cache(8);
  EXPECT_FALSE(cache.GetOrParseSql("SELEKT nope").ok());
  EXPECT_FALSE(cache.GetOrParseSql("SELEKT nope").ok());
  core::PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2);  // the error was recomputed, never inserted
  EXPECT_EQ(s.insertions, 0);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, OptimizeResultsKeyedByOptions) {
  core::PlanCache cache(8);
  const std::string source = workloads::SelectionProgram();
  core::OptimizeOptions opts;
  opts.transform.table_keys = {{"project", "id"}};

  auto r1 = cache.GetOrOptimize(source, "unfinished", opts);
  ASSERT_TRUE(r1.ok());
  auto r2 = cache.GetOrOptimize(source, "unfinished", opts);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->get(), r2->get());  // shared, not re-extracted
  EXPECT_TRUE((*r1)->any_extracted());

  // Different options (no keys) must not alias the keyed entry.
  core::OptimizeOptions bare;
  auto r3 = cache.GetOrOptimize(source, "unfinished", bare);
  ASSERT_TRUE(r3.ok());
  EXPECT_NE(r1->get(), r3->get());
  EXPECT_EQ(cache.stats().hits, 1);    // r2 only
  EXPECT_EQ(cache.stats().misses, 2);  // r1 and r3
}

// The stale-plan regression: a temp table re-created under the same
// name with another shape must not be read through the plan bound
// against the old one. Temp-table DDL drops no cache line; the next
// request hits the cached line, which rebinds against the new columns.
TEST(PlanCacheTest, TempTableDdlInvalidatesCachedPlans) {
  Server server;
  std::unique_ptr<Session> session = server.Connect();
  catalog::Schema schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}});
  ASSERT_TRUE(session
                  ->CreateTempTable("tt", schema,
                                    {{Value::Int(0), Value::Int(10)},
                                     {Value::Int(1), Value::Int(11)},
                                     {Value::Int(2), Value::Int(12)},
                                     {Value::Int(3), Value::Int(13)}})
                  .ok());
  const std::string sql = "SELECT SUM(t.v) AS s FROM tt AS t";
  auto r1 = SessionQuery(session.get(), sql);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->rows[0][0].AsInt(), 46);
  ASSERT_TRUE(SessionQuery(session.get(), sql).ok());  // now cached
  EXPECT_GE(server.plan_cache()->stats().hits, 1);

  // Same name, columns swapped: `v` moves to the first slot.
  session->DropTempTable("tt");
  catalog::Schema swapped({{"v", DataType::kInt64},
                           {"id", DataType::kInt64}});
  ASSERT_TRUE(session
                  ->CreateTempTable("tt", swapped,
                                    {{Value::Int(100), Value::Int(0)},
                                     {Value::Int(101), Value::Int(1)},
                                     {Value::Int(102), Value::Int(2)},
                                     {Value::Int(103), Value::Int(3)}})
                  .ok());
  core::PlanCacheStats mid = server.plan_cache()->stats();
  EXPECT_EQ(mid.invalidations, 0);

  auto r2 = SessionQuery(session.get(), sql);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows[0][0].AsInt(), 406);  // the new table's rows
  // A hit on the cached line, bound again against the new columns.
  EXPECT_EQ(server.plan_cache()->stats().misses, mid.misses);
  EXPECT_EQ(server.plan_cache()->stats().hits, mid.hits + 1);
}

// A batched loop's join against the parameter table has the same text
// on every run, so a second run of the program on the session finds it
// in the plan cache, and no temp-table DDL sweeps the cache.
TEST(PlanCacheTest, BatchedQueryHitsOnTheSecondRun) {
  Server server;
  auto t0 = *server.db()->CreateTable(
      "t0", catalog::Schema({{"id", DataType::kInt64},
                             {"fk", DataType::kInt64}}));
  auto t1 = *server.db()->CreateTable(
      "t1", catalog::Schema({{"id", DataType::kInt64},
                             {"u", DataType::kInt64}}));
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(t0->Insert({Value::Int(i), Value::Int(i % 3)}).ok());
    ASSERT_TRUE(t1->Insert({Value::Int(i), Value::Int(i * 7)}).ok());
  }
  auto program = frontend::ParseProgram(R"(
    func f() {
      out = list();
      rows = executeQuery("SELECT * FROM t0 AS a");
      for (a : rows) {
        x = scalar(executeQuery("SELECT b.u AS u FROM t1 AS b WHERE b.id = ?", a.fk));
        out.append(pair(a.id, x));
      }
      return out;
    }
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::unique_ptr<Session> session = server.Connect();
  auto run = [&] {
    CountingClient client(session.get());
    interp::Interpreter batched(&*program, &client);
    batched.set_batching(true);
    auto r = batched.Run("f");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(client.performed, 2);  // the cursor query and one join
    return r.ok() ? r->DisplayString() : std::string();
  };
  const std::string first = run();
  const core::PlanCacheStats warm = server.plan_cache()->stats();
  EXPECT_EQ(run(), first);
  const core::PlanCacheStats after = server.plan_cache()->stats();
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_EQ(after.hits, warm.hits + 2);
  EXPECT_EQ(after.invalidations, 0);
}

// Hammer one small cache from many threads with overlapping key sets so
// hits, misses, insertions, and evictions all interleave. TSan proves
// the mutex discipline; the assertions prove the counters stay sane.
TEST(PlanCacheTest, ConcurrentLookupsStayConsistent) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  core::PlanCache cache(4);  // smaller than the key set: eviction churn

  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("SELECT * FROM t" + std::to_string(i) + " AS r");
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const std::string& sql = keys[(t + i) % keys.size()];
        auto plan = cache.GetOrParseSql(sql);
        if (!plan.ok() || *plan == nullptr) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(failures.load(), 0);
  core::PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, int64_t{kThreads} * kIters);
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GE(s.evictions, 1);  // churn actually happened
}

// ---------------------------------------------------------------------------
// Connection thread-ownership latch.

TEST(ConnectionOwnershipTest, LatchReleaseAndRelatch) {
  storage::Database db;
  Connection conn(&db);
  EXPECT_EQ(conn.owner_thread(), std::thread::id());  // not yet latched

  conn.ChargeClientOps(1);  // first stats-mutating call latches
  EXPECT_EQ(conn.owner_thread(), std::this_thread::get_id());

  conn.ReleaseThreadOwnership();
  EXPECT_EQ(conn.owner_thread(), std::thread::id());

  std::thread::id worker_id;
  std::thread worker([&] {
    conn.ChargeClientOps(1);  // re-latches on the new owner
    worker_id = std::this_thread::get_id();
  });
  worker.join();
  EXPECT_EQ(conn.owner_thread(), worker_id);
  EXPECT_NE(conn.owner_thread(), std::this_thread::get_id());
}

// ---------------------------------------------------------------------------
// Server / Session stress.

struct App {
  std::string name;
  std::string source;
  std::string function;
};

std::vector<App> BenchmarkApps() {
  return {{"matoso", workloads::MatosoProgram(), "findMaxScore"},
          {"jobportal", workloads::JobPortalProgram(), "jobReport"},
          {"selection", workloads::SelectionProgram(), "unfinished"},
          {"join", workloads::JoinProgram(), "userRoles"}};
}

void SetupAllApps(storage::Database* db) {
  ASSERT_TRUE(workloads::SetupMatosoDatabase(db, 40, 4).ok());
  ASSERT_TRUE(workloads::SetupJobPortalDatabase(db, 30).ok());
  ASSERT_TRUE(workloads::SetupSelectionDatabase(db, 60, 25).ok());
  ASSERT_TRUE(workloads::SetupJoinDatabase(db, 40).ok());
}

ServerOptions AppServerOptions() {
  ServerOptions options;
  options.plan_cache_capacity = 64;
  options.optimize.transform.table_keys = {{"board", "id"},
                                           {"applicants", "id"},
                                           {"details", "id"},
                                           {"feedback1", "id"},
                                           {"education", "id"},
                                           {"project", "id"},
                                           {"wilosuser", "id"},
                                           {"role", "id"}};
  return options;
}

/// Runs every app through one session: extract via the shared cache,
/// interpret both the original and the rewritten program with `client`
/// executing their statements, and return the rewritten results (one
/// DisplayString per app). Asserts original == rewritten along the way.
/// `client` is the session's direct connection (statements run on the
/// calling thread) or the session itself (each statement is Submitted
/// to a scheduler worker).
std::vector<std::string> RunAppsOnSession(Session* session, Client* client) {
  std::vector<std::string> out;
  for (const App& app : BenchmarkApps()) {
    auto program = frontend::ParseProgram(app.source);
    EXPECT_TRUE(program.ok()) << app.name;
    if (!program.ok()) return out;
    auto optimized = session->OptimizeCached(app.source, app.function);
    EXPECT_TRUE(optimized.ok()) << app.name;
    if (!optimized.ok()) return out;

    interp::Interpreter original(&*program, client);
    auto r1 = original.Run(app.function);
    interp::Interpreter rewritten(&(*optimized)->program, client);
    auto r2 = rewritten.Run(app.function);
    EXPECT_TRUE(r1.ok() && r2.ok()) << app.name;
    if (!r1.ok() || !r2.ok()) return out;
    EXPECT_EQ(r1->DisplayString(), r2->DisplayString()) << app.name;
    out.push_back(r2->DisplayString());
  }
  return out;
}

/// The tentpole stress: 8 worker threads replay the benchmark-app
/// workload through their own sessions, in two arms. Direct: cached
/// extraction, original + rewritten interpretation on the session's
/// connection, direct SQL reads, and per-thread temp-table churn
/// (exclusive-lock writers interleaving with shared-lock readers).
/// Scheduled: the session itself is the interpreter's client, so every
/// statement is Submitted to a scheduler worker and the workers execute
/// the whole load. Every thread's results must equal a serial
/// single-session replay.
TEST(ServerStressTest, ParallelSessionsMatchSerialReplay) {
  constexpr int kThreads = 8;
  constexpr int kIters = 5;
  constexpr int kScheduledIters = 2;

  ServerOptions options = AppServerOptions();
  options.scheduler_workers = 4;
  Server server(std::move(options));
  SetupAllApps(server.db());

  // Serial baseline, computed before any worker starts.
  std::vector<std::string> expected;
  {
    std::unique_ptr<Session> session = server.Connect();
    expected = RunAppsOnSession(session.get(), session->connection());
  }
  ASSERT_EQ(expected.size(), BenchmarkApps().size());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::unique_ptr<Session> session = server.Connect();
      const std::string temp_name = "stress_tmp_" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        // Mixed read workload through the shared cache.
        std::vector<std::string> got =
            RunAppsOnSession(session.get(), session->connection());
        if (got != expected) mismatches.fetch_add(1);

        // Plain SQL reads (shared data lock).
        auto rs = SessionQuery(session.get(), 
            "SELECT COUNT(*) AS n FROM project AS p WHERE p.id >= ?",
            {Value::Int(0)});
        if (!rs.ok()) mismatches.fetch_add(1);

        // Temp-table churn (exclusive data lock), names per-thread so
        // sessions only contend on the lock, not the namespace.
        catalog::Schema schema(
            {{"id", DataType::kInt64}, {"v", DataType::kInt64}});
        std::vector<catalog::Row> rows;
        for (int r = 0; r < 8; ++r) {
          rows.push_back({Value::Int(r), Value::Int(t * 1000 + i)});
        }
        Status create = session->connection()->CreateTempTable(
            temp_name, schema, std::move(rows));
        if (!create.ok()) {
          mismatches.fetch_add(1);
        } else {
          auto sum = SessionQuery(session.get(), "SELECT SUM(t.v) AS s FROM " +
                                         temp_name + " AS t");
          if (!sum.ok()) mismatches.fetch_add(1);
          session->connection()->DropTempTable(temp_name);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);

  std::atomic<int> scheduled_mismatches{0};
  workers.clear();
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      std::unique_ptr<Session> session = server.Connect();
      for (int i = 0; i < kScheduledIters; ++i) {
        if (RunAppsOnSession(session.get(), session.get()) != expected) {
          scheduled_mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(scheduled_mismatches.load(), 0);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_opened, 2 * kThreads + 1);
  EXPECT_EQ(stats.sessions_closed, 2 * kThreads + 1);
  // Each worker repeated the same four extraction requests; after the
  // serial warm-up every one is a cache hit.
  EXPECT_GT(stats.plan_cache.hit_ratio(), 0.9);
  EXPECT_GT(stats.totals.queries_executed, 0);
}

/// What one scheduled run of the apps left in its server.
struct ScheduledRun {
  std::vector<std::string> results;
  ConnectionStats totals;
  int64_t plan_cache_hits = 0;
  int64_t sampled = 0;
  std::string ring_json;
};

/// Runs the apps once on a fresh server built from `options`, the
/// session as the interpreter's client, so every statement goes
/// through a scheduler worker. One worker: every statement lands on
/// the same link in the same order, so the floating-point sums in the
/// totals are reproducible. Destroying the server flushes its
/// slow-query log.
ScheduledRun RunAppsThroughScheduler(ServerOptions options) {
  options.scheduler_workers = 1;
  ScheduledRun run;
  Server server(std::move(options));
  SetupAllApps(server.db());
  {
    std::unique_ptr<Session> session = server.Connect();
    run.results = RunAppsOnSession(session.get(), session.get());
  }
  run.totals = server.stats().totals;
  const obs::MetricsSnapshot snap = server.metrics()->Snapshot();
  auto counter = [&snap](const std::string& name) -> int64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  run.plan_cache_hits = counter("plan_cache.hits");
  run.sampled = counter("obs.trace.sampled");
  run.ring_json = server.trace_ring()->ToJson();
  return run;
}

/// The observability sinks end to end. The apps run through the
/// scheduler on two servers that differ only in their sinks: the second
/// samples every request into the trace ring and slow-logs every one to
/// a file. Sampling never touches the simulated clock, so the totals
/// must match bit for bit.
TEST(ServerStressTest, ObservabilitySinksLeaveTotalsBitIdentical) {
  const std::string log_path =
      ::testing::TempDir() + "eqsql_concurrency_slow_query.log";
  std::remove(log_path.c_str());

  const ScheduledRun plain = RunAppsThroughScheduler(AppServerOptions());
  ServerOptions traced_options = AppServerOptions();
  traced_options.trace_sample = 1;
  traced_options.slow_query_ms = 0.000001;
  traced_options.slow_query_log_path = log_path;
  const ScheduledRun traced = RunAppsThroughScheduler(traced_options);

  ASSERT_EQ(plain.results.size(), BenchmarkApps().size());
  EXPECT_EQ(traced.results, plain.results);
  EXPECT_GT(plain.totals.queries_executed, 0);
  EXPECT_EQ(traced.totals.queries_executed, plain.totals.queries_executed);
  EXPECT_EQ(traced.totals.round_trips, plain.totals.round_trips);
  EXPECT_EQ(traced.totals.rows_transferred, plain.totals.rows_transferred);
  EXPECT_EQ(traced.totals.bytes_transferred, plain.totals.bytes_transferred);
  EXPECT_EQ(traced.totals.simulated_ms, plain.totals.simulated_ms);

  // The registry is live: the apps' repeated statements hit the plan
  // cache, and the traced server counted its samples.
  EXPECT_GE(traced.plan_cache_hits, 1);
  EXPECT_EQ(plain.sampled, 0);
  EXPECT_GE(traced.sampled, 1);
  for (const char* key : {"\"records\":[", "\"trace\":{", "\"profile\":{"}) {
    EXPECT_NE(traced.ring_json.find(key), std::string::npos)
        << key << " missing from " << traced.ring_json.substr(0, 512);
  }

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good()) << log_path;
  int lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    for (const char* key :
         {"\"trace_id\":", "\"total_ns\":", "\"statement\":"}) {
      EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
    }
  }
  EXPECT_GE(lines, 1);
  std::remove(log_path.c_str());
}

// Three sessions batch different loops at the same time. Every batched
// loop uploads its parameters under the one name __batch_params and
// joins against it by name, so each session must resolve the name to
// its own table: reading another session's would join the wrong
// parameters (or lose the table to the other's drop) mid-loop. roleRows
// probes with SELECT *, whose batched join strips the parameter
// columns by position before a nested loop reads the rows.
TEST(ServerStressTest, ConcurrentBatchingSessionsKeepTheirParameters) {
  const char* kSource = R"(
    func roleNames() {
      out = list();
      users = executeQuery("SELECT * FROM wuser AS u");
      for (u : users) {
        r = scalar(executeQuery("SELECT r.name AS name FROM role AS r WHERE r.id = ?", u.role_id));
        out.append(pair(u.login, r));
      }
      return out;
    }
    func roleOwners() {
      out = list();
      roles = executeQuery("SELECT * FROM role AS r");
      for (r : roles) {
        u = scalar(executeQuery("SELECT u.login AS login FROM wuser AS u WHERE u.id = ?", r.id));
        out.append(pair(r.name, u));
      }
      return out;
    }
    func roleRows() {
      out = list();
      users = executeQuery("SELECT * FROM wuser AS u");
      for (u : users) {
        rs = executeQuery("SELECT * FROM role AS r WHERE r.id = ?", u.role_id);
        for (r : rs) {
          out.append(tuple(u.login, r.id, r.name));
        }
      }
      return out;
    }
  )";
  constexpr int kIters = 60;
  Server server;
  auto wuser = *server.db()->CreateTable(
      "wuser", catalog::Schema({{"id", DataType::kInt64},
                                {"login", DataType::kString},
                                {"role_id", DataType::kInt64}}));
  for (int64_t i = 0; i < 48; ++i) {
    ASSERT_TRUE(wuser
                    ->Insert({Value::Int(i),
                              Value::String("u" + std::to_string(i)),
                              Value::Int((i * 7) % 12)})
                    .ok());
  }
  auto role = *server.db()->CreateTable(
      "role", catalog::Schema(
                  {{"id", DataType::kInt64}, {"name", DataType::kString}}));
  for (int64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        role->Insert({Value::Int(i), Value::String("r" + std::to_string(i))})
            .ok());
  }
  auto program = frontend::ParseProgram(kSource);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  // Reference answers: plain iteration, no batching.
  const std::vector<std::string> functions = {"roleNames", "roleOwners",
                                              "roleRows"};
  std::vector<std::string> expected;
  {
    std::unique_ptr<Session> session = server.Connect();
    for (const std::string& fn : functions) {
      interp::Interpreter plain(&*program, session.get());
      auto r = plain.Run(fn);
      ASSERT_TRUE(r.ok()) << fn << ": " << r.status().ToString();
      expected.push_back(r->DisplayString());
    }
  }

  std::atomic<int> wrong{0};
  std::atomic<int> unbatched{0};
  std::vector<std::thread> workers;
  for (size_t f = 0; f < functions.size(); ++f) {
    workers.emplace_back([&, f] {
      std::unique_ptr<Session> session = server.Connect();
      for (int i = 0; i < kIters; ++i) {
        CountingClient client(session.get());
        interp::Interpreter batched(&*program, &client);
        batched.set_batching(true);
        auto r = batched.Run(functions[f]);
        if (!r.ok() || r->DisplayString() != expected[f]) wrong.fetch_add(1);
        // A batched run issues the cursor query and one join, not one
        // probe per row; more means the loop fell back to iterating.
        if (client.performed != 2) unbatched.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(unbatched.load(), 0);
}

// A session's open transaction reads its temp table whatever the
// transaction's snapshot: the upload is the session's own, so a commit
// elsewhere between BEGIN and the upload must not hide its rows.
TEST(ServerStressTest, TempTableIsVisibleInsideAnOpenTransaction) {
  Server server;
  ASSERT_TRUE(workloads::SetupSelectionDatabase(server.db(), 10, 50).ok());
  std::unique_ptr<Session> session = server.Connect();
  std::unique_ptr<Session> writer = server.Connect();
  ASSERT_TRUE(session->Execute(Request::Begin()).ok());
  ASSERT_TRUE(
      writer->Execute(Request::Dml("UPDATE project SET finished = 1"))
          .ok());
  ASSERT_TRUE(session
                  ->CreateTempTable(
                      "__batch_params",
                      catalog::Schema({{"rid", DataType::kInt64}}),
                      {{Value::Int(0)}, {Value::Int(1)}})
                  .ok());
  auto rows = SessionQuery(session.get(),
                           "SELECT p.rid AS rid FROM __batch_params AS p");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 2u);
  session->DropTempTable("__batch_params");
  EXPECT_TRUE(session->Execute(Request::Commit()).ok());
}

// Two sessions upload temp tables under one name with different rows.
// Each reads its own rows, DML against the name fails as against any
// missing table, and the catalog (its table names and statistics
// epoch) never sees either table.
TEST(ServerStressTest, TempTablesStayInTheirSession) {
  Server server;
  ASSERT_TRUE(workloads::SetupSelectionDatabase(server.db(), 10, 50).ok());
  const std::vector<std::string> names = server.db()->TableNames();
  const uint64_t epoch = server.db()->StatsEpoch();
  catalog::Schema schema({{"rid", DataType::kInt64}, {"p0", DataType::kInt64}});
  constexpr int kIters = 50;
  std::atomic<int> wrong{0};
  std::vector<std::thread> workers;
  for (int64_t base : {1, 1000}) {
    workers.emplace_back([&, base] {
      std::unique_ptr<Session> session = server.Connect();
      for (int i = 0; i < kIters; ++i) {
        std::vector<catalog::Row> rows;
        for (int64_t r = 0; r < 4; ++r) {
          rows.push_back({Value::Int(r), Value::Int(base + i)});
        }
        if (!session->CreateTempTable("__batch_params", schema,
                                      std::move(rows))
                 .ok()) {
          wrong.fetch_add(1);
          continue;
        }
        auto sum = SessionQuery(
            session.get(), "SELECT SUM(p.p0) AS s FROM __batch_params AS p");
        if (!sum.ok() || sum->rows[0][0].AsInt() != 4 * (base + i)) {
          wrong.fetch_add(1);
        }
        session->DropTempTable("__batch_params");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(server.db()->TableNames(), names);
  EXPECT_EQ(server.db()->StatsEpoch(), epoch);

  std::unique_ptr<Session> session = server.Connect();
  ASSERT_TRUE(session
                  ->CreateTempTable("__batch_params", schema,
                                    {{Value::Int(0), Value::Int(5)}})
                  .ok());
  EXPECT_EQ(server.db()->TableNames(), names);
  EXPECT_EQ(server.db()->StatsEpoch(), epoch);
  Outcome dml = session->Execute(
      Request::Dml("UPDATE __batch_params SET p0 = 6 WHERE rid = 0"));
  EXPECT_EQ(dml.status.code(), StatusCode::kNotFound) << dml.status.ToString();
  // Another session does not see the table at all.
  std::unique_ptr<Session> other = server.Connect();
  auto missing =
      SessionQuery(other.get(), "SELECT p.p0 AS v FROM __batch_params AS p");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// Each table's committed row and byte counters change only at Insert
// and commit. Four sessions race transactions that insert, widen,
// narrow and delete rows -- keyed and scanned, some committed, some
// rolled back, some aborted by a conflict -- and once all have finished
// the counters equal a walk of the committed rows.
TEST(ServerStressTest, CommittedStatisticsMatchTheRowsAfterConcurrentWrites) {
  ServerOptions options;
  options.scheduler_workers = 4;
  Server server(std::move(options));
  storage::Table* notes = *server.db()->CreateTable(
      "notes",
      catalog::Schema({{"id", DataType::kInt64}, {"s", DataType::kString}}));
  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(notes->Insert({Value::Int(i), Value::String("n")}).ok());
  }
  ASSERT_TRUE(notes->DeclareUniqueKey("id").ok());

  constexpr int kSessions = 4;
  constexpr int kIters = 30;
  std::atomic<int> commits{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kSessions; ++t) {
    workers.emplace_back([&, t] {
      std::unique_ptr<Session> session = server.Connect();
      auto dml = [&session](const std::string& sql) {
        session->Execute(Request::Dml(sql));
      };
      for (int i = 0; i < kIters; ++i) {
        const std::string fresh = std::to_string(1000 * (t + 1) + i);
        const std::string own = std::to_string(t * 10 + i % 10);
        session->Execute(Request::Begin());
        dml("INSERT INTO notes VALUES (" + fresh + ", 'fresh')");
        dml("UPDATE notes SET s = 'a wider text' WHERE id = " + own);
        dml("UPDATE notes SET s = '' WHERE id = " +
            std::to_string(t * 10 + (i + 3) % 10));
        if (i % 2 == 0) {
          dml("UPDATE notes SET s = 'wide again' WHERE id = " + fresh);
          dml("DELETE FROM notes WHERE id = " + fresh);
        }
        if (i % 5 == 0) dml("UPDATE notes SET s = 'scan' WHERE s = 'n'");
        if (i % 3 == 0) {
          session->Execute(Request::Rollback());
        } else if (session->Execute(Request::Commit()).ok()) {
          commits.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_GT(commits.load(), 0);

  size_t bytes = 0;
  const std::vector<catalog::Row> rows = notes->rows();
  for (const catalog::Row& row : rows) bytes += catalog::RowWireSize(row);
  EXPECT_GT(rows.size(), 40u);
  EXPECT_EQ(notes->row_count(), rows.size());
  EXPECT_EQ(notes->byte_count(), bytes);
}

/// A ledger row's note: its id, then `width` copies of one letter, so a
/// reader can tell a row's note from any other row's.
std::string LedgerNote(int64_t id, size_t width) {
  return "r" + std::to_string(id) + ":" +
         std::string(width, static_cast<char>('a' + id % 26));
}

bool LedgerNoteFits(const catalog::Row& row) {
  const std::string prefix = "r" + std::to_string(row[0].AsInt()) + ":";
  const std::string& note = row[3].AsString();
  if (note.compare(0, prefix.size(), prefix) != 0) return false;
  const char letter = static_cast<char>('a' + row[0].AsInt() % 26);
  return note.find_first_not_of(letter, prefix.size()) == std::string::npos;
}

// Scans borrow rows from their versions for as long as the statement's
// snapshot pin is held. Readers loop a full scan, a filter and a GROUP
// BY, through sessions (whose 4-shard scans run as pooled shard tasks)
// and through a bare Executor, while a writer commits UPDATE pairs and
// DELETE/INSERT pairs that keep every group's COUNT and SUM fixed and
// change the notes' widths between inline and heap-sized strings, and
// vacuums after every commit. Every answer must show the invariants.
// Under ASan a row read after Vacuum freed its version fails the run,
// and under TSan a race with the unlink does.
TEST(ServerStressTest, BorrowedScansSurviveConcurrentVacuum) {
  constexpr int64_t kRows = 1200;  // above the default parallel threshold
  constexpr int64_t kGroups = 7;
  // The writer runs at least kMinRounds rounds, and on until the readers
  // have answered kMinAnswers queries between them (at most kMaxRounds).
  constexpr int kMinRounds = 200;
  constexpr int kMinAnswers = 60;
  constexpr int kMaxRounds = 5000;
  constexpr size_t kWidths[] = {2, 24, 40};
  ServerOptions options;
  options.database.shard_count = 4;
  options.exec_threads = 2;
  options.scheduler_workers = 2;
  Server server(std::move(options));
  storage::Database* db = server.db();
  ASSERT_GT(kRows, static_cast<int64_t>(ServerOptions().parallel_threshold));
  storage::Table* ledger = *db->CreateTable(
      "ledger", catalog::Schema({{"id", DataType::kInt64},
                                 {"grp", DataType::kInt64},
                                 {"amt", DataType::kInt64},
                                 {"note", DataType::kString}}));
  // The writer's model of the table: id -> (group, amount).
  std::map<int64_t, std::pair<int64_t, int64_t>> model;
  std::vector<int64_t> group_count(kGroups, 0);
  std::vector<int64_t> group_sum(kGroups, 0);
  for (int64_t id = 0; id < kRows; ++id) {
    const int64_t grp = id % kGroups;
    const int64_t amt = id % 100;
    ASSERT_TRUE(ledger
                    ->Insert({Value::Int(id), Value::Int(grp), Value::Int(amt),
                              Value::String(LedgerNote(id, kWidths[1]))})
                    .ok());
    model[id] = {grp, amt};
    ++group_count[grp];
    group_sum[grp] += amt;
  }
  ASSERT_TRUE(ledger->DeclareUniqueKey("id").ok());
  int64_t total_sum = 0;
  for (int64_t s : group_sum) total_sum += s;

  const std::string kScan = "SELECT * FROM ledger AS l";
  const std::string kFilter =
      "SELECT l.id AS id, l.grp AS grp, l.amt AS amt, l.note AS note "
      "FROM ledger AS l WHERE l.grp = 3";
  const std::string kGroupBy =
      "SELECT l.grp AS g, COUNT(*) AS c, SUM(l.amt) AS s "
      "FROM ledger AS l GROUP BY l.grp";
  // Checks one answer against the invariants; returns a description of
  // the first violation, or "".
  auto check = [&](const std::string& sql,
                   const Result<exec::ResultSet>& rs) -> std::string {
    if (!rs.ok()) return sql + ": " + rs.status().ToString();
    if (sql == kGroupBy) {
      if (rs->rows.size() != static_cast<size_t>(kGroups)) {
        return "group count " + std::to_string(rs->rows.size());
      }
      for (const catalog::Row& row : rs->rows) {
        const int64_t g = row[0].AsInt();
        if (g < 0 || g >= kGroups) return "no group " + row[0].ToString();
        if (row[1].AsInt() != group_count[g] || row[2].AsInt() != group_sum[g]) {
          return "group " + std::to_string(g) + " reads " + row[1].ToString() +
                 "/" + row[2].ToString();
        }
      }
      return "";
    }
    const bool filtered = sql == kFilter;
    int64_t sum = 0;
    for (const catalog::Row& row : rs->rows) {
      if (!LedgerNoteFits(row)) return "torn row " + catalog::RowToString(row);
      if (filtered && row[1].AsInt() != 3) return "filter leaked a row";
      sum += row[2].AsInt();
    }
    const int64_t want_rows = filtered ? group_count[3] : kRows;
    const int64_t want_sum = filtered ? group_sum[3] : total_sum;
    if (static_cast<int64_t>(rs->rows.size()) != want_rows || sum != want_sum) {
      return sql + ": " + std::to_string(rs->rows.size()) + " rows summing " +
             std::to_string(sum);
    }
    return "";
  };

  std::atomic<bool> writer_done{false};
  std::atomic<int> readers_started{0};
  std::atomic<int> answers{0};
  std::mutex failure_mu;
  std::string failure;
  auto note_failure = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(failure_mu);
    if (failure.empty()) failure = what;
  };
  // Each reader answers every query at least once, and keeps going
  // until the writer has finished.
  auto read_loop = [&](const std::function<Result<exec::ResultSet>(
                           const std::string&)>& query) {
    readers_started.fetch_add(1);
    do {
      for (const std::string& sql : {kScan, kFilter, kGroupBy}) {
        const std::string bad = check(sql, query(sql));
        if (!bad.empty()) note_failure(bad);
        answers.fetch_add(1);
      }
    } while (!writer_done.load());
  };

  constexpr int kSessionReaders = 2;
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessionReaders; ++t) {
    threads.emplace_back([&] {
      std::unique_ptr<Session> session = server.Connect();
      read_loop([&session](const std::string& sql) {
        return SessionQuery(session.get(), sql);
      });
    });
  }
  threads.emplace_back([&] {
    // No guard attached: the executor pins its own snapshot.
    exec::Executor executor(db);
    exec::WorkerPool pool(2);
    executor.set_worker_pool(&pool);
    read_loop([&executor](const std::string& sql) {
      return executor.Execute(*sql::ParseSql(sql));
    });
  });

  std::unique_ptr<Session> writer = server.Connect();
  while (readers_started.load() < kSessionReaders + 1) {
    std::this_thread::yield();
  }
  auto commit = [&](const std::vector<std::string>& statements) {
    ASSERT_TRUE(writer->Execute(Request::Begin()).ok());
    for (const std::string& sql : statements) {
      Outcome out = writer->Execute(Request::Dml(sql));
      ASSERT_TRUE(out.ok()) << sql << ": " << out.status.ToString();
    }
    Outcome done = writer->Execute(Request::Commit());
    ASSERT_TRUE(done.ok()) << done.status.ToString();
  };
  int64_t next_id = kRows;
  for (int round = 0; round < kMaxRounds &&
                      (round < kMinRounds || answers.load() < kMinAnswers);
       ++round) {
    // Two rows of one group trade an amount; their notes change width.
    const int64_t a = model.begin()->first;
    int64_t b = -1;
    for (auto it = std::next(model.begin()); it != model.end(); ++it) {
      if (it->second.first == model[a].first) {
        b = it->first;
        break;
      }
    }
    if (b < 0) {
      note_failure("no second row in group " + std::to_string(model[a].first));
      break;
    }
    const int64_t delta = round + 1;
    model[a].second += delta;
    model[b].second -= delta;
    commit({"UPDATE ledger SET amt = amt + " + std::to_string(delta) +
                ", note = '" + LedgerNote(a, kWidths[round % 3]) +
                "' WHERE id = " + std::to_string(a),
            "UPDATE ledger SET amt = amt - " + std::to_string(delta) +
                ", note = '" + LedgerNote(b, kWidths[(round + 1) % 3]) +
                "' WHERE id = " + std::to_string(b)});
    // A row is replaced by a new id with the same group and amount.
    const int64_t gone = std::next(model.begin(), round % 50)->first;
    const auto [grp, amt] = model[gone];
    model.erase(gone);
    model[next_id] = {grp, amt};
    commit({"DELETE FROM ledger WHERE id = " + std::to_string(gone),
            "INSERT INTO ledger VALUES (" + std::to_string(next_id) + ", " +
                std::to_string(grp) + ", " + std::to_string(amt) + ", '" +
                LedgerNote(next_id, kWidths[(round + 2) % 3]) + "')"});
    ++next_id;
    db->Vacuum();
  }
  writer_done.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failure, "");
  EXPECT_GE(answers.load(), kMinAnswers);
  // The retired versions were freed once the readers' pins were gone.
  db->Vacuum();
  EXPECT_EQ(db->txn_manager()->retired_count(), 0u);
}

// Join chains borrow rows too: a keyed apply level takes each hit from
// its version under the statement's pin, and the Project above the
// chain reads it there. Readers loop the 4-apply query and a scan of a
// probed table while a writer's autocommitted UPDATEs, which change the
// probed rows' widths, trigger vacuum passes on commit. Under ASan a
// borrowed row read after a pass freed its version fails the run, and
// under TSan a race with the unlink does.
TEST(ServerStressTest, ApplyProbesSurviveVacuumOnCommit) {
  constexpr int64_t kRows = 300;
  constexpr int kMinUpdates = 2 * storage::Database::kVacuumMinDead + 600;
  constexpr int kMinAnswers = 40;
  constexpr int kMaxUpdates = 40000;
  constexpr size_t kWidths[] = {2, 24, 40};
  ServerOptions options;
  options.database.shard_count = 4;
  options.exec_threads = 2;
  options.scheduler_workers = 2;
  Server server(std::move(options));
  storage::Database* db = server.db();
  storage::Table* people = *db->CreateTable(
      "people", catalog::Schema({{"id", DataType::kInt64},
                                 {"mode", DataType::kString}}));
  for (int64_t id = 0; id < kRows; ++id) {
    ASSERT_TRUE(
        people->Insert({Value::Int(id), Value::String(id % 3 == 0 ? "online"
                                                                  : "paper")})
            .ok());
  }
  ASSERT_TRUE(people->DeclareUniqueKey("id").ok());
  const char* kDims[] = {"dim1", "dim2", "dim3", "dim4"};
  for (const char* name : kDims) {
    storage::Table* dim = *db->CreateTable(
        name, catalog::Schema({{"aid", DataType::kInt64},
                               {"grp", DataType::kInt64},
                               {"amt", DataType::kInt64},
                               {"note", DataType::kString}}));
    for (int64_t id = 0; id < kRows; ++id) {
      ASSERT_TRUE(dim->Insert({Value::Int(id), Value::Int(0), Value::Int(id),
                               Value::String(LedgerNote(id, kWidths[0]))})
                      .ok());
    }
    ASSERT_TRUE(dim->DeclareUniqueKey("aid").ok());
  }
  const std::string kApply =
      "SELECT p.id AS id, n1, n2, n3, n4 FROM people AS p "
      "OUTER APPLY (SELECT d.note AS n1 FROM dim1 AS d WHERE d.aid = p.id) "
      "OUTER APPLY (SELECT d.note AS n2 FROM dim2 AS d WHERE d.aid = p.id) "
      "OUTER APPLY (SELECT d.note AS n3 FROM dim3 AS d WHERE d.aid = p.id) "
      "OUTER APPLY (SELECT d.note AS n4 FROM dim4 AS d WHERE d.aid = p.id "
      "AND p.mode = 'online')";
  const std::string kScan = "SELECT * FROM dim2 AS d";
  // Every note must be whole and belong to its row's id.
  auto note_fits = [](int64_t id, const Value& note) {
    catalog::Row probe{Value::Int(id), Value::Null(), Value::Null(), note};
    return note.is_string() && LedgerNoteFits(probe);
  };
  auto check = [&](const std::string& sql,
                   const Result<exec::ResultSet>& rs) -> std::string {
    if (!rs.ok()) return sql + ": " + rs.status().ToString();
    if (rs->rows.size() != static_cast<size_t>(kRows)) {
      return sql + ": " + std::to_string(rs->rows.size()) + " rows";
    }
    for (size_t i = 0; i < rs->rows.size(); ++i) {
      const catalog::Row& row = rs->rows[i];
      if (sql == kScan) {
        if (!LedgerNoteFits(row)) {
          return "torn row " + catalog::RowToString(row);
        }
        continue;
      }
      const int64_t id = row[0].AsInt();
      if (id != static_cast<int64_t>(i)) return "row " + std::to_string(i);
      for (size_t k = 1; k <= 3; ++k) {
        if (!note_fits(id, row[k])) return "torn " + catalog::RowToString(row);
      }
      const bool online = id % 3 == 0;
      if (online ? !note_fits(id, row[4]) : !row[4].is_null()) {
        return "level 4 reads " + catalog::RowToString(row);
      }
    }
    return "";
  };

  std::atomic<bool> writer_done{false};
  std::atomic<int> readers_started{0};
  std::atomic<int> answers{0};
  std::mutex failure_mu;
  std::string failure;
  auto note_failure = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(failure_mu);
    if (failure.empty()) failure = what;
  };
  auto read_loop = [&](const std::function<Result<exec::ResultSet>(
                           const std::string&)>& query) {
    readers_started.fetch_add(1);
    do {
      for (const std::string& sql : {kApply, kScan}) {
        const std::string bad = check(sql, query(sql));
        if (!bad.empty()) note_failure(bad);
        answers.fetch_add(1);
      }
    } while (!writer_done.load());
  };
  constexpr int kSessionReaders = 2;
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessionReaders; ++t) {
    threads.emplace_back([&] {
      std::unique_ptr<Session> session = server.Connect();
      read_loop([&session](const std::string& sql) {
        return SessionQuery(session.get(), sql);
      });
    });
  }
  threads.emplace_back([&] {
    // No guard attached and no pool: the executor pins its own
    // snapshot.
    exec::Executor executor(db);
    read_loop([&executor](const std::string& sql) {
      return executor.Execute(*sql::ParseSql(sql));
    });
  });

  std::unique_ptr<Session> writer = server.Connect();
  while (readers_started.load() < kSessionReaders + 1) {
    std::this_thread::yield();
  }
  int updates = 0;
  for (; updates < kMaxUpdates &&
         (updates < kMinUpdates || answers.load() < kMinAnswers);
       ++updates) {
    const int64_t id = (updates * 7) % kRows;
    const std::string sql =
        std::string("UPDATE ") + kDims[updates % 4] + " SET note = '" +
        LedgerNote(id, kWidths[(updates / 4) % 3]) +
        "' WHERE aid = " + std::to_string(id);
    Outcome out = writer->Execute(Request::Dml(sql));
    if (!out.ok()) {
      note_failure(sql + ": " + out.status.ToString());
      break;
    }
  }
  writer_done.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failure, "");
  EXPECT_GE(answers.load(), kMinAnswers);
  // The commits vacuumed: superseded versions were reclaimed, and what
  // is left to reclaim is below the trigger.
  EXPECT_GT(server.metrics()->counter("storage.mvcc.gc_reclaimed")->Value(), 0);
  EXPECT_LT(db->txn_manager()->dead_versions(), db->vacuum_threshold());
}

// Commits run Database::Vacuum once the versions they superseded pass
// the threshold, so live versions stay bounded under a stream of
// single-row UPDATEs, whether each autocommits or runs in BEGIN/COMMIT,
// and a transaction opened before the writes keeps its snapshot.
TEST(VacuumOnCommitTest, LiveVersionsStayBoundedAndOldSnapshotsHold) {
  constexpr int64_t kRows = 1000;
  constexpr int kUpdates = 20000;
  const size_t bound = static_cast<size_t>(kRows) +
                       storage::Database::kVacuumMinDead +
                       kRows / storage::Database::kVacuumRowsPerDead;
  for (bool explicit_txn : {false, true}) {
    SCOPED_TRACE(explicit_txn ? "BEGIN/COMMIT" : "autocommit");
    storage::Database db;
    obs::MetricsRegistry metrics;
    db.set_metrics(&metrics);
    storage::Table* t = *db.CreateTable(
        "t", catalog::Schema({{"id", DataType::kInt64},
                              {"v", DataType::kInt64}}));
    for (int64_t id = 0; id < kRows; ++id) {
      ASSERT_TRUE(t->Insert({Value::Int(id), Value::Int(0)}).ok());
    }
    ASSERT_TRUE(t->DeclareUniqueKey("id").ok());
    Connection conn(&db);
    auto live = [&] {
      return metrics.counter("storage.mvcc.versions")->Value() -
             metrics.counter("storage.mvcc.gc_reclaimed")->Value();
    };
    int64_t peak = 0;
    for (int i = 0; i < kUpdates; ++i) {
      const std::string sql = "UPDATE t SET v = v + 1 WHERE id = " +
                              std::to_string(i % kRows);
      if (explicit_txn) ASSERT_TRUE(conn.Perform(Request::Begin()).ok());
      Outcome out = conn.Perform(Request::Dml(sql));
      ASSERT_TRUE(out.ok()) << out.status.ToString();
      if (explicit_txn) ASSERT_TRUE(conn.Perform(Request::Commit()).ok());
      peak = std::max(peak, live());
    }
    EXPECT_LT(peak, static_cast<int64_t>(bound));
    EXPECT_GT(metrics.counter("storage.mvcc.gc_reclaimed")->Value(), 0);

    // A transaction opened before more writes reads its snapshot after
    // them, vacuum passes included.
    Connection reader(&db);
    ASSERT_TRUE(reader.Perform(Request::Begin()).ok());
    const std::string kSum = "SELECT SUM(t.v) AS s FROM t AS t";
    Outcome before = reader.Perform(Request::Query(kSum));
    ASSERT_TRUE(before.ok()) << before.status.ToString();
    EXPECT_EQ(before.rows.rows[0][0].AsInt(), kUpdates);
    for (int i = 0; i < kUpdates / 4; ++i) {
      const std::string sql =
          "UPDATE t SET v = v + 1 WHERE id = " + std::to_string(i % kRows);
      ASSERT_TRUE(conn.Perform(Request::Dml(sql)).ok());
    }
    Outcome after = reader.Perform(Request::Query(kSum));
    ASSERT_TRUE(after.ok()) << after.status.ToString();
    EXPECT_EQ(after.rows.rows[0][0].AsInt(), kUpdates);
    // Its read of t is stale now, so it can only roll back.
    ASSERT_TRUE(reader.Perform(Request::Rollback()).ok());
    Outcome fresh = conn.Perform(Request::Query(kSum));
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh.rows.rows[0][0].AsInt(), kUpdates + kUpdates / 4);
  }
}

// Live sessions fold their published snapshot into stats() while open,
// and their exact totals exactly once when they close (no double count).
TEST(ServerStressTest, StatsFoldOnClose) {
  Server server;
  ASSERT_TRUE(workloads::SetupSelectionDatabase(server.db(), 10, 50).ok());

  {
    std::unique_ptr<Session> session = server.Connect();
    ASSERT_TRUE(
        SessionQuery(session.get(), "SELECT COUNT(*) AS n FROM project AS p").ok());
    ServerStats mid = server.stats();
    EXPECT_EQ(mid.sessions_opened, 1);
    EXPECT_EQ(mid.sessions_closed, 0);
    EXPECT_EQ(mid.totals.queries_executed, 1);  // live fold-in
    EXPECT_GT(mid.totals.simulated_ms, 0.0);
  }
  ServerStats done = server.stats();
  EXPECT_EQ(done.sessions_closed, 1);
  EXPECT_EQ(done.totals.queries_executed, 1);
  EXPECT_GT(done.totals.simulated_ms, 0.0);
}

}  // namespace
}  // namespace eqsql::net
