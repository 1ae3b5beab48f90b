// Edge-case suite for the net::Scheduler (PR 5): admission control
// under producer storms, the queued-vs-executing deadline boundary,
// drain-on-shutdown delivery, priority ordering, and the introspection
// surfaces (SHOW METRICS, EXPLAIN EXTRACTION) through Submit.
//
// Determinism device: the scheduler's test-only dispatch hook runs on
// the worker thread after the deadline check and immediately before
// execution. Parking a worker inside the hook freezes the queue in a
// known state — tests then submit against that frozen state and
// release the worker, so none of the orderings asserted here depend on
// sleeps racing the dispatcher. The stress test runs under TSan in CI
// (scripts/verify.sh builds this binary with -fsanitize=thread).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/scheduler.h"
#include "net/server.h"

namespace eqsql::net {
namespace {

using catalog::DataType;
using catalog::Schema;
using catalog::Value;

/// A server over one small table, with scheduler shape under test
/// control. Extraction options cover the ImpLang program used by the
/// EXPLAIN test.
std::unique_ptr<Server> MakeServer(size_t workers, size_t queue_capacity) {
  ServerOptions options;
  options.scheduler_workers = workers;
  options.scheduler_queue_capacity = queue_capacity;
  options.optimize.transform.table_keys = {{"items", "id"}, {"wuser", "id"}};
  auto server = std::make_unique<Server>(std::move(options));
  auto t = *server->db()->CreateTable(
      "items", Schema({{"id", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(t->Insert({Value::Int(i), Value::Int(i * 10)}).ok());
  }
  return server;
}

Request CountQuery(int64_t from = 0) {
  return Request::Query("SELECT COUNT(*) AS n FROM items AS i "
                        "WHERE i.id >= ?",
                        {Value::Int(from)});
}

/// Parks every dispatched request until `release` flips, and flags
/// `parked` once the first one is inside the hook (i.e. popped from the
/// queue, past the deadline check, about to execute).
Scheduler::DispatchHook ParkAll(std::atomic<bool>* parked,
                                std::atomic<bool>* release) {
  return [parked, release](const Request&) {
    parked->store(true);
    while (!release->load()) std::this_thread::yield();
  };
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

// 8 producers storm a tiny queue whose workers are parked: every
// submission must return instantly (admitted -> pending future,
// overflow -> ready kOverloaded future), the admitted count is bounded
// by capacity plus the entries the workers popped before parking, and
// once released every admitted request completes. This is the TSan
// stress case: producers race each other and the workers on the queue.
TEST(SchedulerTest, QueueFullRejectsOverloadedWithoutBlocking) {
  constexpr size_t kWorkers = 2;
  constexpr size_t kCapacity = 8;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 16;

  std::unique_ptr<Server> server = MakeServer(kWorkers, kCapacity);
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  server->scheduler()->set_dispatch_hook(ParkAll(&parked, &release));

  std::mutex mu;
  std::vector<std::future<Outcome>> admitted;
  std::atomic<int> rejected{0};
  std::atomic<int> misbehaved{0};  // ready-at-submit but not kOverloaded

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      std::unique_ptr<Session> session = server->Connect();
      for (int i = 0; i < kPerProducer; ++i) {
        std::future<Outcome> f = session->Submit(CountQuery());
        if (f.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          // A ready future at submit time is a rejection by contract.
          Outcome o = f.get();
          if (o.status.code() == StatusCode::kOverloaded) {
            rejected.fetch_add(1);
          } else {
            misbehaved.fetch_add(1);
          }
        } else {
          std::lock_guard<std::mutex> lock(mu);
          admitted.push_back(std::move(f));
        }
      }
    });
  }
  for (std::thread& p : producers) p.join();

  constexpr int kTotal = kProducers * kPerProducer;
  EXPECT_EQ(misbehaved.load(), 0);
  // Workers pop at most one entry each before parking, so admissions
  // are bounded by capacity + workers; everything else was shed.
  EXPECT_LE(admitted.size(), kCapacity + kWorkers);
  EXPECT_GE(rejected.load(),
            kTotal - static_cast<int>(kCapacity + kWorkers));
  EXPECT_EQ(static_cast<int>(admitted.size()) + rejected.load(), kTotal);

  release.store(true);
  for (auto& f : admitted) {
    Outcome o = f.get();
    EXPECT_TRUE(o.ok()) << o.status.ToString();
    EXPECT_EQ(o.kind, Outcome::Kind::kResultSet);
  }

  obs::MetricsSnapshot snap = server->metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("net.scheduler.rejected"), rejected.load());
  EXPECT_EQ(snap.counters.at("net.scheduler.submitted"),
            static_cast<int64_t>(admitted.size()));
}

// ---------------------------------------------------------------------------
// Deadlines: queued vs executing
// ---------------------------------------------------------------------------

// A deadline that passes while the request is still queued fails it
// with kDeadlineExceeded before any execution: the dispatch hook (which
// fires only on the execution path) must never see it, and a DML
// payload must leave the data untouched.
TEST(SchedulerTest, DeadlineExpiredWhileQueuedFailsBeforeExecution) {
  std::unique_ptr<Server> server = MakeServer(/*workers=*/1,
                                              /*queue_capacity=*/8);
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::mutex mu;
  std::vector<std::string> dispatched_sql;
  server->scheduler()->set_dispatch_hook([&](const Request& req) {
    {
      std::lock_guard<std::mutex> lock(mu);
      dispatched_sql.push_back(req.sql);
    }
    parked.store(true);
    while (!release.load()) std::this_thread::yield();
  });

  std::unique_ptr<Session> session = server->Connect();
  std::future<Outcome> plug = session->Submit(CountQuery());
  while (!parked.load()) std::this_thread::yield();

  // The worker is parked executing the plug; this DML sits in the
  // queue until well past its 5ms budget.
  const std::string victim_sql = "UPDATE items AS i SET v = 0";
  std::future<Outcome> victim =
      session->Submit(Request::Dml(victim_sql).WithTimeoutMs(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  release.store(true);

  EXPECT_TRUE(plug.get().ok());
  Outcome out = victim.get();
  EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded)
      << out.status.ToString();

  {
    std::lock_guard<std::mutex> lock(mu);
    for (const std::string& sql : dispatched_sql) {
      EXPECT_NE(sql, victim_sql) << "expired request reached execution";
    }
  }
  // The UPDATE never ran: every v still holds its seeded value.
  server->scheduler()->set_dispatch_hook(nullptr);
  auto check = session->Execute(Request::Query(
      "SELECT COUNT(*) AS n FROM items AS i WHERE i.v = 0"));
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.rows.rows[0][0].AsInt(), 1);  // only the seeded id=0 row
  EXPECT_EQ(server->metrics()->Snapshot().counters.at(
                "net.scheduler.deadline_expired"),
            1);
}

// A request whose deadline passes after dispatch (here: while parked in
// the hook, which runs after the deadline check) is not aborted — it
// runs to completion.
TEST(SchedulerTest, DeadlinePassingDuringExecutionRunsToCompletion) {
  std::unique_ptr<Server> server = MakeServer(/*workers=*/1,
                                              /*queue_capacity=*/8);
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  server->scheduler()->set_dispatch_hook(ParkAll(&parked, &release));

  std::unique_ptr<Session> session = server->Connect();
  // On a loaded host the 5ms budget can pass before dispatch; the
  // scheduler then fails the request without calling the hook. Wait on
  // the hook or the future, whichever comes first, and resubmit a
  // request that expired in the queue.
  std::future<Outcome> fut;
  int64_t expired_in_queue = 0;
  for (int attempt = 0; attempt < 20 && !parked.load(); ++attempt) {
    fut = session->Submit(CountQuery().WithTimeoutMs(5));
    while (!parked.load() && fut.wait_for(std::chrono::seconds(0)) !=
                                 std::future_status::ready) {
      std::this_thread::yield();
    }
    if (!parked.load()) {
      Outcome expired = fut.get();
      ASSERT_EQ(expired.status.code(), StatusCode::kDeadlineExceeded)
          << expired.status.ToString();
      ++expired_in_queue;
    }
  }
  ASSERT_TRUE(parked.load()) << "every attempt expired in the queue";
  // Once parked, the deadline check has already passed; now let the
  // 5ms budget elapse "mid-execution" before releasing the worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  release.store(true);

  Outcome out = fut.get();
  EXPECT_TRUE(out.ok()) << out.status.ToString();
  EXPECT_EQ(out.kind, Outcome::Kind::kResultSet);
  EXPECT_EQ(server->metrics()->Snapshot().counters.at(
                "net.scheduler.deadline_expired"),
            expired_in_queue);
}

// ---------------------------------------------------------------------------
// Shutdown drain
// ---------------------------------------------------------------------------

// Shutdown while one request executes and three sit queued: the
// in-flight request finishes normally, every queued future resolves
// with kShuttingDown (nothing is silently dropped), and submissions
// after shutdown are rejected with an already-ready future.
TEST(SchedulerTest, ShutdownDrainsQueuedRequestsWithShuttingDown) {
  std::unique_ptr<Server> server = MakeServer(/*workers=*/1,
                                              /*queue_capacity=*/8);
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  server->scheduler()->set_dispatch_hook(ParkAll(&parked, &release));

  std::unique_ptr<Session> session = server->Connect();
  std::future<Outcome> in_flight = session->Submit(CountQuery());
  while (!parked.load()) std::this_thread::yield();

  std::vector<std::future<Outcome>> queued;
  for (int i = 0; i < 3; ++i) {
    queued.push_back(session->Submit(CountQuery(i)));
  }

  // Shutdown from another thread: it flushes the queue immediately,
  // then blocks joining the parked worker until we release it.
  std::thread shutdown([&] { server->scheduler()->Shutdown(); });
  while (!server->scheduler()->shutting_down()) {
    std::this_thread::yield();
  }
  for (auto& f : queued) {
    Outcome o = f.get();
    EXPECT_EQ(o.status.code(), StatusCode::kShuttingDown)
        << o.status.ToString();
  }

  std::future<Outcome> late = session->Submit(CountQuery());
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(late.get().status.code(), StatusCode::kShuttingDown);

  release.store(true);
  shutdown.join();
  Outcome o = in_flight.get();
  EXPECT_TRUE(o.ok()) << o.status.ToString();
}

// ---------------------------------------------------------------------------
// Priority ordering
// ---------------------------------------------------------------------------

// With the single worker parked, six requests across three classes pile
// up; on release the worker must drain high, then normal, then batch,
// FIFO within each class — regardless of submission interleaving.
TEST(SchedulerTest, PriorityClassesDrainHighFirstFifoWithin) {
  std::unique_ptr<Server> server = MakeServer(/*workers=*/1,
                                              /*queue_capacity=*/16);
  std::atomic<bool> first{true};
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  std::mutex mu;
  std::vector<int64_t> order;  // first query param of each dispatch
  server->scheduler()->set_dispatch_hook([&](const Request& req) {
    if (!req.params.empty()) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(req.params[0].AsInt());
    }
    if (first.exchange(false)) {
      parked.store(true);
      while (!release.load()) std::this_thread::yield();
    }
  });

  std::unique_ptr<Session> session = server->Connect();
  // The plug carries no params, so it stays out of `order`.
  std::future<Outcome> plug =
      session->Submit(Request::Query("SELECT COUNT(*) AS n FROM items AS i"));
  while (!parked.load()) std::this_thread::yield();

  struct Labeled {
    int64_t label;
    Priority priority;
  };
  const std::vector<Labeled> submissions = {
      {20, Priority::kBatch}, {10, Priority::kNormal},
      {0, Priority::kHigh},   {21, Priority::kBatch},
      {11, Priority::kNormal}, {1, Priority::kHigh},
  };
  std::vector<std::future<Outcome>> futures;
  for (const Labeled& s : submissions) {
    futures.push_back(session->Submit(
        Request::Query("SELECT COUNT(*) AS n FROM items AS i "
                       "WHERE i.id >= ?",
                       {Value::Int(s.label)})
            .WithPriority(s.priority)));
  }

  release.store(true);
  EXPECT_TRUE(plug.get().ok());
  for (auto& f : futures) {
    Outcome o = f.get();
    EXPECT_TRUE(o.ok()) << o.status.ToString();
  }
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 10, 11, 20, 21}));
}

// ---------------------------------------------------------------------------
// Introspection through the scheduler
// ---------------------------------------------------------------------------

// SHOW METRICS answered by a worker must list the scheduler's own
// counters and the derived queue-wait histogram rows.
TEST(SchedulerTest, ShowMetricsExposesQueueCountersAndWaitHistogram) {
  std::unique_ptr<Server> server = MakeServer(/*workers=*/2,
                                              /*queue_capacity=*/32);
  std::unique_ptr<Session> session = server->Connect();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session->Execute(CountQuery(i)).ok());
  }

  Outcome out = session->Execute(Request::Statement("SHOW METRICS"));
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  ASSERT_EQ(out.kind, Outcome::Kind::kResultSet);
  size_t metric_idx = *out.rows.schema.IndexOf("metric");
  size_t value_idx = *out.rows.schema.IndexOf("value");
  std::map<std::string, int64_t> rows;
  for (const catalog::Row& row : out.rows.rows) {
    rows[row[metric_idx].AsString()] = row[value_idx].AsInt();
  }

  // The three queries above, plus SHOW METRICS itself (submitted and
  // dispatched before the snapshot is taken inside execution).
  EXPECT_EQ(rows.at("net.scheduler.submitted"), 4);
  EXPECT_EQ(rows.at("net.scheduler.dispatched"), 4);
  EXPECT_EQ(rows.at("net.scheduler.rejected"), 0);
  EXPECT_EQ(rows.at("net.scheduler.deadline_expired"), 0);
  EXPECT_EQ(rows.at("net.scheduler.queue_depth"), 0);
  EXPECT_EQ(rows.at("net.scheduler.queue_wait_ns.count"), 4);
  EXPECT_GT(rows.at("net.scheduler.queue_wait_ns.p50"), 0);
  EXPECT_GE(rows.at("net.scheduler.queue_wait_ns.p99"),
            rows.at("net.scheduler.queue_wait_ns.p50"));
  EXPECT_GE(rows.at("net.scheduler.queue_wait_ns.max"), 0);
}

// EXPLAIN EXTRACTION travels through Submit like any other request and
// resolves through the shared plan cache.
TEST(SchedulerTest, ExplainExtractionThroughSubmit) {
  const char* src = R"(
    func total() {
      agg = 0;
      rows = executeQuery("SELECT * FROM wuser AS u");
      for (u : rows) {
        agg = agg + u.score;
      }
      return agg;
    }
  )";
  std::unique_ptr<Server> server = MakeServer(/*workers=*/2,
                                              /*queue_capacity=*/32);
  std::unique_ptr<Session> session = server->Connect();

  std::future<Outcome> fut =
      session->Submit(Request::ExplainExtraction(src, "total"));
  Outcome out = fut.get();
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  ASSERT_EQ(out.kind, Outcome::Kind::kExplain);
  EXPECT_EQ(out.explain.kind, Explain::Kind::kExtraction);
  EXPECT_NE(out.explain.text.find("EXPLAIN EXTRACTION for function 'total'"),
            std::string::npos);
  EXPECT_NE(out.explain.text.find("=> extracted"), std::string::npos);
  // The selection layer rides along: every explain lists the priced
  // alternatives and marks the winner.
  EXPECT_NE(out.explain.text.find("alternatives:"), std::string::npos);
  EXPECT_NE(out.explain.text.find("chosen strategy:"), std::string::npos);
  EXPECT_NE(out.explain.json.find("\"alternatives\":["), std::string::npos);

  // Second submission hits the shared extraction cache.
  auto report = session->Execute(Request::ExplainExtraction(src, "total"))
                    .TakeExplain();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->text, out.explain.text);
  EXPECT_EQ(report->json, out.explain.json);
  EXPECT_GE(server->stats().plan_cache.hits, 1);
}

}  // namespace
}  // namespace eqsql::net
