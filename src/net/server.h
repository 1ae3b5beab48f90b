#ifndef EQSQL_NET_SERVER_H_
#define EQSQL_NET_SERVER_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/alternative_selector.h"
#include "core/optimizer.h"
#include "exec/exec_mode.h"
#include "core/plan_cache.h"
#include "net/api.h"
#include "net/connection.h"
#include "net/cost_model.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "storage/database.h"

namespace eqsql::net {

class Scheduler;
class Session;

struct ServerOptions {
  /// Capacity of the shared plan/extraction cache (entries).
  size_t plan_cache_capacity = 512;
  /// Cost model handed to every session's connection.
  CostModel cost_model;
  /// Pipeline options used by Session::OptimizeCached. Part of the
  /// cache key, so changing them between sessions is safe (entries
  /// never alias across different options).
  core::OptimizeOptions optimize;
  /// Storage configuration: `database.shard_count` hash partitions per
  /// table (0 = hardware concurrency). Also salts the plan-cache keys.
  storage::DatabaseOptions database;
  /// Worker threads in the shared shard-execution pool. 0 = hardware
  /// concurrency minus one (at least 1). Submitting sessions always
  /// help drain the pool, so even 1 worker cannot deadlock progress.
  size_t exec_threads = 0;
  /// Minimum table row count before per-shard parallel operators engage
  /// (forwarded to every session's Executor).
  size_t parallel_threshold = 512;
  /// The executor's one engine, by name for the wall-clock benchmark's
  /// provenance line (exec/exec_mode.h). Not a setting.
  static constexpr exec::ExecMode exec_mode = exec::ExecMode::kVector;
  /// Worker threads in the request scheduler (the execution engine
  /// behind Session::Submit/Execute). 0 = default (2).
  size_t scheduler_workers = 0;
  /// Bound of the scheduler's admission queue; a full queue rejects
  /// submissions with kOverloaded instead of blocking the producer.
  size_t scheduler_queue_capacity = 256;
  /// Always-on sampled tracing: every admitted request gets a trace id,
  /// and every N-th one (1 = all) is captured — full span tree plus
  /// operator profile — into the server's bounded trace ring
  /// (SHOW PROFILES / SHOW TRACES / eqsql --dump-profiles). 0 disables
  /// sampling. Sampling never touches the simulated clock or any
  /// layout-invariant counter.
  size_t trace_sample = 0;
  /// Capacity of the sampled-trace ring buffer (records retained).
  size_t trace_ring_capacity = 256;
  /// Requests whose total latency (queue wait + execution wall time)
  /// meets or exceeds this many milliseconds append a structured JSON
  /// line to the slow-query log. <= 0 disables.
  double slow_query_ms = 0;
  /// File the slow-query log flushes to on server shutdown (empty =
  /// in-memory only; lines stay inspectable via Server::slow_log()).
  std::string slow_query_log_path;
};

/// Server-wide aggregate counters. Closed sessions fold their exact
/// stats in when destroyed; live (unclosed) sessions and the
/// scheduler's worker links contribute the snapshot their owner thread
/// last published after a completed operation (Connection::ApproxStats).
/// A snapshot taken after workers join is therefore exact, and one
/// taken mid-flight is complete up to each link's last finished
/// operation — never zero for a link that has already done work.
struct ServerStats {
  int64_t sessions_opened = 0;
  int64_t sessions_closed = 0;
  /// Sum of every closed session's ConnectionStats, every live
  /// session's last published snapshot, and every scheduler worker
  /// link's snapshot (scheduler-executed work lands on the worker's
  /// connection, not the submitting session's).
  ConnectionStats totals;
  core::PlanCacheStats plan_cache;
};

/// A concurrent multi-session server: one shared storage::Database
/// (reader-writer locked via Connection) plus one shared core::PlanCache
/// that memoizes parse -> optimize -> extract across sessions.
///
/// Thread model: Connect() and stats() may be called from any thread.
/// Each Session must be driven by one thread at a time (it wraps a
/// Connection, which debug-asserts single-thread ownership); N sessions
/// on N worker threads execute queries concurrently under shared locks.
class Server {
 public:
  explicit Server(ServerOptions options = ServerOptions());
  /// Drains the scheduler (in-flight requests finish, queued requests
  /// fail with kShuttingDown) before tearing anything else down.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The shared database. Populate it before spawning workers, or from
  /// workers via Connection's DML paths (which take the exclusive lock).
  storage::Database* db() { return &db_; }

  core::PlanCache* plan_cache() { return &plan_cache_; }
  exec::WorkerPool* worker_pool() { return &pool_; }
  const ServerOptions& options() const { return options_; }

  /// The request scheduler behind Session::Submit/Execute (exposed for
  /// shutdown control and the scheduler test suite's dispatch hook).
  Scheduler* scheduler() { return scheduler_.get(); }

  /// The server-wide metrics registry: plan cache, worker pool,
  /// storage scans, per-session net counters, and extraction pipeline
  /// metrics all land here. Snapshot() is safe from any thread.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// The bounded ring of sampled request traces (ServerOptions::
  /// trace_sample) and the structured slow-query log. Safe from any
  /// thread.
  obs::TraceRing* trace_ring() { return &trace_ring_; }
  obs::SlowQueryLog* slow_log() { return &slow_log_; }

  /// Opens a session against the shared database. The session may be
  /// handed to a worker thread before first use; it folds its stats
  /// back into the server when destroyed.
  std::unique_ptr<Session> Connect();

  /// Cost-based rewrite selection (Cobra): enumerates and prices the
  /// execution alternatives for (source, function) — full SQL
  /// extraction, the batching rewrite, the interpreted original —
  /// against live table statistics, returning the ranked plan with the
  /// cheapest feasible strategy chosen. Cached in the shared plan cache
  /// and re-priced whenever a priced statistic changes and so moves the
  /// database's stats epoch (table growth or a newly ready index can
  /// flip the winner). Thread-safe.
  Result<std::shared_ptr<const core::ExtractionPlan>> GetOrSelectPlan(
      const std::string& source, const std::string& function);

  /// Snapshot of the server-wide aggregates (closed sessions + cache).
  ServerStats stats() const;

 private:
  friend class Session;

  /// Folds a closing session's counters into the aggregate and drops
  /// it from the live-session map.
  void CloseSession(int64_t id, const ConnectionStats& session_stats);

  ServerOptions options_;
  /// Declared before pool_ and db_: destroyed last, so worker threads
  /// and in-flight sessions can touch metric handles until they join.
  obs::MetricsRegistry metrics_;
  storage::Database db_;
  core::PlanCache plan_cache_;
  exec::WorkerPool pool_;

  mutable std::mutex mu_;  // guards the aggregate counters below
  int64_t sessions_opened_ = 0;
  int64_t sessions_closed_ = 0;
  ConnectionStats totals_;
  /// Connections of open sessions, for live stats fold-in. A Session
  /// unregisters in its destructor before its Connection dies, so every
  /// pointer here is valid whenever mu_ is held.
  std::unordered_map<int64_t, const Connection*> live_sessions_;

  /// Sampled-trace sink + slow-query sink. Declared before scheduler_
  /// (workers push records until they join).
  obs::TraceRing trace_ring_;
  obs::SlowQueryLog slow_log_;

  /// Declared last: destroyed first, so Shutdown() joins the scheduler
  /// workers while the database, pools, and metrics they touch are all
  /// still alive.
  std::unique_ptr<Scheduler> scheduler_;
};

/// One client session: the handle through which requests enter the
/// server. Submit() hands a Request to the server's scheduler and
/// returns a std::future<Outcome>; Execute() is the blocking wrapper.
/// Execution happens on the scheduler's worker threads against the
/// shared database and plan cache — the session's own Connection only
/// carries client-side simulated cost (ChargeClientOps) and serves the
/// legacy direct path. Single-threaded by contract (see Connection);
/// open one session per client thread.
class Session : public Client {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int64_t id() const { return id_; }

  /// Submits one request to the server's scheduler. Non-blocking: on
  /// admission the future resolves when a worker finishes the request;
  /// on rejection (kOverloaded queue-full backpressure, kShuttingDown
  /// drain) it is already ready. "SHOW METRICS" answers with every
  /// counter plus <histogram>.count/.p50/.p99/.max rows, without
  /// touching storage. Requests that carry no TxnContext are stamped
  /// with this session's, so BEGIN/COMMIT/ROLLBACK and the statements
  /// between them belong to one transaction no matter which scheduler
  /// worker executes each of them. May be called from the session's
  /// owner thread; the returned future may be waited anywhere.
  std::future<Outcome> Submit(Request req);

  /// Blocking wrapper: Submit + wait.
  Outcome Execute(Request req);

  /// net::Client: lets interpreted programs drive this session like a
  /// direct connection — every statement goes through the scheduler.
  Outcome Perform(Request req) override { return Execute(std::move(req)); }
  void ChargeClientOps(int64_t ops) override { conn_.ChargeClientOps(ops); }

  /// Full extraction pipeline through the shared cache: repeated
  /// (source, function) requests under the server's optimize options
  /// skip parse, analysis, transformation, and rewriting.
  Result<std::shared_ptr<const core::OptimizeResult>> OptimizeCached(
      const std::string& source, const std::string& function);

  /// Cost-based alternative selection for (source, function) through
  /// the server's cache — see Server::GetOrSelectPlan. The CLI uses
  /// this to pick which strategy --run executes.
  Result<std::shared_ptr<const core::ExtractionPlan>> SelectPlan(
      const std::string& source, const std::string& function);

  /// The EXPLAIN EXTRACTION payload for (source, function) under the
  /// server's optimize options: per cursor loop P1-P3 verdicts, fired
  /// rules, emitted SQL, and the ranked cost-priced alternatives with
  /// the chosen strategy marked (text + JSON). Resolved through the
  /// shared plan cache, so repeated requests are free.
  Result<Explain> ExplainExtraction(const std::string& source,
                                    const std::string& function);

  /// Temp-table upload and drop, forwarded to connection(): the table
  /// lives in this session's TxnContext, so only this session's queries
  /// see it. Cached plans need no invalidation: a cached line naming the
  /// table rebinds when the table's columns or key differ from the ones
  /// it was bound against.
  Status CreateTempTable(const std::string& name, catalog::Schema schema,
                         std::vector<catalog::Row> rows) override {
    return conn_.CreateTempTable(name, std::move(schema), std::move(rows));
  }
  void DropTempTable(const std::string& name) override {
    conn_.DropTempTable(name);
  }

  /// The underlying client-side connection, for callers that need the
  /// raw blocking API (direct interpreter runs, temp tables, tracing).
  /// Work done here executes on the calling thread, bypassing the
  /// scheduler's admission queue.
  Connection* connection() { return &conn_; }
  const ConnectionStats& stats() const { return conn_.stats(); }

 private:
  friend class Server;
  Session(Server* server, int64_t id)
      : server_(server), id_(id), conn_(&server->db_,
                                        server->options_.cost_model) {
    conn_.set_worker_pool(&server->pool_);
    conn_.set_parallel_threshold(server->options_.parallel_threshold);
    conn_.set_metrics(&server->metrics_);
    conn_.set_plan_cache(&server->plan_cache_);
    // Direct connection() calls and scheduler-executed requests share
    // one transaction context (~Connection rolls back anything left
    // open, so a dropped session never stalls the GC watermark).
    conn_.set_txn_context(txn_ctx_);
  }

  Server* server_;
  int64_t id_;
  /// This session's transaction state, shared with conn_ and stamped
  /// onto every Submit()ed request. Declared before conn_ so the
  /// context outlives the connection's destructor-time rollback.
  std::shared_ptr<TxnContext> txn_ctx_ = std::make_shared<TxnContext>();
  Connection conn_;
};

}  // namespace eqsql::net

#endif  // EQSQL_NET_SERVER_H_
