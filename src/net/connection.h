#ifndef EQSQL_NET_CONNECTION_H_
#define EQSQL_NET_CONNECTION_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/result.h"
#include "core/plan_cache.h"
#include "exec/executor.h"
#include "net/api.h"
#include "net/cost_model.h"
#include "obs/metrics.h"
#include "ra/ra_node.h"
#include "storage/database.h"

namespace eqsql::net {

/// One traced query execution (Connection::set_trace). The fuzz
/// oracle uses the per-query breakdown to attribute row-transfer
/// regressions to the specific rewritten query that shipped them.
struct QueryTrace {
  std::string sql;  // SQL text, or the plan rendering for raw plans
  int64_t rows = 0;
  int64_t bytes = 0;  // request + result bytes
};

/// A simulated database connection: the client side of the DBMS.
///
/// Every query executes synchronously against the in-process engine, but
/// the connection charges the CostModel onto a simulated clock and
/// counts round trips / bytes, which is what the benchmark harness
/// reports for Figures 8-11.
///
/// Sharing model: many connections may target one storage::Database
/// concurrently — queries pin an MVCC snapshot with a storage::ReadGuard
/// (readers take no shard locks and never block writers), and DML
/// installs pending versions under per-shard write mutexes, committing
/// through the database's TxnManager. BEGIN/COMMIT/ROLLBACK manage the
/// session transaction in the attached TxnContext; statements outside an
/// open transaction autocommit (one statement = one transaction). The
/// TxnContext also holds the session's temp tables. One
/// Connection itself is owned by a
/// single thread at a time: its stats_ and trace_ accumulators are
/// deliberately unsynchronized (they are per-session counters, and
/// making them atomic would still leave torn multi-field reads). The
/// owning thread is latched on first use and debug-asserted on every
/// stats-mutating call; hand a connection to another thread only after
/// ReleaseThreadOwnership().
class Connection : public Client {
 public:
  explicit Connection(storage::Database* db, CostModel model = CostModel())
      : db_(db), model_(model), executor_(db) {}

  /// Rolls back any transaction still open in the built-in context, so
  /// a dropped connection never leaks a snapshot pin (which would stall
  /// the version-GC watermark forever).
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Replaces the built-in transaction context with a shared one, so a
  /// Session and its direct Connection (and any scheduler worker
  /// executing the session's requests) agree on the open transaction.
  void set_txn_context(std::shared_ptr<TxnContext> ctx) {
    if (ctx != nullptr) own_txn_ = std::move(ctx);
  }
  const std::shared_ptr<TxnContext>& txn_context() const { return own_txn_; }

  /// The canonical entry point (net::Client): executes one Request on
  /// the calling thread and returns its Outcome. kQuery and EXPLAIN
  /// ANALYZE resolve their SQL through the plan cache (set_plan_cache),
  /// so a repeated statement is neither parsed nor bound again. kQuery
  /// reads at a
  /// pinned MVCC snapshot (the open transaction's snapshot inside
  /// BEGIN...COMMIT, a fresh one otherwise); kDml writes through the
  /// transaction machinery, autocommitting when no transaction is open;
  /// kBegin/kCommit/kRollback manage the session transaction; kStatement
  /// classifies by first keyword. The request's TxnContext (or the
  /// connection's built-in one when the request carries none) is locked
  /// for the duration of the statement. kExplainExtraction is a
  /// Session-level request (it needs the plan cache and optimizer) and
  /// comes back kUnsupported here. Priority and timeout_ms are
  /// scheduling attributes — a direct Connection has no queue, so they
  /// are ignored on this path.
  Outcome Perform(Request req) override;

  /// Resolves queries through `cache` (the server's, shared by every
  /// connection it builds) instead of this connection's private one,
  /// which a bare Connection creates on its first query. Set before
  /// first use; the cache must outlive the connection.
  void set_plan_cache(core::PlanCache* cache) { plan_cache_ = cache; }

  /// When true, models asynchronous prefetching [19]: round-trip latency
  /// is overlapped with client computation, so only the first query
  /// after enabling pays it.
  void set_prefetch_mode(bool on) {
    prefetch_mode_ = on;
    prefetch_primed_ = false;
  }

  /// Charges client-side computation (interpreted statements executed
  /// by the application) onto the simulated clock.
  void ChargeClientOps(int64_t ops) override;

  /// Creates a temporary table and loads `rows` into it, charging
  /// batching's parameter-table overhead plus upload transfer. The
  /// table is built offline with the database's shard count, its rows
  /// visible to every snapshot, then kept in this connection's TxnContext
  /// (the session's, under a Session), replacing any temp table of that
  /// name there. It is not in the catalog: only the session's own
  /// queries resolve it, ahead of a catalog table of the same name;
  /// statistics, table names and the stats epoch never see it, and DML
  /// against it is kNotFound. Used by the batching baseline [11] and the
  /// interpreter's batching execution mode.
  Status CreateTempTable(const std::string& name, catalog::Schema schema,
                         std::vector<catalog::Row> rows) override;

  /// Drops a temporary table from the TxnContext (no charge;
  /// piggybacks on the next query).
  void DropTempTable(const std::string& name) override;

  /// Attaches the server's shard worker pool for the executor's
  /// partition-parallel scans/aggregations (see
  /// exec::Executor::set_worker_pool) and for CREATE INDEX's per-shard
  /// parallel backfill.
  void set_worker_pool(exec::WorkerPool* pool) {
    pool_ = pool;
    executor_.set_worker_pool(pool);
  }
  void set_parallel_threshold(size_t n) {
    executor_.set_parallel_threshold(n);
  }

  /// Attaches a per-request operator profile to this connection's
  /// executor (the trace sampler / slow-query logger set it around one
  /// request; EXPLAIN ANALYZE temporarily swaps in its own). nullptr
  /// detaches. Owner thread only.
  void set_profile(obs::Profile* profile) { executor_.set_profile(profile); }

  /// Attaches a metrics registry: net.* counters (queries, round trips,
  /// rows/bytes transferred, DML statements), the net.query_ns wall-time
  /// histogram, storage.lock_wait_ns via the per-query ReadGuard, and
  /// the executor's storage/exec metrics.
  void set_metrics(obs::MetricsRegistry* metrics);

  const ConnectionStats& stats() const { return stats_; }
  void ResetStats() {
    stats_ = ConnectionStats();
    PublishStats();
  }

  /// Race-free approximation of stats() for OTHER threads: the owner
  /// thread publishes a snapshot into an atomic mirror after every
  /// mutating operation, so a concurrent reader sees the state as of
  /// the last completed operation (never a torn mid-operation value).
  /// Used by Server::stats() to fold live (unclosed) sessions.
  ConnectionStats ApproxStats() const {
    ConnectionStats out;
    out.queries_executed =
        shared_stats_.queries_executed.load(std::memory_order_relaxed);
    out.round_trips =
        shared_stats_.round_trips.load(std::memory_order_relaxed);
    out.rows_transferred =
        shared_stats_.rows_transferred.load(std::memory_order_relaxed);
    out.bytes_transferred =
        shared_stats_.bytes_transferred.load(std::memory_order_relaxed);
    out.simulated_ms =
        shared_stats_.simulated_ms.load(std::memory_order_relaxed);
    return out;
  }

  /// Enables per-query tracing (off by default; tracing stores the SQL
  /// text of every query, so leave it off in benchmark loops).
  void set_trace(bool on) { trace_enabled_ = on; }
  const std::vector<QueryTrace>& trace() const { return trace_; }
  void ClearTrace() { trace_.clear(); }

  /// Clears the latched owner thread so a *quiesced* connection can be
  /// handed to another thread (e.g. created on a main thread, used on a
  /// worker). Calling this while another thread still uses the
  /// connection is a race, not a transfer.
  void ReleaseThreadOwnership() { owner_thread_ = std::thread::id(); }

  /// The thread id latched by the first stats-mutating call since
  /// construction / ReleaseThreadOwnership (default id if none yet).
  std::thread::id owner_thread() const { return owner_thread_; }

  storage::Database* db() { return db_; }
  const CostModel& cost_model() const { return model_; }

 private:
  /// The execution bodies behind Perform. Callers hold the statement
  /// lock of the TxnContext they pass. Cost accounting in here is
  /// deterministic and shard-count-invariant (the shard-invariance suite
  /// compares the simulated clock bit for bit across layouts).
  Result<exec::ResultSet> QueryPreparedImpl(
      const exec::PreparedQuery& query,
      const std::vector<catalog::Value>& params, TxnContext* txn_ctx);
  Result<exec::ResultSet> QuerySqlImpl(std::string_view sql,
                                       const std::vector<catalog::Value>& params,
                                       TxnContext* txn_ctx);
  /// The plan cache queries resolve through: the one set_plan_cache
  /// attached, else this connection's private one.
  core::PlanCache* plan_cache();
  /// Transactional DML. INSERT installs a pending version in the one
  /// shard the new row lands in. UPDATE/DELETE split the predicate as a
  /// Select(Scan) of the table does (exec::BindScanSplit): with a
  /// unique-key binding they probe that key's one slot
  /// (storage::Table::MutateKey, SELECT's KeyLookup contract, one row
  /// charged, a key read recorded); otherwise, or after an error before
  /// the keyed attempt wrote, they walk the snapshot-visible rows shard
  /// by shard (storage::Table::MutateRows, a table read recorded). Both
  /// install pending versions / tombstones. Outside an open transaction the
  /// statement autocommits; inside one, writes stay pending until
  /// COMMIT. A first-writer-wins conflict (kTxnConflict) rolls the whole
  /// transaction back; other statement errors (duplicate key, eval
  /// error) fail only the statement and leave the transaction open.
  /// Assignments evaluate against the OLD row; updating the unique-key
  /// column is rejected (it would invalidate key placement). DML
  /// expressions must be subquery-free: they are evaluated under the
  /// target shard's write mutex with no ReadGuard. Parse failures
  /// (including the subquery restriction) and missing tables come back
  /// as kParseError / kNotFound so callers (the interpreter's
  /// executeUpdate) can fall back to cost-only simulation.
  Result<int64_t> DmlImpl(std::string_view sql,
                          const std::vector<catalog::Value>& params,
                          TxnContext* txn_ctx);
  /// BEGIN/COMMIT/ROLLBACK bodies. COMMIT and ROLLBACK outside a
  /// transaction are no-ops (MySQL semantics); BEGIN inside an open
  /// transaction is an error. COMMIT surfaces kTxnConflict when
  /// serialization validation fails (the transaction is already rolled
  /// back by then).
  Outcome TxnControlImpl(Request::Kind kind, TxnContext* txn_ctx);
  void SimulateUpdateImpl(std::string_view sql);
  /// CREATE INDEX name ON table (col, ...): builds a secondary hash
  /// index through storage::Table::CreateIndex, fanning the per-shard
  /// backfill across the attached worker pool (serial without one).
  /// DDL autocommits — index visibility is not transactional (the
  /// index is a physical access path; MVCC visibility of the rows it
  /// returns still resolves against each reader's own snapshot).
  /// Returns 0 (affected rows) on success.
  Result<int64_t> CreateIndexImpl(std::string_view sql);
  /// EXPLAIN ANALYZE <query>: parses the inner statement, executes it
  /// through the regular query path with a fresh operator profile
  /// attached (swapping any sampler-attached profile back afterwards),
  /// annotates the profile with the cost estimator's per-node numbers
  /// against live table stats, and renders estimated-vs-actual text +
  /// JSON as a kExplain outcome. Cost charges are identical to running
  /// the inner statement directly.
  Outcome ExplainAnalyzeImpl(std::string_view sql,
                             const std::vector<catalog::Value>& params,
                             TxnContext* txn_ctx);

  /// The one charge. Prices `work` with the cost model onto the
  /// simulated clock and adds it to stats_ and to the net.* and
  /// exec.rows_processed counters. `result_rows` are the rows a query
  /// ships back; `dml` also counts the statements as
  /// net.dml_statements.
  void Charge(const Work& work, int64_t result_rows, bool dml);
  /// Charges one round-trip statement of `request_bytes` with
  /// `server_rows` of server-side work (DML, txn control, DDL).
  void ChargeStatement(size_t request_bytes, size_t server_rows);

  /// Latches the calling thread as owner on first use; asserts (debug
  /// builds) that every later stats-mutating call is from that thread.
  void DebugCheckThreadOwner() {
    if (owner_thread_ == std::thread::id()) {
      owner_thread_ = std::this_thread::get_id();
      return;
    }
    EQSQL_DCHECK(owner_thread_ == std::this_thread::get_id(),
                 "net::Connection used from two threads without "
                 "ReleaseThreadOwnership()");
  }

  /// Copies stats_ into the atomic mirror (owner thread only; readers
  /// use ApproxStats). Field-wise relaxed stores: a concurrent reader
  /// may see one operation's fields partially applied across fields,
  /// but every individual field is a complete post-operation value.
  void PublishStats() {
    shared_stats_.queries_executed.store(stats_.queries_executed,
                                         std::memory_order_relaxed);
    shared_stats_.round_trips.store(stats_.round_trips,
                                    std::memory_order_relaxed);
    shared_stats_.rows_transferred.store(stats_.rows_transferred,
                                         std::memory_order_relaxed);
    shared_stats_.bytes_transferred.store(stats_.bytes_transferred,
                                          std::memory_order_relaxed);
    shared_stats_.simulated_ms.store(stats_.simulated_ms,
                                     std::memory_order_relaxed);
  }

  struct SharedStats {
    std::atomic<int64_t> queries_executed{0};
    std::atomic<int64_t> round_trips{0};
    std::atomic<int64_t> rows_transferred{0};
    std::atomic<int64_t> bytes_transferred{0};
    std::atomic<double> simulated_ms{0.0};
  };

  storage::Database* db_;
  CostModel model_;
  exec::Executor executor_;
  /// The attached plan cache, or the private one once created.
  core::PlanCache* plan_cache_ = nullptr;
  std::unique_ptr<core::PlanCache> own_plan_cache_;
  /// The server's shard worker pool (null on bare connections):
  /// CreateIndexImpl fans the per-shard index backfill across it.
  exec::WorkerPool* pool_ = nullptr;
  /// The built-in session transaction context (replaceable via
  /// set_txn_context; requests may carry their own).
  std::shared_ptr<TxnContext> own_txn_ = std::make_shared<TxnContext>();
  ConnectionStats stats_;
  SharedStats shared_stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_queries_ = nullptr;
  obs::Counter* m_round_trips_ = nullptr;
  obs::Counter* m_rows_transferred_ = nullptr;
  obs::Counter* m_bytes_transferred_ = nullptr;
  obs::Counter* m_dml_statements_ = nullptr;
  obs::Counter* m_dml_key_probes_ = nullptr;
  obs::Counter* m_dml_scans_ = nullptr;
  obs::Counter* m_rows_processed_ = nullptr;
  obs::Histogram* m_query_ns_ = nullptr;
  bool prefetch_mode_ = false;
  bool prefetch_primed_ = false;
  bool trace_enabled_ = false;
  std::string pending_sql_;  // set by ExecuteSql for the trace entry
  std::vector<QueryTrace> trace_;
  std::thread::id owner_thread_;  // default id = not yet latched
};

}  // namespace eqsql::net

#endif  // EQSQL_NET_CONNECTION_H_
