#ifndef EQSQL_NET_API_H_
#define EQSQL_NET_API_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/result.h"
#include "common/status.h"
#include "exec/executor.h"
#include "storage/shard_guard.h"
#include "storage/txn.h"

namespace eqsql::net {

/// Per-logical-session state, shared (by shared_ptr) between the
/// session handle and whichever scheduler worker executes each of its
/// statements. `mu` serializes the session's statements — a session's
/// statements are totally ordered even when consecutive ones land on
/// different workers. `txn` is the open transaction (null in
/// autocommit). `temp_tables` are the session's uploaded parameter
/// tables (Connection::CreateTempTable): its queries resolve a name
/// there before the catalog, and no other session sees them. Only the
/// holder of `mu` may read or write either.
struct TxnContext {
  std::mutex mu;
  std::shared_ptr<storage::Transaction> txn;
  storage::SessionTables temp_tables;
};

/// Scheduling class for a request. Within one class dispatch is FIFO;
/// across classes the scheduler always drains the higher class first
/// (which can starve kBatch under sustained kHigh load — acceptable for
/// a serving system where batch work is explicitly best-effort).
enum class Priority {
  kHigh = 0,    // latency-sensitive interactive traffic
  kNormal = 1,  // default
  kBatch = 2,   // bulk / background work
};

/// A single unit of work submitted to the server.
///
/// This is the one public request shape: queries, DML, cost-only
/// simulated DML, and EXPLAIN EXTRACTION reports all travel through it.
/// Use the factory helpers rather than aggregate-initializing — they
/// keep call sites readable and defaults in one place.
struct Request {
  enum class Kind {
    /// Classify from the SQL text: INSERT/UPDATE/DELETE execute as DML,
    /// BEGIN/COMMIT/ROLLBACK as transaction control, everything else as
    /// a query. The convenience default.
    kStatement,
    /// Force the query path (DML text yields kParseError).
    kQuery,
    /// Force the DML path (query text yields kParseError).
    kDml,
    /// Charge DML cost onto the simulated clock without touching data
    /// (the interpreter's fallback for statements ParseDml rejects).
    kSimulateDml,
    /// Produce an EXPLAIN EXTRACTION report for an ImpLang function:
    /// `sql` holds the program source, `function` the entry point.
    kExplainExtraction,
    /// Transaction control: open / commit / abort the session
    /// transaction carried by `txn` (see TxnContext).
    kBegin,
    kCommit,
    kRollback,
    /// DDL: CREATE INDEX name ON table (col, ...). Builds a secondary
    /// hash index (parallel per-shard backfill through the server's
    /// worker pool) and reports 0 affected rows.
    kCreateIndex,
    /// EXPLAIN ANALYZE <query>: execute the query with an operator
    /// profile attached and return the rendered tree (estimated vs
    /// actual rows/cost per operator) as a kExplain outcome.
    kExplainAnalyze,
  };

  Kind kind = Kind::kStatement;
  std::string sql;  // SQL text, or ImpLang source for kExplainExtraction
  std::vector<catalog::Value> params;
  std::string function;  // entry function for kExplainExtraction
  Priority priority = Priority::kNormal;
  /// The session transaction context this request executes under.
  /// net::Session stamps its own context at Submit; a null context on a
  /// direct Connection uses the connection's built-in (single-session)
  /// context.
  std::shared_ptr<TxnContext> txn;
  /// Deadline budget in milliseconds of *wall* time from submission;
  /// 0 = no deadline. A request whose deadline passes while it is still
  /// queued fails with kDeadlineExceeded before touching any data; a
  /// request already dispatched runs to completion.
  int64_t timeout_ms = 0;

  static Request Statement(std::string sql,
                           std::vector<catalog::Value> params = {}) {
    Request r;
    r.kind = Kind::kStatement;
    r.sql = std::move(sql);
    r.params = std::move(params);
    return r;
  }
  static Request Query(std::string sql,
                       std::vector<catalog::Value> params = {}) {
    Request r = Statement(std::move(sql), std::move(params));
    r.kind = Kind::kQuery;
    return r;
  }
  static Request Dml(std::string sql,
                     std::vector<catalog::Value> params = {}) {
    Request r = Statement(std::move(sql), std::move(params));
    r.kind = Kind::kDml;
    return r;
  }
  static Request SimulatedDml(std::string sql) {
    Request r;
    r.kind = Kind::kSimulateDml;
    r.sql = std::move(sql);
    return r;
  }
  static Request ExplainExtraction(std::string program_source,
                                   std::string function) {
    Request r;
    r.kind = Kind::kExplainExtraction;
    r.sql = std::move(program_source);
    r.function = std::move(function);
    return r;
  }
  static Request Begin() {
    Request r;
    r.kind = Kind::kBegin;
    r.sql = "BEGIN";
    return r;
  }
  static Request Commit() {
    Request r;
    r.kind = Kind::kCommit;
    r.sql = "COMMIT";
    return r;
  }
  static Request Rollback() {
    Request r;
    r.kind = Kind::kRollback;
    r.sql = "ROLLBACK";
    return r;
  }
  static Request CreateIndex(std::string sql) {
    Request r;
    r.kind = Kind::kCreateIndex;
    r.sql = std::move(sql);
    return r;
  }
  /// `sql` is the full statement including the EXPLAIN ANALYZE prefix
  /// (the executor strips it), so classified kStatement text and this
  /// factory produce identical requests.
  static Request ExplainAnalyze(std::string sql,
                                std::vector<catalog::Value> params = {}) {
    Request r;
    r.kind = Kind::kExplainAnalyze;
    r.sql = std::move(sql);
    r.params = std::move(params);
    return r;
  }

  Request WithPriority(Priority p) && {
    priority = p;
    return std::move(*this);
  }
  Request WithTxn(std::shared_ptr<TxnContext> ctx) && {
    txn = std::move(ctx);
    return std::move(*this);
  }
  Request WithTimeoutMs(int64_t ms) && {
    timeout_ms = ms;
    return std::move(*this);
  }
};

/// The one payload shape for every explain-style report the server
/// renders: EXPLAIN EXTRACTION (with its ranked alternatives), EXPLAIN
/// ANALYZE operator profiles, and SHOW-style introspection over the
/// trace ring. All three surfaces carry the same pair of renderings —
/// human text and machine JSON — produced by the shared renderers in
/// src/obs, with `kind` tagging which surface produced it.
struct Explain {
  enum class Kind {
    kExtraction,     // EXPLAIN EXTRACTION: rewrite + priced alternatives
    kAnalyze,        // EXPLAIN ANALYZE: executed operator profile
    kIntrospection,  // SHOW PROFILES / SHOW TRACES
  };

  Kind kind = Kind::kExtraction;
  std::string text;  // human rendering
  std::string json;  // machine rendering (one JSON object/array)
};

/// The one result type for every request: a tagged union of the four
/// things the server can hand back. `status` is kOk exactly when
/// `kind != kError`; the scheduler's error-code taxonomy (kParseError,
/// kOverloaded, kDeadlineExceeded, kShuttingDown, ...) lives in the
/// StatusCode enum — see common/status.h.
struct Outcome {
  enum class Kind {
    kResultSet,  // a query's rows
    kRowCount,   // a DML statement's affected-row count
    kExplain,    // a tagged explain payload (text + JSON)
    kError,
  };

  Kind kind = Kind::kError;
  Status status = Status::Internal("outcome not delivered");
  exec::ResultSet rows;     // kResultSet
  int64_t row_count = 0;    // kRowCount
  Explain explain;          // kExplain

  bool ok() const { return kind != Kind::kError; }

  static Outcome FromResultSet(exec::ResultSet rs) {
    Outcome o;
    o.kind = Kind::kResultSet;
    o.status = Status::OK();
    o.rows = std::move(rs);
    return o;
  }
  static Outcome FromRowCount(int64_t n) {
    Outcome o;
    o.kind = Kind::kRowCount;
    o.status = Status::OK();
    o.row_count = n;
    return o;
  }
  static Outcome FromExplain(Explain payload) {
    Outcome o;
    o.kind = Kind::kExplain;
    o.status = Status::OK();
    o.explain = std::move(payload);
    return o;
  }
  static Outcome FromError(Status s) {
    Outcome o;
    o.kind = Kind::kError;
    o.status = std::move(s);
    return o;
  }

  /// Narrowing accessors for callers that expect one specific shape;
  /// a mismatched kind comes back as kInvalidArgument.
  Result<exec::ResultSet> TakeResultSet() &&;
  Result<int64_t> TakeRowCount() &&;
  Result<Explain> TakeExplain() &&;
};

/// The minimal surface the interpreter (and any other embedded client
/// code) needs from "a database client": perform one request, charge
/// client-side compute onto the simulated clock. Both net::Connection
/// (direct, blocking, caller-thread execution) and net::Session
/// (scheduler-backed: Perform == blocking Execute over Submit)
/// implement it, so the same interpreted program can be driven down
/// either path — which is exactly what the fuzzer's async mode
/// differentially tests.
class Client {
 public:
  virtual ~Client() = default;
  virtual Outcome Perform(Request req) = 0;
  virtual void ChargeClientOps(int64_t ops) = 0;

  /// Parameter-table upload for the batching execution strategy: build
  /// the table and keep it in the session, visible only to the
  /// session's own queries, charging the upload onto the simulated
  /// clock. The base implementation declines, which
  /// makes the interpreter's batching mode fall back to plain per-row
  /// iteration on clients that cannot host temp tables.
  virtual Status CreateTempTable(const std::string& /*name*/,
                                 catalog::Schema /*schema*/,
                                 std::vector<catalog::Row> /*rows*/) {
    return Status::Unsupported("client does not support temp tables");
  }
  virtual void DropTempTable(const std::string& /*name*/) {}
};

/// True when the first keyword of `sql` is INSERT/UPDATE/DELETE
/// (case-insensitive) — the classifier behind Request::Kind::kStatement.
bool IsDmlStatement(std::string_view sql);

/// True when the first keyword is BEGIN/COMMIT/ROLLBACK
/// (case-insensitive; START TRANSACTION also counts as BEGIN).
bool IsTxnControlStatement(std::string_view sql);

/// Resolves Kind::kStatement from the SQL text: txn control first, then
/// DML, else query. Non-kStatement kinds pass through unchanged. Both
/// Connection::Perform and Scheduler::ExecuteRequest classify with this
/// one function so the two paths can never disagree.
Request::Kind ClassifyStatement(Request::Kind kind, std::string_view sql);

/// True when `sql` is the SHOW METRICS introspection statement
/// (case-insensitive, optional trailing semicolon).
bool IsShowMetricsStatement(std::string_view sql);

/// True when `sql` is SHOW PROFILES / SHOW TRACES — introspection over
/// the server's sampled-trace ring buffer (same spelling rules as SHOW
/// METRICS).
bool IsShowProfilesStatement(std::string_view sql);
bool IsShowTracesStatement(std::string_view sql);

/// Strips a leading EXPLAIN ANALYZE prefix, returning the statement to
/// execute; `sql` comes back unchanged when the prefix is absent.
std::string_view ExplainAnalyzeTarget(std::string_view sql);

}  // namespace eqsql::net

#endif  // EQSQL_NET_API_H_
