#include "net/connection.h"

#include <chrono>
#include <functional>
#include <utility>

#include "common/strings.h"
#include "core/cost_estimator.h"
#include "exec/scalar_ops.h"
#include "net/table_stats.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "sql/dml.h"
#include "storage/shard_guard.h"

namespace eqsql::net {

namespace {

bool ContainsSubquery(const ra::ScalarExprPtr& expr) {
  if (expr == nullptr) return false;
  if (expr->op() == ra::ScalarOp::kExists ||
      expr->op() == ra::ScalarOp::kNotExists) {
    return true;
  }
  for (const ra::ScalarExprPtr& c : expr->children()) {
    if (ContainsSubquery(c)) return true;
  }
  return false;
}

/// DML expressions must be subquery-free: DmlImpl evaluates them under
/// the target shard's write mutex with no ReadGuard, so an EXISTS
/// subquery would scan other tables with no pinned snapshot (racing
/// their writers) and could even fan its scan onto the worker pool from
/// inside the write section. Statements that need one take the
/// kParseError fall-back to cost-only simulation, like every other
/// unsupported statement shape.
bool DmlContainsSubquery(const sql::DmlStatement& stmt) {
  if (ContainsSubquery(stmt.predicate)) return true;
  for (const ra::ScalarExprPtr& e : stmt.insert_values) {
    if (ContainsSubquery(e)) return true;
  }
  for (const auto& [col, expr] : stmt.assignments) {
    if (ContainsSubquery(expr)) return true;
  }
  return false;
}

}  // namespace

void Connection::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  executor_.set_metrics(metrics);
  if (metrics == nullptr) {
    m_queries_ = nullptr;
    m_round_trips_ = nullptr;
    m_rows_transferred_ = nullptr;
    m_bytes_transferred_ = nullptr;
    m_dml_statements_ = nullptr;
    m_dml_key_probes_ = nullptr;
    m_dml_scans_ = nullptr;
    m_rows_processed_ = nullptr;
    m_query_ns_ = nullptr;
    return;
  }
  m_queries_ = metrics->counter("net.queries");
  m_round_trips_ = metrics->counter("net.round_trips");
  m_rows_transferred_ = metrics->counter("net.rows_transferred");
  m_bytes_transferred_ = metrics->counter("net.bytes_transferred");
  m_dml_statements_ = metrics->counter("net.dml_statements");
  m_dml_key_probes_ = metrics->counter("storage.dml.key_probes");
  m_dml_scans_ = metrics->counter("storage.dml.scans");
  m_rows_processed_ = metrics->counter("exec.rows_processed");
  m_query_ns_ = metrics->histogram("net.query_ns");
}

Connection::~Connection() {
  // A dropped connection must not leak a snapshot pin: an open
  // transaction would hold the GC watermark back forever.
  std::lock_guard<std::mutex> session(own_txn_->mu);
  if (own_txn_->txn != nullptr) {
    if (own_txn_->txn->active()) {
      db_->txn_manager()->Rollback(own_txn_->txn.get());
    }
    own_txn_->txn.reset();
  }
}

Outcome Connection::Perform(Request req) {
  using Kind = Request::Kind;
  Kind kind = ClassifyStatement(req.kind, req.sql);
  TxnContext* ctx = req.txn != nullptr ? req.txn.get() : own_txn_.get();
  // One session, one statement at a time: consecutive statements of the
  // same logical session may arrive on different scheduler workers.
  std::lock_guard<std::mutex> session(ctx->mu);
  switch (kind) {
    case Kind::kQuery: {
      Result<exec::ResultSet> rs = QuerySqlImpl(req.sql, req.params, ctx);
      if (!rs.ok()) return Outcome::FromError(rs.status());
      return Outcome::FromResultSet(std::move(*rs));
    }
    case Kind::kDml: {
      Result<int64_t> n = DmlImpl(req.sql, req.params, ctx);
      if (!n.ok()) return Outcome::FromError(n.status());
      return Outcome::FromRowCount(*n);
    }
    case Kind::kSimulateDml:
      SimulateUpdateImpl(req.sql);
      return Outcome::FromRowCount(0);
    case Kind::kBegin:
    case Kind::kCommit:
    case Kind::kRollback:
      return TxnControlImpl(kind, ctx);
    case Kind::kCreateIndex: {
      Result<int64_t> n = CreateIndexImpl(req.sql);
      if (!n.ok()) return Outcome::FromError(n.status());
      return Outcome::FromRowCount(*n);
    }
    case Kind::kExplainAnalyze:
      return ExplainAnalyzeImpl(req.sql, req.params, ctx);
    case Kind::kExplainExtraction:
      return Outcome::FromError(Status::Unsupported(
          "EXPLAIN EXTRACTION needs a Session (plan cache + optimizer); "
          "a raw Connection cannot serve it"));
    case Kind::kStatement:
      break;  // classified above; unreachable
  }
  return Outcome::FromError(Status::Internal("unhandled request kind"));
}

core::PlanCache* Connection::plan_cache() {
  if (plan_cache_ == nullptr) {
    own_plan_cache_ = std::make_unique<core::PlanCache>();
    plan_cache_ = own_plan_cache_.get();
  }
  return plan_cache_;
}

Result<exec::ResultSet> Connection::QueryPreparedImpl(
    const exec::PreparedQuery& query,
    const std::vector<catalog::Value>& params, TxnContext* txn_ctx) {
  DebugCheckThreadOwner();
  obs::ScopedSpan span("execute");
  const auto wall0 = std::chrono::steady_clock::now();
  storage::Transaction* txn =
      (txn_ctx->txn != nullptr && txn_ctx->txn->active())
          ? txn_ctx->txn.get()
          : nullptr;
  size_t request_bytes = 0;
  Result<exec::ResultSet> executed = [&] {
    // Readers scale: pin exactly the tables this plan scans, one guard
    // slot per distinct table name, plus an MVCC snapshot — no shard
    // lock is taken, so writers anywhere proceed. A name resolves in the
    // session's temp tables first, then in the catalog. Inside an open
    // transaction, read at the transaction's snapshot (its own pending
    // writes are visible to it) and record the scanned catalog tables
    // for commit-time serialization validation; no other session can
    // write a temp table, so those are not recorded.
    const std::vector<std::string>& tables = query.tables();
    const storage::SessionTables* temps = &txn_ctx->temp_tables;
    storage::ReadGuard guard =
        txn != nullptr
            ? storage::ReadGuard::AcquireAt(*db_, tables, txn->snapshot(),
                                            temps)
            : storage::ReadGuard::Acquire(*db_, tables, metrics_, temps);
    if (txn != nullptr) {
      for (const std::string& t : tables) {
        if (temps->count(AsciiToLower(t)) == 0) {
          txn->RecordAccess(db_->SnapshotTable(t));
        }
      }
    }
    // The line's bound plan, bound now if this is its first execution
    // or a pinned table's shape changed since it was bound.
    std::shared_ptr<const exec::BoundPlan> bound = query.BoundFor(guard);
    request_bytes = bound->request_bytes();
    executor_.set_read_guard(&guard);
    Result<exec::ResultSet> rs = executor_.Execute(*bound, params);
    executor_.set_read_guard(nullptr);
    return rs;
  }();
  EQSQL_ASSIGN_OR_RETURN(exec::ResultSet rs, std::move(executed));

  // Request bytes: plan text stands in for the SQL string (its length
  // is fixed at bind time), plus bound parameter payload.
  for (const catalog::Value& p : params) request_bytes += p.WireSize();
  size_t result_bytes = rs.WireSize();

  if (trace_enabled_) {
    QueryTrace t;
    t.sql = pending_sql_.empty() ? query.plan()->ToString() : pending_sql_;
    t.rows = static_cast<int64_t>(rs.rows.size());
    t.bytes = static_cast<int64_t>(request_bytes + result_bytes);
    trace_.push_back(std::move(t));
  }
  pending_sql_.clear();

  // In primed prefetch mode the round trip overlaps client work and is
  // waived.
  const bool pay_latency = !(prefetch_mode_ && prefetch_primed_);
  prefetch_primed_ = prefetch_mode_;
  Charge({.round_trips = pay_latency ? 1.0 : 0.0,
          .statements = 1,
          .bytes = static_cast<double>(request_bytes + result_bytes),
          .server_rows =
              static_cast<double>(executor_.last_rows_processed())},
         static_cast<int64_t>(rs.rows.size()), /*dml=*/false);
  if (m_query_ns_ != nullptr) {
    m_query_ns_->Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - wall0)
                            .count());
  }
  if (span.active()) {
    span.Attr("rows", std::to_string(rs.rows.size()));
  }
  return rs;
}

Result<exec::ResultSet> Connection::QuerySqlImpl(
    std::string_view sql, const std::vector<catalog::Value>& params,
    TxnContext* txn_ctx) {
  std::shared_ptr<const exec::PreparedQuery> query;
  {
    obs::ScopedSpan span("parse");
    EQSQL_ASSIGN_OR_RETURN(query, plan_cache()->GetOrPrepareSql(sql));
  }
  if (trace_enabled_) pending_sql_ = std::string(sql);
  return QueryPreparedImpl(*query, params, txn_ctx);
}

Outcome Connection::ExplainAnalyzeImpl(
    std::string_view sql, const std::vector<catalog::Value>& params,
    TxnContext* txn_ctx) {
  const std::string_view inner = ExplainAnalyzeTarget(sql);
  std::shared_ptr<const exec::PreparedQuery> query;
  {
    obs::ScopedSpan span("parse");
    Result<std::shared_ptr<const exec::PreparedQuery>> prepared =
        plan_cache()->GetOrPrepareSql(inner);
    if (!prepared.ok()) return Outcome::FromError(prepared.status());
    query = std::move(*prepared);
  }
  // Swap in a fresh profile for this statement; the sampler's (if any)
  // comes back afterwards so its request-level record stays intact.
  obs::Profile profile;
  obs::Profile* sampler = executor_.profile();
  executor_.set_profile(&profile);
  Result<exec::ResultSet> rs = QueryPreparedImpl(*query, params, txn_ctx);
  executor_.set_profile(sampler);
  if (!rs.ok()) return Outcome::FromError(rs.status());

  // Annotate the executed operators with the estimator's numbers for
  // the same plan nodes: estimated output rows, and the server-side
  // cost of the subtree's processed rows priced by this connection's
  // cost model.
  const core::CostEstimator estimator(GatherTableStats(db_), model_);
  const std::function<void(obs::ProfileNode*)> annotate =
      [&](obs::ProfileNode* n) {
        if (n->plan_node != nullptr) {
          const auto* ra_node = static_cast<const ra::RaNode*>(n->plan_node);
          core::CostEstimator::NodeEstimate est =
              estimator.EstimateNode(*ra_node);
          n->est_rows = est.rows;
          n->est_cost_ms = model_.Ms({.server_rows = est.processed});
        }
        for (auto& child : n->children) annotate(child.get());
      };
  if (profile.root() != nullptr) annotate(profile.root());

  const std::string mode(exec::ExecModeName(exec_mode()));
  const int64_t rows = static_cast<int64_t>(rs->rows.size());
  Explain payload;
  payload.kind = Explain::Kind::kAnalyze;
  payload.text = obs::RenderAnalyzeText(profile, mode, rows);
  payload.json = obs::RenderAnalyzeJson(profile, mode, rows);
  return Outcome::FromExplain(std::move(payload));
}

void Connection::SimulateUpdateImpl(std::string_view sql) {
  DebugCheckThreadOwner();
  ChargeStatement(sql.size(), /*server_rows=*/0);
}

Result<int64_t> Connection::DmlImpl(
    std::string_view sql, const std::vector<catalog::Value>& params,
    TxnContext* txn_ctx) {
  DebugCheckThreadOwner();
  EQSQL_ASSIGN_OR_RETURN(sql::DmlStatement stmt, sql::ParseDml(sql));
  if (stmt.kind == sql::DmlStatement::Kind::kCreateIndex) {
    // A forced Kind::kDml carrying CREATE INDEX text still lands on
    // the DDL path (the kStatement classifier routes there directly).
    return CreateIndexImpl(sql);
  }
  if (DmlContainsSubquery(stmt)) {
    return Status::ParseError(
        "subqueries in DML expressions are not supported: " +
        std::string(sql));
  }
  std::shared_ptr<storage::Table> table = db_->SnapshotTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table not found: " + stmt.table);
  }

  storage::TxnManager* mgr = db_->txn_manager();
  const bool autocommit =
      txn_ctx->txn == nullptr || !txn_ctx->txn->active();
  std::shared_ptr<storage::Transaction> txn =
      autocommit ? mgr->Begin() : txn_ctx->txn;

  int64_t affected = 0;
  size_t examined = 0;
  exec::EvalContext ctx(&params);
  Status status = Status::OK();

  // Expressions bind once per statement: INSERT values over no row,
  // UPDATE/DELETE predicates and assignments over the target row.
  const catalog::Schema& schema = table->schema();
  const exec::BindScope row_scope{&schema};
  if (stmt.kind == sql::DmlStatement::Kind::kInsert) {
    if (stmt.insert_values.size() != schema.size()) {
      // Arity is schema-only: deterministic, observes no table state.
      status = Status::InvalidArgument(
          "INSERT arity does not match schema of table " + stmt.table);
    } else {
      catalog::Row row;
      row.reserve(stmt.insert_values.size());
      for (const ra::ScalarExprPtr& e : stmt.insert_values) {
        Result<catalog::Value> v =
            executor_.Eval(exec::BindScalar(e, /*scope=*/{}), &ctx);
        if (!v.ok()) {
          status = v.status();
          break;
        }
        row.push_back(std::move(*v));
      }
      if (status.ok()) {
        // A duplicate-key outcome observed the key slot's state at this
        // snapshot; InsertTxn records that key read, so a concurrent
        // DELETE of the key fails this transaction's validation.
        status = table->InsertTxn(txn.get(), std::move(row));
        examined = 1;
        if (status.ok()) affected = 1;
      }
    }
  } else {
    std::vector<size_t> targets;
    if (stmt.kind == sql::DmlStatement::Kind::kUpdate) {
      if (table->unique_key().has_value()) {
        const std::string key = AsciiToLower(*table->unique_key());
        for (const auto& [col, expr] : stmt.assignments) {
          if (AsciiToLower(col) == key) {
            status = Status::InvalidArgument(
                "updating unique key column " + col + " of table " +
                stmt.table + " is not supported");
          }
        }
      }
      targets.reserve(stmt.assignments.size());
      for (const auto& [col, expr] : stmt.assignments) {
        if (!status.ok()) break;
        Result<size_t> idx = table->schema().ResolveColumn(col);
        if (!idx.ok()) {
          status = idx.status();
          break;
        }
        targets.push_back(*idx);
      }
    }
    if (status.ok()) {
      std::vector<exec::BoundExpr> assignments;
      assignments.reserve(stmt.assignments.size());
      for (const auto& [col, expr] : stmt.assignments) {
        assignments.push_back(exec::BindScalar(expr, row_scope));
      }
      storage::Table::RowMutation mutate;  // null: DELETE
      if (stmt.kind == sql::DmlStatement::Kind::kUpdate) {
        mutate = [&](const catalog::Row& row) -> Result<catalog::Row> {
          // All assignments see the OLD row: `SET a = b, b = a` swaps.
          ctx.PushFrame(&row);
          std::vector<catalog::Value> fresh;
          fresh.reserve(targets.size());
          Status eval = Status::OK();
          for (const exec::BoundExpr& expr : assignments) {
            Result<catalog::Value> v = executor_.Eval(expr, &ctx);
            if (!v.ok()) {
              eval = v.status();
              break;
            }
            fresh.push_back(std::move(*v));
          }
          ctx.PopFrame();
          EQSQL_RETURN_IF_ERROR(eval);
          catalog::Row updated = row;
          for (size_t i = 0; i < targets.size(); ++i) {
            updated[targets[i]] = std::move(fresh[i]);
          }
          return updated;
        };
      }
      // One access-path decision for reads and writes: the binder's
      // split of the predicate, as a Select(Scan) of the table gets it.
      // With a unique-key binding the statement takes SELECT's KeyLookup
      // contract -- the probe first, a NULL probe matching nothing, the
      // residual checked on the hit in predicate order -- and visits
      // only the key's slot, reading (for validation) only that key.
      const exec::BoundScanSplit split =
          exec::BindScanSplit(stmt.predicate, *table);
      Result<size_t> written = Status::NotFound("no unique-key binding");
      if (split.key_binding >= 0) {
        written = [&]() -> Result<size_t> {
          EQSQL_ASSIGN_OR_RETURN(catalog::Value probe,
                                 executor_.KeyProbe(split, &ctx));
          if (probe.is_null()) return size_t{0};
          return table->MutateKey(
              txn.get(), split.key_column, probe,
              [&](const catalog::Row& hit) {
                return executor_.KeyResidualHolds(split, hit, &ctx);
              },
              mutate);
        }();
      }
      // A write-write conflict is final. Any other failure comes before
      // the keyed attempt wrote, so the statement goes to the scan, as
      // SELECT falls back from a failed KeyLookup; the scan reproduces
      // the error the statement had before keyed writes existed.
      const bool keyed = written.ok() ||
                         written.status().code() == StatusCode::kTxnConflict;
      if (keyed) {
        examined = 1;  // one probe, as SELECT's KeyLookup charges
        if (m_dml_key_probes_ != nullptr) m_dml_key_probes_->Increment();
      } else {
        // The snapshot-visible match set is a read of the whole table,
        // even when it is empty or the statement later fails.
        txn->RecordAccess(table);
        std::optional<exec::BoundExpr> predicate;
        if (stmt.predicate != nullptr) {
          predicate = exec::BindScalar(stmt.predicate, row_scope);
        }
        auto pred = [&](const catalog::Row& row) -> Result<bool> {
          ++examined;
          if (!predicate.has_value()) return true;
          ctx.PushFrame(&row);
          Result<catalog::Value> v = executor_.Eval(*predicate, &ctx);
          ctx.PopFrame();
          if (!v.ok()) return v.status();
          return exec::IsTruthy(*v);
        };
        written = table->MutateRows(txn.get(), pred, mutate);
        if (m_dml_scans_ != nullptr) m_dml_scans_->Increment();
      }
      if (written.ok()) {
        affected = static_cast<int64_t>(*written);
      } else {
        status = written.status();
      }
    }
  }

  // Transaction resolution. A first-writer-wins conflict aborts the
  // whole transaction (the statement's caller sees kTxnConflict and the
  // session drops back to autocommit); any other statement error leaves
  // an open transaction open. In autocommit the single-statement
  // transaction commits — including the partial writes of a
  // mid-statement evaluation error, matching the statement-level
  // semantics of the paper's MyISAM evaluation server.
  if (status.code() == StatusCode::kTxnConflict) {
    mgr->Rollback(txn.get());
    if (!autocommit) txn_ctx->txn.reset();
  } else if (autocommit) {
    Status commit = db_->Commit(txn.get());
    if (status.ok()) status = commit;
  }
  EQSQL_RETURN_IF_ERROR(status);

  size_t request_bytes = sql.size();
  for (const catalog::Value& p : params) request_bytes += p.WireSize();
  ChargeStatement(request_bytes, examined);
  return affected;
}

Outcome Connection::TxnControlImpl(Request::Kind kind, TxnContext* txn_ctx) {
  DebugCheckThreadOwner();
  storage::TxnManager* mgr = db_->txn_manager();
  const bool open = txn_ctx->txn != nullptr && txn_ctx->txn->active();
  Status status = Status::OK();
  switch (kind) {
    case Request::Kind::kBegin:
      if (open) {
        status = Status::InvalidArgument(
            "a transaction is already open on this session");
      } else {
        txn_ctx->txn = mgr->Begin();
      }
      break;
    case Request::Kind::kCommit:
      // COMMIT/ROLLBACK with no open transaction are no-ops, as in
      // MySQL. A failed COMMIT (kTxnConflict) has already rolled the
      // transaction back inside the manager.
      if (open) {
        status = db_->Commit(txn_ctx->txn.get());
        txn_ctx->txn.reset();
      }
      break;
    case Request::Kind::kRollback:
      if (open) {
        mgr->Rollback(txn_ctx->txn.get());
        txn_ctx->txn.reset();
      }
      break;
    default:
      return Outcome::FromError(
          Status::Internal("not a transaction-control request kind"));
  }
  // One round trip carrying just the keyword, no server-side row work.
  ChargeStatement(/*request_bytes=*/8, /*server_rows=*/0);
  if (!status.ok()) return Outcome::FromError(std::move(status));
  return Outcome::FromRowCount(0);
}

Result<int64_t> Connection::CreateIndexImpl(std::string_view sql) {
  DebugCheckThreadOwner();
  EQSQL_ASSIGN_OR_RETURN(sql::DmlStatement stmt, sql::ParseDml(sql));
  if (stmt.kind != sql::DmlStatement::Kind::kCreateIndex) {
    return Status::ParseError("expected a CREATE INDEX statement: " +
                              std::string(sql));
  }
  std::shared_ptr<storage::Table> table = db_->SnapshotTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table not found: " + stmt.table);
  }
  storage::Table::IndexTaskRunner runner;
  if (pool_ != nullptr) {
    runner = [pool = pool_](std::vector<std::function<void()>> tasks) {
      pool->Run(std::move(tasks));
    };
  }
  EQSQL_RETURN_IF_ERROR(
      table->CreateIndex(stmt.index_name, stmt.index_columns, runner));
  // One statement round trip carrying the DDL text; the build itself is
  // server-side physical work outside the simulated cost model (like
  // MySQL, DDL time is not part of any measured query's latency).
  ChargeStatement(sql.size(), /*server_rows=*/0);
  return 0;
}

void Connection::Charge(const Work& work, int64_t result_rows, bool dml) {
  const auto statements = static_cast<int64_t>(work.statements);
  const auto round_trips = static_cast<int64_t>(work.round_trips);
  const auto bytes = static_cast<int64_t>(work.bytes);
  const auto server_rows = static_cast<int64_t>(work.server_rows);
  stats_.queries_executed += statements;
  stats_.round_trips += round_trips;
  stats_.rows_transferred += result_rows;
  stats_.bytes_transferred += bytes;
  stats_.simulated_ms += model_.Ms(work);
  PublishStats();
  // Client ops charge on every interpreted statement: skip the counters
  // they leave at zero.
  if (m_queries_ == nullptr) return;
  if (statements != 0) m_queries_->Add(statements);
  if (statements != 0 && dml) m_dml_statements_->Add(statements);
  if (round_trips != 0) m_round_trips_->Add(round_trips);
  if (result_rows != 0) m_rows_transferred_->Add(result_rows);
  if (bytes != 0) m_bytes_transferred_->Add(bytes);
  if (server_rows != 0) m_rows_processed_->Add(server_rows);
}

void Connection::ChargeStatement(size_t request_bytes, size_t server_rows) {
  Charge({.round_trips = 1,
          .statements = 1,
          .bytes = static_cast<double>(request_bytes),
          .server_rows = static_cast<double>(server_rows)},
         /*result_rows=*/0, /*dml=*/true);
}

void Connection::ChargeClientOps(int64_t ops) {
  DebugCheckThreadOwner();
  Charge({.client_statements = static_cast<double>(ops)}, /*result_rows=*/0,
         /*dml=*/false);
}

Status Connection::CreateTempTable(const std::string& name,
                                   catalog::Schema schema,
                                   std::vector<catalog::Row> rows) {
  DebugCheckThreadOwner();
  size_t upload_bytes = 0;
  // Build the table offline with the catalog's shard count; nobody can
  // see it until it lands in the session context. It gets no
  // TxnManager, so its rows are stamped visible to every snapshot: the
  // session's open transaction may have pinned one before the upload.
  auto table = std::make_shared<storage::Table>(name, std::move(schema),
                                                db_->shard_count());
  for (catalog::Row& row : rows) {
    upload_bytes += catalog::RowWireSize(row);
    EQSQL_RETURN_IF_ERROR(table->Insert(std::move(row)));
  }
  {
    std::lock_guard<std::mutex> session(own_txn_->mu);
    own_txn_->temp_tables[AsciiToLower(name)] = std::move(table);
  }
  // An upload is a round trip but not a statement: net.queries stays.
  Charge({.round_trips = 1,
          .uploads = 1,
          .bytes = static_cast<double>(upload_bytes)},
         /*result_rows=*/0, /*dml=*/false);
  return Status::OK();
}

void Connection::DropTempTable(const std::string& name) {
  // Under the session's statement lock: none of its statements is
  // reading the table meanwhile.
  std::lock_guard<std::mutex> session(own_txn_->mu);
  own_txn_->temp_tables.erase(AsciiToLower(name));
}

}  // namespace eqsql::net
