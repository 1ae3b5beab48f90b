#ifndef EQSQL_EXEC_EXECUTOR_H_
#define EQSQL_EXEC_EXECUTOR_H_

#include <memory>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "exec/batch.h"
#include "exec/binder.h"
#include "exec/exec_mode.h"
#include "exec/worker_pool.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "ra/ra_node.h"
#include "storage/database.h"
#include "storage/shard_guard.h"

namespace eqsql::exec {

/// A fully materialized query result: output schema + rows in result
/// order (Project preserves input order; Sort imposes one). The schema
/// is the producing operator's bound schema, shared rather than copied.
struct ResultSet {
  std::shared_ptr<const catalog::Schema> schema = EmptySchema();
  std::vector<catalog::Row> rows;

  /// Total wire size of all rows (used by net/ to charge transfer cost).
  size_t WireSize() const;

  /// The shared zero-column schema of a default-constructed result.
  static const std::shared_ptr<const catalog::Schema>& EmptySchema();
};

/// Evaluation context threaded through scalar evaluation: positional
/// parameters plus the stack of rows pushed by the operators evaluating
/// expressions (OuterApply and EXISTS evaluate their inner plans with
/// outer rows pushed). Bound column references read a row by (level,
/// column); nothing here resolves a name.
class EvalContext {
 public:
  explicit EvalContext(const std::vector<catalog::Value>* params)
      : params_(params) {}

  void PushFrame(const catalog::Row* row) { frames_.push_back(row); }
  void PopFrame() { frames_.pop_back(); }

  /// The value at a bound slot: column `column` of the row at frame
  /// level `level`, counted from the outermost frame.
  const catalog::Value& Column(size_t level, size_t column) const {
    return (*frames_[level])[column];
  }

  Result<catalog::Value> LookupParameter(int index) const;

 private:
  const std::vector<catalog::Value>* params_;
  std::vector<const catalog::Row*> frames_;
};

/// Materializing evaluator for relational-algebra trees against an
/// in-memory Database. This is the "server side" of the simulated DBMS:
/// the net/ layer calls it and charges costs for the rows it returns.
/// It runs bound plans (exec/binder.h): every name was resolved when
/// the plan was bound, so execution reads rows and tables by slot.
///
/// Joins with extractable equi-conjuncts probe an index or a hash
/// build; everything else is a (predicated) nested loop.
///
/// Shared-read contract: execution touches the database exclusively
/// through `const storage::Database*` / `const storage::Table*` — no
/// execution path mutates storage. Row visibility resolves against the
/// attached ReadGuard's pinned MVCC snapshot (storage::Snapshot), so
/// any number of Executors may run concurrently against one Database
/// while writers commit new versions: readers never block writers and
/// never see a half-committed transaction. Bound plans are immutable
/// and never mutated during execution, so one cached plan may be
/// executed by many sessions at once. One
/// Executor instance itself is single-threaded: rows_processed_ is
/// per-run scratch. The vector engine's scan-shaped operators (scan,
/// filter over a scan, aggregation over a scan) run one task body per
/// shard; with a WorkerPool attached and a large sharded table those
/// tasks run on the pool. They evaluate only compiled expressions and
/// write only their own result slot, so the contract holds per task.
class Executor {
 public:
  explicit Executor(const storage::Database* db) : db_(db) {}

  /// Attaches a shard worker pool. With a pool, the vector engine's
  /// full-table scans, filters directly over a scan, and aggregations
  /// over a (filtered) scan run their per-shard tasks on the pool when
  /// the table has at least `parallel threshold` rows and more than one
  /// shard; otherwise the same tasks run inline, shard by shard. Results
  /// are byte-identical either way: rows reassemble by insertion
  /// sequence and aggregation merges are gated to exact
  /// (non-floating-point) states. The row engine never fans out.
  void set_worker_pool(WorkerPool* pool) { pool_ = pool; }

  /// Minimum table row count before the shard tasks go to the pool
  /// (small tables are not worth the fan-out). 0 forces the fan-out for
  /// any non-empty eligible table — used by the invariance tests.
  void set_parallel_threshold(size_t n) { parallel_threshold_ = n; }

  /// Selects the execution engine (see exec/exec_mode.h). kVector
  /// routes scans, filters, projections, and group-by folds through the
  /// batch-at-a-time columnar path; expressions the batch compiler
  /// cannot handle (names bound to a deferred error, EXISTS
  /// subqueries, unbound parameters) fall back to the row engine per
  /// operator, counted in exec.batch.fallbacks. Results, errors, and
  /// cost accounting are identical in both modes. kRow is the serial
  /// reference engine: it ignores the worker pool. Defaults to kRow so
  /// a bare Executor keeps the reference directly testable; the server
  /// stack applies ServerOptions::exec_mode.
  void set_exec_mode(ExecMode mode) { mode_ = mode; }
  ExecMode exec_mode() const { return mode_; }

  /// Attaches the caller's pinned tables and snapshot. A bound plan's
  /// table slots index the guard's slots, so a query keeps reading the
  /// tables it pinned even if another session republishes them
  /// mid-flight.
  void set_read_guard(const storage::ReadGuard* guard) { guard_ = guard; }

  /// Attaches a metrics registry. Shard-invariant totals go to
  /// storage.scan.rows / storage.scan.bytes (identical whatever the
  /// shard count or pool — scan counters always charge the full logical
  /// scan); per-shard breakdowns go under storage.shard.<i>.scan.* and
  /// fan-out counts under exec.parallel.*, which are layout-dependent by
  /// design and excluded from the invariance contract. Handles are
  /// resolved here once; execution never touches the registry mutex
  /// except to name per-shard counters at fan-out time.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Attaches a per-request operator profile (EXPLAIN ANALYZE, the
  /// trace sampler, the slow-query logger). nullptr detaches. Each
  /// executed plan operator records rows in/out, batches, wall time,
  /// and — for a pooled shard fan-out — a per-shard breakdown into the
  /// tree. Profiling touches only wall-clock fields and the profile's
  /// own atomics: the simulated cost model and every layout-invariant
  /// counter are charged identically with profiling on or off.
  void set_profile(obs::Profile* profile) {
    profile_ = profile;
    prof_cur_ = nullptr;
  }
  obs::Profile* profile() const { return profile_; }

  /// Executes a bound plan with positional `params` bound to '?'
  /// placeholders. Its table slots read the attached ReadGuard, which
  /// must be the one the plan was bound (or matched) against.
  Result<ResultSet> Execute(const BoundPlan& plan,
                            const std::vector<catalog::Value>& params = {});

  /// Binds `node` against the tables it names and executes it: a
  /// one-shot convenience for tools and tests. Reads at the attached
  /// guard's snapshot, or at the latest commit without one.
  Result<ResultSet> Execute(const ra::RaNodePtr& node,
                            const std::vector<catalog::Value>& params = {});

  /// Evaluates a bound scalar expression (used by DML to compute INSERT
  /// values / UPDATE assignments). Row counts from any subqueries
  /// accumulate into last_rows_processed() without resetting it.
  Result<catalog::Value> Eval(const BoundExpr& expr, EvalContext* ctx);

  /// Number of rows produced by all operators during the last Execute
  /// (a crude work counter used by the net/ cost model's server term).
  size_t last_rows_processed() const { return rows_processed_; }

 private:
  /// Operator dispatch. When a profile is attached, Exec wraps ExecNode
  /// with per-operator bookkeeping (node lookup keyed by plan-node
  /// address, wall time, rows out) and ExecNode does the actual work;
  /// without one, Exec tail-calls ExecNode.
  Result<ResultSet> Exec(const BoundNode& node, EvalContext* ctx);
  Result<ResultSet> ExecNode(const BoundNode& node, EvalContext* ctx);
  /// The table pinned in slot `slot` of the attached guard.
  const storage::Table* TableAt(size_t slot) const {
    return guard_->table(slot);
  }
  /// Unique-key point lookup for Select(Scan): probes the table's key
  /// with the split's key binding and re-checks the rest of the
  /// predicate. The caller treats any failure as "try the next path".
  Result<ResultSet> TryKeyLookup(const BoundNode& select,
                                 const storage::Table& table,
                                 EvalContext* ctx);
  /// Secondary-index scan for Select(Scan): when bindings pin a ready
  /// SecondaryIndex's columns to column-free expressions, probes the
  /// index and revalidates each candidate against the read snapshot
  /// instead of materializing the full scan. Charges exactly the full
  /// scan's simulated cost (storage.scan.* and the rows-processed
  /// server term, via Table::VisibleStats) so plan choice never shows
  /// in the deterministic cost model — only in wall time. kNotFound =
  /// inapplicable, caller falls through.
  Result<ResultSet> TrySecondaryIndexScan(const BoundNode& select,
                                          const storage::Table& table,
                                          EvalContext* ctx);
  Result<catalog::Value> EvalScalar(const BoundExpr& expr, EvalContext* ctx);
  /// True if `pred` holds over `row` (pushed as the innermost frame).
  Result<bool> Holds(const BoundExpr& pred, const catalog::Row& row,
                     EvalContext* ctx);
  /// True if the conjuncts `conjunct(0..n)` hold over `row` as one
  /// left-deep AND in that order (nullptr entries are skipped): each
  /// conjunct evaluates only while the conjunction so far is not FALSE.
  /// No conjuncts always hold.
  template <typename Conjunct>
  Result<bool> HoldsAll(size_t n, const Conjunct& conjunct,
                        const catalog::Row& row, EvalContext* ctx);
  /// Inner and left-outer joins. Equi-keys are split from the predicate
  /// once; one probe loop takes each left row's candidates from an
  /// index when the right side is a base scan whose key columns exactly
  /// cover a ready index (index nested loop, charged like the scan it
  /// replaces), and otherwise from a hash build over the right rows
  /// (with no key, every right row: a nested loop). Output order is
  /// left order, then right insertion order within a key, either way.
  Result<ResultSet> ExecJoin(const BoundNode& node, bool left_outer,
                             EvalContext* ctx);
  Result<ResultSet> ExecOuterApply(const BoundNode& node, EvalContext* ctx);
  Result<ResultSet> ExecGroupBy(const BoundNode& node, EvalContext* ctx);

  /// A group-by whose pieces all compiled for batch evaluation:
  /// optional filter predicate, key expressions, and aggregate
  /// arguments (null entry = COUNT(*), which reads no input).
  struct CompiledGroupBy {
    std::unique_ptr<CompiledExpr> pred;
    std::vector<std::unique_ptr<CompiledExpr>> keys;
    std::vector<std::unique_ptr<CompiledExpr>> aggs;
  };
  /// Compiles the group-by's bound scalar pieces (the filter predicate
  /// only when `select` is non-null). False = something didn't compile;
  /// the caller falls back to the row engine.
  bool CompileGroupBy(const BoundNode& node, const BoundNode* select,
                      EvalContext* ctx, CompiledGroupBy* out);

  /// A group-by fold over batches: groups with the lowest seq folded
  /// into each, and the first predicate and fold failures (executor.cc).
  struct GroupPartial;

  /// Vectorized operators (mode_ == kVector). Each mirrors its row
  /// twin's results, error selection, and cost accounting exactly. The
  /// three scan shapes — Scan, Select(Scan), GroupBy([Select(]Scan[)]) —
  /// each stream every shard's batches through one consumer via
  /// ScanShards.
  Result<ResultSet> ExecScanBatch(const BoundNode& node,
                                  const storage::Table& table);
  Result<ResultSet> ExecSelectScanBatch(const BoundNode& node,
                                        const storage::Table& table,
                                        const CompiledExpr& pred);
  Result<ResultSet> ExecGroupByBatch(const BoundNode& node,
                                     const storage::Table& table,
                                     const CompiledGroupBy& plan);
  Result<ResultSet> FilterVector(ResultSet in, const CompiledExpr& pred);
  Result<ResultSet> ProjectVector(
      const BoundNode& node, ResultSet in,
      const std::vector<std::unique_ptr<CompiledExpr>>& items);
  Result<ResultSet> GroupByVectorFold(const BoundNode& node, ResultSet in,
                                      const CompiledGroupBy& plan);
  /// Compiles a bound expression with this execution's parameters
  /// folded in (nullptr when it cannot run columnar).
  std::unique_ptr<CompiledExpr> Compile(const BoundExpr& expr,
                                        EvalContext* ctx) const;

  /// What a scan charged: visible rows and their wire bytes.
  struct ShardScan {
    size_t rows = 0;
    size_t bytes = 0;
  };
  /// The shard fan-out behind the three scan shapes. Streams each
  /// shard's visible rows, one batch at a time, through
  /// `consume(Batch*, Slot*)` and returns what all shards scanned.
  /// Pooled — a pool is attached and the table has more than one shard
  /// and at least parallel_threshold_ rows — every shard is one pool
  /// task writing its own slot, run under a shard span and charged to
  /// exec.parallel.batches, storage.shard.<i>.scan.* and the profile's
  /// shard slots. Otherwise the calling thread runs the shards in order
  /// into a single slot and charges none of those, exactly as a serial
  /// run. `slots` is resized to the number of slots used.
  template <typename Slot, typename Consume>
  ShardScan ScanShards(const storage::Table& table, const char* span,
                       std::vector<Slot>* slots, const Consume& consume);

  /// The MVCC snapshot every row-visibility check resolves against: the
  /// attached guard's pinned snapshot, or "latest committed" when
  /// executing unguarded (tests, offline tooling).
  storage::Snapshot ReadSnapshot() const {
    return guard_ != nullptr ? guard_->snapshot() : storage::Snapshot::Latest();
  }

  void RecordScan(size_t rows, size_t bytes) {
    if (scan_rows_ != nullptr) {
      scan_rows_->Add(static_cast<int64_t>(rows));
      scan_bytes_->Add(static_cast<int64_t>(bytes));
    }
    if (prof_cur_ != nullptr) {
      prof_cur_->rows_in.fetch_add(static_cast<int64_t>(rows),
                                   std::memory_order_relaxed);
    }
  }

  /// One batch moved through a vectorized operator. Thread-safe
  /// (striped counters, atomic profile accumulator); called from shard
  /// tasks — prof_cur_ is stable for their whole lifetime because the
  /// main thread blocks in WorkerPool::Run until every task finishes.
  void RecordBatch(size_t rows) {
    if (batch_batches_ != nullptr) {
      batch_batches_->Increment();
      batch_rows_->Add(static_cast<int64_t>(rows));
      batch_size_->Record(static_cast<int64_t>(rows));
    }
    if (prof_cur_ != nullptr) {
      prof_cur_->batches.fetch_add(1, std::memory_order_relaxed);
    }
  }
  /// An operator in kVector mode handed its input to the row engine.
  void RecordVectorFallback() {
    if (batch_fallbacks_ != nullptr) batch_fallbacks_->Increment();
  }

  const storage::Database* db_;
  const storage::ReadGuard* guard_ = nullptr;
  WorkerPool* pool_ = nullptr;
  size_t parallel_threshold_ = 512;
  ExecMode mode_ = ExecMode::kRow;
  size_t rows_processed_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* scan_rows_ = nullptr;
  obs::Counter* scan_bytes_ = nullptr;
  obs::Counter* parallel_batches_ = nullptr;
  obs::Histogram* shard_scan_ns_ = nullptr;
  obs::Counter* batch_batches_ = nullptr;
  obs::Counter* batch_rows_ = nullptr;
  obs::Counter* batch_fallbacks_ = nullptr;
  obs::Histogram* batch_size_ = nullptr;
  /// storage.index.* / exec.index.* — physical-plan counters. Like
  /// exec.batch.*, they depend on which access path ran, so the
  /// shard-invariance signature excludes both families.
  obs::Counter* index_probes_ = nullptr;
  obs::Counter* index_rows_ = nullptr;
  obs::Counter* index_scans_ = nullptr;
  obs::Counter* index_nlj_probes_ = nullptr;
  /// Request profile borrowed from the caller; prof_cur_ tracks the
  /// profile node of the operator currently executing on the main
  /// thread (scan/batch charges attribute to it).
  obs::Profile* profile_ = nullptr;
  obs::ProfileNode* prof_cur_ = nullptr;
};

}  // namespace eqsql::exec

#endif  // EQSQL_EXEC_EXECUTOR_H_
