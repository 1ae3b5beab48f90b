#ifndef EQSQL_EXEC_EXECUTOR_H_
#define EQSQL_EXEC_EXECUTOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "exec/batch.h"
#include "exec/binder.h"
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

/// Materializing evaluator for relational-algebra trees against an
/// in-memory Database. This is the "server side" of the simulated DBMS:
/// the net/ layer calls it and charges costs for the rows it returns.
/// It runs bound plans (exec/binder.h): every name was resolved when
/// the plan was bound, so execution reads rows and tables by slot.
///
/// Joins and applies run as levels of a join chain over row references
/// (RunChain): a level probes an index, a unique key or a hash build
/// for each left row's candidates, or runs its right side per left row.
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
/// per-run scratch. The scan-shaped operators (scan, filter over a
/// scan, aggregation over a scan) run one task body per shard; with a
/// WorkerPool attached and a large sharded table those tasks run on the
/// pool. They evaluate only compiled expressions and write only their
/// own result slot, so the contract holds per task.
class Executor {
 public:
  explicit Executor(const storage::Database* db) : db_(db) {}

  /// Attaches a shard worker pool. With a pool, full-table scans,
  /// filters directly over a scan, and aggregations over a (filtered)
  /// scan run their per-shard tasks on the pool when the table has at
  /// least `parallel threshold` rows and more than one shard; otherwise
  /// the same tasks run inline, shard by shard. Results are
  /// byte-identical either way: rows reassemble by insertion sequence
  /// and aggregation merges are gated to exact (non-floating-point)
  /// states.
  void set_worker_pool(WorkerPool* pool) { pool_ = pool; }

  /// Minimum table row count before the shard tasks go to the pool
  /// (small tables are not worth the fan-out). 0 forces the fan-out for
  /// any non-empty eligible table — used by the invariance tests.
  void set_parallel_threshold(size_t n) { parallel_threshold_ = n; }

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
  /// guard's snapshot, or, without one, at a snapshot it pins for the
  /// call.
  Result<ResultSet> Execute(const ra::RaNodePtr& node,
                            const std::vector<catalog::Value>& params = {});

  /// Evaluates a bound scalar expression over the frames pushed on
  /// `ctx`, one row at a time: DML's INSERT values and UPDATE
  /// assignments, and inside the executor every expression that does
  /// not run compiled (join chains, Sort, key probes and residuals, and
  /// any operator whose expressions contain a subquery). Row counts
  /// from any subqueries accumulate into last_rows_processed() without
  /// resetting it.
  Result<catalog::Value> Eval(const BoundExpr& expr, EvalContext* ctx);

  /// The unique-key access path's two steps, shared by SELECT's
  /// KeyLookup and keyed UPDATE/DELETE over `split` (a split with a key
  /// binding). KeyProbe evaluates the binding's value with no row frame
  /// pushed; a NULL probe matches nothing. KeyResidualHolds checks every
  /// other conjunct over the hit, pushed as the innermost frame, as one
  /// AND in predicate order.
  Result<catalog::Value> KeyProbe(const BoundScanSplit& split,
                                  EvalContext* ctx);
  Result<bool> KeyResidualHolds(const BoundScanSplit& split,
                                const catalog::Row& hit, EvalContext* ctx);

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
  /// Profile bookkeeping for one execution of one operator
  /// (executor.cc).
  class ProfScope;

  /// Select(Scan)'s access path, which every execution of the operator
  /// takes, borrowing the rows it keeps (exec/batch.h's lifetime rule):
  /// the unique key, then a secondary index, then a filter over the
  /// borrowed scan. SelectRefs runs all three; PointRefs the first two,
  /// returning kNotFound when neither applies.
  /// `probed`, when set, is the key probe's hit, already resolved by a
  /// batched probe (Table::ProbeKeys).
  Status SelectRefs(const BoundNode& select, const storage::Table& table,
                    EvalContext* ctx, std::vector<const catalog::Row*>* out,
                    std::optional<const catalog::Row*> probed = std::nullopt);
  Status PointRefs(const BoundNode& select, const storage::Table& table,
                   EvalContext* ctx, std::vector<const catalog::Row*>* out,
                   std::optional<const catalog::Row*> probed = std::nullopt);
  /// Unique-key point lookup: probes the key with the split's key
  /// binding (or takes `probed`) and re-checks the rest of the
  /// predicate on the hit. The hit, or nullptr on a miss; any failure
  /// means "try the next path".
  Result<const catalog::Row*> KeyLookupRef(
      const BoundNode& select, const storage::Table& table, EvalContext* ctx,
      std::optional<const catalog::Row*> probed);
  /// Secondary-index scan: when bindings pin a ready SecondaryIndex's
  /// columns to column-free expressions, probes the index and
  /// revalidates each candidate against the read snapshot instead of
  /// scanning. Bills what it touches: one row for the probe plus each
  /// visible candidate, then the rows out; nothing to storage.scan.*.
  /// kNotFound = inapplicable (nothing appended), caller falls through.
  Status IndexScanRefs(const BoundNode& select, const storage::Table& table,
                       EvalContext* ctx, std::vector<const catalog::Row*>* out);
  /// The predicate over the borrowed scan, billed as Scan then Select:
  /// fused, the compiled predicate streams each shard's batches as the
  /// scan produces them; with a subquery, it runs per row over the
  /// scan's rows in insertion order (FilterRows).
  Status FilterScanRefs(const BoundNode& select, const storage::Table& table,
                        EvalContext* ctx,
                        std::vector<const catalog::Row*>* out);
  /// Scan `scan` of `table`: its visible rows, borrowed, in insertion
  /// order, with the Scan operator's bill.
  void ScanRefs(const BoundNode& scan, const storage::Table& table,
                std::vector<const catalog::Row*>* out);
  Result<catalog::Value> EvalScalar(const BoundExpr& expr, EvalContext* ctx);
  /// True if the conjuncts `conjunct(0..n)` hold over `row` as one
  /// left-deep AND in that order (nullptr entries are skipped): each
  /// conjunct evaluates only while the conjunction so far is not FALSE.
  /// No conjuncts always hold.
  template <typename Conjunct>
  Result<bool> HoldsAll(size_t n, const Conjunct& conjunct,
                        const catalog::Row& row, EvalContext* ctx);
  /// A join chain's output as row references (executor.cc).
  struct RefChain;
  /// Runs the join chain topped by `node` (a join or apply bound as a
  /// chain level) into `chain`: its base input, then each level in
  /// order, every level over all rows of the one below, as the
  /// materializing operators ran. ExecChain gathers one row per output
  /// for any consumer; ProjectChain evaluates a Project's items over the
  /// references, gathering each output value once.
  Status RunChain(const BoundNode& node, EvalContext* ctx, RefChain* chain);
  Result<ResultSet> ExecChain(const BoundNode& node, EvalContext* ctx);
  Result<ResultSet> ProjectChain(const BoundNode& node, EvalContext* ctx);
  /// The three kinds of chain level. A join takes each left row's
  /// candidates from an index when the right side is a base scan whose
  /// key columns exactly cover a ready index (index nested loop, billing
  /// one row per probe plus its visible candidates instead of a
  /// right-side scan), and otherwise from a hash build over the right
  /// rows (with no key, every right row: a nested loop). A probe apply
  /// takes them from its Select(Scan)'s access path; any other apply
  /// runs its right side once per left row. Output order is left order,
  /// then candidate order.
  Status JoinLevel(const BoundNode& node, bool left_outer, EvalContext* ctx,
                   RefChain* chain);
  Status ProbeLevel(const BoundNode& node, EvalContext* ctx, RefChain* chain);
  Status ApplyLevel(const BoundNode& node, EvalContext* ctx, RefChain* chain);
  /// The one probe loop every level runs: see executor.cc.
  template <typename Candidates>
  Status ProbeLoop(const BoundNode& node, bool outer, size_t pad_width,
                   const std::vector<BoundExpr>* residual, EvalContext* ctx,
                   RefChain* chain, const Candidates& candidates);
  Result<ResultSet> ExecGroupBy(const BoundNode& node, EvalContext* ctx);

  /// An operator's expressions prepared for one execution (executor.cc):
  /// compiled, or evaluated per row when any contains a subquery.
  struct Exprs;
  /// Prepares `bound` (null entries, COUNT(*), read no input) for an
  /// operator whose input row is frame `level`.
  Exprs Prepare(std::vector<const BoundExpr*> bound, size_t level,
                EvalContext* ctx) const;
  /// Evaluates `exprs` over rows[0..n) into one Vec per expression and
  /// returns the lanes filled: n, or -- per row -- up to and including
  /// the first failing row.
  size_t EvalLanes(const Exprs& exprs, const catalog::Row* const* rows,
                   size_t n, EvalContext* ctx, std::vector<Vec>* out);
  /// Appends to `keep` the positions of rows[0..n) where `pred` holds,
  /// in order, or returns the first failing row's status.
  Status FilterRows(const Exprs& pred, const catalog::Row* const* rows,
                    size_t n, EvalContext* ctx, std::vector<size_t>* keep);

  /// A group-by's keys and aggregate arguments, and the fused scan's
  /// filter (executor.cc).
  struct GroupPlan;
  /// A group-by fold over batches: groups with the lowest seq folded
  /// into each, and the first predicate and fold failures (executor.cc).
  struct GroupPartial;

  /// The batch operators. The fused scan shapes -- Select(Scan) in
  /// FilterScanRefs, GroupBy([Select(]Scan[)]) -- stream every shard's
  /// batches through one consumer via ScanShards, as ScanRefs does.
  /// They read the batches' borrowed rows in place (exec/batch.h) and
  /// copy a row only into the ResultSet: the filter the rows it keeps,
  /// and the group-by none. Filter, Project and GroupByFold run over a
  /// materialized input, one batch at a time, in row order.
  Result<ResultSet> ExecGroupByBatch(const BoundNode& node,
                                     const storage::Table& table,
                                     const GroupPlan& plan);
  Result<ResultSet> Filter(const BoundNode& node, ResultSet in,
                           EvalContext* ctx);
  Result<ResultSet> Project(const BoundNode& node, ResultSet in,
                            EvalContext* ctx);
  Result<ResultSet> GroupByFold(const BoundNode& node, ResultSet in,
                                const GroupPlan& plan, EvalContext* ctx);

  /// What a scan charged: visible rows and their wire bytes.
  struct ShardScan {
    size_t rows = 0;
    size_t bytes = 0;
  };
  /// The shard fan-out behind every scan. Streams each shard's visible
  /// rows, one batch at a time, through `consume(Batch*, Slot*)` and
  /// returns what all shards scanned. Pooled -- a pool attached, and a
  /// table with more than one shard and at least parallel_threshold_
  /// rows -- every shard is one pool task writing
  /// its own slot, run under a shard span and charged to
  /// exec.parallel.batches, storage.shard.<i>.scan.* and the profile's
  /// shard slots. Otherwise the calling thread runs the shards in order
  /// and charges none of those, exactly as a serial run, into one slot
  /// per shard when `slot_per_shard` (row-producing consumers keep each
  /// shard's run apart for the ordering merge) or else into a single
  /// slot. Every batch is counted (exec.batch.*). `slots` is resized to
  /// the number of slots used.
  template <typename Slot, typename Consume>
  ShardScan ScanShards(const storage::Table& table, const char* span,
                       bool slot_per_shard, std::vector<Slot>* slots,
                       const Consume& consume);

  /// The MVCC snapshot every row-visibility check resolves against:
  /// the attached guard's, which is pinned (every execution runs under
  /// a guard, and the rows it borrows live as long as that pin).
  const storage::Snapshot& ReadSnapshot() const { return guard_->snapshot(); }

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

  /// One batch a scan streamed or a compiled expression evaluated over
  /// a materialized input. Thread-safe
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

  const storage::Database* db_;
  const storage::ReadGuard* guard_ = nullptr;
  WorkerPool* pool_ = nullptr;
  size_t parallel_threshold_ = 512;
  size_t rows_processed_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* scan_rows_ = nullptr;
  obs::Counter* scan_bytes_ = nullptr;
  obs::Counter* parallel_batches_ = nullptr;
  obs::Histogram* shard_scan_ns_ = nullptr;
  obs::Counter* batch_batches_ = nullptr;
  obs::Counter* batch_rows_ = nullptr;
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
