#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/scalar_ops.h"
#include "obs/trace.h"
#include "storage/index.h"

namespace eqsql::exec {

using catalog::Row;
using catalog::Schema;
using catalog::Value;
using ra::RaNodePtr;
using ra::RaOp;
using ra::ScalarOp;

size_t ResultSet::WireSize() const {
  size_t total = 0;
  for (const Row& row : rows) total += catalog::RowWireSize(row);
  return total;
}

const std::shared_ptr<const Schema>& ResultSet::EmptySchema() {
  static const std::shared_ptr<const Schema> empty =
      std::make_shared<const Schema>();
  return empty;
}

namespace {

struct RowVecHash {
  size_t operator()(const std::vector<Value>& key) const {
    size_t seed = key.size();
    catalog::ValueHash h;
    for (const Value& v : key) HashCombine(seed, h(v));
    return seed;
  }
};

struct RowVecEq {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }
};

/// Accumulator for one aggregate over one group.
struct AggState {
  int64_t count = 0;      // non-null inputs seen (rows for COUNT(*))
  bool any = false;
  bool is_double = false;
  int64_t isum = 0;
  double dsum = 0.0;
  Value minv;
  Value maxv;

  void Update(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (!any) {
      any = true;
      minv = v;
      maxv = v;
    } else {
      if (v < minv) minv = v;
      if (maxv < v) maxv = v;
    }
    if (v.is_numeric()) {
      if (v.is_double()) is_double = true;
      if (is_double) {
        dsum = (dsum + (isum != 0 ? static_cast<double>(isum) : 0.0));
        isum = 0;
        dsum += v.AsNumeric();
      } else {
        isum += v.AsInt();
      }
    }
  }

  /// Folds another shard's partial state into this one. Only called on
  /// the exact (integer) path: shard partials merge only under the
  /// group-by's exactness gate (ExecGroupBy), which keeps every double
  /// away from Update, so summation order cannot change the result.
  void Merge(const AggState& other) {
    count += other.count;
    if (other.any) {
      if (!any) {
        any = true;
        minv = other.minv;
        maxv = other.maxv;
      } else {
        if (other.minv < minv) minv = other.minv;
        if (maxv < other.maxv) maxv = other.maxv;
      }
    }
    isum += other.isum;
  }

  Value Finalize(ra::AggFunc func) const {
    switch (func) {
      case ra::AggFunc::kCountStar:
      case ra::AggFunc::kCount:
        return Value::Int(count);
      case ra::AggFunc::kSum:
        if (!any) return Value::Null();
        return is_double ? Value::Double(dsum) : Value::Int(isum);
      case ra::AggFunc::kMin:
        return any ? minv : Value::Null();
      case ra::AggFunc::kMax:
        return any ? maxv : Value::Null();
      case ra::AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(
            (is_double ? dsum : static_cast<double>(isum)) /
            static_cast<double>(count));
    }
    return Value::Null();
  }
};

/// Primitive partial state for the typed integer fast fold: one
/// non-null int64 input per Update, exactly AggState's behavior for
/// that input class, without boxing a Value per lane. ToAggState
/// reproduces the AggState the boxed fold would have built from the
/// same inputs bit for bit (is_double stays false; an untouched state
/// keeps the default NULL min/max).
struct FastIntAgg {
  int64_t count = 0;
  bool any = false;
  int64_t isum = 0;
  int64_t minv = 0;
  int64_t maxv = 0;

  void Update(int64_t x) {
    ++count;
    if (!any) {
      any = true;
      minv = x;
      maxv = x;
    } else {
      if (x < minv) minv = x;
      if (maxv < x) maxv = x;
    }
    isum += x;
  }

  AggState ToAggState() const {
    AggState s;
    s.count = count;
    s.any = any;
    s.isum = isum;
    if (any) {
      s.minv = Value::Int(minv);
      s.maxv = Value::Int(maxv);
    }
    return s;
  }
};

/// The ready index over exactly the column set `cols` (a join's right
/// key columns), or nullptr. perm[i] is the key position of the index's
/// i-th column.
std::shared_ptr<const storage::SecondaryIndex> JoinIndex(
    const std::vector<std::string>& cols, const storage::Table& table,
    std::vector<size_t>* perm) {
  if (cols.empty()) return nullptr;
  std::shared_ptr<const storage::SecondaryIndex> index =
      table.FindIndexForColumnSet(cols);
  if (index == nullptr) return nullptr;
  for (const std::string& col : index->columns()) {
    perm->push_back(std::find(cols.begin(), cols.end(), col) - cols.begin());
  }
  return index;
}

/// One index probe's candidates: the slots the index returned, and the
/// rows visible to the snapshot that still carry the probed key (entries
/// are append-only, so a slot's version may have moved on), in
/// slot-sequence order. The rows are borrowed from their versions and
/// stay valid while the statement's snapshot pin is held, as a scan
/// batch's rows do (exec/batch.h).
struct IndexHits {
  std::vector<std::shared_ptr<const storage::TableSlot>> slots;
  std::vector<const Row*> rows;

  /// Probes `index` for `key`, charging one probe to `probes` and the
  /// candidates to `candidates` (both null without metrics).
  void Probe(const storage::SecondaryIndex& index,
             const std::vector<Value>& key, const storage::Snapshot& snap,
             obs::Counter* probes, obs::Counter* candidates) {
    slots = index.Probe(key);
    if (probes != nullptr) {
      probes->Increment();
      candidates->Add(static_cast<int64_t>(slots.size()));
    }
    rows.clear();
    const std::vector<size_t>& key_cols = index.column_indexes();
    for (const auto& slot : slots) {
      const Row* visible = slot->VisibleRow(snap);
      if (visible == nullptr) continue;
      bool key_match = true;
      for (size_t i = 0; i < key_cols.size(); ++i) {
        key_match = key_match && (*visible)[key_cols[i]] == key[i];
      }
      if (key_match) rows.push_back(visible);
    }
  }
};

}  // namespace

void Executor::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics == nullptr) {
    scan_rows_ = nullptr;
    scan_bytes_ = nullptr;
    parallel_batches_ = nullptr;
    shard_scan_ns_ = nullptr;
    batch_batches_ = nullptr;
    batch_rows_ = nullptr;
    batch_size_ = nullptr;
    index_probes_ = nullptr;
    index_rows_ = nullptr;
    index_scans_ = nullptr;
    index_nlj_probes_ = nullptr;
    return;
  }
  scan_rows_ = metrics->counter("storage.scan.rows");
  scan_bytes_ = metrics->counter("storage.scan.bytes");
  parallel_batches_ = metrics->counter("exec.parallel.batches");
  shard_scan_ns_ = metrics->histogram("storage.shard.scan_ns");
  // exec.batch.* is layout- and path-dependent by design (like
  // exec.pool.*): batch counts shift with shard boundaries and the
  // access path taken, so the shard-invariance signature excludes the
  // family (tests/shard_invariance_test.cc).
  batch_batches_ = metrics->counter("exec.batch.batches");
  batch_rows_ = metrics->counter("exec.batch.rows");
  batch_size_ = metrics->histogram("exec.batch.size");
  // storage.index.* / exec.index.* depend on which physical access
  // path ran (indexes are per-database DDL state, not part of the
  // logical workload), so the invariance signature excludes them too.
  index_probes_ = metrics->counter("storage.index.probes");
  index_rows_ = metrics->counter("storage.index.rows");
  index_scans_ = metrics->counter("exec.index.scans");
  index_nlj_probes_ = metrics->counter("exec.index.nlj_probes");
}

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool IsChain(const BoundNode& node) {
  return (node.op == RaOp::kJoin || node.op == RaOp::kLeftOuterJoin ||
          node.op == RaOp::kOuterApply) &&
         node.inputs > 0;
}

/// A copy of each borrowed row: the one copy a row pays, made where it
/// leaves the statement.
ResultSet Copied(const BoundNode& node, const std::vector<const Row*>& refs) {
  ResultSet out;
  out.schema = node.schema;
  out.rows.reserve(refs.size());
  for (const Row* row : refs) out.rows.push_back(*row);
  return out;
}

}  // namespace

/// One execution of one operator in the profile: enters `node`'s entry
/// under the current operator and, on scope exit, adds its wall time,
/// one execution and (once Done) its rows out. Exec wraps every
/// operator in one, and a join chain opens one for each operator it
/// runs without Exec, so the tree and its labels are the same either
/// way. Correlated subqueries and applies re-enter the same plan node,
/// which folds into one entry with execs > 1. Wall time is inclusive of
/// children and never touches the simulated clock, so the bill is the
/// same with profiling on or off. A no-op without a profile.
class Executor::ProfScope {
 public:
  ProfScope(Executor* ex, const BoundNode& node) : ex_(ex) {
    if (ex->profile_ == nullptr) return;
    parent_ = ex->prof_cur_;
    me_ = ex->profile_->ChildFor(parent_, node.source,
                                 ra::RaOpToString(node.op));
    ex->prof_cur_ = me_;
    t0_ = NowNs();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;
  ~ProfScope() {
    if (me_ == nullptr) return;
    me_->wall_ns += NowNs() - t0_;
    me_->execs += 1;
    ex_->prof_cur_ = parent_;
  }

  /// The execution succeeded with `rows` out.
  void Done(size_t rows) {
    if (me_ != nullptr) me_->rows_out += static_cast<int64_t>(rows);
  }

 private:
  Executor* ex_;
  obs::ProfileNode* parent_ = nullptr;
  obs::ProfileNode* me_ = nullptr;
  int64_t t0_ = 0;
};

/// A join chain's output as row references. Input 0 is the chain's base;
/// level i adds input i + 1 as one (left position, right row) pair per
/// output, where the left position indexes the outputs below it and
/// the right row is borrowed from its version (a key or index probe, a
/// hash build or filter over a borrowed scan) or owned here (a right
/// side's ResultSet rows, computed items, the NULL pad). Owned rows
/// never move once referenced: result row vectors are moved in whole,
/// which keeps their elements in place, and single rows live in a
/// deque. Every borrowed row lives while the statement's snapshot pin
/// is held (exec/batch.h).
struct Executor::RefChain {
  struct Level {
    std::vector<size_t> left;
    std::vector<const Row*> right;
  };
  std::vector<const Row*> base;
  std::vector<Level> levels;
  std::vector<std::vector<Row>> owned;
  std::deque<Row> made;

  /// Outputs of the chain so far.
  size_t size() const {
    return levels.empty() ? base.size() : levels.back().right.size();
  }

  /// Output `pos`'s row per input, into rows[0..levels.size()].
  void Rows(size_t pos, const Row** rows) const {
    for (size_t i = levels.size(); i > 0; --i) {
      rows[i] = levels[i - 1].right[pos];
      pos = levels[i - 1].left[pos];
    }
    rows[0] = base[pos];
  }

  /// Keeps `rows` and appends a reference to each to `refs`.
  void Own(std::vector<Row> rows, std::vector<const Row*>* refs) {
    if (rows.empty()) return;
    owned.push_back(std::move(rows));
    for (const Row& row : owned.back()) refs->push_back(&row);
  }

  /// Keeps one row.
  const Row* Keep(Row row) {
    made.push_back(std::move(row));
    return &made.back();
  }
};

Result<ResultSet> Executor::Execute(const RaNodePtr& node,
                                    const std::vector<Value>& params) {
  // Every read holds a snapshot pin for the rows it borrows: a fresh
  // one without a caller guard, or the caller's, which its guard (or
  // its open transaction) already pins.
  const std::vector<std::string> tables = ra::CollectScannedTables(node);
  storage::ReadGuard pinned =
      guard_ == nullptr
          ? storage::ReadGuard::Acquire(*db_, tables)
          : storage::ReadGuard::AcquireAt(*db_, tables, guard_->snapshot());
  std::shared_ptr<const BoundPlan> plan = BindPlan(*node, pinned);
  const storage::ReadGuard* caller = guard_;
  guard_ = &pinned;
  Result<ResultSet> out = Execute(*plan, params);
  guard_ = caller;
  return out;
}

Result<ResultSet> Executor::Execute(const BoundPlan& plan,
                                    const std::vector<Value>& params) {
  rows_processed_ = 0;
  prof_cur_ = nullptr;
  EvalContext ctx(&params);
  return Exec(plan.root(), &ctx);
}

Result<Value> Executor::Eval(const BoundExpr& expr, EvalContext* ctx) {
  return EvalScalar(expr, ctx);
}

Result<Value> Executor::EvalScalar(const BoundExpr& expr, EvalContext* ctx) {
  switch (expr.op) {
    case ScalarOp::kColumnRef:
      if (!expr.error.ok()) return expr.error;
      return ctx->Column(expr.level, expr.column);
    case ScalarOp::kLiteral:
      return expr.literal;
    case ScalarOp::kParameter:
      return ctx->LookupParameter(expr.param);
    case ScalarOp::kAdd:
    case ScalarOp::kSub:
    case ScalarOp::kMul:
    case ScalarOp::kDiv:
    case ScalarOp::kMod: {
      EQSQL_ASSIGN_OR_RETURN(Value lhs, EvalScalar(expr.kids[0], ctx));
      EQSQL_ASSIGN_OR_RETURN(Value rhs, EvalScalar(expr.kids[1], ctx));
      return EvalArithmetic(expr.op, lhs, rhs);
    }
    case ScalarOp::kEq:
    case ScalarOp::kNe:
    case ScalarOp::kLt:
    case ScalarOp::kLe:
    case ScalarOp::kGt:
    case ScalarOp::kGe: {
      EQSQL_ASSIGN_OR_RETURN(Value lhs, EvalScalar(expr.kids[0], ctx));
      EQSQL_ASSIGN_OR_RETURN(Value rhs, EvalScalar(expr.kids[1], ctx));
      return EvalComparison(expr.op, lhs, rhs);
    }
    case ScalarOp::kAnd: {
      EQSQL_ASSIGN_OR_RETURN(Value lhs, EvalScalar(expr.kids[0], ctx));
      if (lhs.is_bool() && !lhs.AsBool()) return Value::Bool(false);
      EQSQL_ASSIGN_OR_RETURN(Value rhs, EvalScalar(expr.kids[1], ctx));
      return EvalAnd(lhs, rhs);
    }
    case ScalarOp::kOr: {
      EQSQL_ASSIGN_OR_RETURN(Value lhs, EvalScalar(expr.kids[0], ctx));
      if (lhs.is_bool() && lhs.AsBool()) return Value::Bool(true);
      EQSQL_ASSIGN_OR_RETURN(Value rhs, EvalScalar(expr.kids[1], ctx));
      return EvalOr(lhs, rhs);
    }
    case ScalarOp::kNot: {
      EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalar(expr.kids[0], ctx));
      return EvalNot(v);
    }
    case ScalarOp::kNeg: {
      EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalar(expr.kids[0], ctx));
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Double(-v.AsDouble());
      return Status::RuntimeError("negation of non-numeric value");
    }
    case ScalarOp::kConcat: {
      EQSQL_ASSIGN_OR_RETURN(Value lhs, EvalScalar(expr.kids[0], ctx));
      EQSQL_ASSIGN_OR_RETURN(Value rhs, EvalScalar(expr.kids[1], ctx));
      return EvalConcat(lhs, rhs);
    }
    case ScalarOp::kGreatest:
    case ScalarOp::kLeast: {
      std::vector<Value> args;
      args.reserve(expr.kids.size());
      for (const BoundExpr& c : expr.kids) {
        EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalar(c, ctx));
        args.push_back(std::move(v));
      }
      return EvalGreatestLeast(expr.op == ScalarOp::kGreatest, args);
    }
    case ScalarOp::kCase: {
      EQSQL_ASSIGN_OR_RETURN(Value cond, EvalScalar(expr.kids[0], ctx));
      if (IsTruthy(cond)) return EvalScalar(expr.kids[1], ctx);
      return EvalScalar(expr.kids[2], ctx);
    }
    case ScalarOp::kIsNull: {
      EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalar(expr.kids[0], ctx));
      return Value::Bool(v.is_null());
    }
    case ScalarOp::kExists:
    case ScalarOp::kNotExists: {
      EQSQL_ASSIGN_OR_RETURN(ResultSet sub, Exec(*expr.subquery, ctx));
      bool exists = !sub.rows.empty();
      return Value::Bool(expr.op == ScalarOp::kExists ? exists : !exists);
    }
  }
  return Status::Internal("EvalScalar: unknown operator");
}

template <typename Conjunct>
Result<bool> Executor::HoldsAll(size_t n, const Conjunct& conjunct,
                                const Row& row, EvalContext* ctx) {
  // The left-deep AND ((c0 AND c1) AND c2) ... evaluated in place: the
  // accumulated value short-circuits at FALSE and folds through EvalAnd.
  std::optional<Result<Value>> acc;
  ctx->PushFrame(&row);
  for (size_t i = 0; i < n; ++i) {
    const BoundExpr* c = conjunct(i);
    if (c == nullptr) continue;
    if (!acc.has_value()) {
      acc = EvalScalar(*c, ctx);
    } else {
      if (!acc->ok()) break;
      const Value& sofar = **acc;
      if (sofar.is_bool() && !sofar.AsBool()) break;
      Result<Value> v = EvalScalar(*c, ctx);
      acc = v.ok() ? EvalAnd(sofar, *v) : Result<Value>(v.status());
    }
  }
  ctx->PopFrame();
  if (!acc.has_value()) return true;
  if (!acc->ok()) return acc->status();
  return IsTruthy(**acc);
}

Result<ResultSet> Executor::Exec(const BoundNode& node, EvalContext* ctx) {
  if (profile_ == nullptr) return ExecNode(node, ctx);
  ProfScope prof(this, node);
  Result<ResultSet> out = ExecNode(node, ctx);
  if (out.ok()) prof.Done(out->rows.size());
  return out;
}

Result<ResultSet> Executor::ExecNode(const BoundNode& node, EvalContext* ctx) {
  switch (node.op) {
    case RaOp::kScan: {
      if (!node.table_error.ok()) return node.table_error;
      std::vector<const Row*> refs;
      ScanRefs(node, *TableAt(node.table_slot), &refs);
      return Copied(node, refs);
    }
    case RaOp::kSelect: {
      // Select(Scan) takes its access path here, per execution: the
      // unique key, then a secondary index, then the filter fused with
      // the scan (SelectRefs).
      const BoundNode& child = node.children[0];
      if (node.split.has_value()) {
        std::vector<const Row*> refs;
        EQSQL_RETURN_IF_ERROR(
            SelectRefs(node, *TableAt(child.table_slot), ctx, &refs));
        return Copied(node, refs);
      }
      EQSQL_ASSIGN_OR_RETURN(ResultSet in, Exec(child, ctx));
      return Filter(node, std::move(in), ctx);
    }
    case RaOp::kProject: {
      if (node.over_chain) return ProjectChain(node, ctx);
      EQSQL_ASSIGN_OR_RETURN(ResultSet in, Exec(node.children[0], ctx));
      return Project(node, std::move(in), ctx);
    }
    case RaOp::kJoin:
    case RaOp::kLeftOuterJoin:
    case RaOp::kOuterApply:
      return ExecChain(node, ctx);
    case RaOp::kGroupBy:
      return ExecGroupBy(node, ctx);
    case RaOp::kSort: {
      EQSQL_ASSIGN_OR_RETURN(ResultSet in, Exec(node.children[0], ctx));
      // Precompute key tuples, then stable-sort indices.
      std::vector<std::vector<Value>> keys(in.rows.size());
      for (size_t i = 0; i < in.rows.size(); ++i) {
        ctx->PushFrame(&in.rows[i]);
        Status status = Status::OK();
        for (const BoundExpr& k : node.keys) {
          Result<Value> v = EvalScalar(k, ctx);
          if (!v.ok()) {
            status = v.status();
            break;
          }
          keys[i].push_back(std::move(*v));
        }
        ctx->PopFrame();
        EQSQL_RETURN_IF_ERROR(status);
      }
      std::vector<size_t> order(in.rows.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      const auto& sort_keys = node.source->sort_keys();
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) {
                         for (size_t k = 0; k < sort_keys.size(); ++k) {
                           const Value& va = keys[a][k];
                           const Value& vb = keys[b][k];
                           if (va == vb) continue;
                           bool lt = va < vb;
                           return sort_keys[k].ascending ? lt : !lt;
                         }
                         return false;
                       });
      ResultSet out;
      out.schema = node.schema;
      out.rows.reserve(in.rows.size());
      for (size_t i : order) out.rows.push_back(std::move(in.rows[i]));
      rows_processed_ += out.rows.size();
      return out;
    }
    case RaOp::kDedup: {
      EQSQL_ASSIGN_OR_RETURN(ResultSet in, Exec(node.children[0], ctx));
      ResultSet out;
      out.schema = node.schema;
      std::unordered_set<std::vector<Value>, RowVecHash, RowVecEq> seen;
      for (Row& row : in.rows) {
        if (seen.insert(row).second) out.rows.push_back(std::move(row));
      }
      rows_processed_ += out.rows.size();
      return out;
    }
    case RaOp::kLimit: {
      EQSQL_ASSIGN_OR_RETURN(ResultSet in, Exec(node.children[0], ctx));
      const int64_t limit = node.source->limit();
      if (limit >= 0 && in.rows.size() > static_cast<size_t>(limit)) {
        in.rows.resize(static_cast<size_t>(limit));
      }
      rows_processed_ += in.rows.size();
      return in;
    }
  }
  return Status::Internal("Exec: unknown operator");
}

Result<const Row*> Executor::KeyLookupRef(const BoundNode& select,
                                          const storage::Table& table,
                                          EvalContext* ctx,
                                          std::optional<const Row*> probed) {
  const BoundScanSplit& split = *select.split;
  const Row* hit = nullptr;
  if (probed.has_value()) {
    hit = *probed;
  } else {
    EQSQL_ASSIGN_OR_RETURN(Value probe, KeyProbe(split, ctx));
    // NULL equals nothing, so a NULL probe is a miss (the NULL-keyed
    // row, if any, does not match).
    if (!probe.is_null()) hit = table.ProbeKey(probe, ReadSnapshot());
  }
  if (hit != nullptr) {
    EQSQL_ASSIGN_OR_RETURN(bool pass, KeyResidualHolds(split, *hit, ctx));
    if (!pass) hit = nullptr;
  }
  rows_processed_ += 1;  // index probe, not a scan
  if (prof_cur_ != nullptr) prof_cur_->label = "KeyLookup";
  return hit;
}

Result<Value> Executor::KeyProbe(const BoundScanSplit& split,
                                 EvalContext* ctx) {
  return EvalScalar(*split.conjuncts[split.key_binding].value, ctx);
}

Result<bool> Executor::KeyResidualHolds(const BoundScanSplit& split,
                                        const Row& hit, EvalContext* ctx) {
  const size_t key = static_cast<size_t>(split.key_binding);
  return HoldsAll(
      split.conjuncts.size(),
      [&](size_t i) { return i == key ? nullptr : &split.conjuncts[i].expr; },
      hit, ctx);
}

Status Executor::PointRefs(const BoundNode& select, const storage::Table& table,
                           EvalContext* ctx, std::vector<const Row*>* out,
                           std::optional<const Row*> probed) {
  // A unique-key lookup is what MySQL's primary-key index does for the
  // paper's per-row scalar queries; any failure in it falls through.
  // An index scan's kNotFound means inapplicable; any other error is a
  // real execution failure.
  if (select.split->key_binding >= 0) {
    Result<const Row*> hit = KeyLookupRef(select, table, ctx, probed);
    if (hit.ok()) {
      if (*hit != nullptr) out->push_back(*hit);
      return Status::OK();
    }
  }
  if (table.index_count() == 0) return Status::NotFound("no index");
  return IndexScanRefs(select, table, ctx, out);
}

Status Executor::SelectRefs(const BoundNode& select,
                            const storage::Table& table, EvalContext* ctx,
                            std::vector<const Row*>* out,
                            std::optional<const Row*> probed) {
  Status point = PointRefs(select, table, ctx, out, probed);
  if (point.code() != StatusCode::kNotFound) return point;
  return FilterScanRefs(select, table, ctx, out);
}

Status Executor::IndexScanRefs(const BoundNode& select,
                               const storage::Table& table, EvalContext* ctx,
                               std::vector<const Row*>* out) {
  // The bindings an index can serve were fixed at bind time: column-free
  // values, the first per column (later ones re-check as residual).
  const BoundScanSplit& split = *select.split;
  const std::vector<std::string>& bound = split.index_usable_columns;
  if (bound.empty()) return Status::NotFound("no index-usable equalities");

  // Choose the widest ready index fully covered by the bindings.
  std::shared_ptr<const storage::SecondaryIndex> index;
  for (const auto& cols : table.IndexedColumnLists()) {
    bool covered = true;
    for (const std::string& col : cols) {
      covered = covered &&
                std::find(bound.begin(), bound.end(), col) != bound.end();
    }
    if (!covered) continue;
    if (index == nullptr || cols.size() > index->columns().size()) {
      std::shared_ptr<const storage::SecondaryIndex> exact =
          table.FindIndex(cols);
      if (exact != nullptr) index = std::move(exact);
    }
  }
  if (index == nullptr) return Status::NotFound("no matching index");

  // The chosen index consumes its columns' bindings, in index-column
  // order. An eval failure falls back to the scan so the row-dependent
  // behavior stays identical (an erroring value expr over an empty table
  // is not an error on the scan path).
  std::vector<bool> used(split.conjuncts.size(), false);
  std::vector<Value> key;
  for (const std::string& col : index->columns()) {
    const size_t c = split.index_usable[std::find(bound.begin(), bound.end(),
                                                  col) -
                                        bound.begin()];
    used[c] = true;
    Result<Value> v = EvalScalar(*split.conjuncts[c].value, ctx);
    if (!v.ok()) return Status::NotFound("probe key did not evaluate");
    key.push_back(std::move(*v));
  }

  IndexHits hits;
  hits.Probe(*index, key, ReadSnapshot(), index_probes_, index_rows_);

  auto residual = [&](size_t i) {
    return used[i] ? nullptr : &split.conjuncts[i].expr;
  };
  const size_t mark = out->size();
  for (const Row* visible : hits.rows) {
    Result<bool> pass =
        HoldsAll(split.conjuncts.size(), residual, *visible, ctx);
    if (!pass.ok()) {
      out->resize(mark);
      return pass.status();
    }
    if (*pass) out->push_back(visible);
  }
  // The bill is the work done: the probe, each visible candidate the
  // residual examined, and the rows out. No scan ran, so none is charged.
  rows_processed_ += 1 + hits.rows.size() + (out->size() - mark);
  if (index_scans_ != nullptr) index_scans_->Increment();
  if (prof_cur_ != nullptr) prof_cur_->label = "IndexScan";
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Join chains. A left-deep run of joins and applies over one base input
// runs as one chain of levels over row references (RefChain): no level
// builds a combined row. Every expression over a chain's rows pushes
// one frame per input and reads the binder's (input, column) slots.
// Levels run one after another, each over every output of the one
// below, exactly as the materializing operators ran, so every error
// surfaces at the same row with the same status and every bill is the
// operators' own.

Result<ResultSet> Executor::ExecChain(const BoundNode& node, EvalContext* ctx) {
  RefChain chain;
  EQSQL_RETURN_IF_ERROR(RunChain(node, ctx, &chain));
  // A consumer other than a Project gets one gathered row per output.
  ResultSet out;
  out.schema = node.schema;
  out.rows.reserve(chain.size());
  std::vector<const Row*> rows(node.inputs);
  for (size_t pos = 0; pos < chain.size(); ++pos) {
    chain.Rows(pos, rows.data());
    Row& row = out.rows.emplace_back();
    row.reserve(node.slots.size());
    for (const ColumnSlot& s : node.slots) {
      row.push_back((*rows[s.input])[s.column]);
    }
  }
  return out;
}

Result<ResultSet> Executor::ProjectChain(const BoundNode& node,
                                         EvalContext* ctx) {
  const BoundNode& child = node.children[0];
  RefChain chain;
  {
    ProfScope prof(this, child);
    EQSQL_RETURN_IF_ERROR(RunChain(child, ctx, &chain));
    prof.Done(chain.size());
  }
  // Each output value is read from its input's row once, straight into
  // the projected row; items evaluate left to right, and the first
  // erroring item aborts the statement.
  ResultSet out;
  out.schema = node.schema;
  out.rows.reserve(chain.size());
  std::vector<const Row*> rows(child.inputs);
  for (size_t pos = 0; pos < chain.size(); ++pos) {
    chain.Rows(pos, rows.data());
    ctx->PushFrames(rows.data(), rows.size());
    Row projected;
    projected.reserve(node.items.size());
    Status status = Status::OK();
    for (const BoundExpr& item : node.items) {
      if (item.op == ScalarOp::kColumnRef && item.error.ok()) {
        projected.push_back(ctx->Column(item.level, item.column));
        continue;
      }
      Result<Value> v = EvalScalar(item, ctx);
      if (!v.ok()) {
        status = v.status();
        break;
      }
      projected.push_back(std::move(*v));
    }
    ctx->PopFrames(rows.size());
    EQSQL_RETURN_IF_ERROR(status);
    out.rows.push_back(std::move(projected));
  }
  rows_processed_ += out.rows.size();
  return out;
}

Status Executor::RunChain(const BoundNode& node, EvalContext* ctx,
                          RefChain* chain) {
  // The base input: a borrowed scan, or any other operator's result.
  const BoundNode& left = node.children[0];
  if (IsChain(left)) {
    ProfScope prof(this, left);
    EQSQL_RETURN_IF_ERROR(RunChain(left, ctx, chain));
    prof.Done(chain->size());
  } else if (left.op == RaOp::kScan && left.table_error.ok()) {
    ProfScope prof(this, left);
    ScanRefs(left, *TableAt(left.table_slot), &chain->base);
    prof.Done(chain->base.size());
  } else {
    EQSQL_ASSIGN_OR_RETURN(ResultSet in, Exec(left, ctx));
    chain->Own(std::move(in.rows), &chain->base);
  }
  switch (node.op) {
    case RaOp::kJoin:
      return JoinLevel(node, /*left_outer=*/false, ctx, chain);
    case RaOp::kLeftOuterJoin:
      return JoinLevel(node, /*left_outer=*/true, ctx, chain);
    default:
      return node.probe ? ProbeLevel(node, ctx, chain)
                        : ApplyLevel(node, ctx, chain);
  }
}

/// The one probe loop. For each output of the chain so far, in order,
/// it pushes that output's input rows as frames and asks
/// `candidates(position, &rows)` for the right rows, which it appends
/// (borrowed, or kept in `chain`) in candidate order. The level emits
/// one (left position, right row) pair per candidate that passes
/// `residual` (a join's, checked with the candidate pushed as the
/// innermost frame; null or empty = always), and for an outer level the
/// NULL pad, `pad_width` wide, when none does. The level bills its
/// outputs, as the materializing operators billed their rows out.
template <typename Candidates>
Status Executor::ProbeLoop(const BoundNode& node, bool outer, size_t pad_width,
                           const std::vector<BoundExpr>* residual,
                           EvalContext* ctx, RefChain* chain,
                           const Candidates& candidates) {
  if (node.inputs == 0) return node.schema_error;
  const size_t left_inputs = node.inputs - 1;
  const bool check = residual != nullptr && !residual->empty();
  auto conjunct = [residual](size_t i) { return &(*residual)[i]; };
  const Row* pad =
      outer ? chain->Keep(Row(pad_width, Value::Null())) : nullptr;
  RefChain::Level level;
  std::vector<const Row*> rows(left_inputs);
  std::vector<const Row*> found;
  const size_t n = chain->size();
  for (size_t pos = 0; pos < n; ++pos) {
    chain->Rows(pos, rows.data());
    ctx->PushFrames(rows.data(), left_inputs);
    found.clear();
    Status status = candidates(pos, &found);
    bool matched = false;
    for (size_t i = 0; status.ok() && i < found.size(); ++i) {
      if (check) {
        Result<bool> pass =
            HoldsAll(residual->size(), conjunct, *found[i], ctx);
        if (!pass.ok()) {
          status = pass.status();
          break;
        }
        if (!*pass) continue;
      }
      level.left.push_back(pos);
      level.right.push_back(found[i]);
      matched = true;
    }
    ctx->PopFrames(left_inputs);
    EQSQL_RETURN_IF_ERROR(status);
    if (outer && !matched) {
      level.left.push_back(pos);
      level.right.push_back(pad);
    }
  }
  rows_processed_ += level.right.size();
  chain->levels.push_back(std::move(level));
  return Status::OK();
}

namespace {

/// Evaluates `exprs` over the pushed frames into `key`; false if any is
/// NULL, since NULL keys never match.
template <typename EvalFn>
Result<bool> EvalKey(const std::vector<BoundExpr>& exprs, const EvalFn& eval,
                     std::vector<Value>* key) {
  key->clear();
  bool usable = true;
  for (const BoundExpr& e : exprs) {
    EQSQL_ASSIGN_OR_RETURN(Value v, eval(e));
    usable = usable && !v.is_null();
    key->push_back(std::move(v));
  }
  return usable;
}

}  // namespace

Status Executor::JoinLevel(const BoundNode& node, bool left_outer,
                           EvalContext* ctx, RefChain* chain) {
  // Index nested loop: when the right side is a base scan whose equi-key
  // columns exactly cover a ready index, the index supplies each left
  // row's candidates and the right side is never scanned; each probe
  // bills itself and its visible candidates.
  const BoundNode& right_node = node.children[1];
  const bool base_scan =
      right_node.op == RaOp::kScan && right_node.table_error.ok();
  const storage::Table* table =
      base_scan ? TableAt(right_node.table_slot) : nullptr;
  std::shared_ptr<const storage::SecondaryIndex> index;
  std::vector<size_t> perm;
  if (table != nullptr && table->index_count() > 0 && node.join.has_value()) {
    index = JoinIndex(node.join->index_columns, *table, &perm);
  }
  auto eval = [this, ctx](const BoundExpr& e) { return EvalScalar(e, ctx); };
  // Otherwise the candidates come from a hash build over the right rows
  // (a base scan's borrowed, any other right side's kept), which
  // evaluates every right key before any left key. With no key every
  // right row is a candidate of every left row under the one empty key:
  // a nested loop.
  std::unordered_map<std::vector<Value>, std::vector<const Row*>, RowVecHash,
                     RowVecEq>
      build;
  std::vector<Value> key;
  if (index == nullptr) {
    std::vector<const Row*> right;
    if (table != nullptr) {
      ProfScope prof(this, right_node);
      ScanRefs(right_node, *table, &right);
      prof.Done(right.size());
    } else {
      EQSQL_ASSIGN_OR_RETURN(ResultSet rs, Exec(right_node, ctx));
      chain->Own(std::move(rs.rows), &right);
    }
    if (!node.join.has_value()) return node.schema_error;
    for (const Row* rrow : right) {
      ctx->PushFrame(rrow);
      Result<bool> usable = EvalKey(node.join->right_keys, eval, &key);
      ctx->PopFrame();
      if (!usable.ok()) return usable.status();
      if (*usable) build[std::move(key)].push_back(rrow);
    }
  }
  if (!node.join.has_value()) return node.schema_error;
  const BoundJoin& join = *node.join;
  const storage::Snapshot snap = ReadSnapshot();
  IndexHits hits;
  std::vector<Value> probe;
  EQSQL_RETURN_IF_ERROR(ProbeLoop(
      node, left_outer, right_node.schema->size(), &join.residual, ctx, chain,
      [&](size_t, std::vector<const Row*>* out) -> Status {
        EQSQL_ASSIGN_OR_RETURN(bool usable,
                               EvalKey(join.left_keys, eval, &key));
        if (!usable) return Status::OK();
        if (index != nullptr) {
          probe.clear();
          for (size_t j : perm) probe.push_back(key[j]);
          hits.Probe(*index, probe, snap, index_nlj_probes_, index_rows_);
          rows_processed_ += 1 + hits.rows.size();
          out->insert(out->end(), hits.rows.begin(), hits.rows.end());
          return Status::OK();
        }
        auto it = build.find(key);
        if (it != build.end()) {
          out->insert(out->end(), it->second.begin(), it->second.end());
        }
        return Status::OK();
      }));
  if (index != nullptr && prof_cur_ != nullptr) {
    prof_cur_->label = "IndexNestedLoopJoin";
  }
  return Status::OK();
}

Status Executor::ProbeLevel(const BoundNode& node, EvalContext* ctx,
                            RefChain* chain) {
  // The right side, Project?(Select(Scan R)), runs as its operators
  // would, without a ResultSet: the Select's access path supplies the
  // candidates, and the Project bills them as its rows out. Its row is
  // R's own when the binder mapped every item to a column of R, and
  // otherwise the items, computed over the hit pushed as the
  // innermost frame.
  const BoundNode& right = node.children[1];
  const BoundNode* project = right.op == RaOp::kProject ? &right : nullptr;
  const BoundNode& select = project != nullptr ? right.children[0] : right;
  const storage::Table& table = *TableAt(select.children[0].table_slot);
  const size_t width =
      node.probe_borrows ? select.schema->size() : right.schema->size();
  // A key binding whose value is a plain column (T7's `d.aid = a.id`) is
  // pure, so the level reads it for a window of left rows ahead of them
  // and probes the key once per window (Table::ProbeKeys); each row then
  // runs its access path in order with its hit ready.
  const BoundScanSplit& split = *select.split;
  const BoundExpr* key = split.key_binding >= 0
                             ? &*split.conjuncts[split.key_binding].value
                             : nullptr;
  const bool batched =
      key != nullptr && key->op == ScalarOp::kColumnRef && key->error.ok();
  constexpr size_t kWindow = 64;
  size_t window = 0;  // first position of the resolved window
  size_t resolved = 0;
  std::vector<Value> values(kWindow);
  std::vector<const Value*> probes(kWindow);
  std::vector<const Row*> hits(kWindow);
  std::vector<const Row*> rows(node.inputs);
  auto probed = [&](size_t pos) -> std::optional<const Row*> {
    if (!batched) return std::nullopt;
    if (pos >= window + resolved) {
      window = pos;
      resolved = std::min(kWindow, chain->size() - pos);
      for (size_t i = 0; i < resolved; ++i) {
        if (key->level < node.depth) {
          values[i] = ctx->Column(key->level, key->column);
        } else {
          chain->Rows(pos + i, rows.data());
          values[i] = (*rows[key->level - node.depth])[key->column];
        }
        // NULL equals nothing, so a NULL probe is a miss.
        probes[i] = values[i].is_null() ? nullptr : &values[i];
      }
      table.ProbeKeys(probes.data(), resolved, ReadSnapshot(), hits.data());
    }
    return hits[pos - window];
  };
  return ProbeLoop(
      node, /*outer=*/true, width, /*residual=*/nullptr, ctx, chain,
      [&](size_t pos, std::vector<const Row*>* out) -> Status {
        ProfScope top(this, right);
        if (project == nullptr) {
          EQSQL_RETURN_IF_ERROR(
              SelectRefs(select, table, ctx, out, probed(pos)));
          top.Done(out->size());
          return Status::OK();
        }
        {
          ProfScope inner(this, select);
          EQSQL_RETURN_IF_ERROR(
              SelectRefs(select, table, ctx, out, probed(pos)));
          inner.Done(out->size());
        }
        for (size_t i = 0; !node.probe_borrows && i < out->size(); ++i) {
          ctx->PushFrame((*out)[i]);
          Row projected;
          projected.reserve(project->items.size());
          Status status = Status::OK();
          for (const BoundExpr& item : project->items) {
            Result<Value> v = EvalScalar(item, ctx);
            if (!v.ok()) {
              status = v.status();
              break;
            }
            projected.push_back(std::move(*v));
          }
          ctx->PopFrame();
          EQSQL_RETURN_IF_ERROR(status);
          (*out)[i] = chain->Keep(std::move(projected));
        }
        rows_processed_ += out->size();
        top.Done(out->size());
        return Status::OK();
      });
}

Status Executor::ApplyLevel(const BoundNode& node, EvalContext* ctx,
                            RefChain* chain) {
  // The padding width needs the right side's schema before any row runs.
  const BoundNode& right = node.children[1];
  if (!right.schema_error.ok()) return right.schema_error;
  return ProbeLoop(node, /*outer=*/true, right.schema->size(),
                   /*residual=*/nullptr, ctx, chain,
                   [&](size_t, std::vector<const Row*>* out) -> Status {
                     EQSQL_ASSIGN_OR_RETURN(ResultSet inner, Exec(right, ctx));
                     chain->Own(std::move(inner.rows), out);
                     return Status::OK();
                   });
}

// ---------------------------------------------------------------------------
// The batch operators. Select, Project and GroupBy evaluate their
// expressions a batch at a time into lane vectors (exec/batch.h), and
// pick the same rows, the same error (the lowest sequence number,
// left-to-right within a row) and charge the same rows_processed_ and
// storage.scan.* however the scan is split into shards and batches.
// Only exec.batch.* observability and speed depend on the layout.
//
// The three scan shapes have one implementation each: a consumer that
// ScanShards feeds every shard's batches. Whether the shards run on the
// pool or inline changes where the consumer runs and which per-shard
// observability is charged, never the answer or the shard-invariant
// charges.

namespace {

/// Refills `batch` from `cursor`; returns the chunk's row count
/// (0 = shard exhausted).
size_t NextBatch(storage::ShardScanCursor* cursor, Batch* batch) {
  batch->seqs.clear();
  batch->rows.clear();
  batch->wire_bytes = 0;
  return cursor->Next(kBatchCapacity, &batch->seqs, &batch->rows,
                      &batch->wire_bytes);
}

/// A group's row tagged with the lowest seq folded into it.
using SeqRow = std::pair<size_t, Row>;

/// Sorts `rows` by seq and drops the tags: a serial fold's first-seen
/// order.
std::vector<Row> InSeqOrder(std::vector<SeqRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const SeqRow& a, const SeqRow& b) { return a.first < b.first; });
  std::vector<Row> out;
  out.reserve(rows.size());
  for (SeqRow& r : rows) out.push_back(std::move(r.second));
  return out;
}

/// The lowest-seq failure seen so far, which is where a serial walk of
/// the scan in seq order would abort. Slots within a
/// shard are not guaranteed seq-ordered (concurrent keyless inserts
/// allocate seq before taking the shard lock), so evaluation continues
/// past a failure: lanes above it cannot change the outcome, lanes
/// below it may still fail first.
struct SeqFailure {
  Status status = Status::OK();
  size_t seq = 0;

  bool ok() const { return status.ok(); }
  bool Skips(size_t s) const { return !status.ok() && s > seq; }
  void Note(const Status& st, size_t s) {
    if (status.ok() || s < seq) {
      status = st;
      seq = s;
    }
  }
  void Merge(const SeqFailure& other) {
    if (!other.ok()) Note(other.status, other.seq);
  }
};

/// A borrowed row tagged with its insertion sequence number.
using SeqRef = std::pair<size_t, const Row*>;

/// One slot of a row-producing scan shape: the borrowed rows it keeps,
/// tagged with their seq, the lowest-seq predicate failure (a plain
/// scan never fails), and the filter's per-batch scratch.
struct ShardRows {
  std::vector<SeqRef> rows;
  SeqFailure fail;
  Vec pred;
  std::vector<uint32_t> sel;
};

/// The slots' borrowed rows in seq order (the serial scan's insertion
/// order), appended to `out`. Each slot holds one shard's run, which
/// storage::OrderSeqRuns checks, sorts only if it must, and merges.
void RefsInSeqOrder(std::vector<ShardRows>* slots,
                    std::vector<const Row*>* out) {
  std::vector<SeqRef>& all = slots->front().rows;
  std::vector<size_t> run_ends{all.size()};
  for (size_t i = 1; i < slots->size(); ++i) {
    const std::vector<SeqRef>& part = (*slots)[i].rows;
    all.insert(all.end(), part.begin(), part.end());
    run_ends.push_back(all.size());
  }
  storage::OrderSeqRuns(&all, std::move(run_ends));
  out->reserve(out->size() + all.size());
  for (const SeqRef& r : all) out->push_back(r.second);
}

/// Pointers to `rows`, the form CompiledExpr::Eval reads: a
/// materialized input is evaluated in place, like a scan's borrowed
/// rows.
std::vector<const Row*> RowPointers(const std::vector<Row>& rows) {
  std::vector<const Row*> ptrs(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) ptrs[i] = &rows[i];
  return ptrs;
}

}  // namespace

/// An operator's expressions for one execution. Compiled, each reads
/// the input row in place, with parameters and outer frames folded.
/// When any contains a subquery, none is compiled: EvalLanes evaluates
/// them all one row at a time, left to right, so the same subplans run,
/// in the same order, with the same bills as row-at-a-time evaluation
/// (AND, OR and CASE kernels evaluate both sides on every lane).
struct Executor::Exprs {
  std::vector<const BoundExpr*> bound;                  // null: COUNT(*)
  std::vector<std::unique_ptr<CompiledExpr>> compiled;  // empty per row
  bool per_row = false;
};

Executor::Exprs Executor::Prepare(std::vector<const BoundExpr*> bound,
                                  size_t level, EvalContext* ctx) const {
  Exprs exprs;
  exprs.bound = std::move(bound);
  for (const BoundExpr* b : exprs.bound) {
    std::unique_ptr<CompiledExpr> c;
    if (b != nullptr) {
      c = CompiledExpr::Compile(*b, level, *ctx);
      if (c == nullptr) {
        exprs.compiled.clear();
        exprs.per_row = true;
        return exprs;
      }
    }
    exprs.compiled.push_back(std::move(c));
  }
  return exprs;
}

size_t Executor::EvalLanes(const Exprs& exprs, const Row* const* rows,
                           size_t n, EvalContext* ctx, std::vector<Vec>* out) {
  out->resize(exprs.bound.size());
  if (!exprs.per_row) {
    RecordBatch(n);
    for (size_t k = 0; k < exprs.compiled.size(); ++k) {
      if (exprs.compiled[k] != nullptr) {
        exprs.compiled[k]->Eval(rows, n, &(*out)[k]);
      }
    }
    return n;
  }
  for (Vec& v : *out) v.ResetBoxed(n);
  for (size_t i = 0; i < n; ++i) {
    ctx->PushFrame(rows[i]);
    for (size_t k = 0; k < exprs.bound.size(); ++k) {
      if (exprs.bound[k] == nullptr) continue;
      Result<Value> v = EvalScalar(*exprs.bound[k], ctx);
      if (!v.ok()) {
        // The batch ends at the failing lane: later expressions of this
        // row and later rows are never evaluated.
        ctx->PopFrame();
        (*out)[k].SetErr(i, v.status());
        for (Vec& lanes : *out) lanes.n = i + 1;
        return i + 1;
      }
      (*out)[k].boxed[i] = std::move(*v);
    }
    ctx->PopFrame();
  }
  return n;
}

Status Executor::FilterRows(const Exprs& pred, const Row* const* rows,
                            size_t n, EvalContext* ctx,
                            std::vector<size_t>* keep) {
  std::vector<Vec> v;
  std::vector<uint32_t> sel;
  for (size_t off = 0; off < n; off += kBatchCapacity) {
    const size_t cnt = std::min(kBatchCapacity, n - off);
    const size_t lanes = EvalLanes(pred, rows + off, cnt, ctx, &v);
    if (v[0].has_err) {
      // Lanes are in row order, so the first error lane is the first
      // failing row.
      for (size_t i = 0; i < lanes; ++i) {
        if (v[0].ErrAt(i)) return v[0].ErrStatus(i);
        if (IsTruthy(v[0].At(i))) keep->push_back(off + i);
      }
      continue;
    }
    sel.clear();
    AppendTruthySelection(v[0], &sel);
    for (uint32_t i : sel) keep->push_back(off + i);
  }
  return Status::OK();
}

template <typename Slot, typename Consume>
Executor::ShardScan Executor::ScanShards(const storage::Table& table,
                                         const char* span,
                                         bool slot_per_shard,
                                         std::vector<Slot>* slots,
                                         const Consume& consume) {
  const size_t shards = table.shard_count();
  const bool pooled = pool_ != nullptr && shards > 1 &&
                      table.row_count() >= parallel_threshold_;
  slots->clear();
  slots->resize(pooled || slot_per_shard ? shards : 1);
  const storage::Snapshot snap = ReadSnapshot();
  std::vector<ShardScan> scanned(shards);
  // The one shard task body; only where it runs differs below.
  auto scan_shard = [&](size_t s, Slot* slot) {
    storage::ShardScanCursor cursor(table, s, snap);
    Batch batch;
    for (size_t n = NextBatch(&cursor, &batch); n != 0;
         n = NextBatch(&cursor, &batch)) {
      RecordBatch(n);
      scanned[s].rows += n;
      scanned[s].bytes += batch.wire_bytes;
      consume(&batch, slot);
    }
  };
  if (!pooled) {
    for (size_t s = 0; s < shards; ++s) {
      scan_shard(s, &(*slots)[slot_per_shard ? s : 0]);
    }
  } else {
    if (parallel_batches_ != nullptr) parallel_batches_->Increment();
    // Per-shard counter handles, resolved here so tasks never take the
    // registry mutex; profile slots are sized here too, and each task
    // writes only slot s, published by the pool barrier.
    struct ShardCounters {
      obs::Counter* rows;
      obs::Counter* bytes;
      obs::Counter* ns;
    };
    std::vector<ShardCounters> counters;
    if (metrics_ != nullptr) {
      for (size_t s = 0; s < shards; ++s) {
        const std::string prefix =
            "storage.shard." + std::to_string(s) + ".scan.";
        counters.push_back({metrics_->counter(prefix + "rows"),
                            metrics_->counter(prefix + "bytes"),
                            metrics_->counter(prefix + "ns")});
      }
    }
    obs::ProfileNode* prof = prof_cur_;
    if (prof != nullptr) prof->shards.resize(shards);
    const obs::SpanContext parent = obs::CurrentSpanContext();
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      tasks.push_back([&, s] {
        obs::ScopedContext tctx(parent);
        obs::ScopedSpan tspan(span);
        if (tspan.active()) tspan.Attr("shard", std::to_string(s));
        const int64_t t0 = NowNs();
        scan_shard(s, &(*slots)[s]);
        const int64_t elapsed = NowNs() - t0;
        if (!counters.empty()) {
          counters[s].rows->Add(static_cast<int64_t>(scanned[s].rows));
          counters[s].bytes->Add(static_cast<int64_t>(scanned[s].bytes));
          counters[s].ns->Add(elapsed);
          shard_scan_ns_->Record(elapsed);
        }
        if (prof != nullptr) {
          prof->shards[s].rows += static_cast<int64_t>(scanned[s].rows);
          prof->shards[s].wall_ns += elapsed;
        }
      });
    }
    pool_->Run(std::move(tasks));
  }
  ShardScan total;
  for (const ShardScan& s : scanned) {
    total.rows += s.rows;
    total.bytes += s.bytes;
  }
  return total;
}

void Executor::ScanRefs(const BoundNode& scan, const storage::Table& table,
                        std::vector<const Row*>* out) {
  std::vector<ShardRows> slots;
  const ShardScan scanned =
      ScanShards(table, "shard-scan", /*slot_per_shard=*/true, &slots,
                 [](Batch* batch, ShardRows* r) {
                   for (size_t i = 0; i < batch->size(); ++i) {
                     r->rows.emplace_back(batch->seqs[i], batch->rows[i]);
                   }
                 });
  RefsInSeqOrder(&slots, out);
  rows_processed_ += scanned.rows;
  if (scan_rows_ != nullptr) RecordScan(scanned.rows, scanned.bytes);
}

Status Executor::FilterScanRefs(const BoundNode& select,
                                const storage::Table& table,
                                EvalContext* ctx,
                                std::vector<const Row*>* out) {
  const Exprs pred = Prepare({&select.predicate}, select.depth, ctx);
  const size_t mark = out->size();
  if (pred.per_row) {
    // Never fused and never pooled: the subqueries run on this thread,
    // over the scan's rows in insertion order.
    std::vector<const Row*> rows;
    {
      ProfScope prof(this, select.children[0]);
      ScanRefs(select.children[0], table, &rows);
      prof.Done(rows.size());
    }
    std::vector<size_t> keep;
    EQSQL_RETURN_IF_ERROR(
        FilterRows(pred, rows.data(), rows.size(), ctx, &keep));
    for (size_t i : keep) out->push_back(rows[i]);
    rows_processed_ += out->size() - mark;
    return Status::OK();
  }
  // A CompiledExpr is immutable and side-effect-free (nothing with a
  // subquery compiles), so shard tasks share one tree and charge no
  // subquery rows.
  const CompiledExpr& compiled = *pred.compiled[0];
  std::vector<ShardRows> slots;
  const ShardScan scanned = ScanShards(
      table, "shard-filter", /*slot_per_shard=*/true, &slots,
      [&compiled](Batch* batch, ShardRows* r) {
        const size_t n = batch->size();
        compiled.Eval(batch->rows.data(), n, &r->pred);
        if (!r->pred.has_err && r->fail.ok()) {
          r->sel.clear();
          AppendTruthySelection(r->pred, &r->sel);
          for (uint32_t i : r->sel) {
            r->rows.emplace_back(batch->seqs[i], batch->rows[i]);
          }
          return;
        }
        // Once a failure is known the matched rows are moot; only a
        // lower failing seq can still change the outcome.
        for (size_t i = 0; i < n; ++i) {
          if (r->pred.ErrAt(i)) {
            r->fail.Note(r->pred.ErrStatus(i), batch->seqs[i]);
          }
        }
      });
  // The scan is charged in full before the filter's error surfaces, as
  // a scan materialized ahead of its filter would be.
  rows_processed_ += scanned.rows;
  if (scan_rows_ != nullptr) RecordScan(scanned.rows, scanned.bytes);
  SeqFailure fail;
  for (const ShardRows& r : slots) fail.Merge(r.fail);
  if (!fail.ok()) return fail.status;
  RefsInSeqOrder(&slots, out);
  rows_processed_ += out->size() - mark;
  return Status::OK();
}

Result<ResultSet> Executor::Filter(const BoundNode& node, ResultSet in,
                                   EvalContext* ctx) {
  const Exprs pred = Prepare({&node.predicate}, node.depth, ctx);
  const std::vector<const Row*> ptrs = RowPointers(in.rows);
  std::vector<size_t> keep;
  EQSQL_RETURN_IF_ERROR(FilterRows(pred, ptrs.data(), ptrs.size(), ctx, &keep));
  ResultSet out;
  out.schema = node.schema;
  out.rows.reserve(keep.size());
  for (size_t i : keep) out.rows.push_back(std::move(in.rows[i]));
  rows_processed_ += out.rows.size();
  return out;
}

Result<ResultSet> Executor::Project(const BoundNode& node, ResultSet in,
                                    EvalContext* ctx) {
  std::vector<const BoundExpr*> bound;
  for (const BoundExpr& item : node.items) bound.push_back(&item);
  const Exprs items = Prepare(std::move(bound), node.depth, ctx);
  ResultSet out;
  out.schema = node.schema;
  out.rows.reserve(in.rows.size());
  const std::vector<const Row*> ptrs = RowPointers(in.rows);
  std::vector<Vec> vs;
  for (size_t off = 0; off < ptrs.size(); off += kBatchCapacity) {
    const size_t cnt = std::min(kBatchCapacity, ptrs.size() - off);
    const size_t lanes = EvalLanes(items, ptrs.data() + off, cnt, ctx, &vs);
    for (size_t i = 0; i < lanes; ++i) {
      Row projected;
      projected.reserve(vs.size());
      // Items evaluate left to right per row: the first erroring item
      // aborts the statement.
      for (const Vec& v : vs) {
        if (v.ErrAt(i)) return v.ErrStatus(i);
        projected.push_back(v.At(i));
      }
      out.rows.push_back(std::move(projected));
    }
  }
  rows_processed_ += out.rows.size();
  return out;
}

/// A group-by's expressions: exprs[0..keys) are the group keys and the
/// rest one aggregate argument each (null for COUNT(*), which reads no
/// input). `pred` is the fused scan's filter, when there is one.
struct Executor::GroupPlan {
  size_t keys = 0;
  Exprs exprs;
  std::unique_ptr<CompiledExpr> pred;
};

/// The one batch group-by fold. Lanes carry seqs; each group remembers
/// the lowest seq folded into it, so output order is a serial fold's
/// first-seen order however the lanes arrived. Failures follow the
/// filter-before-fold rule: the filter runs over the whole scan before
/// the fold sees a row, so any predicate failure outranks any key or
/// aggregate failure, and within each kind the lowest seq wins (keys
/// before aggregates, left to right, in a row).
struct Executor::GroupPartial {
  // Typed fast path: a single integer group key whose aggregate inputs
  // are all integer (or COUNT(*), which reads none) folds through an
  // int64-keyed map with primitive partials — no Value is boxed per
  // lane. A typed Vec holds no NULL and no error lanes by construction,
  // so the fast path cannot diverge from the boxed fold's NULL handling
  // or error selection, and integer sums are exact in any order. The
  // first batch that evaluates to anything untyped demotes the fast
  // groups into the boxed representation, which takes over for good.
  bool fast_active = true;
  std::unordered_map<int64_t, size_t> fast_index;
  std::vector<int64_t> fast_keys;
  std::vector<std::vector<FastIntAgg>> fast_states;
  std::vector<size_t> fast_seqs;

  std::unordered_map<std::vector<Value>, size_t, RowVecHash, RowVecEq> index;
  std::vector<std::vector<Value>> keys;
  std::vector<std::vector<AggState>> states;
  std::vector<size_t> seqs;  // lowest seq folded into each group

  size_t matched = 0;  // lanes that passed the predicate
  SeqFailure pred_fail;
  SeqFailure fold_fail;

  // Per-batch lanes: the predicate's, and the plan's expressions'.
  Vec pv;
  std::vector<Vec> vs;

  /// Evaluates the compiled plan over `n` rows whose seqs are
  /// `lane_seqs` and folds them (the fused scan's shard consumer).
  void Fold(const GroupPlan& plan, const Row* const* rows,
            const size_t* lane_seqs, size_t n) {
    if (plan.pred != nullptr) plan.pred->Eval(rows, n, &pv);
    vs.resize(plan.exprs.compiled.size());
    for (size_t k = 0; k < vs.size(); ++k) {
      if (plan.exprs.compiled[k] != nullptr) {
        plan.exprs.compiled[k]->Eval(rows, n, &vs[k]);
      }
    }
    FoldLanes(plan, lane_seqs, n);
  }

  /// Folds lanes 0..n of `vs` (and of `pv`, when the plan filters).
  void FoldLanes(const GroupPlan& plan, const size_t* lane_seqs, size_t n) {
    const bool filtered = plan.pred != nullptr;
    const std::vector<const BoundExpr*>& bound = plan.exprs.bound;
    const size_t num_aggs = bound.size() - plan.keys;
    const Vec* av = vs.data() + plan.keys;
    if (fast_active) {
      bool typed = plan.keys == 1 && vs[0].tag == Vec::Tag::kInt &&
                   (!filtered || !pv.has_err);
      for (size_t a = 0; typed && a < num_aggs; ++a) {
        typed = bound[plan.keys + a] == nullptr || av[a].tag == Vec::Tag::kInt;
      }
      if (typed) {
        const int64_t* lanes = vs[0].ints.data();
        const bool pred_bool = filtered && pv.tag == Vec::Tag::kBool;
        for (size_t i = 0; i < n; ++i) {
          if (filtered) {
            if (!(pred_bool ? pv.bools[i] != 0 : IsTruthy(pv.At(i)))) continue;
            ++matched;
          }
          const size_t seq = lane_seqs[i];
          auto [it, inserted] = fast_index.emplace(lanes[i], fast_keys.size());
          if (inserted) {
            fast_keys.push_back(lanes[i]);
            fast_states.emplace_back(num_aggs);
            fast_seqs.push_back(seq);
          } else if (seq < fast_seqs[it->second]) {
            fast_seqs[it->second] = seq;
          }
          std::vector<FastIntAgg>& group = fast_states[it->second];
          for (size_t a = 0; a < num_aggs; ++a) {
            if (bound[plan.keys + a] == nullptr) {
              ++group[a].count;  // COUNT(*)
              continue;
            }
            group[a].Update(av[a].ints[i]);
          }
        }
        return;
      }
      Demote();
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t seq = lane_seqs[i];
      if (filtered) {
        if (pv.ErrAt(i)) {
          pred_fail.Note(pv.ErrStatus(i), seq);
          continue;
        }
        if (!IsTruthy(pv.At(i))) continue;
        ++matched;
      }
      if (fold_fail.Skips(seq)) continue;
      std::vector<Value> key;
      key.reserve(plan.keys);
      bool lane_failed = false;
      for (size_t k = 0; k < plan.keys; ++k) {
        if (vs[k].ErrAt(i)) {
          fold_fail.Note(vs[k].ErrStatus(i), seq);
          lane_failed = true;
          break;
        }
        key.push_back(vs[k].At(i));
      }
      if (lane_failed) continue;
      auto [it, inserted] = index.emplace(key, keys.size());
      if (inserted) {
        keys.push_back(std::move(key));
        states.emplace_back(num_aggs);
        seqs.push_back(seq);
      } else if (seq < seqs[it->second]) {
        seqs[it->second] = seq;
      }
      std::vector<AggState>& group = states[it->second];
      for (size_t a = 0; a < num_aggs; ++a) {
        if (bound[plan.keys + a] == nullptr) {
          ++group[a].count;  // COUNT(*)
          continue;
        }
        if (av[a].ErrAt(i)) {
          fold_fail.Note(av[a].ErrStatus(i), seq);
          break;
        }
        group[a].Update(av[a].At(i));
      }
    }
  }

  /// Moves the fast groups into the boxed representation. The fast
  /// path is only ever active before any boxed group exists, so
  /// first-seen order survives unchanged.
  void Demote() {
    fast_active = false;
    for (size_t g = 0; g < fast_keys.size(); ++g) {
      std::vector<Value> key{Value::Int(fast_keys[g])};
      index.emplace(key, keys.size());
      std::vector<AggState> group(fast_states[g].size());
      for (size_t a = 0; a < group.size(); ++a) {
        group[a] = fast_states[g][a].ToAggState();
      }
      keys.push_back(std::move(key));
      states.push_back(std::move(group));
      seqs.push_back(fast_seqs[g]);
    }
    fast_index.clear();
    fast_keys.clear();
    fast_states.clear();
    fast_seqs.clear();
  }

  /// Folds another shard's partial into this one. Only reached under
  /// the group-by's exactness gate, so every state merge is exact.
  void Merge(GroupPartial* other) {
    pred_fail.Merge(other->pred_fail);
    fold_fail.Merge(other->fold_fail);
    matched += other->matched;
    Demote();
    other->Demote();
    for (size_t g = 0; g < other->keys.size(); ++g) {
      auto [it, inserted] = index.emplace(other->keys[g], keys.size());
      if (!inserted) {
        for (size_t a = 0; a < states[it->second].size(); ++a) {
          states[it->second][a].Merge(other->states[g][a]);
        }
        seqs[it->second] = std::min(seqs[it->second], other->seqs[g]);
        continue;
      }
      keys.push_back(std::move(other->keys[g]));
      states.push_back(std::move(other->states[g]));
      seqs.push_back(other->seqs[g]);
    }
  }

  /// The finalized groups in first-seen order. A scalar aggregation (no
  /// keys) over empty input still produces its one row.
  std::vector<Row> Finish(const std::vector<ra::AggregateSpec>& aggs,
                          bool scalar) {
    Demote();
    if (scalar && keys.empty()) {
      keys.emplace_back();
      states.emplace_back(aggs.size());
      seqs.push_back(0);
    }
    std::vector<SeqRow> rows;
    rows.reserve(keys.size());
    for (size_t g = 0; g < keys.size(); ++g) {
      Row row = std::move(keys[g]);
      for (size_t a = 0; a < aggs.size(); ++a) {
        row.push_back(states[g][a].Finalize(aggs[a].func));
      }
      rows.emplace_back(seqs[g], std::move(row));
    }
    return InSeqOrder(std::move(rows));
  }
};

Result<ResultSet> Executor::ExecGroupBy(const BoundNode& node,
                                        EvalContext* ctx) {
  GroupPlan plan;
  std::vector<const BoundExpr*> bound;
  for (const BoundExpr& k : node.keys) bound.push_back(&k);
  const std::vector<ra::AggregateSpec>& aggs = node.source->aggregates();
  for (size_t a = 0; a < aggs.size(); ++a) {
    bound.push_back(aggs[a].func == ra::AggFunc::kCountStar ? nullptr
                                                            : &node.aggs[a]);
  }
  plan.keys = node.keys.size();
  plan.exprs = Prepare(std::move(bound), node.depth, ctx);
  // The fused path applies when the input is a (possibly filtered) base
  // scan and every value that can reach an aggregation state is exact
  // (the binder's exact_fold gate), with no outer frames (a correlated
  // outer column could be a double). Under those gates fold order
  // cannot change a state, so shard partials merge exactly and group
  // order comes from each group's lowest seq — byte-identical to a
  // serial fold. A filter with a binding on the unique key stays on the
  // unfused path, which keeps the key lookup's 1-probe charge, and so
  // does a filter with bindings an index may serve while the table has
  // one: the Select then takes its access path.
  const BoundNode& child = node.children[0];
  if (node.depth == 0 && node.exact_fold && !plan.exprs.per_row) {
    const BoundNode* select = child.op == RaOp::kSelect ? &child : nullptr;
    const BoundNode& scan = select != nullptr ? child.children[0] : child;
    const storage::Table& table = *TableAt(scan.table_slot);
    const bool index_served = select != nullptr &&
                              !select->split->index_usable.empty() &&
                              table.index_count() > 0;
    if (select != nullptr && !index_served) {
      plan.pred = CompiledExpr::Compile(select->predicate, select->depth, *ctx);
    }
    if (!index_served && (select == nullptr || plan.pred != nullptr)) {
      return ExecGroupByBatch(node, table, plan);
    }
  }
  EQSQL_ASSIGN_OR_RETURN(ResultSet in, Exec(child, ctx));
  return GroupByFold(node, std::move(in), plan, ctx);
}

Result<ResultSet> Executor::GroupByFold(const BoundNode& node, ResultSet in,
                                        const GroupPlan& plan,
                                        EvalContext* ctx) {
  ResultSet out;
  out.schema = node.schema;
  // Lanes carry their row index as seq, so the fold's first-seen order
  // and lowest-seq error pick are the input's row order, and states
  // fold in that order: no partials merge, so no exactness gate is
  // needed.
  GroupPartial fold;
  const std::vector<const Row*> ptrs = RowPointers(in.rows);
  std::vector<size_t> seqs;
  for (size_t off = 0; off < ptrs.size(); off += kBatchCapacity) {
    const size_t cnt = std::min(kBatchCapacity, ptrs.size() - off);
    const size_t lanes =
        EvalLanes(plan.exprs, ptrs.data() + off, cnt, ctx, &fold.vs);
    seqs.resize(lanes);
    std::iota(seqs.begin(), seqs.end(), off);
    fold.FoldLanes(plan, seqs.data(), lanes);
    // No later batch holds a lower seq: the fold stops here.
    if (!fold.fold_fail.ok()) return fold.fold_fail.status;
  }
  out.rows = fold.Finish(node.source->aggregates(), plan.keys == 0);
  rows_processed_ += out.rows.size();
  return out;
}

Result<ResultSet> Executor::ExecGroupByBatch(const BoundNode& node,
                                             const storage::Table& table,
                                             const GroupPlan& plan) {
  ResultSet out;
  out.schema = node.schema;
  // Inline, every shard folds into one partial and no merge is paid;
  // pooled, each shard folds its own and they merge here.
  std::vector<GroupPartial> partials;
  const ShardScan scanned = ScanShards(
      table, "shard-aggregate", /*slot_per_shard=*/false, &partials,
      [&plan](Batch* batch, GroupPartial* p) {
        p->Fold(plan, batch->rows.data(), batch->seqs.data(), batch->size());
      });
  GroupPartial& all = partials.front();
  for (size_t i = 1; i < partials.size(); ++i) all.Merge(&partials[i]);
  // The scan's costs land in full before any filter or fold error
  // surfaces, and the filter's output before any fold error, exactly as
  // the unfused scan, filter and fold charge them.
  rows_processed_ += scanned.rows;
  if (scan_rows_ != nullptr) RecordScan(scanned.rows, scanned.bytes);
  if (!all.pred_fail.ok()) return all.pred_fail.status;
  rows_processed_ += all.matched;
  if (!all.fold_fail.ok()) return all.fold_fail.status;
  out.rows = all.Finish(node.source->aggregates(), plan.keys == 0);
  rows_processed_ += out.rows.size();
  return out;
}

}  // namespace eqsql::exec
