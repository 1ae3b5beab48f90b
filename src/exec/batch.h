#ifndef EQSQL_EXEC_BATCH_H_
#define EQSQL_EXEC_BATCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "catalog/schema.h"
#include "common/result.h"
#include "exec/binder.h"
#include "ra/scalar_expr.h"

namespace eqsql::exec {

/// Rows per column batch. 1024 keeps one batch's columns inside the
/// cache working set while amortizing per-batch dispatch to noise
/// (DuckDB-style DataChunk sizing).
inline constexpr size_t kBatchCapacity = 1024;

/// One scan chunk flowing through the vectorized operators: up to
/// kBatchCapacity rows materialized from a shard's visible MVCC
/// versions, parallel to their insertion sequence numbers, plus the
/// chunk's accumulated wire size. Rows are copies — version pointers
/// must not outlive the producing cursor's pin, since Vacuum retires
/// superseded versions concurrently.
struct Batch {
  std::vector<size_t> seqs;
  std::vector<catalog::Row> rows;
  size_t wire_bytes = 0;

  size_t size() const { return rows.size(); }
};

/// A column of evaluation results for one batch, in lane (row) order.
/// Typed tags are the fast path: a kInt / kBool vector holds only
/// non-null, error-free lanes, so kernels run tight loops over
/// primitive arrays. Anything else — NULLs, strings, doubles, mixed
/// runtime types, or per-lane evaluation errors — uses kBoxed, where
/// boxed[i] carries the lane's Value and errs[i] (allocated lazily on
/// the first error) its evaluation failure.
struct Vec {
  enum class Tag { kBoxed, kInt, kBool };

  Tag tag = Tag::kBoxed;
  size_t n = 0;
  std::vector<int64_t> ints;           // tag == kInt
  std::vector<uint8_t> bools;          // tag == kBool (0 / 1)
  std::vector<catalog::Value> boxed;   // tag == kBoxed
  std::vector<Status> errs;            // empty, or one per boxed lane
  bool has_err = false;

  /// Lane value. On boxed vectors callers must check ErrAt(i) first: an
  /// erroring lane's boxed slot holds a NULL placeholder.
  catalog::Value At(size_t i) const {
    switch (tag) {
      case Tag::kInt:
        return catalog::Value::Int(ints[i]);
      case Tag::kBool:
        return catalog::Value::Bool(bools[i] != 0);
      case Tag::kBoxed:
        break;
    }
    return boxed[i];
  }

  bool ErrAt(size_t i) const { return has_err && !errs[i].ok(); }
  const Status& ErrStatus(size_t i) const { return errs[i]; }

  void ResetInt(size_t size) {
    tag = Tag::kInt;
    n = size;
    ints.resize(size);
    bools.clear();
    boxed.clear();
    errs.clear();
    has_err = false;
  }
  void ResetBool(size_t size) {
    tag = Tag::kBool;
    n = size;
    bools.assign(size, 0);
    ints.clear();
    boxed.clear();
    errs.clear();
    has_err = false;
  }
  void ResetBoxed(size_t size) {
    tag = Tag::kBoxed;
    n = size;
    boxed.assign(size, catalog::Value::Null());
    ints.clear();
    bools.clear();
    errs.clear();
    has_err = false;
  }
  void SetErr(size_t i, Status s) {
    if (!has_err) {
      errs.assign(n, Status::OK());
      has_err = true;
    }
    errs[i] = std::move(s);
  }
};

/// A bound scalar expression compiled for batch evaluation over one
/// input row: column references read the positions the binder fixed
/// and '?' parameters become constants, so batch evaluation never walks
/// a frame stack and dispatches once per batch per node instead of once
/// per row. Lane errors follow the row engine's lazy-evaluation
/// semantics exactly: AND masks right-hand errors behind a boolean
/// FALSE left side, OR behind TRUE, and CASE surfaces only the taken
/// branch's error — so batch and row execution select the same error
/// on the same row.
///
/// Compile takes an expression bound with the input row as its only
/// frame, and returns nullptr when it cannot run columnar — a name that
/// bound to a deferred error (unresolved or ambiguous), an EXISTS / NOT
/// EXISTS subquery, or an unbound parameter — and the caller falls back
/// to the row engine, preserving its semantics verbatim.
class CompiledExpr {
 public:
  using ParamLookup = std::function<Result<catalog::Value>(int)>;

  static std::unique_ptr<CompiledExpr> Compile(const BoundExpr& expr,
                                               const ParamLookup& params);

  /// Evaluates over rows[0..n), writing one lane per row into `out`.
  /// Thread-safe: a compiled tree is immutable and may be evaluated by
  /// many shard tasks at once.
  void Eval(const catalog::Row* rows, size_t n, Vec* out) const;

 private:
  CompiledExpr() = default;

  ra::ScalarOp op_ = ra::ScalarOp::kLiteral;
  size_t col_ = 0;               // kColumnRef: positional index
  catalog::Value constant_;      // kLiteral (parameters fold to this)
  std::vector<std::unique_ptr<CompiledExpr>> kids_;
};

/// Appends to `sel` the lane indices whose value in `v` is boolean
/// TRUE — the filter's selection vector. Error lanes never select;
/// callers that must surface errors walk the vector themselves.
void AppendTruthySelection(const Vec& v, std::vector<uint32_t>* sel);

}  // namespace eqsql::exec

#endif  // EQSQL_EXEC_BATCH_H_
