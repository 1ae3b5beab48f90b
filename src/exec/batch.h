#ifndef EQSQL_EXEC_BATCH_H_
#define EQSQL_EXEC_BATCH_H_

#include <cstdint>
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
/// kBatchCapacity rows borrowed from a shard's visible MVCC versions,
/// parallel to their insertion sequence numbers, plus the chunk's
/// accumulated wire size. The lifetime rule: a borrowed row lives until
/// the statement's snapshot pin is released. Vacuum never unlinks a
/// version a pinned snapshot can see, and unlinked versions wait on the
/// TxnManager's retire list until every older pin is gone, so the
/// pointers stay valid for the whole statement, past the cursor that
/// produced them. A row is copied only where it leaves the statement,
/// into a ResultSet.
struct Batch {
  std::vector<size_t> seqs;
  std::vector<const catalog::Row*> rows;
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
  /// Pushes `n` frames at once: a join chain's rows, one per input.
  void PushFrames(const catalog::Row* const* rows, size_t n) {
    frames_.insert(frames_.end(), rows, rows + n);
  }
  void PopFrames(size_t n) { frames_.resize(frames_.size() - n); }

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

/// A bound scalar expression compiled for one execution of the operator
/// evaluating it, over that operator's input tuples: a reference to an
/// input's row reads the (input, column) the binder fixed, while '?'
/// parameters and references to outer frames -- fixed for the execution
/// -- fold to constants, so batch evaluation never walks a frame stack
/// and dispatches once per batch per node instead of once per row.
///
/// Lane errors follow the per-row evaluator's lazy semantics exactly: a
/// name bound to a deferred error (unresolved or ambiguous) and an
/// unbound parameter compile to a node whose every lane carries that
/// error, and the kernels mask lane errors as row-at-a-time evaluation
/// would -- AND behind a boolean FALSE left side, OR behind TRUE, CASE
/// everything but the taken branch. So an error surfaces only on a lane
/// that evaluates it, on the same row with the same status, and never
/// over empty input.
class CompiledExpr {
 public:
  /// Compiles `expr`, bound with the operator's input tuples' rows at
  /// frames `level`, `level + 1`, ..., one per input, reading parameters
  /// and the outer frames 0..level-1 from `ctx`. Returns nullptr for an
  /// expression containing EXISTS or NOT EXISTS: a subquery runs per
  /// row, where row order decides which subplans run and what they bill.
  static std::unique_ptr<CompiledExpr> Compile(const BoundExpr& expr,
                                               size_t level,
                                               const EvalContext& ctx);

  /// Evaluates over n tuples, writing one lane per tuple into `out`:
  /// inputs[i][0..n) are the tuples' rows of input i (a scan chunk
  /// passes its one array). The rows are read in place, never copied.
  /// Thread-safe: a compiled tree is immutable and may be evaluated by
  /// many shard tasks at once.
  void Eval(const catalog::Row* const* const* inputs, size_t n,
            Vec* out) const;

 private:
  CompiledExpr() = default;

  ra::ScalarOp op_ = ra::ScalarOp::kLiteral;
  size_t input_ = 0;             // kColumnRef: the input ...
  size_t col_ = 0;               // ... and the column of its row
  catalog::Value constant_;      // kLiteral (parameters and outer columns
                                 // fold to this)
  Status error_;                 // kLiteral: every lane's error, if set
  std::vector<std::unique_ptr<CompiledExpr>> kids_;
};

/// Appends to `sel` the lane indices whose value in `v` is boolean
/// TRUE — the filter's selection vector. Error lanes never select;
/// callers that must surface errors walk the vector themselves.
void AppendTruthySelection(const Vec& v, std::vector<uint32_t>* sel);

}  // namespace eqsql::exec

#endif  // EQSQL_EXEC_BATCH_H_
