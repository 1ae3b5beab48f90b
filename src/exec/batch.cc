#include "exec/batch.h"

#include <algorithm>
#include <utility>

#include "exec/scalar_ops.h"

// Batch kernels: tight non-virtual loops over column vectors, one
// dispatch per batch. No per-row interpreter entry points exist in this
// file by contract (scripts/verify.sh greps for them) — boxed lanes go
// through the shared scalar_ops free functions, which are the same
// kernels the per-row evaluator (Executor::Eval) bottoms out in, so
// both compute identical values, NULLs, and error strings.

namespace eqsql::exec {

using catalog::Row;
using catalog::Value;
using ra::ScalarOp;

namespace {

/// Materializes input column `col` for the batch. Optimistically typed:
/// the workloads' hot columns are int-dense, and a kInt vector unlocks
/// the arithmetic/comparison tight loops. Any non-int value (NULL,
/// string, double, bool) restarts the gather boxed.
void GatherColumn(const Row* const* rows, size_t n, size_t col, Vec* out) {
  out->ResetInt(n);
  for (size_t i = 0; i < n; ++i) {
    const Value& v = (*rows[i])[col];
    if (!v.is_int()) {
      out->ResetBoxed(n);
      for (size_t j = 0; j < n; ++j) out->boxed[j] = (*rows[j])[col];
      return;
    }
    out->ints[i] = v.AsInt();
  }
}

void Splat(const Value& v, size_t n, Vec* out) {
  if (v.is_int()) {
    out->ResetInt(n);
    const int64_t x = v.AsInt();
    for (size_t i = 0; i < n; ++i) out->ints[i] = x;
    return;
  }
  if (v.is_bool()) {
    out->ResetBool(n);
    const uint8_t x = v.AsBool() ? 1 : 0;
    for (size_t i = 0; i < n; ++i) out->bools[i] = x;
    return;
  }
  out->ResetBoxed(n);
  for (size_t i = 0; i < n; ++i) out->boxed[i] = v;
}

/// Copies the earlier of the two lanes' errors into `out` (left side
/// wins, matching per-row left-to-right evaluation).
/// Returns true when the lane erred.
bool PropagateBinaryErr(const Vec& l, const Vec& r, size_t i, Vec* out) {
  if (l.ErrAt(i)) {
    out->SetErr(i, l.ErrStatus(i));
    return true;
  }
  if (r.ErrAt(i)) {
    out->SetErr(i, r.ErrStatus(i));
    return true;
  }
  return false;
}

/// Writes lane `i` of a boxed `out`: the value, or the evaluation error.
void SetLane(Result<Value> v, size_t i, Vec* out) {
  if (!v.ok()) {
    out->SetErr(i, v.status());
  } else {
    out->boxed[i] = std::move(*v);
  }
}

void EvalArithVec(ScalarOp op, const Vec& l, const Vec& r, size_t n,
                  Vec* out) {
  if (l.tag == Vec::Tag::kInt && r.tag == Vec::Tag::kInt) {
    bool divisor_safe = true;
    if (op == ScalarOp::kDiv || op == ScalarOp::kMod) {
      for (size_t i = 0; i < n; ++i) {
        if (r.ints[i] == 0) {
          divisor_safe = false;  // x/0 is NULL (MySQL) — lane goes boxed
          break;
        }
      }
    }
    if (divisor_safe) {
      out->ResetInt(n);
      const int64_t* a = l.ints.data();
      const int64_t* b = r.ints.data();
      int64_t* o = out->ints.data();
      switch (op) {
        case ScalarOp::kAdd:
          for (size_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
          return;
        case ScalarOp::kSub:
          for (size_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
          return;
        case ScalarOp::kMul:
          for (size_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
          return;
        case ScalarOp::kDiv:
          for (size_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
          return;
        case ScalarOp::kMod:
          for (size_t i = 0; i < n; ++i) o[i] = a[i] % b[i];
          return;
        default:
          break;  // unreachable; fall through to the boxed loop
      }
    }
  }
  out->ResetBoxed(n);
  for (size_t i = 0; i < n; ++i) {
    if (PropagateBinaryErr(l, r, i, out)) continue;
    SetLane(EvalArithmetic(op, l.At(i), r.At(i)), i, out);
  }
}

void EvalCompareVec(ScalarOp op, const Vec& l, const Vec& r, size_t n,
                    Vec* out) {
  if (l.tag == Vec::Tag::kInt && r.tag == Vec::Tag::kInt) {
    out->ResetBool(n);
    const int64_t* a = l.ints.data();
    const int64_t* b = r.ints.data();
    uint8_t* o = out->bools.data();
    switch (op) {
      case ScalarOp::kEq:
        for (size_t i = 0; i < n; ++i) o[i] = a[i] == b[i];
        return;
      case ScalarOp::kNe:
        for (size_t i = 0; i < n; ++i) o[i] = a[i] != b[i];
        return;
      case ScalarOp::kLt:
        for (size_t i = 0; i < n; ++i) o[i] = a[i] < b[i];
        return;
      case ScalarOp::kLe:
        for (size_t i = 0; i < n; ++i) o[i] = a[i] <= b[i];
        return;
      case ScalarOp::kGt:
        for (size_t i = 0; i < n; ++i) o[i] = a[i] > b[i];
        return;
      case ScalarOp::kGe:
        for (size_t i = 0; i < n; ++i) o[i] = a[i] >= b[i];
        return;
      default:
        break;
    }
  }
  out->ResetBoxed(n);
  for (size_t i = 0; i < n; ++i) {
    if (PropagateBinaryErr(l, r, i, out)) continue;
    SetLane(EvalComparison(op, l.At(i), r.At(i)), i, out);
  }
}

/// AND/OR with per-row evaluation's lazy masking: a deciding left side
/// (FALSE for AND, TRUE for OR) suppresses the right side entirely,
/// including its errors — row-at-a-time evaluation never reaches it.
void EvalAndVec(const Vec& l, const Vec& r, size_t n, Vec* out) {
  if (l.tag == Vec::Tag::kBool && r.tag == Vec::Tag::kBool) {
    out->ResetBool(n);
    for (size_t i = 0; i < n; ++i) out->bools[i] = l.bools[i] & r.bools[i];
    return;
  }
  out->ResetBoxed(n);
  for (size_t i = 0; i < n; ++i) {
    if (l.ErrAt(i)) {
      out->SetErr(i, l.ErrStatus(i));
      continue;
    }
    const Value lv = l.At(i);
    if (lv.is_bool() && !lv.AsBool()) {
      out->boxed[i] = Value::Bool(false);
      continue;
    }
    if (r.ErrAt(i)) {
      out->SetErr(i, r.ErrStatus(i));
      continue;
    }
    SetLane(EvalAnd(lv, r.At(i)), i, out);
  }
}

void EvalOrVec(const Vec& l, const Vec& r, size_t n, Vec* out) {
  if (l.tag == Vec::Tag::kBool && r.tag == Vec::Tag::kBool) {
    out->ResetBool(n);
    for (size_t i = 0; i < n; ++i) out->bools[i] = l.bools[i] | r.bools[i];
    return;
  }
  out->ResetBoxed(n);
  for (size_t i = 0; i < n; ++i) {
    if (l.ErrAt(i)) {
      out->SetErr(i, l.ErrStatus(i));
      continue;
    }
    const Value lv = l.At(i);
    if (lv.is_bool() && lv.AsBool()) {
      out->boxed[i] = Value::Bool(true);
      continue;
    }
    if (r.ErrAt(i)) {
      out->SetErr(i, r.ErrStatus(i));
      continue;
    }
    SetLane(EvalOr(lv, r.At(i)), i, out);
  }
}

}  // namespace

Result<Value> EvalContext::LookupParameter(int index) const {
  if (params_ == nullptr || index < 0 ||
      static_cast<size_t>(index) >= params_->size()) {
    return Status::InvalidArgument("parameter index out of range: " +
                                   std::to_string(index));
  }
  return (*params_)[index];
}

std::unique_ptr<CompiledExpr> CompiledExpr::Compile(const BoundExpr& expr,
                                                    size_t level,
                                                    const EvalContext& ctx) {
  std::unique_ptr<CompiledExpr> node(new CompiledExpr());
  node->op_ = expr.op;
  switch (expr.op) {
    case ScalarOp::kColumnRef:
      if (!expr.error.ok()) {
        node->op_ = ScalarOp::kLiteral;
        node->error_ = expr.error;
      } else if (expr.level < level) {
        node->op_ = ScalarOp::kLiteral;
        node->constant_ = ctx.Column(expr.level, expr.column);
      } else {
        node->col_ = expr.column;
      }
      return node;
    case ScalarOp::kLiteral:
      node->constant_ = expr.literal;
      return node;
    case ScalarOp::kParameter: {
      Result<Value> v = ctx.LookupParameter(expr.param);
      node->op_ = ScalarOp::kLiteral;
      if (v.ok()) {
        node->constant_ = std::move(*v);
      } else {
        node->error_ = v.status();
      }
      return node;
    }
    case ScalarOp::kExists:
    case ScalarOp::kNotExists:
      return nullptr;
    default:
      break;
  }
  node->kids_.reserve(expr.kids.size());
  for (const BoundExpr& c : expr.kids) {
    std::unique_ptr<CompiledExpr> kid = Compile(c, level, ctx);
    if (kid == nullptr) return nullptr;
    node->kids_.push_back(std::move(kid));
  }
  return node;
}

void CompiledExpr::Eval(const Row* const* rows, size_t n, Vec* out) const {
  switch (op_) {
    case ScalarOp::kColumnRef:
      GatherColumn(rows, n, col_, out);
      return;
    case ScalarOp::kLiteral:
      if (!error_.ok()) {
        out->ResetBoxed(n);
        for (size_t i = 0; i < n; ++i) out->SetErr(i, error_);
        return;
      }
      Splat(constant_, n, out);
      return;
    case ScalarOp::kParameter:
      break;  // folded to kLiteral at compile time; unreachable
    case ScalarOp::kAdd:
    case ScalarOp::kSub:
    case ScalarOp::kMul:
    case ScalarOp::kDiv:
    case ScalarOp::kMod: {
      Vec l, r;
      kids_[0]->Eval(rows, n, &l);
      kids_[1]->Eval(rows, n, &r);
      EvalArithVec(op_, l, r, n, out);
      return;
    }
    case ScalarOp::kEq:
    case ScalarOp::kNe:
    case ScalarOp::kLt:
    case ScalarOp::kLe:
    case ScalarOp::kGt:
    case ScalarOp::kGe: {
      Vec l, r;
      kids_[0]->Eval(rows, n, &l);
      kids_[1]->Eval(rows, n, &r);
      EvalCompareVec(op_, l, r, n, out);
      return;
    }
    case ScalarOp::kAnd: {
      Vec l, r;
      kids_[0]->Eval(rows, n, &l);
      kids_[1]->Eval(rows, n, &r);
      EvalAndVec(l, r, n, out);
      return;
    }
    case ScalarOp::kOr: {
      Vec l, r;
      kids_[0]->Eval(rows, n, &l);
      kids_[1]->Eval(rows, n, &r);
      EvalOrVec(l, r, n, out);
      return;
    }
    case ScalarOp::kNot: {
      Vec v;
      kids_[0]->Eval(rows, n, &v);
      if (v.tag == Vec::Tag::kBool) {
        out->ResetBool(n);
        for (size_t i = 0; i < n; ++i) out->bools[i] = v.bools[i] ^ 1;
        return;
      }
      out->ResetBoxed(n);
      for (size_t i = 0; i < n; ++i) {
        if (v.ErrAt(i)) {
          out->SetErr(i, v.ErrStatus(i));
          continue;
        }
        SetLane(EvalNot(v.At(i)), i, out);
      }
      return;
    }
    case ScalarOp::kNeg: {
      Vec v;
      kids_[0]->Eval(rows, n, &v);
      if (v.tag == Vec::Tag::kInt) {
        out->ResetInt(n);
        for (size_t i = 0; i < n; ++i) out->ints[i] = -v.ints[i];
        return;
      }
      out->ResetBoxed(n);
      for (size_t i = 0; i < n; ++i) {
        if (v.ErrAt(i)) {
          out->SetErr(i, v.ErrStatus(i));
          continue;
        }
        const Value x = v.At(i);
        if (x.is_null()) {
          out->boxed[i] = Value::Null();
        } else if (x.is_int()) {
          out->boxed[i] = Value::Int(-x.AsInt());
        } else if (x.is_double()) {
          out->boxed[i] = Value::Double(-x.AsDouble());
        } else {
          out->SetErr(i, Status::RuntimeError("negation of non-numeric value"));
        }
      }
      return;
    }
    case ScalarOp::kConcat: {
      Vec l, r;
      kids_[0]->Eval(rows, n, &l);
      kids_[1]->Eval(rows, n, &r);
      out->ResetBoxed(n);
      for (size_t i = 0; i < n; ++i) {
        if (PropagateBinaryErr(l, r, i, out)) continue;
        SetLane(EvalConcat(l.At(i), r.At(i)), i, out);
      }
      return;
    }
    case ScalarOp::kGreatest:
    case ScalarOp::kLeast: {
      std::vector<Vec> vs(kids_.size());
      bool all_int = !kids_.empty();
      for (size_t k = 0; k < kids_.size(); ++k) {
        kids_[k]->Eval(rows, n, &vs[k]);
        all_int = all_int && vs[k].tag == Vec::Tag::kInt;
      }
      if (all_int) {
        // Typed lanes hold no NULL and no error, so the fold over ints
        // picks the value EvalGreatestLeast would.
        out->ResetInt(n);
        int64_t* o = out->ints.data();
        std::copy(vs[0].ints.begin(), vs[0].ints.begin() + n, o);
        for (size_t k = 1; k < vs.size(); ++k) {
          const int64_t* x = vs[k].ints.data();
          if (op_ == ScalarOp::kGreatest) {
            for (size_t i = 0; i < n; ++i) o[i] = std::max(o[i], x[i]);
          } else {
            for (size_t i = 0; i < n; ++i) o[i] = std::min(o[i], x[i]);
          }
        }
        return;
      }
      out->ResetBoxed(n);
      std::vector<Value> args;
      for (size_t i = 0; i < n; ++i) {
        args.clear();
        bool lane_err = false;
        // Arguments evaluate left to right: the first erroring
        // argument's status wins the lane.
        for (const Vec& v : vs) {
          if (v.ErrAt(i)) {
            out->SetErr(i, v.ErrStatus(i));
            lane_err = true;
            break;
          }
          args.push_back(v.At(i));
        }
        if (lane_err) continue;
        SetLane(EvalGreatestLeast(op_ == ScalarOp::kGreatest, args), i, out);
      }
      return;
    }
    case ScalarOp::kCase: {
      Vec cond, then_v, else_v;
      kids_[0]->Eval(rows, n, &cond);
      kids_[1]->Eval(rows, n, &then_v);
      kids_[2]->Eval(rows, n, &else_v);
      out->ResetBoxed(n);
      for (size_t i = 0; i < n; ++i) {
        if (cond.ErrAt(i)) {
          out->SetErr(i, cond.ErrStatus(i));
          continue;
        }
        // Only the taken branch's lane surfaces — row-at-a-time
        // evaluation never reaches the untaken branch.
        const Vec& taken = IsTruthy(cond.At(i)) ? then_v : else_v;
        if (taken.ErrAt(i)) {
          out->SetErr(i, taken.ErrStatus(i));
        } else {
          out->boxed[i] = taken.At(i);
        }
      }
      return;
    }
    case ScalarOp::kIsNull: {
      Vec v;
      kids_[0]->Eval(rows, n, &v);
      if (v.tag != Vec::Tag::kBoxed) {
        out->ResetBool(n);  // typed lanes are never NULL: all false
        return;
      }
      out->ResetBoxed(n);
      for (size_t i = 0; i < n; ++i) {
        if (v.ErrAt(i)) {
          out->SetErr(i, v.ErrStatus(i));
          continue;
        }
        out->boxed[i] = Value::Bool(v.boxed[i].is_null());
      }
      return;
    }
    case ScalarOp::kExists:
    case ScalarOp::kNotExists:
      break;  // never compiled; unreachable
  }
  // Unreachable by construction: Compile rejects anything it cannot
  // evaluate. Produce an all-error vector rather than crash.
  out->ResetBoxed(n);
  for (size_t i = 0; i < n; ++i) {
    out->SetErr(i, Status::Internal("CompiledExpr: unknown operator"));
  }
}

void AppendTruthySelection(const Vec& v, std::vector<uint32_t>* sel) {
  if (v.tag == Vec::Tag::kBool) {
    const uint8_t* b = v.bools.data();
    for (uint32_t i = 0; i < v.n; ++i) {
      if (b[i] != 0) sel->push_back(i);
    }
    return;
  }
  if (v.tag == Vec::Tag::kInt) return;  // an int lane is never TRUE
  for (uint32_t i = 0; i < v.n; ++i) {
    if (!v.ErrAt(i) && IsTruthy(v.boxed[i])) sel->push_back(i);
  }
}

}  // namespace eqsql::exec
