#include "exec/scalar_ops.h"

#include <cmath>

namespace eqsql::exec {

using catalog::Value;

Result<Value> EvalArithmetic(ra::ScalarOp op, const Value& lhs,
                             const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  // String + string is concatenation in ImpLang; route through concat.
  if (op == ra::ScalarOp::kAdd && (lhs.is_string() || rhs.is_string())) {
    return EvalConcat(lhs, rhs);
  }
  if (!lhs.is_numeric() || !rhs.is_numeric()) {
    return Status::RuntimeError("arithmetic on non-numeric values: " +
                                lhs.ToString() + " vs " + rhs.ToString());
  }
  bool both_int = lhs.is_int() && rhs.is_int();
  if (both_int) {
    int64_t a = lhs.AsInt(), b = rhs.AsInt();
    switch (op) {
      case ra::ScalarOp::kAdd: return Value::Int(a + b);
      case ra::ScalarOp::kSub: return Value::Int(a - b);
      case ra::ScalarOp::kMul: return Value::Int(a * b);
      case ra::ScalarOp::kDiv:
        if (b == 0) return Value::Null();  // MySQL: x/0 is NULL
        return Value::Int(a / b);
      case ra::ScalarOp::kMod:
        if (b == 0) return Value::Null();
        return Value::Int(a % b);
      default:
        break;
    }
  } else {
    double a = lhs.AsNumeric(), b = rhs.AsNumeric();
    switch (op) {
      case ra::ScalarOp::kAdd: return Value::Double(a + b);
      case ra::ScalarOp::kSub: return Value::Double(a - b);
      case ra::ScalarOp::kMul: return Value::Double(a * b);
      case ra::ScalarOp::kDiv:
        if (b == 0.0) return Value::Null();
        return Value::Double(a / b);
      case ra::ScalarOp::kMod:
        if (b == 0.0) return Value::Null();
        return Value::Double(std::fmod(a, b));
      default:
        break;
    }
  }
  return Status::Internal("EvalArithmetic called with non-arithmetic op");
}

Result<Value> EvalComparison(ra::ScalarOp op, const Value& lhs,
                             const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  // Cross-type numeric comparison is fine; other cross-type comparisons
  // are a type error (ImpLang and our SQL subset are strongly typed).
  bool comparable = (lhs.is_numeric() && rhs.is_numeric()) ||
                    (lhs.is_string() && rhs.is_string()) ||
                    (lhs.is_bool() && rhs.is_bool());
  if (!comparable) {
    return Status::RuntimeError("cannot compare " + lhs.ToString() + " with " +
                                rhs.ToString());
  }
  bool eq = (lhs == rhs);
  bool lt = (lhs < rhs);
  switch (op) {
    case ra::ScalarOp::kEq: return Value::Bool(eq);
    case ra::ScalarOp::kNe: return Value::Bool(!eq);
    case ra::ScalarOp::kLt: return Value::Bool(lt);
    case ra::ScalarOp::kLe: return Value::Bool(lt || eq);
    case ra::ScalarOp::kGt: return Value::Bool(!lt && !eq);
    case ra::ScalarOp::kGe: return Value::Bool(!lt);
    default:
      return Status::Internal("EvalComparison called with non-comparison op");
  }
}

namespace {

/// The error for a logic operand that is neither boolean nor NULL.
Status NotBoolean(const char* op, const Value& v) {
  return Status::RuntimeError(std::string(op) + " of non-boolean value " +
                              v.ToString());
}

}  // namespace

Result<Value> EvalAnd(const Value& lhs, const Value& rhs) {
  // Kleene logic: FALSE dominates.
  bool lf = lhs.is_bool() && !lhs.AsBool();
  bool rf = rhs.is_bool() && !rhs.AsBool();
  if (lf || rf) return Value::Bool(false);
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (!lhs.is_bool()) return NotBoolean("AND", lhs);
  if (!rhs.is_bool()) return NotBoolean("AND", rhs);
  return Value::Bool(lhs.AsBool() && rhs.AsBool());
}

Result<Value> EvalOr(const Value& lhs, const Value& rhs) {
  bool lt = lhs.is_bool() && lhs.AsBool();
  bool rt = rhs.is_bool() && rhs.AsBool();
  if (lt || rt) return Value::Bool(true);
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (!lhs.is_bool()) return NotBoolean("OR", lhs);
  if (!rhs.is_bool()) return NotBoolean("OR", rhs);
  return Value::Bool(lhs.AsBool() || rhs.AsBool());
}

Result<Value> EvalNot(const Value& v) {
  if (v.is_null()) return Value::Null();
  if (!v.is_bool()) return NotBoolean("NOT", v);
  return Value::Bool(!v.AsBool());
}

namespace {

std::string Stringify(const Value& v) {
  if (v.is_string()) return v.AsString();
  if (v.is_int()) return std::to_string(v.AsInt());
  if (v.is_bool()) return v.AsBool() ? "true" : "false";
  return v.ToString();
}

}  // namespace

Result<Value> EvalConcat(const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  return Value::String(Stringify(lhs) + Stringify(rhs));
}

Result<Value> EvalGreatestLeast(bool greatest,
                                const std::vector<Value>& args) {
  if (args.empty()) {
    return Status::InvalidArgument("GREATEST/LEAST needs >= 1 argument");
  }
  for (const Value& v : args) {
    if (v.is_null()) return Value::Null();  // MySQL semantics
  }
  Value best = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    bool take = greatest ? (best < args[i]) : (args[i] < best);
    if (take) best = args[i];
  }
  return best;
}

bool IsTruthy(const Value& v) { return v.is_bool() && v.AsBool(); }

}  // namespace eqsql::exec
