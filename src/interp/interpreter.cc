#include "interp/interpreter.h"

#include <iterator>
#include <unordered_map>

#include "analysis/effects.h"
#include "baselines/batching_exec.h"
#include "exec/scalar_ops.h"
#include "sql/generator.h"
#include "sql/parser.h"

namespace eqsql::interp {

using catalog::Value;
using frontend::BinOp;
using frontend::Expr;
using frontend::ExprKind;
using frontend::ExprPtr;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::StmtPtr;

namespace {

constexpr int kMaxCallDepth = 64;

Status NotScalar(const RtValue& v, const std::string& what) {
  return Status::RuntimeError(what + " must be a scalar, got " +
                              v.DisplayString());
}

/// NULL-ignoring max/min (see class comment).
Value MaxMinIgnoringNull(bool is_max, const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  bool take_b = is_max ? (a < b) : (b < a);
  return take_b ? b : a;
}

ra::ScalarOp BinToScalarOp(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return ra::ScalarOp::kAdd;
    case BinOp::kSub: return ra::ScalarOp::kSub;
    case BinOp::kMul: return ra::ScalarOp::kMul;
    case BinOp::kDiv: return ra::ScalarOp::kDiv;
    case BinOp::kMod: return ra::ScalarOp::kMod;
    case BinOp::kEq: return ra::ScalarOp::kEq;
    case BinOp::kNe: return ra::ScalarOp::kNe;
    case BinOp::kLt: return ra::ScalarOp::kLt;
    case BinOp::kLe: return ra::ScalarOp::kLe;
    case BinOp::kGt: return ra::ScalarOp::kGt;
    case BinOp::kGe: return ra::ScalarOp::kGe;
    default: return ra::ScalarOp::kAnd;  // unreachable for arithmetic path
  }
}

/// What a call or method site does, fixed at bind time from its name
/// and argument count.
enum class Builtin {
  kNone,  // not a call site
  kExecuteQuery,
  kExecuteUpdate,
  kMax,
  kMin,
  kAbs,
  kCoalesce,
  kScalar,
  kToSet,
  kList,
  kSet,
  kTuple,
  kConcat,
  kUserFunction,
  kUnknownFunction,  // fails once its arguments are evaluated
  kAppend,           // append / add / insert / put
  kSize,
  kContains,
  kUnsupportedMethod,
};

Builtin CallBuiltin(const std::string& name, size_t argc) {
  if (name == "executeQuery") return Builtin::kExecuteQuery;
  if (name == "executeUpdate") return Builtin::kExecuteUpdate;
  if (name == "max") return Builtin::kMax;
  if (name == "min") return Builtin::kMin;
  if (name == "abs" && argc == 1) return Builtin::kAbs;
  if (name == "coalesce" && argc == 2) return Builtin::kCoalesce;
  if (name == "scalar" && argc == 1) return Builtin::kScalar;
  if (name == "toSet" && argc == 1) return Builtin::kToSet;
  if (name == "list") return Builtin::kList;
  if (name == "set") return Builtin::kSet;
  if (name == "pair" || name == "tuple") return Builtin::kTuple;
  if (name == "concat") return Builtin::kConcat;
  return Builtin::kUserFunction;
}

Builtin MethodBuiltin(const std::string& name, size_t argc) {
  if (name == "append" || name == "add" || name == "insert" ||
      name == "put") {
    return Builtin::kAppend;
  }
  if (name == "size") return Builtin::kSize;
  if (name == "contains" && argc == 1) return Builtin::kContains;
  return Builtin::kUnsupportedMethod;
}

}  // namespace

struct Interpreter::BoundExpr {
  const Expr* src = nullptr;
  Builtin builtin = Builtin::kNone;
  /// kVarRef: the frame slot. kUserFunction: the callee's index in the
  /// program.
  size_t index = 0;
  /// Literals, built once.
  RtValue literal;
  /// kFieldAccess / kMethodCall receiver.
  std::unique_ptr<BoundExpr> object;
  /// Operands and arguments, in the order of `src->args()`.
  std::vector<BoundExpr> args;
  /// kFieldAccess: the schema last read here and the field's index in
  /// it. Holding the schema keeps its address from being reused by
  /// another schema while the entry can still match it.
  mutable std::shared_ptr<const catalog::Schema> field_schema;
  mutable size_t field_index = 0;
};

struct Interpreter::BoundStmt {
  const Stmt* src = nullptr;
  /// kAssign target / kForEach cursor slot.
  size_t slot = 0;
  /// Bound `src->expr()`, when it has one.
  BoundExpr expr;
  std::vector<BoundStmt> body;
  std::vector<BoundStmt> else_body;
};

struct Interpreter::BoundFunction {
  size_t slots = 0;
  std::vector<size_t> params;
  std::vector<BoundStmt> body;
};

/// Resolves the names in one scope: each distinct variable to a slot,
/// in order of first appearance, and each call to a builtin or to a
/// program function.
class Interpreter::Binder {
 public:
  explicit Binder(const frontend::Program& program) : program_(program) {}

  size_t Slot(const std::string& name) {
    return slots_.try_emplace(name, slots_.size()).first->second;
  }
  size_t slot_count() const { return slots_.size(); }

  BoundExpr Bind(const Expr& e) {
    BoundExpr out;
    out.src = &e;
    switch (e.kind()) {
      case ExprKind::kIntLit:
        out.literal = Value::Int(e.int_value());
        break;
      case ExprKind::kDoubleLit:
        out.literal = Value::Double(e.double_value());
        break;
      case ExprKind::kStringLit:
        out.literal = Value::String(e.string_value());
        break;
      case ExprKind::kBoolLit:
        out.literal = Value::Bool(e.bool_value());
        break;
      case ExprKind::kNullLit:
        break;
      case ExprKind::kVarRef:
        out.index = Slot(e.name());
        break;
      case ExprKind::kCall:
        out.builtin = CallBuiltin(e.name(), e.args().size());
        if (out.builtin == Builtin::kUserFunction) {
          const frontend::Function* fn = program_.Find(e.name());
          if (fn == nullptr) {
            out.builtin = Builtin::kUnknownFunction;
          } else {
            out.index = static_cast<size_t>(fn - program_.functions.data());
          }
        }
        break;
      case ExprKind::kMethodCall:
        out.builtin = MethodBuiltin(e.name(), e.args().size());
        break;
      case ExprKind::kFieldAccess:
      case ExprKind::kUnary:
      case ExprKind::kBinary:
      case ExprKind::kTernary:
        break;
    }
    if (e.object() != nullptr) {
      out.object = std::make_unique<BoundExpr>(Bind(*e.object()));
    }
    out.args.reserve(e.args().size());
    for (const ExprPtr& arg : e.args()) out.args.push_back(Bind(*arg));
    return out;
  }

  std::vector<BoundStmt> Bind(const std::vector<StmtPtr>& stmts) {
    std::vector<BoundStmt> out;
    out.reserve(stmts.size());
    for (const StmtPtr& stmt : stmts) {
      BoundStmt bound;
      bound.src = stmt.get();
      if (stmt->expr() != nullptr) bound.expr = Bind(*stmt->expr());
      if (stmt->kind() == StmtKind::kAssign ||
          stmt->kind() == StmtKind::kForEach) {
        bound.slot = Slot(stmt->target());
      }
      bound.body = Bind(stmt->body());
      bound.else_body = Bind(stmt->else_body());
      out.push_back(std::move(bound));
    }
    return out;
  }

 private:
  const frontend::Program& program_;
  std::unordered_map<std::string, size_t> slots_;
};

/// What a for loop iterates. A result set is immutable, so its rows are
/// referenced in place; list and set items are a snapshot, so the body
/// may add to the collection without extending the loop.
struct Interpreter::Cursor {
  std::shared_ptr<const ResultSetObject> set;
  std::vector<RtValue> items;

  size_t size() const {
    return set != nullptr ? set->rows.size() : items.size();
  }
  RtValue At(size_t i) const {
    return set != nullptr ? RtValue(RowRef{set, i}) : items[i];
  }
  RtValue Take(size_t i) {
    return set != nullptr ? RtValue(RowRef{set, i}) : std::move(items[i]);
  }
};

Interpreter::Interpreter(const frontend::Program* program,
                         net::Client* client)
    : program_(program),
      client_(client),
      bound_(program->functions.size()) {}

Interpreter::~Interpreter() = default;

Result<RtValue> Interpreter::Run(const std::string& function,
                                 std::vector<RtValue> args) {
  const frontend::Function* fn = program_->Find(function);
  if (fn == nullptr) {
    return Status::NotFound("function not found: " + function);
  }
  return Call(static_cast<size_t>(fn - program_->functions.data()),
              std::move(args));
}

Result<RtValue> Interpreter::Call(size_t index, std::vector<RtValue> args) {
  const frontend::Function& fn = program_->functions[index];
  if (fn.params.size() != args.size()) {
    return Status::InvalidArgument("arity mismatch calling " + fn.name);
  }
  if (call_depth_ >= kMaxCallDepth) {
    return Status::RuntimeError("call depth exceeded in " + fn.name);
  }
  if (bound_[index] == nullptr) {
    Binder binder(*program_);
    auto bound = std::make_unique<BoundFunction>();
    for (const std::string& param : fn.params) {
      bound->params.push_back(binder.Slot(param));
    }
    bound->body = binder.Bind(fn.body);
    bound->slots = binder.slot_count();
    bound_[index] = std::move(bound);
  }
  const BoundFunction& bound = *bound_[index];
  ++call_depth_;
  Frame frame(bound.slots);
  for (size_t i = 0; i < args.size(); ++i) {
    frame[bound.params[i]] = std::move(args[i]);
  }
  RtValue ret;
  Result<Signal> signal = ExecBlock(bound.body, &frame, &ret);
  --call_depth_;
  EQSQL_RETURN_IF_ERROR(signal.status());
  return ret;
}

Result<Interpreter::Signal> Interpreter::ExecBlock(
    const std::vector<BoundStmt>& stmts, Frame* frame, RtValue* ret) {
  for (const BoundStmt& stmt : stmts) {
    EQSQL_ASSIGN_OR_RETURN(Signal signal, ExecStmt(stmt, frame, ret));
    if (signal != Signal::kNone) return signal;
  }
  return Signal::kNone;
}

Result<Interpreter::Signal> Interpreter::ExecStmt(const BoundStmt& stmt,
                                                  Frame* frame,
                                                  RtValue* ret) {
  client_->ChargeClientOps(1);
  switch (stmt.src->kind()) {
    case StmtKind::kAssign: {
      EQSQL_ASSIGN_OR_RETURN((*frame)[stmt.slot], Eval(stmt.expr, frame));
      return Signal::kNone;
    }
    case StmtKind::kExprStmt:
      EQSQL_RETURN_IF_ERROR(Eval(stmt.expr, frame).status());
      return Signal::kNone;
    case StmtKind::kPrint: {
      RtValue scratch;
      EQSQL_ASSIGN_OR_RETURN(const RtValue* value,
                             Read(stmt.expr, frame, &scratch));
      printed_.push_back(value->DisplayString());
      return Signal::kNone;
    }
    case StmtKind::kReturn: {
      if (stmt.src->expr() != nullptr) {
        EQSQL_ASSIGN_OR_RETURN(*ret, Eval(stmt.expr, frame));
      }
      return Signal::kReturn;
    }
    case StmtKind::kBreak:
      return Signal::kBreak;
    case StmtKind::kIf: {
      RtValue scratch;
      EQSQL_ASSIGN_OR_RETURN(const RtValue* cond,
                             Read(stmt.expr, frame, &scratch));
      if (!cond->is_scalar()) return NotScalar(*cond, "if condition");
      return ExecBlock(exec::IsTruthy(cond->scalar()) ? stmt.body
                                                      : stmt.else_body,
                       frame, ret);
    }
    case StmtKind::kForEach:
      return ExecForEach(stmt, frame, ret);
    case StmtKind::kWhile: {
      for (int guard = 0; guard < 10'000'000; ++guard) {
        RtValue scratch;
        EQSQL_ASSIGN_OR_RETURN(const RtValue* cond,
                               Read(stmt.expr, frame, &scratch));
        if (!cond->is_scalar()) return NotScalar(*cond, "while condition");
        if (!exec::IsTruthy(cond->scalar())) return Signal::kNone;
        EQSQL_ASSIGN_OR_RETURN(Signal signal,
                               ExecBlock(stmt.body, frame, ret));
        if (signal == Signal::kBreak) return Signal::kNone;
        if (signal == Signal::kReturn) return Signal::kReturn;
      }
      return Status::RuntimeError("while loop exceeded iteration guard");
    }
  }
  return Status::Internal("ExecStmt: unknown statement kind");
}

Result<Interpreter::Signal> Interpreter::ExecForEach(const BoundStmt& loop,
                                                     Frame* frame,
                                                     RtValue* ret) {
  Cursor cursor;
  {
    RtValue scratch;
    EQSQL_ASSIGN_OR_RETURN(const RtValue* iterable,
                           Read(loop.expr, frame, &scratch));
    if (iterable->is_result_set()) {
      cursor.set = iterable->result_set();
    } else if (iterable->is_list()) {
      cursor.items = iterable->list()->items;
    } else if (iterable->is_set()) {
      cursor.items = iterable->set()->items;
    } else {
      return Status::RuntimeError("cannot iterate over " +
                                  iterable->DisplayString());
    }
  }
  const size_t n = cursor.size();
  // Batching mode: prefetch every pure probe site in one set-oriented
  // join each, then iterate serving probes from the demultiplexed
  // groups. TryBatchForEach declines (false) rather than fails, so the
  // plain loop below is always a valid fallback.
  const bool batched =
      batching_ && n > 0 && TryBatchForEach(*loop.src, cursor);
  const size_t overlay = batched ? overlays_.size() - 1 : 0;
  Result<Signal> out = Signal::kNone;
  for (size_t i = 0; i < n; ++i) {
    if (batched) overlays_[overlay].rid = i;
    (*frame)[loop.slot] = cursor.Take(i);
    Result<Signal> signal = ExecBlock(loop.body, frame, ret);
    if (!signal.ok()) {
      out = signal.status();
      break;
    }
    if (*signal == Signal::kBreak) break;
    if (*signal == Signal::kReturn) {
      out = Signal::kReturn;
      break;
    }
  }
  if (batched) overlays_.pop_back();
  return out;
}

Result<catalog::Value> Interpreter::EvalScalarArg(const BoundExpr& expr,
                                                  Frame* frame) {
  RtValue scratch;
  EQSQL_ASSIGN_OR_RETURN(const RtValue* v, Read(expr, frame, &scratch));
  if (!v->is_scalar()) return NotScalar(*v, "query parameter");
  return v->scalar();
}

Result<const RtValue*> Interpreter::Read(const BoundExpr& expr,
                                         Frame* frame, RtValue* scratch) {
  switch (expr.src->kind()) {
    case ExprKind::kIntLit:
    case ExprKind::kDoubleLit:
    case ExprKind::kStringLit:
    case ExprKind::kBoolLit:
    case ExprKind::kNullLit:
      return &expr.literal;
    case ExprKind::kVarRef: {
      const std::optional<RtValue>& slot = (*frame)[expr.index];
      if (!slot.has_value()) {
        return Status::RuntimeError("undefined variable: " +
                                    expr.src->name());
      }
      return &*slot;
    }
    case ExprKind::kFieldAccess: {
      RtValue holder;
      EQSQL_ASSIGN_OR_RETURN(const Value* field, Field(expr, frame, &holder));
      *scratch = *field;
      return scratch;
    }
    default:
      EQSQL_ASSIGN_OR_RETURN(*scratch, Eval(expr, frame));
      return scratch;
  }
}

Result<const Value*> Interpreter::Field(const BoundExpr& expr, Frame* frame,
                                        RtValue* holder) {
  EQSQL_ASSIGN_OR_RETURN(const RtValue* obj,
                         Read(*expr.object, frame, holder));
  if (!obj->is_row()) {
    return Status::RuntimeError("field access on non-row value: " +
                                expr.src->ToString());
  }
  const RowRef& row = obj->row();
  if (row.schema() != expr.field_schema) {
    const std::string& name = expr.src->name();
    auto idx = row.schema()->IndexOf(name);
    if (!idx.has_value()) {
      return Status::RuntimeError("row has no attribute '" + name +
                                  "' (schema: " + row.schema()->ToString() +
                                  ")");
    }
    expr.field_schema = row.schema();
    expr.field_index = *idx;
  }
  return &row.row()[expr.field_index];
}

Result<RtValue> Interpreter::Eval(const BoundExpr& expr, Frame* frame) {
  const Expr& src = *expr.src;
  switch (src.kind()) {
    case ExprKind::kIntLit:
    case ExprKind::kDoubleLit:
    case ExprKind::kStringLit:
    case ExprKind::kBoolLit:
    case ExprKind::kNullLit:
    case ExprKind::kVarRef: {
      // Reads in place, so never writes the scratch value.
      EQSQL_ASSIGN_OR_RETURN(const RtValue* v, Read(expr, frame, nullptr));
      return *v;
    }
    case ExprKind::kFieldAccess: {
      RtValue holder;
      EQSQL_ASSIGN_OR_RETURN(const Value* field, Field(expr, frame, &holder));
      return RtValue(*field);
    }
    case ExprKind::kUnary: {
      RtValue scratch;
      EQSQL_ASSIGN_OR_RETURN(const RtValue* operand,
                             Read(expr.args[0], frame, &scratch));
      if (!operand->is_scalar()) return NotScalar(*operand, "unary operand");
      const Value& v = operand->scalar();
      if (src.un_op() == frontend::UnOp::kNot) {
        EQSQL_ASSIGN_OR_RETURN(Value negated, exec::EvalNot(v));
        return RtValue(std::move(negated));
      }
      if (v.is_null()) return RtValue(Value::Null());
      if (v.is_int()) return RtValue(Value::Int(-v.AsInt()));
      if (v.is_double()) return RtValue(Value::Double(-v.AsDouble()));
      return Status::RuntimeError("negation of non-numeric value");
    }
    case ExprKind::kBinary: {
      BinOp op = src.bin_op();
      RtValue lhs_scratch;
      EQSQL_ASSIGN_OR_RETURN(const RtValue* lhs,
                             Read(expr.args[0], frame, &lhs_scratch));
      if (op == BinOp::kAnd || op == BinOp::kOr) {
        if (!lhs->is_scalar()) return NotScalar(*lhs, "boolean operand");
        const Value& lv = lhs->scalar();
        // Short circuit.
        if (op == BinOp::kAnd && lv.is_bool() && !lv.AsBool()) {
          return RtValue(Value::Bool(false));
        }
        if (op == BinOp::kOr && lv.is_bool() && lv.AsBool()) {
          return RtValue(Value::Bool(true));
        }
        RtValue rhs_scratch;
        EQSQL_ASSIGN_OR_RETURN(const RtValue* rhs,
                               Read(expr.args[1], frame, &rhs_scratch));
        if (!rhs->is_scalar()) return NotScalar(*rhs, "boolean operand");
        EQSQL_ASSIGN_OR_RETURN(Value v, op == BinOp::kAnd
                                            ? exec::EvalAnd(lv, rhs->scalar())
                                            : exec::EvalOr(lv, rhs->scalar()));
        return RtValue(std::move(v));
      }
      RtValue rhs_scratch;
      EQSQL_ASSIGN_OR_RETURN(const RtValue* rhs,
                             Read(expr.args[1], frame, &rhs_scratch));
      if (!lhs->is_scalar()) return NotScalar(*lhs, "operand");
      if (!rhs->is_scalar()) return NotScalar(*rhs, "operand");
      ra::ScalarOp sop = BinToScalarOp(op);
      if (ra::IsComparisonOp(sop)) {
        EQSQL_ASSIGN_OR_RETURN(
            Value out, exec::EvalComparison(sop, lhs->scalar(), rhs->scalar()));
        return RtValue(std::move(out));
      }
      EQSQL_ASSIGN_OR_RETURN(
          Value out, exec::EvalArithmetic(sop, lhs->scalar(), rhs->scalar()));
      return RtValue(std::move(out));
    }
    case ExprKind::kTernary: {
      RtValue scratch;
      EQSQL_ASSIGN_OR_RETURN(const RtValue* cond,
                             Read(expr.args[0], frame, &scratch));
      if (!cond->is_scalar()) return NotScalar(*cond, "ternary condition");
      return Eval(exec::IsTruthy(cond->scalar()) ? expr.args[1]
                                                 : expr.args[2],
                  frame);
    }
    case ExprKind::kCall:
      return EvalCall(expr, frame);
    case ExprKind::kMethodCall:
      return EvalMethod(expr, frame);
  }
  return Status::Internal("Eval: unknown expression kind");
}

Result<RtValue> Interpreter::EvalCall(const BoundExpr& call, Frame* frame) {
  const std::vector<ExprPtr>& src_args = call.src->args();
  const std::vector<BoundExpr>& args = call.args;
  switch (call.builtin) {
    case Builtin::kExecuteQuery: {
      if (src_args.empty() || src_args[0]->kind() != ExprKind::kStringLit) {
        return Status::RuntimeError("executeQuery needs a literal query");
      }
      // A probe site inside an active batched loop is served from the
      // prefetched groups — no round trip, no parameter evaluation (the
      // purity analysis guarantees the arguments have no side effects).
      for (auto it = overlays_.rbegin(); it != overlays_.rend(); ++it) {
        auto hit = it->sites.find(call.src);
        if (hit != it->sites.end()) return RtValue(hit->second[it->rid]);
      }
      std::vector<Value> params;
      params.reserve(args.size() - 1);
      for (size_t i = 1; i < args.size(); ++i) {
        EQSQL_ASSIGN_OR_RETURN(Value p, EvalScalarArg(args[i], frame));
        params.push_back(std::move(p));
      }
      EQSQL_ASSIGN_OR_RETURN(
          exec::ResultSet rs,
          client_
              ->Perform(net::Request::Query(src_args[0]->string_value(),
                                            std::move(params)))
              .TakeResultSet());
      auto obj = std::make_shared<ResultSetObject>();
      obj->schema = std::move(rs.schema);
      obj->rows = std::move(rs.rows);
      return RtValue(std::shared_ptr<const ResultSetObject>(std::move(obj)));
    }
    case Builtin::kExecuteUpdate: {
      if (src_args.empty() || src_args[0]->kind() != ExprKind::kStringLit) {
        return Status::RuntimeError("executeUpdate needs a literal statement");
      }
      std::vector<Value> params;
      params.reserve(args.size() - 1);
      for (size_t i = 1; i < args.size(); ++i) {
        EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalarArg(args[i], frame));
        params.push_back(std::move(v));
      }
      const std::string& sql = src_args[0]->string_value();
      // BEGIN/COMMIT/ROLLBACK manage the session transaction (the Client
      // behind this interpreter owns a TxnContext that survives across
      // statements, so the transaction spans multiple executeUpdate
      // calls).
      if (net::IsTxnControlStatement(sql)) {
        net::Outcome out = client_->Perform(net::Request::Statement(sql));
        EQSQL_ASSIGN_OR_RETURN(int64_t n, std::move(out).TakeRowCount());
        return RtValue(Value::Int(n));
      }
      // Real DML for the INSERT/UPDATE/DELETE subset; statements outside
      // it (vendor syntax) and writes to tables this simulated server
      // does not hold fall back to cost-only simulation, as the whole
      // engine did before the write path existed.
      Result<int64_t> affected =
          client_->Perform(net::Request::Dml(sql, std::move(params)))
              .TakeRowCount();
      if (affected.ok()) return RtValue(Value::Int(*affected));
      if (affected.status().code() == StatusCode::kParseError ||
          affected.status().code() == StatusCode::kNotFound) {
        client_->Perform(net::Request::SimulatedDml(sql));
        return RtValue(Value::Int(0));
      }
      return affected.status();
    }
    case Builtin::kMax:
    case Builtin::kMin: {
      if (args.size() < 2) {
        return Status::RuntimeError("max/min needs at least two arguments");
      }
      const bool is_max = call.builtin == Builtin::kMax;
      EQSQL_ASSIGN_OR_RETURN(Value acc, EvalScalarArg(args[0], frame));
      for (size_t i = 1; i < args.size(); ++i) {
        EQSQL_ASSIGN_OR_RETURN(Value next, EvalScalarArg(args[i], frame));
        acc = MaxMinIgnoringNull(is_max, acc, next);
      }
      return RtValue(std::move(acc));
    }
    case Builtin::kAbs: {
      EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalarArg(args[0], frame));
      if (v.is_null()) return RtValue(Value::Null());
      if (v.is_int()) return RtValue(Value::Int(std::abs(v.AsInt())));
      return RtValue(Value::Double(std::abs(v.AsNumeric())));
    }
    case Builtin::kCoalesce: {
      EQSQL_ASSIGN_OR_RETURN(Value a, EvalScalarArg(args[0], frame));
      if (!a.is_null()) return RtValue(std::move(a));
      EQSQL_ASSIGN_OR_RETURN(Value b, EvalScalarArg(args[1], frame));
      return RtValue(std::move(b));
    }
    case Builtin::kScalar: {
      RtValue scratch;
      EQSQL_ASSIGN_OR_RETURN(const RtValue* rs,
                             Read(args[0], frame, &scratch));
      if (!rs->is_result_set()) {
        return Status::RuntimeError("scalar() expects a query result");
      }
      const std::vector<catalog::Row>& rows = rs->result_set()->rows;
      if (rows.empty() || rows[0].empty()) return RtValue(Value::Null());
      return RtValue(rows[0][0]);
    }
    case Builtin::kToSet: {
      RtValue scratch;
      EQSQL_ASSIGN_OR_RETURN(const RtValue* rs,
                             Read(args[0], frame, &scratch));
      if (!rs->is_result_set()) {
        return Status::RuntimeError("toSet() expects a query result");
      }
      auto out = std::make_shared<SetObject>();
      for (const catalog::Row& row : rs->result_set()->rows) {
        if (row.size() == 1) {
          out->Insert(RtValue(row[0]));
        } else {
          auto tuple = std::make_shared<TupleObject>();
          for (const catalog::Value& v : row) tuple->items.push_back(RtValue(v));
          out->Insert(RtValue(std::move(tuple)));
        }
      }
      return RtValue(std::move(out));
    }
    case Builtin::kList:
      return RtValue(std::make_shared<ListObject>());
    case Builtin::kSet:
      return RtValue(std::make_shared<SetObject>());
    case Builtin::kTuple: {
      auto tuple = std::make_shared<TupleObject>();
      tuple->items.reserve(args.size());
      for (const BoundExpr& arg : args) {
        EQSQL_ASSIGN_OR_RETURN(RtValue v, Eval(arg, frame));
        tuple->items.push_back(std::move(v));
      }
      return RtValue(std::move(tuple));
    }
    case Builtin::kConcat: {
      std::string out;
      for (const BoundExpr& arg : args) {
        RtValue scratch;
        EQSQL_ASSIGN_OR_RETURN(const RtValue* v, Read(arg, frame, &scratch));
        v->AppendDisplay(&out);
      }
      return RtValue(Value::String(std::move(out)));
    }
    case Builtin::kUserFunction:
    case Builtin::kUnknownFunction: {
      std::vector<RtValue> values;
      values.reserve(args.size());
      for (const BoundExpr& arg : args) {
        EQSQL_ASSIGN_OR_RETURN(RtValue v, Eval(arg, frame));
        values.push_back(std::move(v));
      }
      if (call.builtin == Builtin::kUnknownFunction) {
        return Status::NotFound("function not found: " + call.src->name());
      }
      return Call(call.index, std::move(values));
    }
    default:
      break;
  }
  return Status::Internal("EvalCall: not a call site");
}

Result<RtValue> Interpreter::EvalMethod(const BoundExpr& call, Frame* frame) {
  RtValue scratch;
  EQSQL_ASSIGN_OR_RETURN(const RtValue* obj,
                         Read(*call.object, frame, &scratch));
  const std::string& method = call.src->name();
  switch (call.builtin) {
    case Builtin::kAppend: {
      if (call.args.size() != 1) {
        return Status::RuntimeError(method + " expects one argument");
      }
      EQSQL_ASSIGN_OR_RETURN(RtValue elem, Eval(call.args[0], frame));
      if (obj->is_list()) {
        obj->list()->items.push_back(std::move(elem));
        return *obj;
      }
      if (obj->is_set()) {
        obj->set()->Insert(std::move(elem));
        return *obj;
      }
      return Status::RuntimeError(method + " on non-collection value");
    }
    case Builtin::kSize:
      if (obj->is_list()) {
        return RtValue(
            Value::Int(static_cast<int64_t>(obj->list()->items.size())));
      }
      if (obj->is_set()) {
        return RtValue(
            Value::Int(static_cast<int64_t>(obj->set()->items.size())));
      }
      if (obj->is_result_set()) {
        return RtValue(
            Value::Int(static_cast<int64_t>(obj->result_set()->rows.size())));
      }
      return Status::RuntimeError("size() on non-collection value");
    case Builtin::kContains: {
      RtValue elem_scratch;
      EQSQL_ASSIGN_OR_RETURN(const RtValue* elem,
                             Read(call.args[0], frame, &elem_scratch));
      const std::string key = elem->DisplayString();
      const std::vector<RtValue>* items = nullptr;
      if (obj->is_list()) items = &obj->list()->items;
      if (obj->is_set()) items = &obj->set()->items;
      if (items == nullptr) {
        return Status::RuntimeError("contains() on non-collection value");
      }
      for (const RtValue& item : *items) {
        if (item.DisplayString() == key) return RtValue(Value::Bool(true));
      }
      return RtValue(Value::Bool(false));
    }
    default:
      return Status::RuntimeError("unsupported method: " + method);
  }
}

bool Interpreter::TryBatchForEach(const Stmt& loop, const Cursor& elements) {
  baselines::BatchPlan plan = baselines::AnalyzeForEach(
      loop, [](const std::string& sql) { return sql::ParseSql(sql); });
  if (plan.sites.empty()) return false;
  std::vector<std::string> batched_sql;
  batched_sql.reserve(plan.sites.size());
  for (const baselines::BatchSite& site : plan.sites) {
    Result<std::string> text = sql::GenerateSql(site.batched);
    if (!text.ok()) return false;
    batched_sql.push_back(*std::move(text));
  }

  // Evaluate every site's parameter tuple per cursor element. The
  // purity analysis restricts parameters to literals and loop-variable
  // field paths, so a scope holding only the loop variable (slot 0) is
  // complete; any other variable is undefined and declines the batch.
  Binder binder(*program_);
  binder.Slot(plan.loop_var);
  std::vector<BoundExpr> params;
  params.reserve(plan.param_columns);
  for (const baselines::BatchSite& site : plan.sites) {
    for (const ExprPtr& param : site.params) {
      params.push_back(binder.Bind(*param));
    }
  }
  Frame probe(binder.slot_count());
  std::vector<catalog::Row> rows;
  rows.reserve(elements.size());
  std::vector<catalog::DataType> param_types(plan.param_columns,
                                             catalog::DataType::kNull);
  for (size_t i = 0; i < elements.size(); ++i) {
    probe[0] = elements.At(i);
    catalog::Row row;
    row.reserve(1 + plan.param_columns);
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    for (const BoundExpr& param : params) {
      Result<Value> v = EvalScalarArg(param, &probe);
      if (!v.ok()) return false;
      size_t col = row.size() - 1;
      if (param_types[col] == catalog::DataType::kNull) {
        param_types[col] = v->type();
      }
      row.push_back(*std::move(v));
    }
    rows.push_back(std::move(row));
  }

  std::vector<catalog::Column> columns;
  columns.reserve(1 + plan.param_columns);
  columns.push_back({"rid", catalog::DataType::kInt64});
  for (size_t c = 0; c < plan.param_columns; ++c) {
    // All-NULL parameter columns default to int64 (the table needs a
    // concrete column type; comparisons against NULL are NULL either
    // way).
    columns.push_back({"p" + std::to_string(c),
                       param_types[c] == catalog::DataType::kNull
                           ? catalog::DataType::kInt64
                           : param_types[c]});
  }

  Status created = client_->CreateTempTable(
      baselines::kParamTable, catalog::Schema(std::move(columns)),
      std::move(rows));
  if (!created.ok()) return false;  // e.g. a Client without temp tables

  // One set-oriented join per probe site, demultiplexed by rid (the
  // first column) after dropping the parameter table's leading columns.
  // The table is dropped before the loop body runs, on every path, so a
  // nested batched loop can upload its own under the same name.
  BatchOverlay overlay;
  bool demux_ok = true;
  for (size_t s = 0; s < plan.sites.size(); ++s) {
    const baselines::BatchSite& site = plan.sites[s];
    Result<exec::ResultSet> rs =
        client_->Perform(net::Request::Query(batched_sql[s]))
            .TakeResultSet();
    if (!rs.ok() || rs->schema->size() < site.leading_columns) {
      demux_ok = false;
      break;
    }
    const auto lead = static_cast<std::ptrdiff_t>(site.leading_columns);
    auto group_schema = std::make_shared<catalog::Schema>([&] {
      std::vector<catalog::Column> cols(rs->schema->columns().begin() + lead,
                                        rs->schema->columns().end());
      return catalog::Schema(std::move(cols));
    }());
    std::vector<std::shared_ptr<ResultSetObject>> groups(elements.size());
    for (auto& group : groups) {
      group = std::make_shared<ResultSetObject>();
      group->schema = group_schema;
    }
    for (catalog::Row& row : rs->rows) {
      if (row.empty() || !row[0].is_int()) {
        demux_ok = false;
        break;
      }
      const int64_t rid = row[0].AsInt();
      if (rid < 0 || static_cast<size_t>(rid) >= groups.size()) {
        demux_ok = false;
        break;
      }
      row.erase(row.begin(), row.begin() + lead);
      groups[static_cast<size_t>(rid)]->rows.push_back(std::move(row));
    }
    if (!demux_ok) break;
    overlay.sites[site.call].assign(std::make_move_iterator(groups.begin()),
                                    std::make_move_iterator(groups.end()));
  }
  client_->DropTempTable(baselines::kParamTable);
  if (!demux_ok) return false;
  overlays_.push_back(std::move(overlay));
  return true;
}

}  // namespace eqsql::interp
