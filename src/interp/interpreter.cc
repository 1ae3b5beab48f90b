#include "interp/interpreter.h"

#include <atomic>
#include <cstdio>

#include "analysis/effects.h"
#include "baselines/batching_exec.h"
#include "exec/scalar_ops.h"

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

Result<Value> AsScalar(const RtValue& v, const std::string& what) {
  if (!v.is_scalar()) {
    return Status::RuntimeError(what + " must be a scalar, got " +
                                v.DisplayString());
  }
  return v.scalar();
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

/// Source of Interpreter ids.
std::atomic<uint64_t> next_interpreter_id{0};

}  // namespace

Interpreter::Interpreter(const frontend::Program* program,
                         net::Client* client)
    : program_(program),
      client_(client),
      id_(next_interpreter_id.fetch_add(1, std::memory_order_relaxed)) {}

Result<RtValue> Interpreter::Run(const std::string& function,
                                 std::vector<RtValue> args) {
  const frontend::Function* fn = program_->Find(function);
  if (fn == nullptr) {
    return Status::NotFound("function not found: " + function);
  }
  if (fn->params.size() != args.size()) {
    return Status::InvalidArgument("arity mismatch calling " + function);
  }
  if (call_depth_ >= kMaxCallDepth) {
    return Status::RuntimeError("call depth exceeded in " + function);
  }
  ++call_depth_;
  Env env;
  for (size_t i = 0; i < args.size(); ++i) {
    env[fn->params[i]] = std::move(args[i]);
  }
  RtValue ret;
  Result<Signal> signal = ExecBlock(fn->body, &env, &ret);
  --call_depth_;
  EQSQL_RETURN_IF_ERROR(signal.status());
  return ret;
}

Result<Interpreter::Signal> Interpreter::ExecBlock(
    const std::vector<StmtPtr>& stmts, Env* env, RtValue* ret) {
  for (const StmtPtr& stmt : stmts) {
    EQSQL_ASSIGN_OR_RETURN(Signal signal, ExecStmt(stmt, env, ret));
    if (signal != Signal::kNone) return signal;
  }
  return Signal::kNone;
}

Result<Interpreter::Signal> Interpreter::ExecStmt(const StmtPtr& stmt,
                                                  Env* env, RtValue* ret) {
  client_->ChargeClientOps(1);
  switch (stmt->kind()) {
    case StmtKind::kAssign: {
      EQSQL_ASSIGN_OR_RETURN(RtValue value, Eval(stmt->expr(), env));
      (*env)[stmt->target()] = std::move(value);
      return Signal::kNone;
    }
    case StmtKind::kExprStmt:
      EQSQL_RETURN_IF_ERROR(Eval(stmt->expr(), env).status());
      return Signal::kNone;
    case StmtKind::kPrint: {
      EQSQL_ASSIGN_OR_RETURN(RtValue value, Eval(stmt->expr(), env));
      printed_.push_back(value.DisplayString());
      return Signal::kNone;
    }
    case StmtKind::kReturn: {
      if (stmt->expr() != nullptr) {
        EQSQL_ASSIGN_OR_RETURN(*ret, Eval(stmt->expr(), env));
      }
      return Signal::kReturn;
    }
    case StmtKind::kBreak:
      return Signal::kBreak;
    case StmtKind::kIf: {
      EQSQL_ASSIGN_OR_RETURN(RtValue cond, Eval(stmt->expr(), env));
      EQSQL_ASSIGN_OR_RETURN(Value flag, AsScalar(cond, "if condition"));
      bool truthy = exec::IsTruthy(flag);
      return ExecBlock(truthy ? stmt->body() : stmt->else_body(), env, ret);
    }
    case StmtKind::kForEach: {
      EQSQL_ASSIGN_OR_RETURN(RtValue iterable, Eval(stmt->expr(), env));
      std::vector<RtValue> elements;
      if (iterable.is_result_set()) {
        const auto& rs = iterable.result_set();
        for (const catalog::Row& row : rs->rows) {
          auto obj = std::make_shared<RowObject>();
          obj->schema = rs->schema;
          obj->row = row;
          elements.emplace_back(std::move(obj));
        }
      } else if (iterable.is_list()) {
        elements = iterable.list()->items;
      } else if (iterable.is_set()) {
        elements = iterable.set()->items;
      } else {
        return Status::RuntimeError("cannot iterate over " +
                                    iterable.DisplayString());
      }
      // Batching mode: prefetch every pure probe site in one
      // set-oriented join each, then iterate serving probes from the
      // demultiplexed groups. TryBatchForEach declines (false) rather
      // than fails, so the plain loop below is always a valid fallback.
      const bool batched =
          batching_ && !elements.empty() && TryBatchForEach(*stmt, elements);
      const size_t overlay = batched ? overlays_.size() - 1 : 0;
      Result<Signal> out = Signal::kNone;
      size_t rid = 0;
      for (RtValue& element : elements) {
        if (batched) overlays_[overlay].rid = rid;
        ++rid;
        (*env)[stmt->target()] = std::move(element);
        Result<Signal> signal = ExecBlock(stmt->body(), env, ret);
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
      if (!out.ok()) return out.status();
      return *out;
    }
    case StmtKind::kWhile: {
      for (int guard = 0; guard < 10'000'000; ++guard) {
        EQSQL_ASSIGN_OR_RETURN(RtValue cond, Eval(stmt->expr(), env));
        EQSQL_ASSIGN_OR_RETURN(Value flag, AsScalar(cond, "while condition"));
        if (!exec::IsTruthy(flag)) return Signal::kNone;
        EQSQL_ASSIGN_OR_RETURN(Signal signal,
                               ExecBlock(stmt->body(), env, ret));
        if (signal == Signal::kBreak) return Signal::kNone;
        if (signal == Signal::kReturn) return Signal::kReturn;
      }
      return Status::RuntimeError("while loop exceeded iteration guard");
    }
  }
  return Status::Internal("ExecStmt: unknown statement kind");
}

Result<catalog::Value> Interpreter::EvalScalarArg(const ExprPtr& expr,
                                                  Env* env) {
  EQSQL_ASSIGN_OR_RETURN(RtValue v, Eval(expr, env));
  return AsScalar(v, "query parameter");
}

Result<RtValue> Interpreter::Eval(const ExprPtr& expr, Env* env) {
  switch (expr->kind()) {
    case ExprKind::kIntLit:
      return RtValue(Value::Int(expr->int_value()));
    case ExprKind::kDoubleLit:
      return RtValue(Value::Double(expr->double_value()));
    case ExprKind::kStringLit:
      return RtValue(Value::String(expr->string_value()));
    case ExprKind::kBoolLit:
      return RtValue(Value::Bool(expr->bool_value()));
    case ExprKind::kNullLit:
      return RtValue(Value::Null());
    case ExprKind::kVarRef: {
      auto it = env->find(expr->name());
      if (it == env->end()) {
        return Status::RuntimeError("undefined variable: " + expr->name());
      }
      return it->second;
    }
    case ExprKind::kFieldAccess: {
      EQSQL_ASSIGN_OR_RETURN(RtValue obj, Eval(expr->object(), env));
      if (!obj.is_row()) {
        return Status::RuntimeError("field access on non-row value: " +
                                    expr->ToString());
      }
      const auto& row = obj.row();
      auto idx = row->schema->IndexOf(expr->name());
      if (!idx.has_value()) {
        return Status::RuntimeError("row has no attribute '" + expr->name() +
                                    "' (schema: " + row->schema->ToString() +
                                    ")");
      }
      return RtValue(row->row[*idx]);
    }
    case ExprKind::kUnary: {
      EQSQL_ASSIGN_OR_RETURN(RtValue operand, Eval(expr->arg(0), env));
      EQSQL_ASSIGN_OR_RETURN(Value v, AsScalar(operand, "unary operand"));
      if (expr->un_op() == frontend::UnOp::kNot) {
        return RtValue(exec::EvalNot(v));
      }
      if (v.is_null()) return RtValue(Value::Null());
      if (v.is_int()) return RtValue(Value::Int(-v.AsInt()));
      if (v.is_double()) return RtValue(Value::Double(-v.AsDouble()));
      return Status::RuntimeError("negation of non-numeric value");
    }
    case ExprKind::kBinary: {
      BinOp op = expr->bin_op();
      if (op == BinOp::kAnd || op == BinOp::kOr) {
        EQSQL_ASSIGN_OR_RETURN(RtValue lhs, Eval(expr->arg(0), env));
        EQSQL_ASSIGN_OR_RETURN(Value lv, AsScalar(lhs, "boolean operand"));
        // Short circuit.
        if (op == BinOp::kAnd && lv.is_bool() && !lv.AsBool()) {
          return RtValue(Value::Bool(false));
        }
        if (op == BinOp::kOr && lv.is_bool() && lv.AsBool()) {
          return RtValue(Value::Bool(true));
        }
        EQSQL_ASSIGN_OR_RETURN(RtValue rhs, Eval(expr->arg(1), env));
        EQSQL_ASSIGN_OR_RETURN(Value rv, AsScalar(rhs, "boolean operand"));
        return RtValue(op == BinOp::kAnd ? exec::EvalAnd(lv, rv)
                                         : exec::EvalOr(lv, rv));
      }
      EQSQL_ASSIGN_OR_RETURN(RtValue lhs, Eval(expr->arg(0), env));
      EQSQL_ASSIGN_OR_RETURN(RtValue rhs, Eval(expr->arg(1), env));
      EQSQL_ASSIGN_OR_RETURN(Value lv, AsScalar(lhs, "operand"));
      EQSQL_ASSIGN_OR_RETURN(Value rv, AsScalar(rhs, "operand"));
      ra::ScalarOp sop = BinToScalarOp(op);
      if (ra::IsComparisonOp(sop)) {
        EQSQL_ASSIGN_OR_RETURN(Value out, exec::EvalComparison(sop, lv, rv));
        return RtValue(std::move(out));
      }
      EQSQL_ASSIGN_OR_RETURN(Value out, exec::EvalArithmetic(sop, lv, rv));
      return RtValue(std::move(out));
    }
    case ExprKind::kTernary: {
      EQSQL_ASSIGN_OR_RETURN(RtValue cond, Eval(expr->arg(0), env));
      EQSQL_ASSIGN_OR_RETURN(Value flag, AsScalar(cond, "ternary condition"));
      return Eval(exec::IsTruthy(flag) ? expr->arg(1) : expr->arg(2), env);
    }
    case ExprKind::kCall:
      return EvalCall(*expr, env);
    case ExprKind::kMethodCall:
      return EvalMethod(*expr, env);
  }
  return Status::Internal("Eval: unknown expression kind");
}

Result<RtValue> Interpreter::EvalCall(const Expr& call, Env* env) {
  const std::string& name = call.name();
  if (name == "executeQuery") {
    if (call.args().empty() ||
        call.args()[0]->kind() != ExprKind::kStringLit) {
      return Status::RuntimeError("executeQuery needs a literal query");
    }
    // A probe site inside an active batched loop is served from the
    // prefetched groups — no round trip, no parameter evaluation (the
    // purity analysis guarantees the arguments have no side effects).
    for (auto it = overlays_.rbegin(); it != overlays_.rend(); ++it) {
      auto hit = it->sites.find(&call);
      if (hit != it->sites.end()) return RtValue(hit->second[it->rid]);
    }
    std::vector<Value> params;
    for (size_t i = 1; i < call.args().size(); ++i) {
      EQSQL_ASSIGN_OR_RETURN(Value p, EvalScalarArg(call.args()[i], env));
      params.push_back(std::move(p));
    }
    EQSQL_ASSIGN_OR_RETURN(
        exec::ResultSet rs,
        client_
            ->Perform(net::Request::Query(call.args()[0]->string_value(),
                                          std::move(params)))
            .TakeResultSet());
    auto obj = std::make_shared<ResultSetObject>();
    obj->schema = std::make_shared<catalog::Schema>(std::move(rs.schema));
    obj->rows = std::move(rs.rows);
    return RtValue(std::move(obj));
  }
  if (name == "executeUpdate") {
    if (call.args().empty() ||
        call.args()[0]->kind() != ExprKind::kStringLit) {
      return Status::RuntimeError("executeUpdate needs a literal statement");
    }
    std::vector<Value> params;
    params.reserve(call.args().size() - 1);
    for (size_t i = 1; i < call.args().size(); ++i) {
      EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalarArg(call.args()[i], env));
      params.push_back(std::move(v));
    }
    const std::string& sql = call.args()[0]->string_value();
    // BEGIN/COMMIT/ROLLBACK manage the session transaction (the Client
    // behind this interpreter owns a TxnContext that survives across
    // statements, so the transaction spans multiple executeUpdate
    // calls).
    if (net::IsTxnControlStatement(sql)) {
      net::Outcome out =
          client_->Perform(net::Request::Statement(sql));
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
  if (name == "max" || name == "min") {
    if (call.args().size() < 2) {
      return Status::RuntimeError("max/min needs at least two arguments");
    }
    bool is_max = name == "max";
    EQSQL_ASSIGN_OR_RETURN(Value acc, EvalScalarArg(call.args()[0], env));
    for (size_t i = 1; i < call.args().size(); ++i) {
      EQSQL_ASSIGN_OR_RETURN(Value next, EvalScalarArg(call.args()[i], env));
      acc = MaxMinIgnoringNull(is_max, acc, next);
    }
    return RtValue(std::move(acc));
  }
  if (name == "abs" && call.args().size() == 1) {
    EQSQL_ASSIGN_OR_RETURN(Value v, EvalScalarArg(call.args()[0], env));
    if (v.is_null()) return RtValue(Value::Null());
    if (v.is_int()) return RtValue(Value::Int(std::abs(v.AsInt())));
    return RtValue(Value::Double(std::abs(v.AsNumeric())));
  }
  if (name == "coalesce" && call.args().size() == 2) {
    EQSQL_ASSIGN_OR_RETURN(Value a, EvalScalarArg(call.args()[0], env));
    if (!a.is_null()) return RtValue(std::move(a));
    EQSQL_ASSIGN_OR_RETURN(Value b, EvalScalarArg(call.args()[1], env));
    return RtValue(std::move(b));
  }
  if (name == "scalar" && call.args().size() == 1) {
    EQSQL_ASSIGN_OR_RETURN(RtValue rs, Eval(call.args()[0], env));
    if (!rs.is_result_set()) {
      return Status::RuntimeError("scalar() expects a query result");
    }
    if (rs.result_set()->rows.empty() ||
        rs.result_set()->rows[0].empty()) {
      return RtValue(Value::Null());
    }
    return RtValue(rs.result_set()->rows[0][0]);
  }
  if (name == "toSet" && call.args().size() == 1) {
    EQSQL_ASSIGN_OR_RETURN(RtValue rs, Eval(call.args()[0], env));
    if (!rs.is_result_set()) {
      return Status::RuntimeError("toSet() expects a query result");
    }
    auto out = std::make_shared<SetObject>();
    for (const catalog::Row& row : rs.result_set()->rows) {
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
  if (name == "list") return RtValue(std::make_shared<ListObject>());
  if (name == "set") return RtValue(std::make_shared<SetObject>());
  if (name == "pair" || name == "tuple") {
    auto tuple = std::make_shared<TupleObject>();
    for (const ExprPtr& arg : call.args()) {
      EQSQL_ASSIGN_OR_RETURN(RtValue v, Eval(arg, env));
      tuple->items.push_back(std::move(v));
    }
    return RtValue(std::move(tuple));
  }
  if (name == "concat") {
    std::string out;
    for (const ExprPtr& arg : call.args()) {
      EQSQL_ASSIGN_OR_RETURN(RtValue v, Eval(arg, env));
      out += v.DisplayString();
    }
    return RtValue(Value::String(std::move(out)));
  }
  // User-defined function.
  std::vector<RtValue> args;
  for (const ExprPtr& arg : call.args()) {
    EQSQL_ASSIGN_OR_RETURN(RtValue v, Eval(arg, env));
    args.push_back(std::move(v));
  }
  return Run(name, std::move(args));
}

Result<RtValue> Interpreter::EvalMethod(const Expr& call, Env* env) {
  EQSQL_ASSIGN_OR_RETURN(RtValue obj, Eval(call.object(), env));
  const std::string& method = call.name();
  if (method == "append" || method == "add" || method == "insert" ||
      method == "put") {
    if (call.args().size() != 1) {
      return Status::RuntimeError(method + " expects one argument");
    }
    EQSQL_ASSIGN_OR_RETURN(RtValue elem, Eval(call.args()[0], env));
    if (obj.is_list()) {
      obj.list()->items.push_back(std::move(elem));
      return obj;
    }
    if (obj.is_set()) {
      obj.set()->Insert(std::move(elem));
      return obj;
    }
    return Status::RuntimeError(method + " on non-collection value");
  }
  if (method == "size") {
    if (obj.is_list()) {
      return RtValue(Value::Int(static_cast<int64_t>(obj.list()->items.size())));
    }
    if (obj.is_set()) {
      return RtValue(Value::Int(static_cast<int64_t>(obj.set()->items.size())));
    }
    if (obj.is_result_set()) {
      return RtValue(
          Value::Int(static_cast<int64_t>(obj.result_set()->rows.size())));
    }
    return Status::RuntimeError("size() on non-collection value");
  }
  if (method == "contains" && call.args().size() == 1) {
    EQSQL_ASSIGN_OR_RETURN(RtValue elem, Eval(call.args()[0], env));
    std::string key = elem.DisplayString();
    const std::vector<RtValue>* items = nullptr;
    if (obj.is_list()) items = &obj.list()->items;
    if (obj.is_set()) items = &obj.set()->items;
    if (items == nullptr) {
      return Status::RuntimeError("contains() on non-collection value");
    }
    for (const RtValue& item : *items) {
      if (item.DisplayString() == key) return RtValue(Value::Bool(true));
    }
    return RtValue(Value::Bool(false));
  }
  return Status::RuntimeError("unsupported method: " + method);
}

bool Interpreter::TryBatchForEach(const Stmt& loop,
                                  const std::vector<RtValue>& elements) {
  // Parameter table name unique per loop and per interpreter: the name
  // is baked into the rewritten SQL, so reuse across (possibly nested)
  // loops, or by another session batching at the same time, would join
  // against the wrong parameters. The interpreter id is spelled at a
  // fixed width so the SQL length, and with it the simulated byte
  // count, does not depend on how many interpreters ran before.
  char id[17];
  std::snprintf(id, sizeof(id), "%016llx",
                static_cast<unsigned long long>(id_));
  const std::string table = "__batch_p" + std::string(id) + "_" +
                            std::to_string(++batch_seq_);
  baselines::BatchPlan plan = baselines::AnalyzeForEach(loop, table);
  if (plan.sites.empty()) return false;

  // Evaluate every site's parameter tuple per cursor element. The
  // purity analysis restricts parameters to literals and loop-variable
  // field paths, so an environment holding only the loop variable is
  // complete.
  std::vector<catalog::Row> rows;
  rows.reserve(elements.size());
  std::vector<catalog::DataType> param_types(plan.param_columns,
                                             catalog::DataType::kNull);
  for (size_t i = 0; i < elements.size(); ++i) {
    Env probe_env;
    probe_env[plan.loop_var] = elements[i];
    catalog::Row row;
    row.reserve(1 + plan.param_columns);
    row.push_back(Value::Int(static_cast<int64_t>(i)));
    for (const baselines::BatchSite& site : plan.sites) {
      for (const ExprPtr& param : site.params) {
        Result<Value> v = EvalScalarArg(param, &probe_env);
        if (!v.ok()) return false;
        size_t col = row.size() - 1;
        if (param_types[col] == catalog::DataType::kNull) {
          param_types[col] = v->type();
        }
        row.push_back(*std::move(v));
      }
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
      table, catalog::Schema(std::move(columns)), std::move(rows));
  if (!created.ok()) return false;  // e.g. a Client without temp tables

  // One set-oriented join per probe site, demultiplexed by rid. Any
  // failure from here on must drop the uploaded table before declining.
  BatchOverlay overlay;
  for (const baselines::BatchSite& site : plan.sites) {
    Result<exec::ResultSet> rs =
        client_->Perform(net::Request::Query(site.batched_sql))
            .TakeResultSet();
    if (!rs.ok() || rs->schema.size() == 0) {
      client_->DropTempTable(table);
      return false;
    }
    auto group_schema = std::make_shared<catalog::Schema>([&] {
      std::vector<catalog::Column> cols(rs->schema.columns().begin() + 1,
                                        rs->schema.columns().end());
      return catalog::Schema(std::move(cols));
    }());
    std::vector<std::shared_ptr<ResultSetObject>> groups(elements.size());
    for (auto& group : groups) {
      group = std::make_shared<ResultSetObject>();
      group->schema = group_schema;
    }
    bool demux_ok = true;
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
      row.erase(row.begin());
      groups[static_cast<size_t>(rid)]->rows.push_back(std::move(row));
    }
    if (!demux_ok) {
      client_->DropTempTable(table);
      return false;
    }
    overlay.sites[site.call] = std::move(groups);
  }
  client_->DropTempTable(table);
  overlays_.push_back(std::move(overlay));
  return true;
}

}  // namespace eqsql::interp
