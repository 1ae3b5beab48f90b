#include "dir/builder.h"

#include <algorithm>

#include "analysis/loop_analysis.h"
#include "common/parse_depth.h"
#include "obs/trace.h"
#include "sql/parser.h"

namespace eqsql::dir {

using frontend::Expr;
using frontend::ExprKind;
using frontend::ExprPtr;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::StmtPtr;

namespace {

constexpr int kMaxInlineDepth = 16;
constexpr char kReturnVar[] = "__ret";
constexpr char kOutputVar[] = "__out";

DOp BinOpToDOp(frontend::BinOp op) {
  switch (op) {
    case frontend::BinOp::kAdd: return DOp::kAdd;
    case frontend::BinOp::kSub: return DOp::kSub;
    case frontend::BinOp::kMul: return DOp::kMul;
    case frontend::BinOp::kDiv: return DOp::kDiv;
    case frontend::BinOp::kMod: return DOp::kMod;
    case frontend::BinOp::kEq: return DOp::kEq;
    case frontend::BinOp::kNe: return DOp::kNe;
    case frontend::BinOp::kLt: return DOp::kLt;
    case frontend::BinOp::kLe: return DOp::kLe;
    case frontend::BinOp::kGt: return DOp::kGt;
    case frontend::BinOp::kGe: return DOp::kGe;
    case frontend::BinOp::kAnd: return DOp::kAnd;
    case frontend::BinOp::kOr: return DOp::kOr;
  }
  return DOp::kAdd;
}

}  // namespace

DNodePtr DirBuilder::LookupVar(const std::string& name, Scope scope) {
  auto it = scope.map->find(name);
  if (it != scope.map->end()) return it->second;
  if (std::find(scope.cursors->begin(), scope.cursors->end(), name) !=
      scope.cursors->end()) {
    return ctx_->TupleRef(name);
  }
  return ctx_->RegionInput(name);
}

Result<FunctionDir> DirBuilder::BuildFunction(const frontend::Function& fn) {
  obs::ScopedSpan span("region-analysis+dir");
  if (span.active()) span.Attr("function", fn.name);
  loop_reports_.clear();
  VeMap map;
  map[kOutputVar] = ctx_->EmptyList();
  std::vector<std::string> cursors;
  cfg::RegionPtr root = cfg::BuildRegionTree(fn.body);
  if (root != nullptr) {
    EQSQL_RETURN_IF_ERROR(BuildRegion(root, Scope{&map, &cursors}));
  }
  FunctionDir out;
  out.ve_map = std::move(map);
  out.loop_reports = std::move(loop_reports_);
  return out;
}

Status DirBuilder::BuildRegion(const cfg::RegionPtr& region, Scope scope) {
  if (region == nullptr) return Status::OK();
  switch (region->kind()) {
    case cfg::RegionKind::kBasicBlock:
      for (const StmtPtr& stmt : region->stmts()) {
        EQSQL_RETURN_IF_ERROR(ApplyStmt(stmt, scope));
      }
      return Status::OK();
    case cfg::RegionKind::kSequential:
      EQSQL_RETURN_IF_ERROR(BuildRegion(region->first(), scope));
      return BuildRegion(region->second(), scope);
    case cfg::RegionKind::kConditional: {
      EQSQL_ASSIGN_OR_RETURN(DNodePtr cond, BuildExpr(region->cond(), scope));
      VeMap then_map = *scope.map;
      VeMap else_map = *scope.map;
      EQSQL_RETURN_IF_ERROR(BuildRegion(
          region->true_region(), Scope{&then_map, scope.cursors}));
      EQSQL_RETURN_IF_ERROR(BuildRegion(
          region->false_region(), Scope{&else_map, scope.cursors}));
      // Merge every variable modified in either branch with "?" nodes.
      std::vector<std::string> modified;
      for (const auto& [var, node] : then_map) {
        auto base = scope.map->find(var);
        if (base == scope.map->end() || base->second.get() != node.get()) {
          modified.push_back(var);
        }
      }
      for (const auto& [var, node] : else_map) {
        auto base = scope.map->find(var);
        if ((base == scope.map->end() || base->second.get() != node.get()) &&
            std::find(modified.begin(), modified.end(), var) ==
                modified.end()) {
          modified.push_back(var);
        }
      }
      for (const std::string& var : modified) {
        auto then_it = then_map.find(var);
        auto else_it = else_map.find(var);
        DNodePtr then_v = then_it != then_map.end() ? then_it->second
                                                    : LookupVar(var, scope);
        DNodePtr else_v = else_it != else_map.end() ? else_it->second
                                                    : LookupVar(var, scope);
        (*scope.map)[var] = ctx_->Bounded(ctx_->Cond(cond, then_v, else_v));
      }
      return Status::OK();
    }
    case cfg::RegionKind::kLoop:
      return BuildLoop(*region, scope);
  }
  return Status::Internal("BuildRegion: unknown region kind");
}

Status DirBuilder::ApplyStmt(const StmtPtr& stmt, Scope scope) {
  switch (stmt->kind()) {
    case StmtKind::kAssign: {
      EQSQL_ASSIGN_OR_RETURN(DNodePtr value, BuildExpr(stmt->expr(), scope));
      (*scope.map)[stmt->target()] = ctx_->Bounded(std::move(value));
      return Status::OK();
    }
    case StmtKind::kExprStmt: {
      const ExprPtr& e = stmt->expr();
      if (e->kind() == ExprKind::kMethodCall &&
          analysis::IsCollectionMutation(e->name()) &&
          e->object()->kind() == ExprKind::kVarRef && e->args().size() == 1) {
        const std::string& coll = e->object()->name();
        EQSQL_ASSIGN_OR_RETURN(DNodePtr elem, BuildExpr(e->arg(0), scope));
        DNodePtr base = LookupVar(coll, scope);
        DOp op = e->name() == "append" ? DOp::kAppend : DOp::kInsert;
        (*scope.map)[coll] = ctx_->Bounded(ctx_->Binary(op, base, elem));
        return Status::OK();
      }
      // Other expression statements: evaluate for effects; database
      // updates poison the ve-Map only through loop preconditions.
      return BuildExpr(e, scope).status();
    }
    case StmtKind::kPrint: {
      EQSQL_ASSIGN_OR_RETURN(DNodePtr value, BuildExpr(stmt->expr(), scope));
      DNodePtr base = LookupVar(kOutputVar, scope);
      (*scope.map)[kOutputVar] = ctx_->Bounded(ctx_->Append(base, value));
      return Status::OK();
    }
    case StmtKind::kReturn: {
      DNodePtr value = stmt->expr() == nullptr
                           ? ctx_->Const(catalog::Value::Null())
                           : nullptr;
      if (value == nullptr) {
        EQSQL_ASSIGN_OR_RETURN(value, BuildExpr(stmt->expr(), scope));
      }
      (*scope.map)[kReturnVar] = ctx_->Bounded(std::move(value));
      return Status::OK();
    }
    case StmtKind::kBreak:
      // Loops containing break are rejected by the preconditions; the
      // statement itself has no ve-Map effect.
      return Status::OK();
    default:
      return Status::Internal("ApplyStmt: compound statement in basic block");
  }
}

Status DirBuilder::BuildLoop(const cfg::Region& region, Scope scope) {
  EQSQL_ASSIGN_OR_RETURN(DNodePtr iterable,
                         BuildExpr(region.loop_expr(), scope));
  bool query_backed =
      region.is_cursor_loop() && iterable->op() == DOp::kQuery;

  analysis::LoopBodyInfo info;
  if (region.origin() != nullptr) {
    info = analysis::AnalyzeLoopBody(region.origin()->body(),
                                     region.loop_var());
  }

  // Build the loop body in a scope where variables *written* in the body
  // resolve to region inputs (their values at loop entry) while
  // loop-invariant variables keep their enclosing-scope expressions.
  VeMap body_map = *scope.map;
  for (const std::string& w : info.written) body_map.erase(w);
  body_map.erase(kReturnVar);
  scope.cursors->push_back(region.loop_var());
  Status body_status =
      BuildRegion(region.body(), Scope{&body_map, scope.cursors});
  scope.cursors->pop_back();
  EQSQL_RETURN_IF_ERROR(body_status);

  std::vector<std::string> updated(info.written.begin(), info.written.end());
  if (body_map.count(kReturnVar) > 0) updated.push_back(kReturnVar);
  for (const std::string& var : updated) {
    auto body_it = body_map.find(var);
    if (body_it == body_map.end()) continue;
    const DNodePtr& body_expr = body_it->second;
    if (var == region.loop_var()) continue;
    LoopReport report;
    report.loop = region.origin();
    report.var = var;
    report.body_expr = body_expr;
    report.init = LookupVar(var, scope);
    report.query_node = query_backed ? iterable : nullptr;
    report.tuple_var = region.loop_var();
    if (!query_backed) {
      (*scope.map)[var] = ctx_->Opaque(
          "loop does not iterate over a query result");
      report.reason = "not a cursor loop over a query";
      loop_reports_.push_back(std::move(report));
      continue;
    }
    report.query_backed = true;
    report.preconditions = analysis::ExplainFoldPreconditions(info, var);
    if (report.preconditions.ok && body_expr->depth() > kMaxParseDepth) {
      // The body chained the variable past the bound (Bounded): a fold
      // over an unknown value would not extract anyway.
      report.preconditions.ok = false;
      report.preconditions.gate = body_expr->name();
      report.preconditions.failure = body_expr->name();
    }
    if (!report.preconditions.ok) {
      (*scope.map)[var] = ctx_->Opaque(report.preconditions.failure);
      report.reason = report.preconditions.failure;
      loop_reports_.push_back(std::move(report));
      continue;
    }
    DNodePtr fn = ctx_->InputToAccParam(body_expr, var);
    // Resolve loop-invariant references to enclosing-scope values.
    std::map<std::string, DNodePtr> invariants;
    CollectInvariantInputs(fn, var, scope, &invariants);
    if (!invariants.empty()) fn = ctx_->SubstituteInputs(fn, invariants);
    (*scope.map)[var] = ctx_->Bounded(
        ctx_->Fold(fn, report.init, iterable, region.loop_var()));
    report.converted = true;
    loop_reports_.push_back(std::move(report));
  }
  return Status::OK();
}

Result<DNodePtr> DirBuilder::BuildExpr(const ExprPtr& expr, Scope scope) {
  switch (expr->kind()) {
    case ExprKind::kIntLit:
      return ctx_->Const(catalog::Value::Int(expr->int_value()));
    case ExprKind::kDoubleLit:
      return ctx_->Const(catalog::Value::Double(expr->double_value()));
    case ExprKind::kStringLit:
      return ctx_->Const(catalog::Value::String(expr->string_value()));
    case ExprKind::kBoolLit:
      return ctx_->Const(catalog::Value::Bool(expr->bool_value()));
    case ExprKind::kNullLit:
      return ctx_->Const(catalog::Value::Null());
    case ExprKind::kVarRef:
      return LookupVar(expr->name(), scope);
    case ExprKind::kFieldAccess: {
      if (expr->object()->kind() != ExprKind::kVarRef) {
        return ctx_->Opaque("field access on a computed object");
      }
      DNodePtr base = LookupVar(expr->object()->name(), scope);
      if (base->op() == DOp::kTupleRef) {
        return ctx_->TupleAttr(base->name(), expr->name());
      }
      if (base->op() == DOp::kRegionInput) {
        // A row-valued input (e.g. an inlined function's parameter).
        return ctx_->TupleAttr(base->name(), expr->name());
      }
      return ctx_->Opaque("field access on non-tuple value " +
                          expr->object()->name());
    }
    case ExprKind::kUnary: {
      EQSQL_ASSIGN_OR_RETURN(DNodePtr operand, BuildExpr(expr->arg(0), scope));
      return ctx_->Unary(
          expr->un_op() == frontend::UnOp::kNot ? DOp::kNot : DOp::kNeg,
          operand);
    }
    case ExprKind::kBinary: {
      EQSQL_ASSIGN_OR_RETURN(DNodePtr lhs, BuildExpr(expr->arg(0), scope));
      EQSQL_ASSIGN_OR_RETURN(DNodePtr rhs, BuildExpr(expr->arg(1), scope));
      return ctx_->Binary(BinOpToDOp(expr->bin_op()), lhs, rhs);
    }
    case ExprKind::kTernary: {
      EQSQL_ASSIGN_OR_RETURN(DNodePtr cond, BuildExpr(expr->arg(0), scope));
      EQSQL_ASSIGN_OR_RETURN(DNodePtr then_v, BuildExpr(expr->arg(1), scope));
      EQSQL_ASSIGN_OR_RETURN(DNodePtr else_v, BuildExpr(expr->arg(2), scope));
      return ctx_->Cond(cond, then_v, else_v);
    }
    case ExprKind::kCall: {
      const std::string& name = expr->name();
      if (name == "executeQuery") {
        if (expr->args().empty() ||
            expr->arg(0)->kind() != ExprKind::kStringLit) {
          return ctx_->Opaque("executeQuery with non-literal query text");
        }
        auto parsed = sql::ParseSql(expr->arg(0)->string_value());
        if (!parsed.ok()) {
          return ctx_->Opaque("unparsable query: " +
                              parsed.status().message());
        }
        std::vector<DNodePtr> params;
        for (size_t i = 1; i < expr->args().size(); ++i) {
          EQSQL_ASSIGN_OR_RETURN(DNodePtr p, BuildExpr(expr->arg(i), scope));
          params.push_back(std::move(p));
        }
        return ctx_->Query(*parsed, std::move(params));
      }
      if (name == "executeUpdate") {
        return ctx_->Opaque("database update");
      }
      if (name == "max" || name == "min") {
        if (expr->args().size() < 2) {
          return ctx_->Opaque("max/min needs two arguments");
        }
        DOp op = name == "max" ? DOp::kMax : DOp::kMin;
        EQSQL_ASSIGN_OR_RETURN(DNodePtr acc, BuildExpr(expr->arg(0), scope));
        for (size_t i = 1; i < expr->args().size(); ++i) {
          EQSQL_ASSIGN_OR_RETURN(DNodePtr next, BuildExpr(expr->arg(i), scope));
          acc = ctx_->Binary(op, acc, next);
        }
        return acc;
      }
      if (name == "coalesce" && expr->args().size() == 2) {
        EQSQL_ASSIGN_OR_RETURN(DNodePtr a, BuildExpr(expr->arg(0), scope));
        EQSQL_ASSIGN_OR_RETURN(DNodePtr b, BuildExpr(expr->arg(1), scope));
        return ctx_->Binary(DOp::kCoalesce, a, b);
      }
      if (name == "scalar" && expr->args().size() == 1) {
        EQSQL_ASSIGN_OR_RETURN(DNodePtr a, BuildExpr(expr->arg(0), scope));
        return ctx_->Unary(DOp::kScalar, a);
      }
      if (name == "list") return ctx_->EmptyList();
      if (name == "set") return ctx_->EmptySet();
      if (name == "pair" || name == "tuple") {
        std::vector<DNodePtr> elems;
        for (const ExprPtr& a : expr->args()) {
          EQSQL_ASSIGN_OR_RETURN(DNodePtr e, BuildExpr(a, scope));
          elems.push_back(std::move(e));
        }
        return ctx_->Tuple(std::move(elems));
      }
      if (name == "abs" && expr->args().size() == 1) {
        EQSQL_ASSIGN_OR_RETURN(DNodePtr a, BuildExpr(expr->arg(0), scope));
        // abs(x) == ?[x < 0, -x, x]
        return ctx_->Cond(ctx_->Binary(DOp::kLt, a, ctx_->ConstInt(0)),
                          ctx_->Unary(DOp::kNeg, a), a);
      }
      return InlineCall(*expr, scope);
    }
    case ExprKind::kMethodCall: {
      // Value-position collection mutations and unsupported methods.
      if (analysis::IsCollectionMutation(expr->name()) &&
          expr->object()->kind() == ExprKind::kVarRef &&
          expr->args().size() == 1) {
        DNodePtr base = LookupVar(expr->object()->name(), scope);
        EQSQL_ASSIGN_OR_RETURN(DNodePtr elem, BuildExpr(expr->arg(0), scope));
        DOp op = expr->name() == "append" ? DOp::kAppend : DOp::kInsert;
        return ctx_->Binary(op, base, elem);
      }
      return ctx_->Opaque("unsupported method: " + expr->name());
    }
  }
  return Status::Internal("BuildExpr: unknown expression kind");
}

Result<DNodePtr> DirBuilder::InlineCall(const Expr& call, Scope scope) {
  if (program_ == nullptr) {
    return ctx_->Opaque("call to unknown function " + call.name());
  }
  const frontend::Function* fn = program_->Find(call.name());
  if (fn == nullptr) {
    return ctx_->Opaque("call to unknown function " + call.name());
  }
  if (fn->params.size() != call.args().size()) {
    return ctx_->Opaque("arity mismatch calling " + call.name());
  }
  if (inline_depth_ >= kMaxInlineDepth) {
    return ctx_->Opaque("recursion inlining " + call.name());
  }
  ++inline_depth_;
  VeMap callee_map;
  for (size_t i = 0; i < fn->params.size(); ++i) {
    Result<DNodePtr> arg = BuildExpr(call.args()[i], scope);
    if (!arg.ok()) {
      --inline_depth_;
      return arg.status();
    }
    callee_map[fn->params[i]] = std::move(*arg);
  }
  callee_map[kOutputVar] = LookupVar(kOutputVar, scope);
  std::vector<std::string> callee_cursors;
  cfg::RegionPtr root = cfg::BuildRegionTree(fn->body);
  Status status = BuildRegion(root, Scope{&callee_map, &callee_cursors});
  --inline_depth_;
  EQSQL_RETURN_IF_ERROR(status);
  // Propagate the callee's print effects back to the caller.
  auto out_it = callee_map.find(kOutputVar);
  if (out_it != callee_map.end()) {
    (*scope.map)[kOutputVar] = out_it->second;
  }
  auto ret_it = callee_map.find(kReturnVar);
  if (ret_it != callee_map.end()) return ret_it->second;
  return ctx_->Const(catalog::Value::Null());
}

void DirBuilder::CollectInvariantInputs(
    const DNodePtr& node, const std::string& acc_var, Scope scope,
    std::map<std::string, DNodePtr>* out) {
  if (node->op() == DOp::kRegionInput && node->name() != acc_var) {
    auto it = scope.map->find(node->name());
    if (it != scope.map->end() &&
        !(it->second->op() == DOp::kRegionInput &&
          it->second->name() == node->name())) {
      out->emplace(node->name(), it->second);
    }
  }
  for (const DNodePtr& c : node->children()) {
    CollectInvariantInputs(c, acc_var, scope, out);
  }
}

}  // namespace eqsql::dir
