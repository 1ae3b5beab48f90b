#include "baselines/batching_exec.h"

#include "analysis/effects.h"
#include "rules/ra_utils.h"

namespace eqsql::baselines {

using frontend::Expr;
using frontend::ExprKind;
using frontend::ExprPtr;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::StmtPtr;
using ra::RaNode;
using ra::RaNodePtr;
using ra::RaOp;
using ra::ScalarExpr;
using ra::ScalarExprPtr;
using ra::ScalarOp;

namespace {

constexpr char kProbeShape[] =
    "probe is not a single-table selection with its parameters in WHERE";
constexpr char kImpureParam[] =
    "probe parameter depends on more than the loop variable";

/// True when `e` evaluates from the loop variable and literals alone —
/// the condition that makes pre-evaluating one parameter tuple per
/// cursor row safe (the body may mutate every other variable).
bool IsLoopPure(const ExprPtr& e, const std::string& loop_var) {
  if (e == nullptr) return false;
  switch (e->kind()) {
    case ExprKind::kIntLit:
    case ExprKind::kDoubleLit:
    case ExprKind::kStringLit:
    case ExprKind::kBoolLit:
    case ExprKind::kNullLit:
      return true;
    case ExprKind::kVarRef:
      return e->name() == loop_var;
    case ExprKind::kFieldAccess:
      return IsLoopPure(e->object(), loop_var);
    case ExprKind::kUnary:
    case ExprKind::kBinary:
    case ExprKind::kTernary:
      for (const ExprPtr& a : e->args()) {
        if (!IsLoopPure(a, loop_var)) return false;
      }
      return true;
    default:
      return false;
  }
}

/// The effects of every expression under `stmts`, nested bodies
/// included.
void CollectBodyEffects(const std::vector<StmtPtr>& stmts,
                        analysis::StmtEffects* effects) {
  for (const StmtPtr& s : stmts) {
    analysis::CollectExprEffects(s->expr(), effects);
    CollectBodyEffects(s->body(), effects);
    CollectBodyEffects(s->else_body(), effects);
  }
}

/// Counts the `?` parameters under `e` into `*params`; false when `e`
/// holds a subquery, which the join cannot carry.
bool CountParameters(const ScalarExprPtr& e, size_t* params) {
  if (e->op() == ScalarOp::kExists || e->op() == ScalarOp::kNotExists) {
    return false;
  }
  if (e->op() == ScalarOp::kParameter) ++*params;
  for (const ScalarExprPtr& c : e->children()) {
    if (!CountParameters(c, params)) return false;
  }
  return true;
}

/// Rewrites one probe plan into its set-oriented form against the
/// parameter table, or returns false when the plan is not
/// `Project?(Select(Scan R, p))` with all `nparams` parameters in `p`:
///   Project?([__p.rid AS rid, items...],
///            Join(Scan(param table AS __p), Scan R, p[? := __p.pK]))
/// A `SELECT *` probe (no Project) keeps the join's whole output, the
/// parameter table's columns first.
bool RewriteProbe(const RaNodePtr& plan, size_t param_offset, size_t nparams,
                  BatchSite* site) {
  const bool projected = plan->op() == RaOp::kProject;
  const RaNodePtr& select = projected ? plan->child(0) : plan;
  if (select->op() != RaOp::kSelect ||
      select->child(0)->op() != RaOp::kScan) {
    return false;
  }
  size_t in_items = 0;
  for (const ra::ProjectItem& item : plan->project_items()) {
    if (!CountParameters(item.expr, &in_items)) return false;
  }
  size_t in_pred = 0;
  if (in_items != 0 || !CountParameters(select->predicate(), &in_pred) ||
      in_pred != nparams) {
    return false;
  }
  // The parser numbers `?` from 0 left to right, so these are all of
  // them.
  std::vector<ScalarExprPtr> columns;
  for (size_t i = 0; i < nparams; ++i) {
    columns.push_back(
        ScalarExpr::Column("__p.p" + std::to_string(param_offset + i)));
  }
  site->inner_table = select->child(0)->table_name();
  site->batched = rules::BindParameters(
      RaNode::Join(RaNode::Scan(kParamTable, "__p"), select->child(0),
                   select->predicate()),
      columns);
  if (projected) {
    std::vector<ra::ProjectItem> items = {
        {ScalarExpr::Column("__p.rid"), "rid"}};
    items.insert(items.end(), plan->project_items().begin(),
                 plan->project_items().end());
    site->batched = RaNode::Project(site->batched, std::move(items));
  }
  return true;
}

/// Collects batchable probe sites from `stmts`, descending into if
/// branches but not into nested loops. Returns the reason when a
/// parameterized probe cannot be batched (impure argument or
/// unsupported plan shape), empty otherwise.
std::string CollectSites(const std::vector<StmtPtr>& stmts,
                         const SqlResolver& resolve, BatchPlan* plan) {
  for (const StmtPtr& s : stmts) {
    switch (s->kind()) {
      case StmtKind::kForEach:
      case StmtKind::kWhile:
        continue;  // nested loops batch themselves when executed
      case StmtKind::kIf:
        for (const auto* branch : {&s->body(), &s->else_body()}) {
          std::string declined = CollectSites(*branch, resolve, plan);
          if (!declined.empty()) return declined;
        }
        break;
      default:
        break;
    }
    // Walk this statement's expression tree for executeQuery calls.
    std::vector<const Expr*> stack;
    if (s->expr() != nullptr) stack.push_back(s->expr().get());
    while (!stack.empty()) {
      const Expr* e = stack.back();
      stack.pop_back();
      if (e->object() != nullptr) stack.push_back(e->object().get());
      for (const ExprPtr& a : e->args()) stack.push_back(a.get());
      if (e->kind() != ExprKind::kCall || e->name() != "executeQuery" ||
          e->args().size() < 2 ||
          e->arg(0)->kind() != ExprKind::kStringLit) {
        continue;
      }
      BatchSite site;
      site.call = e;
      for (size_t i = 1; i < e->args().size(); ++i) {
        if (!IsLoopPure(e->arg(i), plan->loop_var)) return kImpureParam;
        site.params.push_back(e->arg(i));
      }
      Result<RaNodePtr> probe = resolve(e->arg(0)->string_value());
      if (!probe.ok() || !RewriteProbe(*probe, plan->param_columns,
                                       site.params.size(), &site)) {
        return kProbeShape;
      }
      plan->param_columns += site.params.size();
      plan->sites.push_back(std::move(site));
    }
  }
  return "";
}

}  // namespace

BatchPlan AnalyzeForEach(const Stmt& loop, const SqlResolver& resolve) {
  BatchPlan plan;
  if (loop.kind() != StmtKind::kForEach) {
    plan.declined = "not a cursor loop";
    return plan;
  }
  plan.loop_var = loop.target();
  analysis::StmtEffects effects;
  CollectBodyEffects(loop.body(), &effects);
  if (effects.writes_db) {
    plan.declined = "the loop body writes the database";
  } else if (effects.has_unknown_call) {
    plan.declined = "the loop body calls a function with unknown effects";
  } else {
    plan.declined = CollectSites(loop.body(), resolve, &plan);
    if (plan.declined.empty() && plan.sites.empty()) {
      plan.declined = "no parameterized probe in the loop body";
    }
  }
  if (!plan.declined.empty()) {
    plan.sites.clear();
    plan.param_columns = 0;
    return plan;
  }
  // A SELECT * probe's output starts with every parameter column.
  for (BatchSite& site : plan.sites) {
    if (site.batched->op() != RaOp::kProject) {
      site.leading_columns = 1 + plan.param_columns;
    }
  }
  return plan;
}

}  // namespace eqsql::baselines
