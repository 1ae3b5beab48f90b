#include "baselines/batching_exec.h"

#include <cctype>
#include <set>

namespace eqsql::baselines {

using frontend::Expr;
using frontend::ExprKind;
using frontend::ExprPtr;
using frontend::Stmt;
using frontend::StmtKind;
using frontend::StmtPtr;

namespace {

/// Builtins whose evaluation cannot touch the database (executeQuery is
/// handled separately; executeUpdate disqualifies the loop outright).
bool IsPureBuiltin(const std::string& name) {
  static const std::set<std::string> kPure = {
      "scalar", "max", "min", "abs", "coalesce",
      "list",   "set", "pair", "tuple", "concat"};
  return kPure.count(name) > 0;
}

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

/// Scans every expression under `stmts` for calls that disqualify
/// batching: executeUpdate (the prefetched join must not observe the
/// body's writes) and non-builtin calls (unknown effects).
bool ExprSafe(const ExprPtr& e) {
  if (e == nullptr) return true;
  if (e->kind() == ExprKind::kCall) {
    if (e->name() == "executeUpdate") return false;
    if (e->name() != "executeQuery" && !IsPureBuiltin(e->name())) return false;
  }
  if (e->object() != nullptr && !ExprSafe(e->object())) return false;
  for (const ExprPtr& a : e->args()) {
    if (!ExprSafe(a)) return false;
  }
  return true;
}

bool BodySafe(const std::vector<StmtPtr>& stmts) {
  for (const StmtPtr& s : stmts) {
    if (!ExprSafe(s->expr())) return false;
    if (!BodySafe(s->body()) || !BodySafe(s->else_body())) return false;
  }
  return true;
}

std::string UpperCopy(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(
                          static_cast<unsigned char>(c)));
  return out;
}

/// Textually rewrites one parameterized probe into its set-oriented
/// form. Only the shape the batching literature targets is handled —
///   SELECT <cols> FROM <table> [AS <alias>] WHERE <pred with ?>
/// — single table, no *, no nested query, no ORDER BY / GROUP BY /
/// LIMIT tail. Everything else returns false and the loop stays
/// unbatched. The rewrite joins the parameter table on the original
/// predicate with each ? replaced by its uploaded column:
///   SELECT __p.rid AS rid, <cols> FROM <params> AS __p
///     JOIN <table> [AS <alias>] ON <pred with __p.pK>
bool BuildBatchedSql(const std::string& sql, const std::string& param_table,
                     size_t param_offset, size_t nparams,
                     std::string* batched, std::string* inner_table) {
  const std::string u = UpperCopy(sql);
  size_t sel = u.find("SELECT ");
  if (sel != 0) return false;
  size_t fpos = u.find(" FROM ");
  size_t wpos = u.find(" WHERE ");
  if (fpos == std::string::npos || wpos == std::string::npos || wpos < fpos) {
    return false;
  }
  const std::string select_list = sql.substr(7, fpos - 7);
  const std::string from_clause = sql.substr(fpos + 6, wpos - fpos - 6);
  const std::string where_clause = sql.substr(wpos + 7);
  if (select_list.find('*') != std::string::npos) return false;
  if (select_list.find('?') != std::string::npos) return false;
  const std::string ufrom = UpperCopy(from_clause);
  if (ufrom.find(" JOIN ") != std::string::npos ||
      from_clause.find(',') != std::string::npos ||
      from_clause.find('(') != std::string::npos) {
    return false;
  }
  const std::string utail = u.substr(wpos);
  for (const char* banned : {" ORDER BY ", " GROUP BY ", " LIMIT ",
                             "(SELECT", " EXISTS"}) {
    if (utail.find(banned) != std::string::npos) return false;
  }
  // Substitute each ? in order with its parameter-table column.
  std::string pred;
  size_t seen = 0;
  for (char c : where_clause) {
    if (c == '?') {
      pred += "__p.p" + std::to_string(param_offset + seen);
      ++seen;
    } else {
      pred.push_back(c);
    }
  }
  if (seen != nparams) return false;
  // First token of the FROM clause is the probed table's name.
  size_t start = from_clause.find_first_not_of(' ');
  if (start == std::string::npos) return false;
  size_t end = from_clause.find(' ', start);
  *inner_table = from_clause.substr(
      start, end == std::string::npos ? std::string::npos : end - start);
  *batched = "SELECT __p.rid AS rid, " + select_list + " FROM " +
             param_table + " AS __p JOIN " + from_clause + " ON " + pred;
  return true;
}

/// Collects batchable probe sites from `stmts`, descending into if
/// branches but not into nested loops. Returns false when a
/// parameterized probe exists that cannot be batched (impure argument
/// or unsupported SQL shape) — a partially batched loop would still pay
/// per-row round trips, so the caller gives up entirely.
bool CollectSites(const std::vector<StmtPtr>& stmts,
                  const std::string& loop_var, const std::string& param_table,
                  BatchPlan* plan) {
  for (const StmtPtr& s : stmts) {
    switch (s->kind()) {
      case StmtKind::kForEach:
      case StmtKind::kWhile:
        continue;  // nested loops batch themselves when executed
      case StmtKind::kIf:
        if (!CollectSites(s->body(), loop_var, param_table, plan) ||
            !CollectSites(s->else_body(), loop_var, param_table, plan)) {
          return false;
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
      site.sql = e->arg(0)->string_value();
      site.param_offset = plan->param_columns;
      for (size_t i = 1; i < e->args().size(); ++i) {
        if (!IsLoopPure(e->arg(i), loop_var)) return false;
        site.params.push_back(e->arg(i));
      }
      if (!BuildBatchedSql(site.sql, param_table, site.param_offset,
                           site.params.size(), &site.batched_sql,
                           &site.inner_table)) {
        return false;
      }
      plan->param_columns += site.params.size();
      plan->sites.push_back(std::move(site));
    }
  }
  return true;
}

}  // namespace

BatchPlan AnalyzeForEach(const Stmt& loop, const std::string& param_table) {
  BatchPlan plan;
  if (loop.kind() != StmtKind::kForEach) return plan;
  plan.loop_var = loop.target();
  if (!BodySafe(loop.body())) return plan;
  if (!CollectSites(loop.body(), plan.loop_var, param_table, &plan)) {
    plan.sites.clear();
    plan.param_columns = 0;
  }
  return plan;
}

}  // namespace eqsql::baselines
