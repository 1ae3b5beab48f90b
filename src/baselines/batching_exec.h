#ifndef EQSQL_BASELINES_BATCHING_EXEC_H_
#define EQSQL_BASELINES_BATCHING_EXEC_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "frontend/ast.h"
#include "ra/ra_node.h"

namespace eqsql::baselines {

/// Resolves a probe's SQL text to its parsed plan (the server's plan
/// cache, or sql::ParseSql).
using SqlResolver =
    std::function<Result<ra::RaNodePtr>(const std::string& sql)>;

/// The parameter table every batched loop uploads and joins against
/// (as `__p`). It lives in the uploading session and a loop drops it
/// before its body runs, so one name serves every loop of every session
/// and a batched query's text is the same on every run.
inline constexpr char kParamTable[] = "__batch_params";

/// One parameterized query site inside a batchable cursor loop: an
/// `executeQuery("... ?", args...)` call whose arguments depend only on
/// the loop variable. The batching rewrite [11] uploads one parameter
/// row per cursor row and replaces the per-row probe with a single
/// set-oriented join against the parameter table, demultiplexing the
/// joined rows back to iterations by the uploaded row id.
struct BatchSite {
  const frontend::Expr* call = nullptr;   // the executeQuery call node
  std::vector<frontend::ExprPtr> params;  // arg exprs after the SQL literal
  std::string inner_table;                // probed table (stats lookup)
  /// The probe joined with the parameter table, each `?` replaced by
  /// its uploaded column; the output leads with `__p.rid`.
  ra::RaNodePtr batched;
  /// Leading output columns that are not the probe's own: the row id,
  /// and for a `SELECT *` probe every parameter column too.
  size_t leading_columns = 1;
};

/// A cursor loop the batching baseline can execute set-at-a-time.
/// `sites` empty means the loop is not batched, and `declined` says why.
struct BatchPlan {
  std::string loop_var;
  std::vector<BatchSite> sites;
  size_t param_columns = 0;  // total parameter columns across sites
  std::string declined;
};

/// Analyzes one kForEach statement for batchability. Sites are
/// collected from the loop body and its if-branches but not from nested
/// loops (those batch themselves when executed); the whole body is
/// still checked for effects (analysis::CollectExprEffects), since a
/// prefetched result must not miss a write the body performs. Each
/// probe's SQL resolves through `resolve` and must be
/// `Project?(Select(Scan R, p))` with every `?` inside `p`; any other
/// parameterized probe declines the whole loop, since a partially
/// batched loop still pays per-row round trips.
BatchPlan AnalyzeForEach(const frontend::Stmt& loop,
                         const SqlResolver& resolve);

}  // namespace eqsql::baselines

#endif  // EQSQL_BASELINES_BATCHING_EXEC_H_
